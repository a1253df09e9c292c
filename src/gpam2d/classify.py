"""Classification of corpus graphs by the rewrite-and-relabel pipeline.

A graph vanishes if some admissible heavy mollifier edge can be integrated
by parts so that every resulting graph passes all counting conditions under
the adjusted labelling, with a positive epsilon exponent left over.  The
exceptional classes are: no admissible edge at all (either one of the
critical graphs feeding the limit, or one of the square-kernel graphs
handled by direct kernel bounds), a failure of the root-anchored condition
already under canonical labels, and failures of the interior condition that
no admissible rewrite repairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .corpus import load_manifest
from .exts import EXT_ZERO, ExtRational
from .feynman import FeynmanGraph, canonical_form
from .powercount import (
    ConditionReport,
    LabelledGraph,
    adjusted_labelling,
    canonical_labelling,
    check_conditions,
    critical_blocks,
    dtest_normalise,
    ibp_maps,
    lambda_exponent,
    lambda_penalty,
    partial_ibp,
)

VANISHES = "VanishesViaAdjustment"
IN_G2 = "InG2"
IN_G3 = "InG3"
IN_G4 = "InG4"
CRITICAL = "Critical"
UNCLASSIFIED = "Unclassified"

# The published class manifests, in the order a listed form is looked up;
# a corpus graph listed in none of them vanishes.
PUBLISHED_CLASSES = (("crit", CRITICAL), ("g2", IN_G2), ("g3", IN_G3), ("g4", IN_G4))

# The one corpus graph whose published verdict (vanishing) admits no
# certificate: every admissible rewrite leaves a failing subset, so the
# pipeline reports InG4.
PUBLISHED_DEFECT = "four_noise_b:b16"


@dataclass
class WitnessCase:
    moves: dict
    graph: FeynmanGraph
    labelled: LabelledGraph
    report: ConditionReport
    scale_shift: int


@dataclass
class Classification:
    verdict: str
    alpha: ExtRational
    estar: int | None = None
    cases: list[WitnessCase] = field(default_factory=list)
    eps_rate: ExtRational = EXT_ZERO
    scale_rate: ExtRational = EXT_ZERO
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "alpha": str(self.alpha),
            "estar": self.estar,
            "eps_rate": str(self.eps_rate),
            "scale_rate": str(self.scale_rate),
            "witnesses": [
                {
                    "moves": {str(v): t for v, t in case.moves.items()},
                    "conditions_pass": case.report.ok(),
                    "alpha": str(case.report.alpha + ExtRational.of(case.scale_shift)),
                }
                for case in self.cases
            ],
            "detail": self.detail,
        }


def admissible_rewrite_edges(graph: FeynmanGraph) -> list[int]:
    """Heavy mollifiers outside every critical block, away from dK edges."""
    blocks = critical_blocks(graph)
    dk_vertices = set()
    for e in graph.edges:
        if e.etype.tag == "dK":
            dk_vertices.update((e.tail, e.head))
    out = []
    for i, e in enumerate(graph.edges):
        if e.etype.tag != "DDRho":
            continue
        if any({e.tail, e.head} <= block for block in blocks):
            continue
        if e.tail in dk_vertices or e.head in dk_vertices:
            continue
        out.append(i)
    return out


def _try_witness(graph: FeynmanGraph, estar_set) -> tuple[bool, list[WitnessCase]]:
    estar_set = sorted(estar_set)
    cases = []
    for moves in ibp_maps(graph, estar_set):
        try:
            rewritten = partial_ibp(graph, moves)
        except ValueError:
            return False, cases
        normalised, shift = dtest_normalise(rewritten)
        labelled = adjusted_labelling(normalised, estar_set)
        report = check_conditions(labelled)
        cases.append(WitnessCase(moves, normalised, labelled, report, shift))
        if not report.ok():
            return False, cases
    return bool(cases), cases


def classify(
    graph: FeynmanGraph,
    crit_forms: frozenset | None = None,
    g2_forms: frozenset | None = None,
) -> Classification:
    normalised, shift = dtest_normalise(graph)
    canonical = canonical_labelling(normalised)
    alpha = lambda_exponent(canonical) + ExtRational.of(shift)

    candidates = admissible_rewrite_edges(graph)
    if not candidates:
        form = canonical_form(graph)
        if crit_forms is not None and form in crit_forms:
            return Classification(CRITICAL, alpha, detail="no admissible rewrite edge")
        if g2_forms is not None and form not in g2_forms:
            return Classification(
                UNCLASSIFIED, alpha, detail="no admissible rewrite edge, not listed"
            )
        return Classification(IN_G2, alpha, detail="no admissible rewrite edge")

    if check_conditions(canonical).cond3:
        return Classification(
            IN_G3, alpha, detail="root-anchored condition fails under canonical labels"
        )

    singles = [[e] for e in candidates]
    pairs = [list(c) for c in itertools.combinations(candidates, 2)]
    for estar_set in singles + pairs:
        ok, cases = _try_witness(graph, estar_set)
        if ok:
            leftover = cases[0].labelled.leftover
            penalty = lambda_penalty(cases[0].labelled)
            return Classification(
                VANISHES,
                alpha,
                estar=estar_set[0] if len(estar_set) == 1 else tuple(estar_set),
                cases=cases,
                eps_rate=leftover,
                scale_rate=penalty,
            )

    return Classification(
        IN_G4, alpha, detail="every admissible rewrite leaves a failing subset"
    )


def manifest_forms(entries) -> frozenset:
    forms = set()
    for entry in entries:
        for g in entry.expand():
            forms.add(canonical_form(g))
    return frozenset(forms)


def published_forms() -> dict[str, frozenset]:
    """Canonical forms of each published class manifest, keyed crit/g2/g3/g4."""
    return {name: manifest_forms(load_manifest(f"class_{name}"))
            for name, _ in PUBLISHED_CLASSES}


def published_verdict(form, forms: dict[str, frozenset]) -> str:
    """The verdict the published partition gives a canonical form."""
    for name, verdict in PUBLISHED_CLASSES:
        if form in forms[name]:
            return verdict
    return VANISHES


def classify_corpus(corpus, crit_forms=None, g2_forms=None):
    """Classify a list of (ref, graph) pairs; returns ref -> Classification."""
    return {
        ref: classify(graph, crit_forms=crit_forms, g2_forms=g2_forms)
        for ref, graph in corpus
    }
