"""Labelled-graph power counting: labels, degrees, conditions, rewrites.

Every edge tag has a faithful base label ``(a_e, r_e)``; mollifier-family
edges improve their singularity by spending epsilon powers.  The canonical
labelling spends one epsilon per mollifier edge and sets the auxiliary
parameter to zero; the adjustment after an integration by parts trades a
square-root whisker on the rewritten edge against a whisker of extra
spending on the others, leaving a positive epsilon exponent over.

All label arithmetic is exact over the extended rationals, so "strict for
sufficiently small parameter" is literally lexicographic positivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exts import EXT_ZERO, KB, KB2, SQRT_KB, ExtRational, as_ext
from .feynman import (
    EdgeType,
    FeynmanGraph,
    MOLLIFIER_BY_DERIVS,
    MOLLIFIER_DERIVS,
    MOLLIFIER_TAGS,
    edge_classes,
)

# Base labels at zero spending; the kb flag position marks tags whose
# singularity carries the auxiliary parameter.
_BASE = {
    "K": ((0, 1), 0),
    "K1": ((0, 1), 1),
    "K2": ((0, 1), 2),
    "dK": ((1, 0), 0),
    "dK1": ((1, 0), 1),
    "dK2": ((1, 0), 2),
    "ddK": ((2, 0), -1),
    "MulX": ((-1, 0), 0),
    "XK": ((-1, 1), 0),
    "XdK": ((0, 0), 0),
    "Test": ((0, 0), 0),
    "XTest": ((-1, 0), 0),
    "Rho": ((2, 0), -1),
    "DRho": ((3, 0), -2),
    "DDRho": ((4, 0), -3),
    "Reps": ((4, 1), -2),
    "Geps": ((2, 0), -1),
}

# Renormalisation order once a positive epsilon power is spent.
_R_SPENT = {"Rho": 0, "DRho": -1, "DDRho": -2, "Reps": -2}

# Moment tables for the renormalised kernels (zero-spending convention).
IK_TABLES = {
    "ddK": {(0, 0): Fraction(0)},
    "Rho": {(0, 0): Fraction(1)},
    "DRho": {(0, 0): Fraction(0), (1, 0): Fraction(1), (0, 1): Fraction(0)},
    "DDRho": {
        (0, 0): Fraction(0),
        (1, 0): Fraction(0),
        (0, 1): Fraction(0),
        (2, 0): Fraction(2),
        (1, 1): Fraction(0),
        (0, 2): Fraction(0),
    },
    "Reps": {(0, 0): Fraction(0), (1, 0): Fraction(0), (0, 1): Fraction(0)},
    "Geps": {(0, 0): None},  # the kernel's own integral
}


@dataclass(frozen=True)
class EdgeLabel:
    a: ExtRational
    r: int
    ik: tuple | None = None

    def __post_init__(self):
        if (self.r < 0) != (self.ik is not None):
            raise ValueError("moment table present exactly when r < 0")

    def __str__(self):
        return f"({self.a},{self.r})"


def _ik_for(tag: str, r: int):
    if r >= 0:
        return None
    table = IK_TABLES.get(tag, {})
    return tuple(sorted((k, v) for k, v in table.items() if sum(k) < -r))


def base_label(etype: EdgeType, kbar: bool = False) -> EdgeLabel:
    """The zero-spending label; ``kbar`` keeps the auxiliary whisker."""
    if etype.tag == "DTest":
        raise ValueError("normalise DTest edges away before labelling")
    (q0, qk), r = _BASE[etype.tag]
    a = ExtRational.of(q0, 0, qk if kbar else 0, 0)
    return EdgeLabel(a, r, _ik_for(etype.tag, r))


def spent_label(etype: EdgeType, gamma, kbar: bool = False) -> EdgeLabel:
    """Label of a mollifier-family edge after spending ``epsilon**gamma``."""
    gamma = as_ext(gamma)
    if etype.tag not in MOLLIFIER_TAGS:
        raise ValueError(f"{etype} is not a mollifier-family edge")
    if not gamma.is_positive():
        return base_label(etype, kbar)
    (q0, qk), _ = _BASE[etype.tag]
    a = ExtRational.of(q0, 0, qk if kbar else 0, 0) - gamma
    r = _R_SPENT[etype.tag]
    return EdgeLabel(a, r, _ik_for(etype.tag, r))


@dataclass
class LabelledGraph:
    graph: FeynmanGraph
    labels: list[EdgeLabel]
    leftover: ExtRational = EXT_ZERO

    def a(self, i: int) -> ExtRational:
        return self.labels[i].a

    def r(self, i: int) -> int:
        return self.labels[i].r


def canonical_labelling(graph: FeynmanGraph) -> LabelledGraph:
    """One epsilon per mollifier edge, auxiliary parameter set to zero."""
    classes = edge_classes(graph)
    budget = graph.eps_total()
    if budget != len(classes["E_M"]):
        raise ValueError(
            f"budget mismatch: epsilon^{budget} against {len(classes['E_M'])} mollifiers"
        )
    labels = []
    for i, e in enumerate(graph.edges):
        if i in classes["E_M"]:
            labels.append(spent_label(e.etype, 1))
        else:
            labels.append(base_label(e.etype))
    return LabelledGraph(graph, labels, EXT_ZERO)


def distributed_labelling(
    graph: FeynmanGraph, spends: dict[int, ExtRational], kbar: bool = False
) -> LabelledGraph:
    """Label with an explicit epsilon distribution over mollifier edges."""
    classes = edge_classes(graph)
    total = EXT_ZERO
    labels = []
    for i, e in enumerate(graph.edges):
        if i in classes["E_M"]:
            gamma = as_ext(spends.get(i, 0))
            total = total + gamma
            labels.append(spent_label(e.etype, gamma, kbar))
        else:
            if i in spends:
                raise ValueError(f"edge {i} is not a mollifier")
            labels.append(base_label(e.etype, kbar))
    leftover = ExtRational.of(graph.eps_total()) - total
    if ExtRational.of(0) > leftover:
        raise ValueError("epsilon distribution exceeds the available budget")
    return LabelledGraph(graph, labels, leftover)


def labelled_from_fixture(graph: FeynmanGraph, overrides) -> LabelledGraph:
    """Attach explicit ``(a, r)`` labels from a fixture's label lines."""
    labels = []
    for i, e in enumerate(graph.edges):
        if i in overrides:
            a, r = overrides[i]
            labels.append(EdgeLabel(a, r, _ik_for(e.etype.tag, r)))
        else:
            labels.append(base_label(e.etype))
    return LabelledGraph(graph, labels)


# ---------------------------------------------------------------------------
# Degrees


# Each edge adds ``c_a*a_e + c_r*r_e + c`` to a degree, with the row
# ``(c_a, c_r, c)`` chosen by where the edge sits relative to the subset:
# both ends inside; tail only, r_e > 0; head only, r_e > 0; one end inside,
# r_e <= 0.  Edges with no end inside add nothing.
_DEG2_TABLE = ((-1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
_DEG3_TABLE = ((-1, 0, 0), (-1, -1, 1), (0, 1, 0), (0, 0, 0))
_DEG4_TABLE = ((1, 0, 0), (1, 1, 0), (0, -1, 1), (1, 0, 0))


def _degree(labelled: LabelledGraph, vbar: frozenset, base: int, table) -> ExtRational:
    q0, qh, q1, q2 = base, 0, 0, 0
    for e, label in zip(labelled.graph.edges, labelled.labels):
        tin = e.tail in vbar
        hin = e.head in vbar
        if tin and hin:
            ca, cr, c = table[0]
        elif not (tin or hin):
            continue
        elif label.r <= 0:
            ca, cr, c = table[3]
        else:
            ca, cr, c = table[1] if tin else table[2]
        if ca:
            a = label.a
            q0 += ca * a[0]
            qh += ca * a[1]
            q1 += ca * a[2]
            q2 += ca * a[3]
        q0 += cr * label.r + c
    return ExtRational.of(q0, qh, q1, q2)


def deg2(labelled: LabelledGraph, vbar) -> ExtRational:
    vbar = frozenset(vbar)
    if labelled.graph.root in vbar or len(vbar) < 3:
        raise ValueError("interior condition wants >= 3 vertices away from the root")
    return _degree(labelled, vbar, 2 * (len(vbar) - 1), _DEG2_TABLE)


def deg3(labelled: LabelledGraph, vbar) -> ExtRational:
    vbar = frozenset(vbar)
    if labelled.graph.root not in vbar or len(vbar) < 2:
        raise ValueError("root condition wants the root plus at least one vertex")
    return _degree(labelled, vbar, 2 * (len(vbar) - 1), _DEG3_TABLE)


def deg4(labelled: LabelledGraph, vbar) -> ExtRational:
    vbar = frozenset(vbar)
    if not vbar or vbar & labelled.graph.tested_vertices():
        raise ValueError("inner condition wants a nonempty subset avoiding tested vertices")
    return _degree(labelled, vbar, -2 * len(vbar), _DEG4_TABLE)


def _subsets(pool: list[int], minimum: int):
    for size in range(minimum, len(pool) + 1):
        yield from itertools.combinations(pool, size)


@dataclass
class ConditionReport:
    cond0: bool = True
    cond1: bool = True
    cond0_offenders: list = field(default_factory=list)
    cond1_offenders: list = field(default_factory=list)
    cond2: list = field(default_factory=list)  # (vbar, margin): margin <= 0 entries
    cond3: list = field(default_factory=list)
    cond4: list = field(default_factory=list)
    alpha: ExtRational = EXT_ZERO

    def ok(self) -> bool:
        return (
            self.cond0
            and self.cond1
            and not self.cond2
            and not self.cond3
            and not self.cond4
        )

    def failing(self) -> list[str]:
        out = []
        if not self.cond0:
            out.append("0")
        if not self.cond1:
            out.append("1")
        if self.cond2:
            out.append("2")
        if self.cond3:
            out.append("3")
        if self.cond4:
            out.append("4")
        return out


def lambda_exponent(labelled: LabelledGraph) -> ExtRational:
    graph = labelled.graph
    total = ExtRational.of(2 * (len(graph.kinds) - len(graph.tested_vertices())))
    for i in range(len(graph.edges)):
        total = total - labelled.a(i)
    return total


def check_conditions(labelled: LabelledGraph) -> ConditionReport:
    """Evaluate conditions 0-4 exhaustively; strictness is lexicographic."""
    graph = labelled.graph
    rep = ConditionReport(alpha=lambda_exponent(labelled))
    tested = graph.tested_vertices()
    root = graph.root

    neg_at: dict[int, int] = {}
    for i, e in enumerate(graph.edges):
        r = labelled.r(i)
        # Recentred kernels cannot join two tested vertices; renormalised
        # ones can (the basic variance graphs do exactly that).
        if r > 0 and e.tail in tested and e.head in tested:
            rep.cond0_offenders.append(i)
        if r != 0 and e.touches(root):
            rep.cond0_offenders.append(i)
        if r < 0:
            neg_at[e.tail] = neg_at.get(e.tail, 0) + 1
            neg_at[e.head] = neg_at.get(e.head, 0) + 1
        if not ExtRational.of(2) > labelled.a(i) + ExtRational.of(min(r, 0)):
            rep.cond1_offenders.append(i)
    if any(n > 1 for n in neg_at.values()):
        rep.cond0_offenders.extend(v for v, n in neg_at.items() if n > 1)
    rep.cond0 = not rep.cond0_offenders
    rep.cond1 = not rep.cond1_offenders

    inner = [v for v in graph.vertices() if v != root]
    for combo in _subsets(inner, 3):
        margin = deg2(labelled, combo)
        if not margin.is_positive():
            rep.cond2.append((frozenset(combo), margin))

    for combo in _subsets(inner, 1):
        vbar = frozenset(combo) | {root}
        margin = deg3(labelled, vbar)
        if not margin.is_positive():
            rep.cond3.append((vbar, margin))

    free = [v for v in graph.vertices() if v not in tested]
    for combo in _subsets(free, 1):
        margin = deg4(labelled, combo)
        if not margin.is_positive():
            rep.cond4.append((frozenset(combo), margin))
    return rep


# ---------------------------------------------------------------------------
# Critical subgraphs


def find_critical_subgraphs(graph: FeynmanGraph) -> list[tuple[str, frozenset]]:
    """Four-vertex patterns built on two heavy mollifiers.

    Returns (kind, vertex set) with kind in {'pair', 'segment', 'block'}:
    no connecting plain kernel, one, or two forming a four-cycle.
    """
    classes = edge_classes(graph)
    heavy = sorted(classes["E_M3"])
    out = []
    for i, j in itertools.combinations(heavy, 2):
        e1, e2 = graph.edges[i], graph.edges[j]
        ends1 = {e1.tail, e1.head}
        ends2 = {e2.tail, e2.head}
        if ends1 & ends2:
            continue
        vbar = frozenset(ends1 | ends2)
        connectors = [
            k
            for k in classes["E_K0"]
            if len({graph.edges[k].tail, graph.edges[k].head} & ends1) == 1
            and len({graph.edges[k].tail, graph.edges[k].head} & ends2) == 1
        ]
        if not connectors:
            out.append(("pair", vbar))
        elif len(connectors) == 1:
            out.append(("segment", vbar))
        else:
            # A block needs the two connectors to be vertex-disjoint,
            # closing a four-cycle.
            found_block = False
            for k, l in itertools.combinations(connectors, 2):
                ek, el = graph.edges[k], graph.edges[l]
                if {ek.tail, ek.head} & {el.tail, el.head}:
                    continue
                found_block = True
            out.append(("block" if found_block else "segment", vbar))
    return out


def critical_blocks(graph: FeynmanGraph) -> list[frozenset]:
    return [vbar for kind, vbar in find_critical_subgraphs(graph) if kind == "block"]


# ---------------------------------------------------------------------------
# Integration by parts

_RECEIVE_ONE = {
    ("K", "tail"): "dK",
    ("K", "head"): "dK",
    ("K1", "head"): "dK",
    ("K1", "tail"): "dK1",
    ("K2", "head"): "dK1",
    ("K2", "tail"): "dK2",
    ("Test", "tail"): "DTest",
    ("XTest", "tail"): "Test",
}

def _receive(etype: EdgeType, sides: list[str]) -> EdgeType:
    if len(sides) == 2:
        if etype.tag in ("K", "K1"):
            return EdgeType("ddK")
        raise ValueError(f"{etype} cannot take two derivatives")
    tag = _RECEIVE_ONE.get((etype.tag, sides[0]))
    if tag is None:
        raise ValueError(f"no rewrite rule for a derivative on {etype}")
    if tag == "Test":
        return EdgeType("Test")
    if tag in ("dK", "dK1", "dK2", "DTest"):
        return EdgeType(tag, j=1)
    return EdgeType(tag)


def mollifier_at(graph: FeynmanGraph, v: int) -> int:
    """Index of the unique mollifier edge at a matched vertex."""
    hits = [
        i
        for i, e in enumerate(graph.edges)
        if e.touches(v) and e.etype.tag in MOLLIFIER_TAGS
    ]
    if len(hits) != 1:
        raise ValueError(f"vertex {v} is not matched by exactly one mollifier")
    return hits[0]


def partial_ibp(graph: FeynmanGraph, moves: dict[int, int]) -> FeynmanGraph:
    """Move one mollifier derivative per chosen vertex onto a chosen edge.

    ``moves`` maps a vertex to the receiving edge index at that vertex.  The
    vertex's own mollifier loses one derivative per move; a twice-recentred
    kernel may receive at most one derivative in total.
    """
    taken: dict[int, int] = {}
    received: dict[int, list[str]] = {}
    for v, target in moves.items():
        m = mollifier_at(graph, v)
        if target == m:
            raise ValueError("derivative cannot land on its own mollifier")
        edge = graph.edges[target]
        if not edge.touches(v):
            raise ValueError(f"edge {target} is not incident to vertex {v}")
        taken[m] = taken.get(m, 0) + 1
        if taken[m] > MOLLIFIER_DERIVS[graph.edges[m].etype.tag]:
            raise ValueError("mollifier has no derivative left to move")
        received.setdefault(target, []).append("tail" if edge.tail == v else "head")
    if any(
        len(sides) > 1 and graph.edges[i].etype.tag == "K2"
        for i, sides in received.items()
    ):
        raise ValueError("twice-recentred kernels accept at most one derivative")

    new_edges = []
    for i, e in enumerate(graph.edges):
        if i in taken:
            left = MOLLIFIER_DERIVS[e.etype.tag] - taken[i]
            new_edges.append(replace(e, etype=EdgeType(MOLLIFIER_BY_DERIVS[left])))
        elif i in received:
            new_edges.append(replace(e, etype=_receive(e.etype, received[i])))
        else:
            new_edges.append(e)
    return graph.with_edges(new_edges, name=f"{graph.name}~ibp")


def ibp_receiver_choices(graph: FeynmanGraph, v: int) -> list[int]:
    m = mollifier_at(graph, v)
    out = []
    for i, e in enumerate(graph.edges):
        if i == m or not e.touches(v):
            continue
        side = "tail" if e.tail == v else "head"
        if (e.etype.tag, side) in _RECEIVE_ONE:
            out.append(i)
    return out


def ibp_maps(graph: FeynmanGraph, estar_set) -> list[dict[int, int]]:
    """All simultaneous receiver assignments at the rewritten edges' ends."""
    slots = [
        [(v, c) for c in ibp_receiver_choices(graph, v)]
        for estar in estar_set
        for v in (graph.edges[estar].tail, graph.edges[estar].head)
    ]
    return [dict(combo) for combo in itertools.product(*slots)]


# ---------------------------------------------------------------------------
# Adjusted labelling


def adjusted_labelling(graph_ibp: FeynmanGraph, estar_set) -> LabelledGraph:
    """Post-rewrite labels: plain kernels get a square whisker, the rewritten
    mollifiers trade a root whisker of singularity for epsilon, the rest of
    the mollifiers spend a whisker more.

    ``estar_set`` holds the indices of the rewritten edges.  The leftover
    epsilon exponent is recorded and is lexicographically positive.
    """
    classes = edge_classes(graph_ibp)
    for i in estar_set:
        if graph_ibp.edges[i].etype.tag != "Rho":
            raise ValueError("the rewritten edge must be a spent plain mollifier")
    labels = []
    leftover = EXT_ZERO
    for i, e in enumerate(graph_ibp.edges):
        if i in classes["E_M"]:
            canonical = spent_label(e.etype, 1)
            if i in estar_set:
                c = SQRT_KB
            else:
                c = -KB
            labels.append(EdgeLabel(canonical.a + c, canonical.r, canonical.ik))
            leftover = leftover + c
        elif i in classes["E_K0"]:
            base = base_label(e.etype)
            labels.append(EdgeLabel(KB2, base.r, base.ik))
        else:
            labels.append(base_label(e.etype))
    return LabelledGraph(graph_ibp, labels, leftover)


def lambda_penalty(labelled: LabelledGraph) -> ExtRational:
    """c'(kb): the leftover epsilon exponent plus the plain kernels' whisker."""
    classes = edge_classes(labelled.graph)
    return labelled.leftover + KB2.scale(len(classes["E_K0"]))


# ---------------------------------------------------------------------------
# Test-edge normalisation


def dtest_normalise(graph: FeynmanGraph) -> tuple[FeynmanGraph, int]:
    """Replace derivative/weighted test edges by plain ones.

    Returns the rewritten graph and the accumulated scale exponent: minus one
    per derivative test edge, plus one per weighted test edge.
    """
    shift = 0
    edges = []
    for e in graph.edges:
        if e.etype.tag == "DTest":
            shift -= 1
            edges.append(replace(e, etype=EdgeType("Test")))
        elif e.etype.tag == "XTest":
            shift += 1
            edges.append(replace(e, etype=EdgeType("Test")))
        else:
            edges.append(e)
    return graph.with_edges(edges, name=graph.name), shift
