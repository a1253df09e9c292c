from collections import Counter
from fractions import Fraction

import pytest

from gpam2d.classify import (
    CRITICAL,
    IN_G2,
    IN_G3,
    IN_G4,
    UNCLASSIFIED,
    VANISHES,
    _try_witness,
    admissible_rewrite_edges,
    classify,
    classify_corpus,
    manifest_forms,
)
from gpam2d.corpus import classification_corpus, load_graph, load_manifest
from gpam2d.exts import EXT_ZERO, ExtRational
from gpam2d.feynman import canonical_form, edge_classes


@pytest.fixture(scope="module")
def class_forms():
    return {
        name: manifest_forms(load_manifest(f"class_{name}"))
        for name in ("g2", "g3", "g4", "crit", "van")
    }


@pytest.fixture(scope="module")
def corpus_results(class_forms):
    corpus = classification_corpus()
    results = classify_corpus(
        corpus, crit_forms=class_forms["crit"], g2_forms=class_forms["g2"]
    )
    return corpus, results


def expected_verdict(form, class_forms):
    if form in class_forms["crit"]:
        return CRITICAL
    if form in class_forms["g2"]:
        return IN_G2
    if form in class_forms["g3"]:
        return IN_G3
    if form in class_forms["g4"]:
        return IN_G4
    return VANISHES


# The single interleaved noise-free display where no rewrite witness exists:
# its saturated four-vertex subset forces the interior margin down to minus
# the leftover epsilon exponent, so a passing certificate cannot also leave
# epsilon over.  Every other corpus graph matches the published partition.
KNOWN_DEFECT = "four_noise_b:b16"


class TestCorpusPartition:
    def test_partition_matches_published_lists_except_known_defect(
        self, corpus_results, class_forms
    ):
        corpus, results = corpus_results
        mismatches = []
        for ref, graph in corpus:
            want = expected_verdict(canonical_form(graph), class_forms)
            got = results[ref].verdict
            if got != want:
                mismatches.append((ref, got, want))
        assert mismatches == [(KNOWN_DEFECT, IN_G4, VANISHES)]

    def test_verdict_counts(self, corpus_results):
        corpus, results = corpus_results
        counts = Counter(r.verdict for r in results.values())
        assert counts[CRITICAL] == 20
        assert counts[IN_G3] == 1
        assert counts[IN_G2] == 4
        assert counts[IN_G4] == 9  # the published eight plus the defect graph
        assert counts[VANISHES] == len(corpus) - 34

    def test_every_vanishing_witness_is_machine_checked(self, corpus_results):
        corpus, results = corpus_results
        for ref, res in results.items():
            if res.verdict != VANISHES:
                continue
            assert res.cases, ref
            for case in res.cases:
                assert case.report.ok(), ref
            assert res.eps_rate.is_positive(), ref
            # The scale penalty melts away with the auxiliary parameter.
            assert res.scale_rate.q0 == 0 and res.scale_rate.is_positive(), ref

    def test_exceptional_graphs_by_name(self, corpus_results):
        corpus, results = corpus_results
        assert results["four_noise_b:b20"].verdict == IN_G3
        for ref in ("four_noise_a:a12", "four_noise_a:a13", "four_noise_b:b18",
                    "four_noise_b:b19"):
            assert results[ref].verdict == IN_G4, ref
        assert results["four_noise_a:a02"].verdict == CRITICAL
        assert results["four_noise_a:a03"].verdict == CRITICAL

    def test_critical_and_g2_details_name_their_manifest(self, corpus_results):
        corpus, results = corpus_results
        for verdict, name in ((CRITICAL, "crit"), (IN_G2, "g2")):
            details = {r.detail for r in results.values() if r.verdict == verdict}
            assert details == {f"no admissible rewrite edge; listed in the published {name} manifest"}

    def test_without_manifests_nothing_is_critical_or_g2(self, corpus_results):
        # The manifests alone tell Critical from InG2; without them the
        # graphs with no admissible rewrite edge stay unclassified.
        corpus, results = corpus_results
        bare = classify_corpus(corpus)
        listed = {ref for ref, r in results.items() if r.verdict in (CRITICAL, IN_G2)}
        assert {ref for ref, r in bare.items() if r.verdict == UNCLASSIFIED} == listed
        assert {bare[ref].detail for ref in listed} == {
            "no admissible rewrite edge, and no manifest given lists it"}
        assert all(bare[ref].verdict == results[ref].verdict
                   for ref in results if ref not in listed)

    def test_root_condition_verdict_names_its_subset_and_margin(self, corpus_results):
        # The Reps pair joined to the root has root degree exactly zero.
        corpus, results = corpus_results
        assert results["four_noise_b:b20"].detail == (
            "root-anchored condition fails under canonical labels: subset {0,3,4}, margin 0"
        )


class TestKnownDefectIsGenuine:
    def test_every_decomposition_of_the_defect_graph_fails(self):
        graph = load_graph("four_noise_b:b16")
        candidates = admissible_rewrite_edges(graph)
        assert candidates == [4, 5]
        for estar_set in [[4], [5], [4, 5]]:
            ok, cases = _try_witness(graph, estar_set)
            assert not ok, estar_set

    def test_budget_pinch(self):
        # The four inner vertices carry both mollifiers and both chain
        # kernels; with the full budget spent their weight is exactly the
        # interior threshold, so a positive leftover makes the margin
        # negative whenever both derivatives stay inside.
        graph = load_graph("four_noise_b:b16")
        assert graph.eps_total() == 2 == len(edge_classes(graph)["E_M"])


class TestAxisEquivariance:
    @pytest.mark.parametrize("pair", [("b10", "b10j2"), ("b14", "b14j2"),
                                      ("b17", "b17j2"), ("b20", "b20j2")])
    def test_axis_index_does_not_change_the_verdict(self, pair):
        # Raw pipeline, no membership lists: the axis index never enters any
        # counting rule, so verdicts agree between the two instances.
        from gpam2d.feynman import wick_pairings

        base, variant = pair
        g1 = load_graph(f"four_noise_b:{base}")
        g2 = load_graph(f"axis_variants:{variant}")
        expand = lambda g: wick_pairings(g, "all") if g.noise_vertices() else [g]
        v1 = [classify(h).verdict for h in expand(g1)]
        v2 = [classify(h).verdict for h in expand(g2)]
        assert v1 == v2


class TestClassificationReports:
    def test_alpha_records_canonical_exponent(self, corpus_results):
        corpus, results = corpus_results
        g = dict(corpus)["four_noise_a:a02"]
        res = results["four_noise_a:a02"]
        # five vertices, one tested pair: alpha = 2*|V \ V_*| - sum(a)
        assert res.alpha == ExtRational.of(2 * 3) - ExtRational.of(0 + 0 + 0 + 3 + 3)

    def test_report_dict_shape(self, corpus_results):
        corpus, results = corpus_results
        blob = results["four_noise_a:a05|12"].to_dict()
        assert blob["verdict"] == VANISHES
        assert blob["witnesses"]
        assert all(w["conditions_pass"] for w in blob["witnesses"])
