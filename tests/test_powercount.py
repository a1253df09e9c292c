import dataclasses
import itertools
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from conftest import FIXTURE_FILES, scalar_check_conditions
from gpam2d import classify as classify_module, powercount
from gpam2d.corpus import classification_corpus, load_file, load_graph, parse_fixtures
from gpam2d.exts import EXT_ZERO, KB, SQRT_KB, ExtRational, parse_ext
from gpam2d.feynman import EdgeType, edge_classes, validate_structure
from gpam2d.powercount import (
    EdgeLabel,
    adjusted_labelling,
    base_label,
    canonical_labelling,
    check_conditions,
    deg2,
    deg3,
    deg4,
    distributed_labelling,
    dtest_normalise,
    find_critical_subgraphs,
    ibp_maps,
    labelled_from_fixture,
    lambda_exponent,
    partial_ibp,
    spent_label,
)

E = ExtRational.of


def _edge_index(graph, tag, tail=None, head=None):
    for i, e in enumerate(graph.edges):
        if e.etype.tag != tag:
            continue
        if tail is not None and e.tail != tail:
            continue
        if head is not None and e.head != head:
            continue
        return i
    raise LookupError(tag)


class TestLabels:
    @pytest.mark.parametrize(
        "tag,gamma,a,r",
        [
            ("DDRho", 1, E(3), -2),
            ("DRho", 1, E(2), -1),
            ("Rho", 1, E(1), 0),
            ("Reps", 1, E(3), -2),
            ("DDRho", 0, E(4), -3),
        ],
    )
    def test_spent_mollifiers(self, tag, gamma, a, r):
        label = spent_label(EdgeType(tag), gamma)
        assert (label.a, label.r) == (a, r)

    @pytest.mark.parametrize("gamma", [-1, E(0, -1)])
    def test_spent_label_refuses_negative_spend(self, gamma):
        with pytest.raises(ValueError, match="negative spend"):
            spent_label(EdgeType("Rho"), gamma)

    def test_base_table(self):
        assert (base_label(EdgeType("K1")).a, base_label(EdgeType("K1")).r) == (E(0), 1)
        assert base_label(EdgeType("Test")).a == E(0)
        assert base_label(EdgeType("XTest", j=1)).a == E(-1)
        assert base_label(EdgeType("Geps")).r == -1
        orders = {"K": 0, "K1": 1, "dK1": 1, "ddK": -1, "Rho": -1, "DRho": -2, "DDRho": -3,
                  "Reps": -2}
        for tag, r in orders.items():
            et = EdgeType(tag, j=1) if tag in ("dK1",) else EdgeType(tag)
            assert base_label(et).r == r, tag

    def test_label_is_the_pair(self):
        assert [f.name for f in dataclasses.fields(EdgeLabel)] == ["a", "r"]

    @pytest.mark.parametrize(
        "spends, message",
        [({8: -1}, "edge 8: negative spend"), ({99: 1}, "no edge 99"),
         ({0: 1}, "edge 0 is not a mollifier")],
        ids=["negative-spend", "missing-edge", "not-a-mollifier"],
    )
    def test_distributed_labelling_refuses_bad_spends(self, spends, message):
        (graph,) = [g for ref, g in classification_corpus()
                    if ref == "four_noise_a:a01|1234"]
        assert graph.eps_total() == 4 and 8 in edge_classes(graph)["E_M"]
        with pytest.raises(ValueError, match=message):
            distributed_labelling(graph, spends)

    def test_canonical_budget_mismatch(self):
        g = load_graph("two_noise_tree:chain2-mean")  # budget 1, no mollifier spend
        g2 = g.with_edges(g.edges)
        g2.prefactor = Fraction(3)
        with pytest.raises(ValueError):
            canonical_labelling(g2)


class TestDegrees:
    def test_dumbbell_interior_degree_zero(self):
        g = load_graph("dumbbell_variance:var-straight")
        lg = canonical_labelling(g)
        vbar = [v for v in g.vertices() if v != g.root]
        assert deg2(lg, vbar) == EXT_ZERO
        rep = check_conditions(lg)
        assert any(m == EXT_ZERO for _, m in rep.cond2)

    def test_dumbbell_fails_for_every_distribution(self):
        # Whisker grid over the two mollifiers; the interior condition fails
        # (margin at most zero) no matter how the budget is split.
        for name in ("var-straight", "var-crossed"):
            g = load_graph(f"dumbbell_variance:{name}")
            mols = sorted(edge_classes(g)["E_M"])
            grid = [E(0), E(1) - KB, E(1), E(1) + KB, E(2) - KB, E(2)]
            full = [v for v in g.vertices() if v != g.root]
            found_any = False
            for g1, g2_ in itertools.product(grid, repeat=2):
                if (g1 + g2_) > E(2):
                    continue
                lg = distributed_labelling(g, {mols[0]: g1, mols[1]: g2_})
                found_any = True
                assert not deg2(lg, full).is_positive(), (name, g1, g2_)
            assert found_any

    def test_root_degree_zero_for_exceptional_graph(self):
        g = load_graph("four_noise_b:b20")
        normalised, _ = dtest_normalise(g)
        lg = canonical_labelling(normalised)
        reps_pair = {e.tail for e in g.edges if e.etype.tag == "Reps"} | {
            e.head for e in g.edges if e.etype.tag == "Reps"
        }
        assert deg3(lg, reps_pair | {g.root}) == EXT_ZERO

    def test_degree_simplified_formulas_agree(self):
        # Exhaustive cross-check of the closed matching-count forms on a
        # slice of the corpus (the acceptance suite runs the full corpus).
        from conftest import degree_formulas_agree

        corpus = classification_corpus()
        for ref, graph in corpus[::9]:
            degree_formulas_agree(graph)

    def test_irrelevant_subsets_rejected(self):
        g = load_graph("dumbbell_variance:var-straight")
        lg = canonical_labelling(g)
        with pytest.raises(ValueError):
            deg2(lg, [g.root, 1, 2])
        with pytest.raises(ValueError):
            deg3(lg, [1, 2])
        with pytest.raises(ValueError):
            deg4(lg, [])


class TestSpendMonotonicity:
    def test_more_epsilon_never_hurts_interior_or_root_margins(self):
        # Extra spending lowers singularities, so the interior and root
        # degrees can only grow.  (The inner condition genuinely moves the
        # other way: its sum carries the singularities positively.)
        from gpam2d.feynman import wick_pairings

        g = wick_pairings(load_graph("four_noise_a:a05"), "all")[0]
        mols = sorted(edge_classes(g)["E_M"])
        base = {m: E(1) - KB for m in mols}
        richer = dict(base)
        richer[mols[0]] = E(1)
        lg0 = distributed_labelling(g, base)
        lg1 = distributed_labelling(g, richer)
        inner = [v for v in g.vertices() if v != g.root]
        for size in range(3, len(inner) + 1):
            for combo in itertools.combinations(inner, size):
                assert not deg2(lg1, combo) < deg2(lg0, combo)
        for size in range(1, len(inner) + 1):
            for combo in itertools.combinations(inner, size):
                vbar = frozenset(combo) | {g.root}
                assert not deg3(lg1, vbar) < deg3(lg0, vbar)


class TestSquareKernelGraphs:
    def test_fixtures_load_and_classify_edges(self):
        fixtures = load_file("geps_graphs")
        assert len(fixtures) == 4
        for name, fx in fixtures.items():
            classes = edge_classes(fx.graph)
            geps_edges = [i for i, e in enumerate(fx.graph.edges)
                          if e.etype.tag == "Geps"]
            assert len(geps_edges) == 1, name
            # The square kernel is neither a mollifier nor a plain kernel.
            assert not set(geps_edges) & (classes["E_M"] | classes["E_K"])

    def test_geps_label_is_renormalised(self):
        from gpam2d.feynman import EdgeType

        label = base_label(EdgeType("Geps"))
        assert (label.a, label.r) == (E(2), -1)


class TestCriticalSubgraphs:
    def test_dumbbell_block(self):
        g = load_graph("dumbbell_variance:var-straight")
        kinds = {k for k, _ in find_critical_subgraphs(g)}
        assert "block" in kinds

    def test_single_heavy_edge_gives_nothing(self):
        g = load_graph("two_noise_tree:chain2-mean")
        assert find_critical_subgraphs(g) == []

    def test_cross_check_against_interior_degree(self):
        # Critical subgraphs are exactly the four-vertex interior subsets of
        # degree zero under canonical labels (on structurally valid graphs).
        for ref, graph in classification_corpus()[::11]:
            normalised, _ = dtest_normalise(graph)
            lg = canonical_labelling(normalised)
            from_patterns = {vbar for _, vbar in find_critical_subgraphs(normalised)}
            inner = [v for v in normalised.vertices() if v != normalised.root]
            zero4 = {
                frozenset(c)
                for c in itertools.combinations(inner, 4)
                if deg2(lg, c) == EXT_ZERO
            }
            assert from_patterns == zero4, ref

    def test_shared_connector_is_not_a_block(self):
        g = load_graph("four_noise_a:a13")
        assert [k for k, _ in find_critical_subgraphs(g)] == ["segment"]


class TestIBP:
    def test_replacement_rules(self):
        g = load_graph("two_noise_tree:chain2-mean")
        estar = _edge_index(g, "DDRho")
        k_edge = _edge_index(g, "K")
        test_edge = _edge_index(g, "Test")
        out = partial_ibp(g, {g.edges[estar].tail: test_edge, g.edges[estar].head: k_edge})
        tags = sorted(str(e.etype) for e in out.edges)
        assert tags == ["DTest:1", "Rho", "dK:1"]

    def test_k1_head_and_tail_rules(self):
        g = load_graph("dumbbell_variance:var-straight")
        estar = _edge_index(g, "DDRho", tail=2)  # upper rung: left1 -> right1
        e = g.edges[estar]
        left_k1 = _edge_index(g, "K1", tail=2)
        right_k1 = _edge_index(g, "K1", tail=4)
        out = partial_ibp(g, {e.tail: left_k1, e.head: right_k1})
        assert str(out.edges[left_k1].etype) == "dK1:1"
        assert str(out.edges[right_k1].etype) == "dK1:1"

    def test_xtest_rule(self):
        g = load_graph("four_noise_b:b14")
        estar = _edge_index(g, "DDRho", tail=1)
        e = g.edges[estar]
        xtest = _edge_index(g, "XTest")
        k1 = _edge_index(g, "K1")
        out = partial_ibp(g, {e.tail: xtest, e.head: k1})
        assert str(out.edges[xtest].etype) == "Test"

    def test_conservation(self):
        g = load_graph("dumbbell_variance:var-crossed")
        estar = _edge_index(g, "DDRho", tail=2)
        for moves in ibp_maps(g, [estar]):
            out = partial_ibp(g, moves)
            assert set(out.kinds) == set(g.kinds)
            assert out.eps_total() == g.eps_total()
            assert len(edge_classes(out)["E_M"]) == len(edge_classes(g)["E_M"])
            assert validate_structure(out).items[2]

    def test_invalid_receiver(self):
        g = load_graph("two_noise_tree:chain2-mean")
        estar = _edge_index(g, "DDRho")
        e = g.edges[estar]
        with pytest.raises(ValueError):
            partial_ibp(g, {e.tail: estar, e.head: estar})

    def test_full_ibp_of_dumbbell_has_split_decomposition(self):
        # Full rewrites of one dumbbell pairing: one graph with both
        # derivatives recombined per chain kernel, two mirror singles, one
        # with both moved to the tests.
        from gpam2d.feynman import canonical_form

        g = load_graph("dumbbell_variance:var-straight")
        heavy = [i for i, e in enumerate(g.edges) if e.etype.tag == "DDRho"]
        maps = ibp_maps(g, heavy)
        assert len(maps) == 4
        outs = [partial_ibp(g, m) for m in maps]
        forms = {}
        for out in outs:
            normalised, _ = dtest_normalise(out)
            forms[canonical_form(normalised)] = forms.get(canonical_form(normalised), 0) + 1
        assert sorted(forms.values()) == [1, 1, 2]
        expected = {
            canonical_form(dtest_normalise(load_graph(f"ibp_split:{n}"))[0])
            for n in ("ibp-kept-straight", "ibp-moved-straight", "ibp-moved-both-straight")
        }
        assert set(forms) == expected

    def test_k2_receives_at_most_one(self):
        g = load_graph("four_noise_b:b03")
        # Both heavy mollifiers try to unload onto the K2 edge.
        k2 = _edge_index(g, "K2")
        e_k2 = g.edges[k2]
        with pytest.raises(ValueError):
            partial_ibp(g, {e_k2.tail: k2, e_k2.head: k2})


class TestConditions:
    def test_moved_split_passes_with_whisker_spends(self):
        # The four good split graphs, one whisker less than a full epsilon on
        # each mollifier, pass everything with total scale exponent -2-2kb.
        target = E(-2) - KB - KB
        for name in (
            "ibp-moved-straight",
            "ibp-moved-crossed",
            "ibp-moved-both-straight",
            "ibp-moved-both-crossed",
        ):
            g = load_graph(f"ibp_split:{name}")
            normalised, shift = dtest_normalise(g)
            mols = sorted(edge_classes(normalised)["E_M"])
            lg = distributed_labelling(normalised, {m: E(1) - KB for m in mols})
            rep = check_conditions(lg)
            assert rep.ok(), (name, rep.failing())
            assert rep.alpha + E(shift) == target, name

    def test_kept_split_fails_interior_condition(self):
        for name in ("ibp-kept-straight", "ibp-kept-crossed"):
            g = load_graph(f"ibp_split:{name}")
            mols = sorted(edge_classes(g)["E_M"])
            for spends in itertools.product([E(1) - KB, E(1)], repeat=2):
                lg = distributed_labelling(g, dict(zip(mols, spends)))
                rep = check_conditions(lg)
                assert rep.cond2, name

    def test_cumulant_cycle_after_rewrite_passes(self):
        g = load_graph("kurtosis_cycles:cycle-ibp")
        mols = sorted(edge_classes(g)["E_M"])
        lg = distributed_labelling(g, {m: E(1) - KB for m in mols})
        rep = check_conditions(lg)
        assert rep.ok()
        # one whisker of epsilon left per mollifier
        assert lg.leftover == KB.scale(4)
        assert rep.alpha == E(-4) - KB.scale(4)

    def test_dumbbell_lambda_exponent(self):
        g = load_graph("dumbbell_variance:var-straight")
        assert lambda_exponent(canonical_labelling(g)) == E(-2)

    def test_test_only_graph_has_zero_exponent(self):
        from gpam2d.feynman import Edge, FeynmanGraph

        g = FeynmanGraph(
            kinds={0: "root", 1: "int"},
            edges=[Edge(1, 0, EdgeType("Test"))],
        )
        assert lambda_exponent(canonical_labelling(g)) == EXT_ZERO

    def test_adhoc_label_fixtures(self):
        # The three hand-assigned labellings cannot satisfy the root and
        # interior conditions at once: the weight of the upper four-cycle
        # must stay below eight for the former and above eight for the
        # latter.  As shipped they pass everything except the root condition,
        # which fails at exactly one subset by exactly one whisker.
        fixtures = load_file("adhoc_labels")
        for name, fx in fixtures.items():
            lg = labelled_from_fixture(fx.graph, fx.labels)
            rep = check_conditions(lg)
            assert rep.failing() == ["3"], (name, rep.failing())
            assert len(rep.cond3) == 1
            (vbar, margin), = rep.cond3
            assert margin == parse_ext("0-1*k")
            assert rep.alpha == parse_ext("0-5*k"), name

    def test_recombined_block_pattern_fails_until_whisker_bump(self):
        fixtures = load_file("bad4_patterns")
        for name, fx in fixtures.items():
            lg = labelled_from_fixture(fx.graph, fx.labels)
            rep = check_conditions(lg)
            assert rep.cond4 and not rep.cond2 and not rep.cond3, name
            bumped = dict(fx.labels)
            for i, e in enumerate(fx.graph.edges):
                if e.etype.tag == "dK":
                    a, r = bumped[i]
                    bumped[i] = (a + KB.scale(2), r)
            rep2 = check_conditions(labelled_from_fixture(fx.graph, bumped))
            assert rep2.ok(), name


class TestAdjustedLabelling:
    def _witness(self):
        g = load_graph("four_noise_a:a12")
        estar = _edge_index(g, "DDRho")
        moves = ibp_maps(g, [estar])[0]
        out = partial_ibp(g, moves)
        return out, estar

    def test_leftover_positive_with_root_term(self):
        out, estar = self._witness()
        lg = adjusted_labelling(out, [estar])
        assert lg.leftover.is_positive()
        assert lg.leftover == SQRT_KB - KB  # one other mollifier
        assert lg.labels[estar].a == E(1) + SQRT_KB
        assert lg.labels[estar].r == 0

    def test_plain_kernels_get_square_whisker(self):
        out, estar = self._witness()
        lg = adjusted_labelling(out, [estar])
        for i, e in enumerate(out.edges):
            if e.etype.tag in ("K", "K1", "K2"):
                assert lg.labels[i].a == E(0, 0, 0, 1)

    def test_requires_rewritten_edge(self):
        g = load_graph("four_noise_a:a12")
        estar = _edge_index(g, "DDRho")
        with pytest.raises(ValueError):
            adjusted_labelling(g, [estar])


class TestDTestNormalise:
    def test_shifts(self):
        g = load_graph("ibp_split:ibp-moved-both-straight")
        _, shift = dtest_normalise(g)
        assert shift == -2
        g = load_graph("four_noise_b:b10")
        _, shift = dtest_normalise(g)
        assert shift == 1
        g = load_graph("dumbbell_variance:var-straight")
        _, shift = dtest_normalise(g)
        assert shift == 0


def _assert_oracle_report(lg):
    """Same report as the scalar oracle, order and printed margins included."""
    got, want = check_conditions(lg), scalar_check_conditions(lg)
    assert got == want, lg.graph.name
    text = lambda rep: [str(m) for _, m in rep.cond2 + rep.cond3 + rep.cond4]
    assert text(got) == text(want), lg.graph.name


@pytest.fixture(scope="module")
def classify_labellings():
    """Every labelling ``classify`` checks on the corpus (canonical ones and
    every witness case it tries), then the canonical labelling of every
    corpus graph."""
    seen = []
    checked = classify_module.check_conditions

    def recording(labelled):
        seen.append(labelled)
        return checked(labelled)

    forms = classify_module.published_forms()
    corpus = classification_corpus()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "check_conditions", recording)
        classify_module.classify_corpus(corpus, crit_forms=forms["crit"],
                                        g2_forms=forms["g2"])
    canonical = [canonical_labelling(dtest_normalise(g)[0]) for _, g in corpus]
    return seen + canonical


class TestSubsetLattice:
    """The bitmask evaluator against the scalar per-subset oracle."""

    def test_reports_match_on_every_classify_labelling(self, classify_labellings):
        assert len(classify_labellings) > 300
        for lg in classify_labellings:
            _assert_oracle_report(lg)

    def test_reports_match_on_fixture_labels(self):
        labelled = [
            labelled_from_fixture(fx.graph, fx.labels)
            for fname in FIXTURE_FILES
            for fx in load_file(fname).values()
            if fx.labels
        ]
        assert len(labelled) >= 5
        for lg in labelled:
            _assert_oracle_report(lg)

    def test_blocks_join_up(self, classify_labellings, monkeypatch):
        # Blocks far smaller than the lattice give the same reports.
        monkeypatch.setattr(powercount, "_BLOCK", 16)
        for lg in classify_labellings[::25]:
            _assert_oracle_report(lg)

    def test_lattice_is_built_once_per_call(self, classify_labellings, monkeypatch):
        # One weight matrix serves every block of a check_conditions call.
        monkeypatch.setattr(powercount, "_BLOCK", 16)
        builds = []
        weights = powercount._weights

        def counting(*args):
            builds.append(args)
            return weights(*args)

        monkeypatch.setattr(powercount, "_weights", counting)
        lg = next(lg for lg in classify_labellings if 1 << len(lg.graph.vertices()) >= 64)
        check_conditions(lg)
        assert len(builds) == 1

    def test_degrees_are_exact_int64(self, classify_labellings):
        fx = load_file("adhoc_labels")["adhoc-a"]
        for lg in classify_labellings[:5] + [labelled_from_fixture(fx.graph, fx.labels)]:
            n = len(lg.graph.kinds)
            bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
            degrees, denom = powercount._degrees(powercount._weights(lg), bits)
            assert degrees.dtype == np.int64 and isinstance(denom, int)

    def test_fractional_labels_scale_by_common_denominator(self):
        g = load_graph("dumbbell_variance:var-straight")
        mols = sorted(edge_classes(g)["E_M"])
        lg = distributed_labelling(g, {mols[0]: Fraction(1, 2), mols[1]: Fraction(2, 3)})
        bits = (np.array([1, 2, 3])[:, None] >> np.arange(len(g.kinds))) & 1 == 1
        degrees, denom = powercount._degrees(powercount._weights(lg), bits)
        assert denom == 6 and degrees.dtype == np.int64
        _assert_oracle_report(lg)

    def test_label_that_could_wrap_int64_names_its_edge(self):
        text = resources.files("gpam2d.fixtures").joinpath("adhoc_labels.txt").read_text()
        text = text.replace(
            "label 4 a=0+1*k r=1", "label 4 a=9223372036854775807 r=1", 1)
        fx = parse_fixtures(text)["adhoc-a"]
        lg = labelled_from_fixture(fx.graph, fx.labels)
        with pytest.raises(ValueError, match="edge 4 label .* overflows int64"):
            check_conditions(lg)
        with pytest.raises(ValueError, match="edge 4 "):
            deg2(lg, [1, 2, 3])

    def test_graph_too_wide_for_int64_bitmasks(self):
        from gpam2d.feynman import Edge, FeynmanGraph

        g = FeynmanGraph(kinds={0: "root"} | {v: "int" for v in range(1, 64)},
                         edges=[Edge(v, v - 1, EdgeType("K")) for v in range(1, 64)])
        with pytest.raises(ValueError, match="64 vertices"):
            check_conditions(canonical_labelling(g))
