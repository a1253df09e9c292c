import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import permutation_search_form, shipped_graphs
from gpam2d.corpus import (
    classification_corpus,
    directives,
    load_file,
    load_graph,
    load_manifest,
    parse_fixtures,
)
from gpam2d.feynman import (
    Edge,
    EdgeType,
    FeynmanGraph,
    canonical_form,
    canonical_r,
    edge_classes,
    fourth_cumulant_graphs,
    validate_structure,
    wick_pairings,
)
from gpam2d.powercount import canonical_labelling, dtest_normalise


@pytest.fixture(scope="module")
def chain2():
    return load_graph("two_noise_tree:chain2")


@pytest.fixture(scope="module")
def corpus():
    return classification_corpus()


class TestFixtures:
    def test_display_counts(self):
        assert len(load_file("four_noise_a")) == 14
        assert len(load_file("four_noise_b")) == 20
        assert len(load_file("kurtosis_cycles")) == 5
        assert len(load_file("dumbbell_variance")) == 2

    def test_noise_counts(self):
        a = load_file("four_noise_a")
        by_noise = {}
        for name, fx in a.items():
            by_noise.setdefault(len(fx.graph.noise_vertices()), []).append(name)
        assert sorted(by_noise) == [0, 2, 4]
        assert len(by_noise[0]) == 6 and len(by_noise[2]) == 7 and len(by_noise[4]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph g\nv o root\nv o int\n", "line 3: duplicate vertex"),
            ("graph g\nv o root\ne x o Test\n", "line 3: undeclared vertex"),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 r=0\n", "line 5: label needs"),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 a=0\n", "line 5: label needs"),
            ("graph g\nv o root\n\ngraph g\nv o root\n", "line 4: duplicate graph"),
            ("graph\n", "line 1: graph needs 1 field"),
            ("graph g\nv o root\nv x blob\n", "line 3: unknown vertex kind 'blob'"),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 7 a=0 r=0\n", "line 5: no edge 7"),
            ("v o root\ngraph g\n", "line 1: directive before the first graph line"),
            ("graph g\ncoeff 1/0\n", "line 2: zero denominator in '1/0'"),
            ("graph g\nprefactor 1/0\n", "line 2: zero denominator in '1/0'"),
            ("graph g\nv o root\nv x int\ne x o Test eps=2/0\n",
             "line 4: zero denominator in '2/0'"),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 a=1/0 r=0\n",
             "line 5: zero denominator in '1/0'"),
            ("graph g\nv o root\nv x int\ne x o Test:x\n", "line 4: bad field 'Test:x'"),
            ("graph h\nv o root\n\ngraph g\nv x int\n", "line 4: g: need exactly one root"),
            ("graph g\nv o root\nv p root\n", "line 1: g: need exactly one root"),
            ("graph g\nv o root\nv x int\ne o x Test\ngraph h\nv o root\n",
             "line 1: g: test edges must point at the root"),
            ("graph g\nv o root\n\ngraph h\nv o root\ne x o Test\n",
             "line 6: undeclared vertex 'x'"),
            ("graph g\nv o root\nv p root\ngraph h\nv o root\n",
             "line 1: g: need exactly one root"),
            ("graph g\nv o root\nv p root\ngraph h\nbogus\n", "line 5: unknown directive"),
            ("graph g\nv o root\nv x int\ne x o Test foo=1\n", "line 4: unknown field 'foo=1'"),
            ("graph g\nv o root\nv x int\ne x o Test eps\n", "line 4: unknown field 'eps'"),
            ("graph g\nv o root\nv x int\ne x o Test eps=1 eps=2\n",
             "line 4: e takes at most 4 field"),
            ("graph g\nv o root\nv b int stray\n", "line 3: v takes at most 2 field"),
            ("graph g h\n", "line 1: graph takes at most 1 field"),
            ("graph g\ncoeff 1 2\n", "line 2: coeff takes at most 1 field"),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 a=0 a=1\n",
             "line 5: repeated field a="),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 r=0 r=1\n",
             "line 5: repeated field r="),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 a=0 r=0 r=1\n",
             "line 5: label takes at most 3 field"),
            ("graph g\nv o root\nv x int\ne x o Test\nlabel 0 a=0 eps=1\n",
             "line 5: unknown field 'eps=1'"),
        ],
        ids=["duplicate-vertex", "undeclared-vertex", "label-without-a", "label-without-r",
             "duplicate-graph", "graph-without-name", "unknown-vertex-kind",
             "label-out-of-range", "vertex-before-graph", "zero-coeff-denominator",
             "zero-prefactor-denominator", "zero-eps-denominator", "zero-label-denominator",
             "bad-axis-index", "no-root", "two-roots", "test-edge-off-root",
             "undeclared-vertex-in-second-graph", "two-roots-in-first-of-two",
             "line-checks-before-graph-checks", "stray-edge-field", "edge-field-without-value",
             "repeated-eps", "stray-vertex-field", "stray-graph-field", "stray-coeff-field",
             "repeated-a", "repeated-r", "label-field-count", "stray-label-field"],
    )
    def test_parser_rejects_bad_input_with_line_number(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_fixtures(text)

    def test_ref_expect_and_comments_inside_a_block(self):
        # ref is free text, so its fields are never read as a directive.
        text = ("graph g  # the header\nv o root\nref see e x o K, v z blob\n"
                "# v z blob\nexpect InG2\nv x int\n\ne x o Test  # the test edge\n")
        graph = parse_fixtures(text)["g"].graph
        assert graph.expect == "InG2"
        assert graph.kinds == {0: "root", 1: "int"} and len(graph.edges) == 1

    def test_directives_skip_blank_and_comment_lines(self):
        text = "# head\n\ngraph g # tail\n   \n  v o root\n"
        assert list(directives(text)) == [(3, "graph g # tail", ["graph", "g"]),
                                          (5, "  v o root", ["v", "o", "root"])]


class TestEdgeClasses:
    def test_chain2(self, chain2):
        classes = edge_classes(chain2)
        tags = lambda key: sorted(str(chain2.edges[i].etype) for i in classes[key])
        assert tags("E_M") == ["DRho", "DRho"]
        assert tags("E_K0") == ["K1"]
        assert tags("E_*") == ["Test"]

    def test_test_edge_only_in_star(self):
        g = load_graph("dumbbell_variance:var-straight")
        classes = edge_classes(g)
        test_idx = [i for i, e in enumerate(g.edges) if e.etype.tag == "Test"]
        for i in test_idx:
            assert i in classes["E_*"]
            assert i not in classes["E_M"] and i not in classes["E_K"]

    def test_renormalised_kernel_in_both_families(self):
        g = load_graph("four_noise_a:a09")
        classes = edge_classes(g)
        reps = [i for i, e in enumerate(g.edges) if e.etype.tag == "Reps"]
        assert reps
        for i in reps:
            assert i in classes["E_M"] and i in classes["E_K"] and i in classes["E_M3"]


class TestValidateStructure:
    def test_whole_corpus_passes(self, corpus):
        for ref, graph in corpus:
            report = validate_structure(graph)
            assert report.ok(), f"{ref}\n{report}"

    def test_canonical_r_matches_the_canonical_labelling(self, corpus):
        # validate_structure reads r_e from the same label table as
        # canonical_labelling, so the two agree on every corpus edge.
        for ref, graph in corpus:
            labelled = canonical_labelling(dtest_normalise(graph)[0])
            for i, e in enumerate(graph.edges):
                assert canonical_r(e.etype.tag) == labelled.r(i), (ref, i)

    def test_matching_implies_even(self, corpus):
        for _, graph in corpus:
            assert (len(graph.kinds) - 1) % 2 == 0

    def test_k2_must_point_at_tested_vertex(self):
        g = FeynmanGraph(
            kinds={0: "root", 1: "int", 2: "int", 3: "int"},
            edges=[
                Edge(1, 0, EdgeType("Test")),
                Edge(3, 2, EdgeType("K2")),
                Edge(2, 1, EdgeType("K")),
                Edge(3, 1, EdgeType("DDRho")),
            ],
        )
        report = validate_structure(g)
        assert not report.items[7]

    def test_two_renormalised_edges_from_one_vertex(self):
        g = FeynmanGraph(
            kinds={0: "root", 1: "int", 2: "int", 3: "int", 4: "int"},
            edges=[
                Edge(1, 0, EdgeType("Test")),
                Edge(2, 3, EdgeType("DDRho")),
                Edge(2, 4, EdgeType("Reps")),
                Edge(2, 0, EdgeType("K")),
                Edge(3, 1, EdgeType("K")),
                Edge(4, 1, EdgeType("K1")),
            ],
        )
        report = validate_structure(g)
        assert not report.items[4]


class TestWickPairings:
    def test_dumbbell_second_moment(self, chain2):
        pairs = wick_pairings(chain2, "all")
        assert len(pairs) == 2
        expected = [
            load_graph("dumbbell_variance:var-straight"),
            load_graph("dumbbell_variance:var-crossed"),
        ]
        got = {canonical_form(g) for g in pairs}
        want = {canonical_form(g) for g in expected}
        assert got == want
        for g in pairs:
            assert g.coeff == 1  # two odd-kernel merges, signs cancel
            assert g.prefactor == 2 * chain2.prefactor

    def test_factorial_count_and_budget(self):
        b01 = load_graph("four_noise_b:b01")
        pairs = wick_pairings(b01, "all")
        assert len(pairs) == 24
        for g in pairs:
            assert not g.noise_vertices()
            assert g.eps_total() == 2 * b01.eps_total()
            classes = edge_classes(g)
            assert len(classes["E_M"]) == (len(g.kinds) - 1) // 2

    def test_constrained_families(self):
        a01 = load_graph("four_noise_a:a01")
        assert len(wick_pairings(a01, "12-34")) == 4
        assert len(wick_pairings(a01, "12-12")) == 4
        assert len(wick_pairings(a01, "1-1")) == 6

    @pytest.mark.parametrize("constraint", ["12-3", "11-34", "1-2-3", "-"])
    def test_malformed_constraint_rejected(self, constraint):
        a01 = load_graph("four_noise_a:a01")
        with pytest.raises(ValueError, match="bad pairing constraint"):
            wick_pairings(a01, constraint)

    def test_zero_noise_passthrough(self):
        g = load_graph("four_noise_a:a02")
        assert wick_pairings(g, "all") == [g]

    def test_constraint_out_of_range(self, chain2):
        with pytest.raises(ValueError):
            wick_pairings(chain2, "13-24")

    def test_mixed_mollifier_merge(self):
        # Pairing a one-derivative stub against a plain stub leaves a single
        # derivative on the merged mollifier.
        rooted = load_graph("ladder_pair:ladder-rooted")
        pairs = wick_pairings(rooted, "all")
        assert len(pairs) == 24
        tags = sorted(str(e.etype) for e in pairs[0].edges if e.etype.tag.endswith("Rho"))
        # identity pairing: three DRho+DRho merges and one Rho+Rho merge
        assert tags == ["DDRho", "DDRho", "DDRho", "Rho"]
        crossed = [
            g
            for g in pairs
            if sorted(
                str(e.etype) for e in g.edges if e.etype.tag in ("Rho", "DRho", "DDRho")
            )
            == ["DDRho", "DDRho", "DRho", "DRho"]
        ]
        assert crossed  # pairings mixing the plain stub with a derivative stub

    def test_identity_pairing_matches_display(self):
        # The written-out identity pairing of the bottom-contracted ladder.
        b09 = load_graph("four_noise_b:b09")
        display = FeynmanGraph(
            kinds={i: k for i, k in enumerate(["root"] + ["int"] * 8)},
            edges=[
                Edge(1, 0, EdgeType("Test")),
                Edge(5, 0, EdgeType("Test")),
                Edge(3, 2, EdgeType("K1")),
                Edge(4, 3, EdgeType("K1")),
                Edge(2, 0, EdgeType("K")),
                Edge(1, 2, EdgeType("DDRho")),
                Edge(7, 6, EdgeType("K1")),
                Edge(8, 7, EdgeType("K1")),
                Edge(6, 0, EdgeType("K")),
                Edge(5, 6, EdgeType("DDRho")),
                Edge(8, 4, EdgeType("DDRho")),
                Edge(7, 3, EdgeType("DDRho")),
            ],
        )
        assert any(canonical_form(g) == canonical_form(display) for g in wick_pairings(b09, "all"))


def _all_matchings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, second in enumerate(rest):
        for tail in _all_matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, second)] + tail


class TestFourthCumulant:
    def test_dumbbell_counts_against_enumeration_oracle(self, chain2):
        raw = fourth_cumulant_graphs(chain2, dedup=False)
        # Oracle: matchings of the eight labelled noise slots (copy, slot)
        # whose copy quotient is connected.
        items = [(c, s) for c in range(4) for s in range(2)]
        total = 0
        connected = 0
        for matching in _all_matchings(items):
            total += 1
            parent = list(range(4))

            def find(c):
                while parent[c] != c:
                    c = parent[c]
                return c

            ok = True
            for (c1, _), (c2, _) in matching:
                if c1 == c2:
                    ok = False
                    break
                parent[find(c1)] = find(c2)
            if ok and len({find(c) for c in range(4)}) == 1:
                connected += 1
        assert total == 105
        assert connected == 48 == len(raw)

    def test_dumbbell_four_distinct_cycles(self, chain2):
        distinct = fourth_cumulant_graphs(chain2)
        assert len(distinct) == 4
        cycles = [
            fx.graph
            for name, fx in load_file("kurtosis_cycles").items()
            if name != "cycle-ibp"
        ]
        got = {canonical_form(g) for g in distinct}
        assert got == {canonical_form(g) for g in cycles}

    def test_gaussian_input_has_no_connected_pairing(self):
        # A single-noise star is Gaussian; its fourth cumulant carries no
        # connected diagram.
        star = FeynmanGraph(
            kinds={0: "root", 1: "int", 2: "noise"},
            edges=[Edge(1, 0, EdgeType("Test")), Edge(2, 1, EdgeType("DRho"))],
            prefactor=Fraction(1, 2),
        )
        assert fourth_cumulant_graphs(star) == []

    @pytest.mark.parametrize("ref", ["four_noise_a:a04", "four_noise_a:a05", "four_noise_a:a06"])
    def test_two_noise_fixture_has_four_classes(self, ref):
        # Four copies of a 7-vertex graph: 17 vertices, 48 connected pairings.
        graph = load_graph(ref)
        assert len(fourth_cumulant_graphs(graph, dedup=False)) == 48
        classes = fourth_cumulant_graphs(graph)
        assert len(classes) == 4
        assert all(len(g.kinds) == 17 for g in classes)


class TestCanonicalForm:
    def test_same_partition_as_permutation_search(self):
        graphs = shipped_graphs()
        assert len(graphs) == 463
        pairs = {(canonical_form(g), permutation_search_form(g)) for _, g in graphs}
        new, old = ({pair[i] for pair in pairs} for i in (0, 1))
        # Each class of either form meets exactly one class of the other.
        assert len(pairs) == len(new) == len(old)

    def test_relabelling_invariance(self, corpus):
        rng = random.Random(7)
        for ref, graph in corpus[::7]:
            verts = graph.vertices()
            perm = verts[:]
            rng.shuffle(perm)
            mapping = dict(zip(verts, perm))
            assert canonical_form(graph) == canonical_form(graph.renamed(mapping)), ref

    def test_straight_and_crossed_differ(self):
        a = load_graph("dumbbell_variance:var-straight")
        b = load_graph("dumbbell_variance:var-crossed")
        assert canonical_form(a) != canonical_form(b)

    def test_copy_swap_is_isomorphism(self, chain2):
        # Swapping the two copies of a second-moment pairing relabels only.
        for g in wick_pairings(chain2, "all"):
            n = len(g.kinds)
            verts = g.vertices()
            inner = verts[1:]
            half = len(inner) // 2
            swap = {g.root: g.root}
            swap.update(dict(zip(inner[:half], inner[half:])))
            swap.update(dict(zip(inner[half:], inner[:half])))
            assert canonical_form(g) == canonical_form(g.renamed(swap))

    def test_congruence_for_pairings(self, chain2):
        relabeled = chain2.renamed({v: v + 3 for v in chain2.kinds})
        forms = lambda graphs: sorted(canonical_form(g) for g in graphs)
        assert forms(wick_pairings(chain2, "all")) == forms(
            wick_pairings(relabeled, "all")
        )


    def test_copies_carry_every_other_field(self, chain2):
        # renamed and with_edges replace kinds, edges and (if given) name;
        # every other field, one added later too, carries over.
        g = dataclasses.replace(chain2, prefactor=Fraction(1, 2), coeff=Fraction(-3),
                                expect="vanishing")
        shift = {v: v + 3 for v in g.kinds}
        for copy in (g.renamed(shift), g.with_edges(g.edges[::-1]), g.with_edges(g.edges, "x")):
            for f in dataclasses.fields(g):
                if f.name not in ("kinds", "edges", "name"):
                    assert getattr(copy, f.name) == getattr(g, f.name), f.name
        assert g.renamed(shift).name == g.name and g.with_edges(g.edges, "x").name == "x"
        assert g.renamed(shift).root == g.root + 3

class TestManifests:
    def test_class_lists_resolve(self):
        sizes = {}
        for name in ("class_g2", "class_g3", "class_g4", "class_crit", "class_van"):
            sizes[name] = len(load_manifest(name))
        assert sizes["class_g3"] == 1
        assert sizes["class_crit"] == 20
        assert sizes["class_g2"] == 24
        assert sizes["class_g4"] == 8
        assert sizes["class_van"] == 13

    def test_members_and_families_in_file_order(self):
        # class_crit interleaves members with families: each line's graphs
        # come back where the line stands.
        expected = []
        for tree in ("four_noise_a:a0", "four_noise_b:b0"):
            expected += [load_graph(f"{tree}2"), load_graph(f"{tree}3")]
            for constraint in ("12-12", "12-34"):
                expected += wick_pairings(load_graph(f"{tree}1"), constraint)
        assert load_manifest("class_crit") == expected

    def test_each_fixture_file_parsed_once_per_manifest(self, monkeypatch):
        from gpam2d import corpus

        parsed = []
        real = corpus.load_file
        monkeypatch.setattr(corpus, "load_file", lambda name: parsed.append(name) or real(name))
        for name in ("class_g2", "class_g3", "class_g4", "class_crit"):
            parsed.clear()
            load_manifest(name)
            assert sorted(parsed) == sorted(set(parsed)), name

    @pytest.mark.parametrize("spec", ["four_noise_a:a01:x", "four_noise_a", "four_noise_a::a01"])
    def test_graph_spec_not_file_colon_graph_named(self, spec):
        with pytest.raises(ValueError, match=f"graph spec '{spec}' is not of the form file:graph"):
            load_graph(spec)

    @pytest.mark.parametrize("line", ["member four_noise_a:a01 junk", "member",
                                      "family four_noise_a:a01 all extra",
                                      "family four_noise_a:a01", "list x y", "list"])
    def test_manifest_line_with_wrong_field_count_named(self, line, monkeypatch):
        from gpam2d import corpus

        real = corpus._read_text
        text = f"list x\n{line}\n"
        monkeypatch.setattr(corpus, "_read_text", lambda name: text if name == "x" else real(name))
        with pytest.raises(ValueError, match="bad manifest line"):
            load_manifest("x")

    def test_crit_subset_of_g2(self):
        g2 = {canonical_form(g) for g in load_manifest("class_g2")}
        crit = {canonical_form(g) for g in load_manifest("class_crit")}
        assert crit <= g2
