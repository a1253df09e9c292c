"""Property tests (hypothesis) for canonical forms (vertex ids, edge order and
edge orientation), Wick contraction, power counting, the parse/format round
trip of extended rationals, the faithful printing of symbols and polynomials,
and the fixture parser's ``expect`` rule."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import FIXTURE_FILES, permutation_search_form, scalar_check_conditions
from gpam2d.coeffs import DU, U, Poly, letter_g, letter_h
from gpam2d.corpus import VERDICTS, classification_corpus, load_file, load_graph, parse_fixtures
from gpam2d.exts import EXT_ZERO, ExtRational
from gpam2d.feynman import (
    DIRECTION_FREE,
    NOISE,
    SPENT_R,
    TEST_TAGS,
    canonical_form,
    edge_classes,
    fourth_cumulant_graphs,
    wick_pairings,
)
from gpam2d.powercount import (
    EdgeLabel,
    LabelledGraph,
    base_label,
    canonical_labelling,
    check_conditions,
    distributed_labelling,
)
from gpam2d.symbols import PRIMED, RHS, SOL, UNPRIMED, generate

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

CORPUS = classification_corpus()
# The 17-vertex fourth-cumulant graphs of a two-noise fixture, one per pairing.
K4_A04 = [
    (f"four_noise_a:a04|k4#{i}", g)
    for i, g in enumerate(fourth_cumulant_graphs(load_graph("four_noise_a:a04"), dedup=False))
]

STOCHASTIC = [
    (f"{fname}:{gname}", graph)
    for fname in FIXTURE_FILES
    for gname, graph in load_file(fname).items()
    if graph.noise_vertices()
]

_STUB_DERIVS = {"Rho": 0, "DRho": 1, "DDRho": 2}


def _stub_derivs(graph, v):
    """Derivatives on the mollifier edge hanging off noise node ``v``."""
    (tag,) = [e.etype.tag for e in graph.edges if e.touches(v)]
    return _STUB_DERIVS[tag]


@st.composite
def relabelled_graph(draw, pool):
    ref, graph = draw(st.sampled_from(pool))
    inner = [v for v in graph.vertices() if v != graph.root]
    mapping = dict(zip(inner, draw(st.permutations(inner))))
    mapping[graph.root] = graph.root
    order = draw(st.permutations(range(len(graph.edges))))
    moved = graph.renamed(mapping)
    return ref, graph, moved.with_edges([moved.edges[i] for i in order])


@PROPERTY
@given(relabelled_graph(CORPUS))
def test_canonical_form_ignores_vertex_ids_and_edge_order(case):
    ref, graph, moved = case
    assert canonical_form(moved) == canonical_form(graph), ref


@PROPERTY
@given(relabelled_graph(K4_A04))
def test_canonical_form_ignores_vertex_ids_and_edge_order_on_k4_graphs(case):
    ref, graph, moved = case
    assert len(graph.kinds) == 17
    assert canonical_form(moved) == canonical_form(graph), ref


def _reversed(graph, indices):
    return graph.with_edges([replace(e, tail=e.head, head=e.tail) if i in indices else e
                             for i, e in enumerate(graph.edges)])


@st.composite
def free_edges_reversed(draw, pool):
    ref, graph = draw(st.sampled_from(pool))
    free = [i for i, e in enumerate(graph.edges) if e.etype.tag in DIRECTION_FREE]
    return ref, graph, _reversed(graph, set(draw(st.lists(st.sampled_from(free), unique=True))))


@PROPERTY
@given(st.one_of(free_edges_reversed(CORPUS), free_edges_reversed(K4_A04)))
def test_canonical_form_ignores_the_drawn_direction_of_even_kernels(case):
    ref, graph, moved = case
    assert canonical_form(moved) == canonical_form(graph), ref


# Every directed edge of the corpus but the test edges, which must point at the root.
TURNABLE = [(ref, graph, i) for ref, graph in CORPUS for i, e in enumerate(graph.edges)
            if e.etype.tag not in DIRECTION_FREE | TEST_TAGS]


@PROPERTY
@given(st.sampled_from(TURNABLE))
def test_reversing_a_directed_edge_changes_the_form_as_the_oracle_does(case):
    ref, graph, i = case
    moved = _reversed(graph, {i})
    assert ((canonical_form(moved) == canonical_form(graph))
            == (permutation_search_form(moved) == permutation_search_form(graph))), ref


@PROPERTY
@given(st.sampled_from(STOCHASTIC))
def test_wick_pairings_give_n_factorial_noise_free_graphs(fixture):
    ref, graph = fixture
    n = len(graph.noise_vertices())
    pairs = wick_pairings(graph, "all")
    assert len(pairs) == math.factorial(n), ref
    assert len({g.name for g in pairs}) == len(pairs), ref
    for g in pairs:
        assert NOISE not in g.kinds.values(), ref


@PROPERTY
@given(st.data())
def test_wick_coefficient_is_square_times_second_stub_signs(data):
    ref, graph = data.draw(st.sampled_from(STOCHASTIC))
    noises = graph.noise_vertices()
    sigma = tuple(data.draw(st.permutations(range(1, len(noises) + 1))))
    suffix = "|" + "".join(map(str, sigma))
    (paired,) = [g for g in wick_pairings(graph, "all") if g.name.endswith(suffix)]
    # Node i of the first copy meets node sigma(i) of the second, whose stub
    # is a copy of the stub at noises[sigma(i) - 1].
    sign = math.prod((-1) ** _stub_derivs(graph, noises[j - 1]) for j in sigma)
    assert paired.coeff == graph.coeff**2 * sign, ref


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=24)
LETTERS = st.sampled_from(
    [U, DU] + [letter(k) for letter in (letter_g, letter_h) for k in range(4)]
)
SYMBOLS = sorted(
    {s for structure in (UNPRIMED, PRIMED) for side in (RHS, SOL)
     for s in generate(structure, side)},
    key=str,
)


TERMS = st.lists(st.tuples(st.lists(LETTERS, max_size=4), RATIONALS), max_size=5)


def _poly(terms) -> Poly:
    total = Poly.zero()
    for letters, coeff in terms:
        monomial = Poly({(): 1})
        for letter in letters:
            monomial = monomial * Poly.letter(letter)
        total = total + monomial.scale(coeff)
    return total


@PROPERTY
@given(st.data())
def test_poly_str_is_faithful(data):
    # The second polynomial is the first summed in another order, or a fresh
    # draw, so both equal and unequal pairs occur.
    terms = data.draw(TERMS)
    other = data.draw(st.one_of(st.permutations(terms), TERMS))
    p, q = _poly(terms), _poly(other)
    assert (str(p) == str(q)) == (p == q)


def test_symbol_str_is_faithful():
    assert len(SYMBOLS) == len({str(s) for s in SYMBOLS}) == 28


@st.composite
def spent_corpus_graph(draw):
    """A corpus graph and non-negative spends on its mollifiers, each at most
    its share of the epsilon budget, some with whiskers either way."""
    ref, graph = draw(st.sampled_from(CORPUS))
    mollifiers = sorted(edge_classes(graph)["E_M"])
    share = Fraction(graph.eps_total(), len(mollifiers))
    spends = {}
    for i in mollifiers:
        quarters = draw(st.integers(0, 4))
        whisker = ExtRational.of(0, *draw(st.one_of(st.just((0, 0, 0)),
                                                     st.tuples(*[st.integers(-1, 1)] * 3))))
        if (quarters == 0 and EXT_ZERO > whisker) or (quarters == 4 and whisker > EXT_ZERO):
            whisker = -whisker
        if draw(st.booleans()):
            spends[i] = ExtRational.of(share * Fraction(quarters, 4)) + whisker
    return ref, graph, spends


@PROPERTY
@given(spent_corpus_graph())
def test_spending_moves_only_the_spent_labels(case):
    ref, graph, spends = case
    labelled = distributed_labelling(graph, spends)
    assert labelled.leftover + sum(spends.values(), EXT_ZERO) == ExtRational.of(
        graph.eps_total()), ref
    for i, e in enumerate(graph.edges):
        spend = spends.get(i, EXT_ZERO)
        base = base_label(e.etype)
        if spend.is_positive():
            assert labelled.labels[i] == EdgeLabel(base.a - spend, SPENT_R[e.etype.tag]), ref
        else:
            assert labelled.labels[i] == base, ref


def test_canonical_labelling_spends_the_whole_budget():
    for ref, graph in CORPUS:
        assert canonical_labelling(graph).leftover == EXT_ZERO, ref


# One fixture field: no whitespace, which splits fields and lines, and no "#".
FIELD = st.text(min_size=1).filter(lambda w: w.split() == [w] and "#" not in w)


@PROPERTY
@given(st.one_of(st.sampled_from(VERDICTS), st.sampled_from(VERDICTS).map(str.lower), FIELD))
def test_an_expect_word_parses_exactly_when_it_is_a_verdict(word):
    text = f"graph g\nexpect {word}\nv o root\n"
    if word in VERDICTS:
        assert parse_fixtures(text)["g"].expect == word
    else:
        with pytest.raises(ValueError, match="^fixture line 2: unknown verdict"):
            parse_fixtures(text)


@st.composite
def randomly_labelled(draw):
    """A corpus graph shape with arbitrary labels: small numerators, so that
    leading components often cancel and later ones decide the sign."""
    ref, graph = draw(st.sampled_from(CORPUS))
    component = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6)))
    labels = []
    for _ in graph.edges:
        a = ExtRational.of(*draw(st.tuples(component, component, component, component)))
        r = draw(st.integers(-3, 2))
        labels.append(EdgeLabel(a, r))
    return ref, LabelledGraph(graph, labels)


# The scalar oracle is slow on fractional labels, so a failure is reported
# as found rather than shrunk.
@settings(PROPERTY, phases=(Phase.explicit, Phase.generate))
@given(randomly_labelled())
def test_subset_lattice_matches_scalar_power_counting(case):
    ref, labelled = case
    got, want = check_conditions(labelled), scalar_check_conditions(labelled)
    assert got == want, ref
    assert [str(m) for _, m in got.cond2 + got.cond3 + got.cond4] == [
        str(m) for _, m in want.cond2 + want.cond3 + want.cond4
    ], ref
