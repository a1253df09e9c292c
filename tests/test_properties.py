"""Property tests (hypothesis) for canonical forms, Wick contraction, power
counting and the parse/format round trips of the exact types."""

import math
from fractions import Fraction

from hypothesis import Phase, given, settings, strategies as st

from conftest import FIXTURE_FILES, scalar_check_conditions
from gpam2d.coeffs import DU, U, Poly, letter_g, letter_h, parse_poly
from gpam2d.corpus import classification_corpus, load_file, load_graph
from gpam2d.exts import EXT_ZERO, ExtRational, format_ext, parse_ext
from gpam2d.feynman import (
    NOISE,
    SPENT_R,
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
from gpam2d.symbols import PRIMED, RHS, SOL, UNPRIMED, generate, parse_symbol

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

CORPUS = classification_corpus()
# The 17-vertex fourth-cumulant graphs of a two-noise fixture, one per pairing.
K4_A04 = [
    (f"four_noise_a:a04|k4#{i}", g)
    for i, g in enumerate(fourth_cumulant_graphs(load_graph("four_noise_a:a04"), dedup=False))
]

STOCHASTIC = [
    (f"{fname}:{gname}", fx.graph)
    for fname in FIXTURE_FILES
    for gname, fx in load_file(fname).items()
    if fx.graph.noise_vertices()
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
    (paired,) = wick_pairings(graph, lambda s: s == sigma)
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


@PROPERTY
@given(st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS))
def test_ext_rational_format_parse_round_trip(components):
    x = ExtRational(*components)
    assert parse_ext(format_ext(x)) == x


@PROPERTY
@given(st.lists(st.tuples(st.lists(LETTERS, max_size=4), RATIONALS), max_size=5))
def test_poly_str_parse_round_trip(terms):
    p = Poly.zero()
    for letters, coeff in terms:
        p = p + Poly.word(letters, coeff)
    assert parse_poly(str(p)) == p


@PROPERTY
@given(st.sampled_from(SYMBOLS))
def test_symbol_str_parse_round_trip(symbol):
    assert parse_symbol(str(symbol)) == symbol


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
