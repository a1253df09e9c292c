"""Property tests (hypothesis) for canonical forms and Wick contraction."""

import math
from importlib import resources

from hypothesis import given, settings, strategies as st

from gpam2d.corpus import classification_corpus, load_file
from gpam2d.feynman import NOISE, canonical_form, wick_pairings

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

CORPUS = classification_corpus()

FIXTURE_FILES = sorted(
    p.name[: -len(".txt")]
    for p in resources.files("gpam2d.fixtures").iterdir()
    if p.name.endswith(".txt") and not p.name.startswith("class_")
)
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
def relabelled_corpus_graph(draw):
    ref, graph = draw(st.sampled_from(CORPUS))
    inner = [v for v in graph.vertices() if v != graph.root]
    mapping = dict(zip(inner, draw(st.permutations(inner))))
    mapping[graph.root] = graph.root
    order = draw(st.permutations(range(len(graph.edges))))
    moved = graph.renamed(mapping)
    return ref, graph, moved.with_edges([moved.edges[i] for i in order])


@PROPERTY
@given(relabelled_corpus_graph())
def test_canonical_form_ignores_vertex_ids_and_edge_order(case):
    ref, graph, moved = case
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
