"""Rooted Feynman multigraphs, Wick pairings and canonical forms.

Vertices are of three kinds (the origin, integration nodes, noise nodes);
edges carry a kernel tag from a fixed taxonomy, optionally an axis index or
two, and an individual epsilon power.  Stochastic graphs (with noise nodes)
turn into plain Feynman graphs by pairing noise nodes across copies and
contracting each pair, which composes the two attached mollifiers into a
single mollifier edge by convolution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

ROOT = "root"
INT = "int"
NOISE = "noise"

# Base labels ``(a_e, r_e)`` at zero spending, one row per kernel tag: the
# singularity ``a_e``, an extended rational that is an integer at zero
# spending, and the renormalisation order ``r_e``.  DTest edges are normalised
# away before labelling, so only the order of their row is read (by the
# structural checks).
BASE_LABEL = {
    "K": (0, 0), "K1": (0, 1), "K2": (0, 2),
    "dK": (1, 0), "dK1": (1, 1), "dK2": (1, 2), "ddK": (2, -1),
    "MulX": (-1, 0), "XK": (-1, 0), "XdK": (0, 0),
    "Test": (0, 0), "DTest": (1, 0), "XTest": (-1, 0),
    "Rho": (2, -1), "DRho": (3, -2), "DDRho": (4, -3),
    "Reps": (4, -2), "Geps": (2, -1),
}
ALL_TAGS = frozenset(BASE_LABEL)

# Mollifier-family tags improve their singularity by spending epsilon powers;
# this is their renormalisation order once a positive power is spent.
SPENT_R = {"Rho": 0, "DRho": -1, "DDRho": -2, "Reps": -2}

# Kernel families: 'Reps', the renormalised product kernel, is both a
# mollifier and a kernel; 'Geps' is the epsilon-scale square kernel.
MOLLIFIER_TAGS = frozenset(SPENT_R)
KERNEL_TAGS = {"K", "K1", "K2", "dK", "dK1", "dK2", "ddK", "Reps"}
TEST_TAGS = {"Test", "DTest", "XTest"}
EDGE_FAMILIES = {
    "E_M": MOLLIFIER_TAGS,
    "E_K": KERNEL_TAGS,
    "E_*": TEST_TAGS,
    "E_M3": {"DDRho", "Reps"},
    "E_K0": {"K", "K1", "K2"},
}


def canonical_r(tag: str) -> int:
    """r_e under the canonical labelling, which spends one epsilon per mollifier."""
    return SPENT_R.get(tag, BASE_LABEL[tag][1])


_INDEXED = {"dK": 1, "dK1": 1, "dK2": 1, "MulX": 1, "XK": 1, "XdK": 2, "DTest": 1, "XTest": 1}
# Plain mollifier tags by the number of noise derivatives they carry, and back.
MOLLIFIER_DERIVS = {"Rho": 0, "DRho": 1, "DDRho": 2}
MOLLIFIER_BY_DERIVS = {d: tag for tag, d in MOLLIFIER_DERIVS.items()}

# Kernels that are even functions of their argument: the drawn orientation of
# such an edge is a presentation choice, not structure.
DIRECTION_FREE = {"K", "ddK", "Rho", "DDRho", "Reps", "Geps", "XdK"}


@dataclass(frozen=True)
class EdgeType:
    tag: str
    j: int = 0
    k: int = 0

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown edge tag {self.tag!r}")
        want = _INDEXED.get(self.tag, 0)
        have = (self.j != 0) + (self.k != 0)
        if have != want:
            raise ValueError(f"tag {self.tag} takes {want} axis indices")

    def __str__(self):
        if self.tag == "XdK":
            return f"{self.tag}:{self.k},{self.j}"
        if self.j:
            return f"{self.tag}:{self.j}"
        return self.tag


def parse_edge_type(text: str) -> EdgeType:
    if ":" not in text:
        return EdgeType(text)
    tag, idx = text.split(":", 1)
    if "," in idx:
        k, j = idx.split(",")
        return EdgeType(tag, j=int(j), k=int(k))
    return EdgeType(tag, j=int(idx))


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    etype: EdgeType
    eps: Fraction = Fraction(0)

    def touches(self, v: int) -> bool:
        return v in (self.tail, self.head)

    def other(self, v: int) -> int:
        return self.head if v == self.tail else self.tail


@dataclass
class FeynmanGraph:
    """A rooted multigraph with per-edge epsilon powers and a loose budget."""

    kinds: dict[int, str]
    edges: list[Edge]
    prefactor: Fraction = Fraction(0)
    coeff: Fraction = Fraction(1)
    name: str = ""
    expect: str | None = None

    def __post_init__(self):
        roots = [v for v, k in self.kinds.items() if k == ROOT]
        if len(roots) != 1:
            raise ValueError(f"{self.name or 'graph'}: need exactly one root")
        self._root = roots[0]
        for e in self.edges:
            if e.tail not in self.kinds or e.head not in self.kinds:
                raise ValueError(f"{self.name}: edge endpoint missing")
            if e.etype.tag in TEST_TAGS and e.head != self._root:
                raise ValueError(f"{self.name}: test edges must point at the root")

    @property
    def root(self) -> int:
        return self._root

    def vertices(self) -> list[int]:
        return sorted(self.kinds)

    def noise_vertices(self) -> list[int]:
        """Noise nodes in declaration (= numbering) order."""
        return [v for v in self.kinds if self.kinds[v] == NOISE]

    def tested_vertices(self) -> set[int]:
        """V_*: the root plus every non-root endpoint of a test edge."""
        out = {self.root}
        for e in self.edges:
            if e.etype.tag in TEST_TAGS:
                out.add(e.tail)
        return out

    def eps_total(self) -> Fraction:
        return self.prefactor + sum((e.eps for e in self.edges), Fraction(0))

    def renamed(self, mapping: dict[int, int], name: str | None = None) -> "FeynmanGraph":
        edges = [replace(e, tail=mapping[e.tail], head=mapping[e.head]) for e in self.edges]
        return self._copy(name, {mapping[v]: k for v, k in self.kinds.items()}, edges)

    def with_edges(self, edges: list[Edge], name: str | None = None) -> "FeynmanGraph":
        return self._copy(name, dict(self.kinds), list(edges))

    def _copy(self, name: str | None, kinds: dict[int, str], edges: list[Edge]) -> "FeynmanGraph":
        """This graph with new vertices and edges; every other field carries over."""
        return replace(self, kinds=kinds, edges=edges, name=self.name if name is None else name)


# ---------------------------------------------------------------------------
# Edge classes


def edge_classes(graph: FeynmanGraph) -> dict[str, set[int]]:
    """Partition edge indices into the kernel families (with overlaps)."""
    return {
        key: {i for i, e in enumerate(graph.edges) if e.etype.tag in tags}
        for key, tags in EDGE_FAMILIES.items()
    }


# ---------------------------------------------------------------------------
# Structure report

_FORBIDDEN_IN_CORPUS = {"Rho", "DRho", "dK1", "dK2", "ddK", "DTest"}


def order_rule_offenders(graph: FeynmanGraph, orders) -> tuple[list[int], list[int]]:
    """Edges of nonzero order at the root, and vertices meeting more than one
    edge of negative order; ``orders[i]`` is the renormalisation order of edge i.
    """
    edges = [i for i, (e, r) in enumerate(zip(graph.edges, orders))
             if r != 0 and e.touches(graph.root)]
    neg_at: dict[int, int] = {}
    for e, r in zip(graph.edges, orders):
        if r < 0:
            # Negative-order edges are counted per incident vertex; for the
            # even kernels the drawn direction carries no meaning.
            for v in (e.tail, e.head):
                neg_at[v] = neg_at.get(v, 0) + 1
    return edges, [v for v, n in neg_at.items() if n > 1]


@dataclass
class StructureReport:
    items: dict[int, bool] = field(default_factory=dict)
    offenders: dict[int, list] = field(default_factory=dict)

    def ok(self) -> bool:
        return all(self.items.values())

    def failures(self) -> str:
        """The failing items with their offenders, ``item 1 [2, 3]; item 6 [7]``."""
        return "; ".join(f"item {i} {self.offenders[i]}"
                         for i in sorted(self.items) if not self.items[i])

    def __str__(self):
        lines = []
        for i in sorted(self.items):
            status = "pass" if self.items[i] else f"FAIL {self.offenders[i]}"
            lines.append(f"item {i}: {status}")
        return "\n".join(lines)


def validate_structure(graph: FeynmanGraph) -> StructureReport:
    """Check the seven structural properties of corpus graphs."""
    rep = StructureReport()
    classes = edge_classes(graph)
    root = graph.root

    bad1 = [i for i, e in enumerate(graph.edges) if e.etype.tag in _FORBIDDEN_IN_CORPUS]
    rep.items[1], rep.offenders[1] = not bad1, bad1

    # Every vertex but the root meets exactly one mollifier; the root meets none.
    matched: dict[int, list[int]] = {v: [] for v in graph.kinds}
    for i in classes["E_M"]:
        e = graph.edges[i]
        for v in (e.tail, e.head):
            matched[v].append(i)
    bad2 = [v for v, es in matched.items() if len(es) != (v != root)]
    rep.items[2], rep.offenders[2] = not bad2, bad2

    tested = graph.tested_vertices()
    bad3 = []
    for v in graph.kinds:
        outgoing = [i for i in classes["E_K"] if graph.edges[i].tail == v]
        if v in tested:
            if outgoing:
                bad3.append(v)
        elif graph.kinds[v] != NOISE and len(outgoing) != 1:
            bad3.append(v)
    rep.items[3], rep.offenders[3] = not bad3, bad3

    edges4, vertices4 = order_rule_offenders(
        graph, [canonical_r(e.etype.tag) for e in graph.edges])
    bad4 = edges4 + vertices4
    rep.items[4], rep.offenders[4] = not bad4, bad4

    # The recentred/differentiated budget: at most two {K2, dK} edges in
    # total, and at most two renormalised product kernels.  (Counting the
    # three types jointly would reject the square of the graph that carries
    # one of each.)
    recentred = [i for i, e in enumerate(graph.edges) if e.etype.tag in ("K2", "dK")]
    renorm = [i for i, e in enumerate(graph.edges) if e.etype.tag == "Reps"]
    ok5 = len(recentred) <= 2 and len(renorm) <= 2
    rep.items[5], rep.offenders[5] = ok5, [] if ok5 else recentred + renorm

    bad6 = [
        i for i, e in enumerate(graph.edges)
        if e.etype.tag == "dK" and not e.touches(root)
    ]
    rep.items[6], rep.offenders[6] = not bad6, bad6

    bad7 = [
        i for i, e in enumerate(graph.edges)
        if e.etype.tag == "K2" and e.head not in tested - {root}
    ]
    rep.items[7], rep.offenders[7] = not bad7, bad7
    return rep


# ---------------------------------------------------------------------------
# Wick pairings


def _mollifier_stub(graph: FeynmanGraph, v: int) -> Edge:
    """The single mollifier edge hanging off a noise node."""
    incident = [e for e in graph.edges if e.touches(v)]
    moll = [e for e in incident if e.etype.tag in MOLLIFIER_DERIVS]
    if len(incident) != 1 or len(moll) != 1:
        raise ValueError(f"noise node {v} must carry exactly one mollifier edge")
    return moll[0]


def _merge_mollifiers(e1: Edge, p1: int, e2: Edge, p2: int) -> tuple[Edge, int]:
    """Contract a noise pair: convolve the two mollifiers into one edge.

    Returns the merged edge from the second copy's endpoint to the first's,
    together with the sign (-1)^(derivatives of the reflected factor).
    """
    d1 = MOLLIFIER_DERIVS[e1.etype.tag]
    d2 = MOLLIFIER_DERIVS[e2.etype.tag]
    total = d1 + d2
    if total > 2:
        raise ValueError("mollifier merge with more than two derivatives")
    tag = MOLLIFIER_BY_DERIVS[total]
    sign = -1 if d2 % 2 else 1
    return Edge(p2, p1, EdgeType(tag), e1.eps + e2.eps), sign


def _parse_sigma_constraint(constraint: str, n: int):
    """``all``, or ``<lhs>-<rhs>``: sigma maps the noises in ``lhs`` onto those in ``rhs``."""
    if constraint in (None, "all"):
        return lambda sigma: True
    sides = constraint.split("-")
    if not (len(sides) == 2 and len(sides[0]) == len(sides[1])
            and all(side.isdecimal() and len(set(side)) == len(side) for side in sides)):
        raise ValueError(f"bad pairing constraint {constraint!r}: want all or two equally "
                         "long digit strings joined by '-', no digit twice in one")
    src, dst = ({int(c) for c in side} for side in sides)
    if not src | dst <= set(range(1, n + 1)):
        raise ValueError(f"constraint {constraint!r} references noise beyond {n}")
    return lambda sigma: {sigma[i - 1] for i in src} == dst


def _copies(stochastic: FeynmanGraph, k: int) -> list[FeynmanGraph]:
    """``k`` copies sharing the root; copy ``c`` shifts the other ids by ``c*base``."""
    base = max(stochastic.kinds) + 1
    return [
        stochastic.renamed(
            {v: (stochastic.root if v == stochastic.root else v + c * base) for v in stochastic.kinds}
        )
        for c in range(k)
    ]


def _contract(stochastic: FeynmanGraph, copies: list[FeynmanGraph], pairs, name: str) -> FeynmanGraph:
    """Glue the copies at the root and contract each noise pair.

    ``pairs`` lists ``((c1, v), (c2, w))``: noise node ``v`` of copy ``c1``
    meets node ``w`` of copy ``c2``.  Epsilon budgets add, the coefficient is
    raised to the number of copies and carries the product of merge signs.
    """
    kinds: dict[int, str] = {}
    for copy in copies:
        kinds |= copy.kinds
    edges = [
        e
        for copy in copies
        for e in copy.edges
        if copy.kinds[e.tail] != NOISE and copy.kinds[e.head] != NOISE
    ]
    sign = 1
    for (c1, v), (c2, w) in pairs:
        e1 = _mollifier_stub(copies[c1], v)
        e2 = _mollifier_stub(copies[c2], w)
        merged, s = _merge_mollifiers(e1, e1.other(v), e2, e2.other(w))
        edges.append(merged)
        sign *= s
        del kinds[v], kinds[w]
    k = len(copies)
    return FeynmanGraph(
        kinds=kinds,
        edges=edges,
        prefactor=k * stochastic.prefactor,
        coeff=stochastic.coeff ** k * sign,
        name=name,
    )


def wick_pairings(stochastic: FeynmanGraph, constraint: str = "all") -> list[FeynmanGraph]:
    """Second-moment pairings: one Feynman graph per admitted permutation.

    Two copies are taken, noise node i of the first is paired with node
    sigma(i) of the second, each pair is contracted (composing mollifiers),
    and the two roots are identified.  Epsilon budgets add.
    """
    n = len(stochastic.noise_vertices())
    admit = _parse_sigma_constraint(constraint, n)
    if n == 0:
        return [stochastic]

    copies = _copies(stochastic, 2)
    first, second = (copy.noise_vertices() for copy in copies)
    out = []
    for sigma in itertools.permutations(range(1, n + 1)):
        if not admit(sigma):
            continue
        pairs = [((0, v), (1, second[j - 1])) for v, j in zip(first, sigma)]
        name = f"{stochastic.name}|{''.join(map(str, sigma))}"
        out.append(_contract(stochastic, copies, pairs, name))
    return out


def fourth_cumulant_graphs(stochastic: FeynmanGraph, dedup: bool = True) -> list[FeynmanGraph]:
    """Connected pairings of four copies, one graph per pairing.

    Connectivity is that of the copy quotient: a perfect matching of the
    4n noise nodes contributes if the multigraph on the four copies induced
    by cross-copy pairs is connected (the cumulant diagram rule, under which
    a purely Gaussian input has no connected pairing at all).  With ``dedup``
    the result is reduced modulo isomorphism.
    """
    if not stochastic.noise_vertices():
        return []
    copies = _copies(stochastic, 4)
    items = [(c, v) for c, copy in enumerate(copies) for v in copy.noise_vertices()]

    def pairings(pool):
        if not pool:
            yield []
            return
        first, rest = pool[0], pool[1:]
        for i, second in enumerate(rest):
            for tail in pairings(rest[:i] + rest[i + 1:]):
                yield [(first, second)] + tail

    out = []
    seen: set[str] = set()
    for matching in pairings(items):
        links = [(c1, c2) for (c1, _), (c2, _) in matching]
        if any(c1 == c2 for c1, c2 in links):
            continue
        reached = {0}
        for _ in range(3):  # three rounds reach every copy of a connected quotient
            reached |= {c for link in links if reached.intersection(link) for c in link}
        if len(reached) < 4:
            continue

        graph = _contract(stochastic, copies, matching, f"{stochastic.name}|k4")
        if dedup:
            key = canonical_form(graph)
            if key in seen:
                continue
            seen.add(key)
        out.append(graph)
    return out


# ---------------------------------------------------------------------------
# Canonical form

_KIND_CODE = {ROOT: 0, INT: 1, NOISE: 2}


def _refine(incidence: list, colours: list[int]) -> list[int]:
    """Rank each vertex by its colour and its incidence triples with the
    neighbours' colours until the number of cells stops growing; the keys
    start with the old colour, so the order of the cells holds."""
    cells = len(set(colours))
    while True:
        keys = [(c, tuple(sorted([(label, way, colours[w]) for label, way, w in inc])))
                for c, inc in zip(colours, incidence)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        colours = [rank[key] for key in keys]
        if len(rank) == cells:
            return colours
        cells = len(rank)


def _least_code(incidence: list, ends: list, colours: list[int]) -> tuple:
    colours = _refine(incidence, colours)
    if len(set(colours)) == len(colours):
        return tuple(sorted((*sorted((colours[t], colours[h])), label) if free
                            else (colours[t], colours[h], label) for t, h, label, free in ends))
    split = min(c for c in colours if colours.count(c) > 1)
    doubled = [2 * c for c in colours]
    return min(_least_code(incidence, ends, doubled[:v] + [2 * split - 1] + doubled[v + 1:])
               for v, c in enumerate(colours) if c == split)


def canonical_form(graph: FeynmanGraph) -> str:
    """Isomorphism-invariant encoding (root fixed, kinds respected).

    Individualisation-refinement without pruning (McKay & Piperno,
    arXiv:1301.1493), on plain integers.  The distinct edge labels
    ``(str(etype), eps)``, eps as its numerator and denominator, are
    numbered in sorted order (the label table),
    and each vertex gets its incidence list of ``(label, direction,
    neighbour)``: direction 2 on a ``DIRECTION_FREE`` edge, else 1 at the
    tail and 0 at the head.  Integer colours, starting from the vertex
    kinds, are refined by ``_refine`` until stable; then each vertex of the
    least non-singleton cell in turn is individualised (colours doubled,
    that vertex moved to ``2c - 1``) and the search recurses.  A discrete
    colouring orders the vertices, kinds first, and its code is the sorted
    ``(tail, head, label)`` triples, direction-free ends sorted.  The form
    is the label table, the sorted kinds and the least code.
    """
    labels = [(str(e.etype), e.eps.numerator, e.eps.denominator) for e in graph.edges]
    table = sorted(set(labels))
    number = {label: i for i, label in enumerate(table)}
    index = {v: i for i, v in enumerate(graph.kinds)}
    incidence: list[list] = [[] for _ in index]
    ends = []
    for e, label in zip(graph.edges, labels):
        label, free = number[label], e.etype.tag in DIRECTION_FREE
        t, h = index[e.tail], index[e.head]
        incidence[t].append((label, 2 if free else 1, h))
        incidence[h].append((label, 2 if free else 0, t))
        ends.append((t, h, label, free))
    kinds = [_KIND_CODE[k] for k in graph.kinds.values()]
    code = _least_code(incidence, ends, kinds)
    return repr((tuple(f"{n} eps={a}/{b}" for n, a, b in table), tuple(sorted(kinds)), code))
