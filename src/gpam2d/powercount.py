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
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .exts import EXT_ZERO, KB, KB2, SQRT_KB, ExtRational, as_ext
from .feynman import (
    BASE_LABEL,
    SPENT_R,
    EdgeType,
    FeynmanGraph,
    MOLLIFIER_BY_DERIVS,
    MOLLIFIER_DERIVS,
    MOLLIFIER_TAGS,
    edge_classes,
    order_rule_offenders,
)

@dataclass(frozen=True)
class EdgeLabel:
    a: ExtRational
    r: int

    def __str__(self):
        return f"({self.a},{self.r})"


def base_label(etype: EdgeType) -> EdgeLabel:
    """The zero-spending label."""
    if etype.tag == "DTest":
        raise ValueError("normalise DTest edges away before labelling")
    q0, r = BASE_LABEL[etype.tag]
    return EdgeLabel(ExtRational.of(q0), r)


def spent_label(etype: EdgeType, gamma) -> EdgeLabel:
    """Label of a mollifier-family edge after spending ``epsilon**gamma``."""
    gamma = as_ext(gamma)
    if etype.tag not in MOLLIFIER_TAGS:
        raise ValueError(f"{etype} is not a mollifier-family edge")
    if EXT_ZERO > gamma:
        raise ValueError(f"negative spend epsilon^{gamma}")
    if not gamma.is_positive():
        return base_label(etype)
    return EdgeLabel(base_label(etype).a - gamma, SPENT_R[etype.tag])


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
    mollifiers = edge_classes(graph)["E_M"]
    budget = graph.eps_total()
    if budget != len(mollifiers):
        raise ValueError(f"graph {graph.name!r} spends epsilon^{budget} against {len(mollifiers)} "
                         "mollifiers, but canonical labelling takes second-moment "
                         "(Wick-paired) graphs, whose budget matches their mollifiers")
    return distributed_labelling(graph, dict.fromkeys(mollifiers, 1))


def distributed_labelling(graph: FeynmanGraph, spends: dict[int, ExtRational]) -> LabelledGraph:
    """Label with an explicit epsilon distribution over mollifier edges."""
    mollifiers = edge_classes(graph)["E_M"]
    spends = {i: as_ext(gamma) for i, gamma in spends.items()}
    for i, gamma in spends.items():
        if i not in mollifiers:
            raise ValueError(f"edge {i} is not a mollifier" if 0 <= i < len(graph.edges)
                             else f"no edge {i}")
        if EXT_ZERO > gamma:
            raise ValueError(f"edge {i}: negative spend epsilon^{gamma}")
    leftover = ExtRational.of(graph.eps_total()) - sum(spends.values(), EXT_ZERO)
    if EXT_ZERO > leftover:
        raise ValueError("epsilon distribution exceeds the available budget")
    labels = [spent_label(e.etype, spends[i]) if i in spends else base_label(e.etype)
              for i, e in enumerate(graph.edges)]
    return LabelledGraph(graph, labels, leftover)


# ---------------------------------------------------------------------------
# Degrees


# Each edge adds ``c_a*a_e + c_r*r_e + c`` to a degree, with the row
# ``(c_a, c_r, c)`` chosen by where the edge sits relative to the subset:
# both ends inside; tail only, r_e > 0; head only, r_e > 0; one end inside,
# r_e <= 0.  Edges with no end inside add nothing.  Each vertex inside adds
# 2, 2 and -2, and the interior and root degrees start from -2.
_DEG2_TABLE = ((-1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
_DEG3_TABLE = ((-1, 0, 0), (-1, -1, 1), (0, 1, 0), (0, 0, 0))
_DEG4_TABLE = ((1, 0, 0), (1, 1, 0), (0, -1, 1), (1, 0, 0))
# (category, condition, coefficient)
_TABLES = np.array((_DEG2_TABLE, _DEG3_TABLE, _DEG4_TABLE), dtype=np.int64).transpose(1, 0, 2)
_PER_VERTEX = np.array((2, 2, -2), dtype=np.int64)
_START = np.array((-2, -2, 0), dtype=np.int64)

_BLOCK = 4096  # masks per evaluation: bounds memory on large graphs
_MAX_VERTICES = 62  # int64 bitmasks


def _weights(labelled: LabelledGraph) -> tuple:
    """A labelling's subset lattice: the bit of each vertex (in the order of
    ``graph.vertices()``), the bits of the edge tails and heads, the weights
    of the vertex bits, a constant and the edges' both-ends bits by
    (condition, component), and the common label denominator that scales them.

    With x_t, x_h the bits of an edge's ends, its four categories are
    x_t x_h, x_t - x_t x_h, x_h - x_t x_h and x_t + x_h - 2 x_t x_h, so
    every degree is linear in the vertex bits and the both-ends bits.
    """
    graph, labels = labelled.graph, labelled.labels
    pos = {v: k for k, v in enumerate(graph.vertices())}
    n = len(pos)
    if n > _MAX_VERTICES:
        raise ValueError(f"{n} vertices: power counting takes at most "
                         f"{_MAX_VERTICES} (int64 subset bitmasks)")
    tails, heads = np.array([(pos[e.tail], pos[e.head]) for e in graph.edges],
                            dtype=np.int64).reshape(-1, 2).T
    denom = math.lcm(1, *(q.denominator for label in labels for q in label.a))
    # An edge's category weights enter its two vertex weights once and its
    # both-ends weight thrice, so this bounds every partial sum of a degree.
    limit = (2**63 - 1) // (5 * len(labels) + 2 * n + 2)
    for i, label in enumerate(labels):
        if denom * (max(abs(q) for q in label.a) + abs(label.r) + 1) > limit:
            raise ValueError(f"edge {i} label {label} overflows int64 power counting")
    a = np.array([[int(q * denom) for q in label.a] for label in labels],
                 dtype=np.int64).reshape(len(labels), 4)
    r = np.array([label.r for label in labels], dtype=np.int64)
    # cat[k, e, condition, component]: edge e's weight in category k.
    cat = _TABLES[:, None, :, 0, None] * a[None, :, None, :]
    cat[..., 0] += (_TABLES[:, None, :, 1] * r[None, :, None] + _TABLES[:, None, :, 2]) * denom
    recentred = (r > 0)[:, None, None]
    tail_only = np.where(recentred, cat[1], cat[3])
    head_only = np.where(recentred, cat[2], cat[3])
    vertex = np.zeros((n + 1, 3, 4), dtype=np.int64)  # the vertex bits, then the constant
    vertex[:n, :, 0] = _PER_VERTEX * denom
    vertex[n, :, 0] = _START * denom
    np.add.at(vertex, tails, tail_only)
    np.add.at(vertex, heads, head_only)
    weights = np.concatenate([vertex, cat[0] - tail_only - head_only]).reshape(-1, 12)
    return pos, tails, heads, weights, denom


def _degrees(lattice, bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Degrees of conditions 2, 3 and 4 on a ``_weights`` lattice at every
    row of ``bits``, a bool (subsets, vertex bits) array: an int64 array
    (subsets, 3, 4) of the degrees' four components times the common label
    denominator, which comes second.  Every condition is evaluated at every
    subset; which subsets it concerns is the caller's business.
    """
    _, tails, heads, weights, denom = lattice
    indicators = np.concatenate(
        [bits, np.ones((len(bits), 1), dtype=bool), bits[:, tails] & bits[:, heads]], axis=1
    ).astype(np.int64)
    # Integer products are slow in numpy: skip the components no label uses.
    live = np.flatnonzero(weights.any(axis=0))
    degrees = np.zeros((len(bits), 12), dtype=np.int64)
    degrees[:, live] = indicators @ weights[:, live]
    return degrees.reshape(-1, 3, 4), denom


def _positive(degrees: np.ndarray) -> np.ndarray:
    """Lexicographic positivity: the sign of the first nonzero component."""
    first = (degrees != 0).argmax(axis=-1)
    return np.take_along_axis(degrees, first[..., None], axis=-1)[..., 0] > 0


def _ext(components, denom: int) -> ExtRational:
    if denom == 1:
        return ExtRational.of(*map(int, components))
    return ExtRational.of(*(Fraction(int(q), denom) for q in components))


def _degree_at(labelled: LabelledGraph, vbar: frozenset, cond: int) -> ExtRational:
    lattice = _weights(labelled)
    pos = lattice[0]
    bits = np.zeros((1, len(pos)), dtype=bool)
    bits[0, [pos[v] for v in vbar]] = True
    degrees, denom = _degrees(lattice, bits)
    return _ext(degrees[0, cond], denom)


def deg2(labelled: LabelledGraph, vbar) -> ExtRational:
    vbar = frozenset(vbar)
    if labelled.graph.root in vbar or len(vbar) < 3:
        raise ValueError("interior condition wants >= 3 vertices away from the root")
    return _degree_at(labelled, vbar, 0)


def deg3(labelled: LabelledGraph, vbar) -> ExtRational:
    vbar = frozenset(vbar)
    if labelled.graph.root not in vbar or len(vbar) < 2:
        raise ValueError("root condition wants the root plus at least one vertex")
    return _degree_at(labelled, vbar, 1)


def deg4(labelled: LabelledGraph, vbar) -> ExtRational:
    vbar = frozenset(vbar)
    if not vbar or vbar & labelled.graph.tested_vertices():
        raise ValueError("inner condition wants a nonempty subset avoiding tested vertices")
    return _degree_at(labelled, vbar, 2)


@dataclass
class ConditionReport:
    cond0: bool = True
    cond1: bool = True
    cond0_edges: list = field(default_factory=list)
    cond0_vertices: list = field(default_factory=list)
    cond1_offenders: list = field(default_factory=list)
    cond2: list = field(default_factory=list)  # (vbar, margin): margin <= 0 entries
    cond3: list = field(default_factory=list)
    cond4: list = field(default_factory=list)
    alpha: ExtRational = EXT_ZERO

    def ok(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        fails = (not self.cond0, not self.cond1, self.cond2, self.cond3, self.cond4)
        return [str(k) for k, fail in enumerate(fails) if fail]


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

    orders = [labelled.r(i) for i in range(len(graph.edges))]
    at_root, rep.cond0_vertices = order_rule_offenders(graph, orders)
    # Recentred kernels cannot join two tested vertices; renormalised ones
    # can (the basic variance graphs do exactly that).
    rep.cond0_edges = [
        i for i, (e, r) in enumerate(zip(graph.edges, orders))
        if (r > 0 and e.tail in tested and e.head in tested) or i in at_root
    ]
    rep.cond1_offenders = [
        i for i, r in enumerate(orders)
        if not ExtRational.of(2) > labelled.a(i) + ExtRational.of(min(r, 0))
    ]
    rep.cond0 = not (rep.cond0_edges or rep.cond0_vertices)
    rep.cond1 = not rep.cond1_offenders

    # Which masks each condition concerns: interior subsets of at least three
    # vertices, the root with at least one more, nonempty untested subsets.
    lattice = _weights(labelled)
    pos = lattice[0]
    n = len(pos)
    root_bit, tested_bits = 1 << pos[root], sum(1 << pos[v] for v in tested)
    found = ([], [], [])
    for first in range(0, 1 << n, _BLOCK):
        masks = np.arange(first, min(first + _BLOCK, 1 << n), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1 == 1
        degrees, denom = _degrees(lattice, bits)
        size = bits.sum(axis=1)
        concerned = (
            (masks & root_bit == 0) & (size >= 3),
            (masks & root_bit != 0) & (size >= 2),
            (masks & tested_bits == 0) & (size >= 1),
        )
        fails = ~_positive(degrees)
        for cond, entries in enumerate(found):
            for k in np.flatnonzero(concerned[cond] & fails[:, cond]):
                vbar = tuple(v for v, inside in zip(pos, bits[k]) if inside)
                entries.append((vbar, _ext(degrees[k, cond], denom)))
    # By size, then in combinations order: the order of a scalar enumeration.
    for out, entries in zip((rep.cond2, rep.cond3, rep.cond4), found):
        entries.sort(key=lambda entry: (len(entry[0]), entry[0]))
        out.extend((frozenset(vbar), margin) for vbar, margin in entries)
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
            labels.append(EdgeLabel(canonical.a + c, canonical.r))
            leftover = leftover + c
        elif i in classes["E_K0"]:
            labels.append(EdgeLabel(KB2, base_label(e.etype).r))
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
