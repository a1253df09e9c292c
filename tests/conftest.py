"""Shared test helpers: the closed-form degree oracle.

The three counting degrees have matching-count forms under canonical
labels (valid on structurally sound graphs): the interior degree is
``|V|/2 + 3u/2 - 2`` in the subset size and the number of mollifier-unpaired
vertices, the root degree adds the differentiated/twice-recentred and
incoming-recentred corrections, and the inner degree is
``3u/2 - |V|/2 + up-blue + 2 up-red + touching-dK``.
"""

import itertools
from fractions import Fraction

from gpam2d.exts import ExtRational
from gpam2d.feynman import edge_classes, validate_structure
from gpam2d.powercount import (
    canonical_labelling,
    deg2,
    deg3,
    deg4,
    dtest_normalise,
)

E = ExtRational.of


def degree_formulas_agree(graph) -> int:
    """Assert general == simplified on every relevant subset; returns count."""
    if not validate_structure(graph).ok():
        return 0
    normalised, _ = dtest_normalise(graph)
    lg = canonical_labelling(normalised)
    g = normalised
    classes = edge_classes(g)
    tested = g.tested_vertices()
    inner = [v for v in g.vertices() if v != g.root]
    checked = 0

    def unpaired(vbar):
        vbar = set(vbar)
        matched = set()
        for i in classes["E_M"]:
            e = g.edges[i]
            if e.tail in vbar and e.head in vbar:
                matched.update((e.tail, e.head))
        return len(vbar - matched)

    def counts(vbar):
        e0, up, down, touching = [], [], [], []
        for i, e in enumerate(g.edges):
            tin, hin = e.tail in vbar, e.head in vbar
            if not (tin or hin):
                continue
            touching.append(i)
            if tin and hin:
                e0.append(i)
            elif lg.r(i) > 0:
                (up if tin else down).append(i)
        return {
            "up_blue": sum(1 for i in up if g.edges[i].etype.tag == "K1"),
            "up_red": sum(1 for i in up if g.edges[i].etype.tag == "K2"),
            "down_blue": sum(1 for i in down if g.edges[i].etype.tag == "K1"),
            "down_red": sum(1 for i in down if g.edges[i].etype.tag == "K2"),
            "m": sum(1 for i in e0 if g.edges[i].etype.tag == "dK"),
            "m_touch": sum(1 for i in touching if g.edges[i].etype.tag == "dK"),
        }

    for size in range(3, len(inner) + 1):
        for combo in itertools.combinations(inner, size):
            expected = E(2 * size - 2) - E(Fraction(3, 2) * (size - unpaired(combo)))
            assert deg2(lg, combo) == expected, (g.name, combo)
            checked += 1

    for size in range(1, len(inner) + 1):
        for combo in itertools.combinations(inner, size):
            vbar = set(combo) | {g.root}
            c = counts(vbar)
            expected = (
                E(Fraction(1, 2) * len(combo))
                + E(Fraction(3, 2) * unpaired(combo))
                - E(c["m"] + c["up_red"])
                + E(c["down_blue"] + 2 * c["down_red"])
            )
            assert deg3(lg, vbar) == expected, (g.name, vbar)
            checked += 1

    free = [v for v in g.vertices() if v not in tested]
    for size in range(1, len(free) + 1):
        for combo in itertools.combinations(free, size):
            c = counts(set(combo))
            expected = (
                E(Fraction(3, 2) * unpaired(combo))
                - E(Fraction(1, 2) * len(combo))
                + E(c["up_blue"] + 2 * c["up_red"] + c["m_touch"])
            )
            assert deg4(lg, combo) == expected, (g.name, combo)
            checked += 1
    return checked
