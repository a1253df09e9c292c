"""Shared test helpers: the closed-form degree oracle, the scalar
power-counting oracle, the permutation-search canonical form, the list
of every shipped graph, the dense Isserlis oracle of the Monte-Carlo
estimators, the whole-table formulas of the smoothing-limit check, the
polar rule of the mollifier's self-convolution profiles and their masses
inside a radius, and the Hankel tables of the square kernel's harmonics.

The three counting degrees have matching-count forms under canonical
labels (valid on structurally sound graphs): the interior degree is
``|V|/2 + 3u/2 - 2`` in the subset size and the number of mollifier-unpaired
vertices, the root degree adds the differentiated/twice-recentred and
incoming-recentred corrections, and the inner degree is
``3u/2 - |V|/2 + up-blue + 2 up-red + touching-dK``.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from gpam2d.corpus import classification_corpus, load_file, load_graph, load_manifest
from gpam2d.exts import ExtRational
from gpam2d.feynman import (
    _KIND_CODE,
    DIRECTION_FREE,
    edge_classes,
    fourth_cumulant_graphs,
    order_rule_offenders,
    validate_structure,
    wick_pairings,
)
from gpam2d.kernels import (
    RESOLUTION,
    Mollifier,
    Spectral,
    Spline,
    _default_mollifier,
    _gauss_nodes,
    bump_field,
    crho_squared,
    torus_coords,
)
from gpam2d.powercount import (
    ConditionReport,
    _degrees,
    _ext,
    _weights,
    canonical_labelling,
    dtest_normalise,
    lambda_exponent,
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
    # Every subset of the labelling from one evaluation: ``degree(vbar, k)``
    # is what ``deg2``, ``deg3`` or ``deg4`` (k = 0, 1, 2) returns at vbar.
    lattice = _weights(lg)
    pos = lattice[0]
    masks = np.arange(1 << len(pos))
    degrees, denom = _degrees(lattice, (masks[:, None] >> np.arange(len(pos))) & 1 == 1)

    def degree(vbar, cond):
        return _ext(degrees[sum(1 << pos[v] for v in vbar), cond], denom)

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
            assert degree(combo, 0) == expected, (g.name, combo)
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
            assert degree(vbar, 1) == expected, (g.name, vbar)
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
            assert degree(combo, 2) == expected, (g.name, combo)
            checked += 1
    return checked


# The scalar power-counting oracle: one degree per subset, enumerated by
# size and then in combinations order, with its own copy of the tables.  It
# is the reference for the bitmask evaluator of ``powercount.check_conditions``,
# whose reports must match it entry for entry, order and margins included.
_DEG2_TABLE = ((-1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
_DEG3_TABLE = ((-1, 0, 0), (-1, -1, 1), (0, 1, 0), (0, 0, 0))
_DEG4_TABLE = ((1, 0, 0), (1, 1, 0), (0, -1, 1), (1, 0, 0))


def _degree(labelled, vbar: frozenset, base: int, table) -> ExtRational:
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


def _subsets(pool: list[int], minimum: int):
    for size in range(minimum, len(pool) + 1):
        yield from itertools.combinations(pool, size)


def scalar_check_conditions(labelled) -> ConditionReport:
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

    inner = [v for v in graph.vertices() if v != root]
    for combo in _subsets(inner, 3):
        vbar = frozenset(combo)
        margin = _degree(labelled, vbar, 2 * (len(vbar) - 1), _DEG2_TABLE)
        if not margin.is_positive():
            rep.cond2.append((frozenset(combo), margin))

    for combo in _subsets(inner, 1):
        vbar = frozenset(combo) | {root}
        margin = _degree(labelled, vbar, 2 * (len(vbar) - 1), _DEG3_TABLE)
        if not margin.is_positive():
            rep.cond3.append((vbar, margin))

    free = [v for v in graph.vertices() if v not in tested]
    for combo in _subsets(free, 1):
        vbar = frozenset(combo)
        margin = _degree(labelled, vbar, -2 * len(vbar), _DEG4_TABLE)
        if not margin.is_positive():
            rep.cond4.append((frozenset(combo), margin))
    return rep


def _edge_ends(e, order: dict[int, int]) -> tuple[int, int]:
    t, h = order[e.tail], order[e.head]
    if e.etype.tag in DIRECTION_FREE and t > h:
        t, h = h, t
    return t, h


def _graph_code(graph, order: dict[int, int]) -> tuple:
    edges = sorted(
        _edge_ends(e, order) + (str(e.etype), e.eps) for e in graph.edges
    )
    kinds = tuple(k for _, k in sorted((order[v], graph.kinds[v]) for v in graph.kinds))
    return (kinds, tuple(edges))


def permutation_search_form(graph) -> str:
    """The reference canonical form: refine the kind colouring once, then try
    every permutation inside each colour group and keep the least code.

    Factorial in the group sizes, hence the cap; it is the oracle for the
    individualisation-refinement search of ``feynman.canonical_form``, whose
    forms must induce the same partition.  It keeps its own refinement and
    code (``_graph_code``), so the two share no code.
    """
    verts = graph.vertices()
    if len(verts) > 16:
        raise ValueError("the permutation search caps at 16 vertices")

    colours = {v: (_KIND_CODE[graph.kinds[v]], 1 if v == graph.root else 0) for v in verts}
    for _ in range(len(verts)):
        new = {}
        for v in verts:
            profile = sorted(
                (
                    str(e.etype),
                    e.eps,
                    e.tail == v if e.etype.tag not in DIRECTION_FREE else True,
                    colours[e.other(v)],
                )
                for e in graph.edges
                if e.touches(v)
            )
            new[v] = (colours[v], tuple(profile))
        ranks = {c: i for i, c in enumerate(sorted(set(new.values()), key=repr))}
        refreshed = {v: (ranks[new[v]],) for v in verts}
        if len(set(refreshed.values())) == len(set(colours.values())):
            colours = refreshed
            break
        colours = refreshed

    groups: dict[tuple, list[int]] = {}
    for v in verts:
        if v == graph.root:
            continue
        key = (_KIND_CODE[graph.kinds[v]],) + colours[v]
        groups.setdefault(key, []).append(v)

    best: tuple | None = None
    group_list = sorted(groups.items(), key=lambda kv: repr(kv[0]))

    def assign(idx: int, order: dict[int, int], next_rank: int):
        nonlocal best
        if idx == len(group_list):
            code = _graph_code(graph, order)
            if best is None or code < best:
                best = code
            return
        _, members = group_list[idx]
        for perm in itertools.permutations(members):
            new_order = dict(order)
            for offset, v in enumerate(perm):
                new_order[v] = next_rank + offset
            assign(idx + 1, new_order, next_rank + len(members))

    assign(0, {graph.root: 0}, 1)
    assert best is not None
    return repr(best)


FIXTURE_FILES = sorted(
    p.name[: -len(".txt")]
    for p in resources.files("gpam2d.fixtures").iterdir()
    if p.name.endswith(".txt") and not p.name.startswith("class_")
)
MANIFESTS = ("class_g2", "class_g3", "class_g4", "class_crit", "class_van")
K4_SOURCES = ("two_noise_tree:chain2", "weighted_tree:wchain2")


def shipped_graphs() -> list[tuple[str, object]]:
    """``(ref, graph)`` for every graph the package ships or derives: the
    classification corpus, the manifest members, every fixture graph, the
    Wick pairings of every stochastic fixture and the raw fourth-cumulant
    graphs of the two 5-vertex chains."""
    out = list(classification_corpus())
    for name in MANIFESTS:
        out += [(f"{name}#{i}", g) for i, g in enumerate(load_manifest(name))]
    for fname in FIXTURE_FILES:
        for gname, graph in load_file(fname).items():
            out.append((f"{fname}:{gname}", graph))
            if graph.noise_vertices():
                out += [(f"{fname}:{g.name}", g) for g in wick_pairings(graph)]
    for ref in K4_SOURCES:
        raw = fourth_cumulant_graphs(load_graph(ref), dedup=False)
        out += [(f"{ref}|k4#{i}", g) for i, g in enumerate(raw)]
    return out


@lru_cache(maxsize=8)
def dense_estimator_maps(n: int, eps: float, j: int):
    """The two linear maps of the order-j estimator on every unit noise.

    Returns read-only arrays ``a, b`` of shape (N^2, N, N): ``a[u]`` is the
    mollified derivative A and ``b[u]`` the recentred B_j = K*(w A), less
    its value at the origin and, for j > 0, less ``x_i`` times its axis-i
    derivative there, both for the noise that is 1 in cell u and 0 elsewhere.
    They are built on full-spectrum FFTs, the derivative multipliers taken as
    they are and projected onto real fields by ``.real``.  The estimator is
    ``eps * (sum_z phi A B_j - mean) / N^2``, a quadratic form in the noise.
    """
    m = np.fft.fftfreq(n, d=1.0 / n)
    s1, s2 = 2 * np.pi * m[:, None], 2 * np.pi * m[None, :]
    ss = s1**2 + s2**2
    ss[0, 0] = 1.0
    frho = _default_mollifier(RESOLUTION).fourier(np.sqrt(ss) * eps)
    frho[0, 0] = 1.0
    inv_lap = 1.0 / ss
    inv_lap[0, 0] = 0.0
    x = torus_coords(n)
    weight = {0: 1.0, 1: x[:, None], 2: x[None, :]}
    units = np.eye(n * n).reshape(n * n, n, n)
    a = np.fft.ifft2(1j * s1 * frho * np.fft.fft2(units)).real
    w_hat = np.fft.fft2(weight[j] * a) / (n * n)
    kw = np.fft.ifft2(w_hat * inv_lap).real * (n * n)
    b = kw - kw[:, :1, :1]
    if j:
        for i, s in ((1, s1), (2, s2)):
            b -= weight[i] * (1j * s * inv_lap * w_hat).sum(axis=(1, 2)).real[:, None, None]
    a.flags.writeable = b.flags.writeable = False
    return a, b


def isserlis_mean_field(n: int, eps: float, j: int) -> np.ndarray:
    """E[A(z) B_j(z)] at every grid point, summed over the dense maps.

    The noise cells are independent with variance N^2, so by Isserlis the
    expectation of the product of two linear forms is N^2 times the sum of
    their coefficient products over the cells.
    """
    a, b = dense_estimator_maps(n, eps, j)
    return n * n * np.einsum("uzy,uzy->zy", a, b)


def _whole_field(coeff: np.ndarray) -> np.ndarray:
    n = coeff.shape[0]
    return np.fft.irfft2(coeff, s=(n, n)) * (n * n)


def _whole_coeff(field: np.ndarray) -> np.ndarray:
    return np.fft.rfft2(field) / field.size


def reference_geps_field(n: int, eps: float, mol) -> np.ndarray:
    """The epsilon-scale kernel on the grid, each multiplier table built whole
    and each field by numpy's 2-d inverse transform."""
    spec = Spectral(n, eps, mol)
    conv_sq = _whole_field((spec.s1**2 * spec.inv_lap * spec.frho) ** 2)
    return eps * eps * (conv_sq * _whole_field(spec.frho**2)
                        + _whole_field(spec.s1**2 * spec.inv_lap * spec.frho**2) ** 2)


def reference_gconv_limits(eps: float, n: int, mol, resolution: int) -> dict:
    """The three smoothing-limit residuals, every field kept and every
    correlation ``sum_y f(x + y) g(y)`` taken from both fields' coefficients."""
    def correlate(f, g):
        return _whole_field(_whole_coeff(f) * _whole_coeff(g).conj())

    f = bump_field(n, radius=0.175)
    phi = bump_field(n, radius=0.25)
    crho_sq = crho_squared("spatial", resolution, mol).value
    geps = reference_geps_field(n, eps, mol)
    mesh2 = 1.0 / (n * n)
    gf = _whole_field(_whole_coeff(geps) * _whole_coeff(f))
    lhs1 = float(np.sum(phi * gf)) * mesh2
    rhs1 = crho_sq * float(np.sum(phi * f)) * mesh2
    corr_phi = correlate(phi, phi)
    lhs2 = float(np.sum(gf * gf * corr_phi)) * mesh2
    rhs2 = crho_sq * crho_sq * float(np.sum(f * f * corr_phi)) * mesh2
    lhs3 = float(np.sum(geps * correlate(gf, f) * corr_phi)) * mesh2
    rhs3 = crho_sq * crho_sq * float(np.sum(phi * phi)) * mesh2 * float(np.sum(f * f)) * mesh2
    return {"limit1": abs(lhs1 - rhs1) / abs(rhs1), "limit2": abs(lhs2 - rhs2) / abs(rhs2),
            "limit3": abs(lhs3 - rhs3) / abs(rhs3)}


@lru_cache(maxsize=None)
def polar_profile_reference(resolution: int, order: int) -> np.ndarray:
    """The order-2 or order-3 self-convolution profile of the bump at
    ``resolution``, at the knots ``linspace(0, order, 3 resolution)``, by the
    polar recursion ``rho_k(g) = int rho(t) rho_(k-1)(|g - t e^(ia)|) t dt da``.

    The rule the profiles were built by before the Abel projection, written
    out: 2R Gauss-Legendre nodes in t, the 512-node rectangle rule over the
    whole period in the angle, and the lower profile a spline (the bump
    sampled at 4R points, or this reference at order 2) held at its
    support's edge beyond it.
    """
    mol = Mollifier(resolution=resolution)
    if order == 2:
        bump = np.linspace(0.0, 1.0, 4 * resolution)
        lower = Spline(bump, mol.rad(bump))
    else:
        lower = Spline(np.linspace(0.0, 2.0, 3 * resolution), polar_profile_reference(resolution, 2))
    tn, tw = _gauss_nodes(0.0, 1.0, 2 * resolution)
    weights = tw * tn * mol.rad(tn)
    cos_a = np.cos(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    grid = np.linspace(0.0, float(order), 3 * resolution)
    out = np.empty_like(grid)
    for i, g in enumerate(grid):  # one radius at a time: 2R x 512 points
        dist = np.sqrt(np.maximum(g * g + tn[:, None] ** 2 - 2.0 * g * tn[:, None] * cos_a, 0.0))
        out[i] = 2.0 * np.pi / 512 * weights @ lower(np.clip(dist, 0.0, order - 1.0)).sum(axis=1)
    return out


def disc_mass(mol, order: int, r):
    """Mass of the order-fold self-convolution inside radius r: ``pi r^2``
    times the disc-mean table inside the support, 1 beyond."""
    r = np.asarray(r, dtype=float)
    return np.where(r >= float(order), 1.0, math.pi * r * r * mol._disc_mean(order, r))


@lru_cache(maxsize=None)
def hankel_tables(resolution: int) -> tuple:
    """The bump's mollifier at ``resolution`` and the square kernel's harmonic
    tables ``(h0, h2, h4)`` by Hankel quadrature, ``c_n/(2 pi) int fourier^2
    J_n(sigma r) sigma dsigma`` with c = 3/8, -1/2, 1/8: 8R Gauss-Legendre
    nodes in sigma up to ``30 + 4 sqrt(R)``, 2R radii on [0, 2], each table a
    spline, and J_n scipy's (a test-only import).  The rule the kernel was
    built by before it read the harmonics off the order-2 profile.
    """
    from scipy.special import jv

    mol = Mollifier(resolution=resolution)
    sn, sw = _gauss_nodes(0.0, 30.0 + 4.0 * math.sqrt(resolution), 8 * resolution)
    weights = mol.fourier(sn) ** 2 * sn * sw
    rgrid = np.linspace(0.0, 2.0, 2 * resolution)
    args = np.outer(rgrid, sn)
    return mol, tuple(Spline(rgrid, c / (2.0 * math.pi) * (jv(n, args) @ weights))
                      for n, c in ((0, 3.0 / 8.0), (2, -0.5), (4, 1.0 / 8.0)))
