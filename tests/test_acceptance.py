"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
tolerances are pinned here.  Criterion 5 carries one strict expected
failure: the published classification of a single noise-free corpus graph
is provably not certifiable by the rewrite-and-relabel method (see the
classification tests for the exhaustion argument); the companion
assertions cover the other ninety-five graphs, each vanishing verdict with
a machine-checked certificate.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from conftest import degree_formulas_agree
from gpam2d.classify import (
    CRITICAL,
    IN_G3,
    IN_G4,
    PUBLISHED_DEFECT,
    VANISHES,
    classify_corpus,
    published_forms,
    published_verdict,
)
from gpam2d.corpus import classification_corpus, load_file, load_graph
from gpam2d.exts import KB, EXT_ZERO, ExtRational
from gpam2d.feynman import (
    canonical_form,
    edge_classes,
    fourth_cumulant_graphs,
    wick_pairings,
)
from gpam2d.powercount import (
    canonical_labelling,
    check_conditions,
    deg2,
    distributed_labelling,
    dtest_normalise,
)

E = ExtRational.of

# Fixed Monte-Carlo configuration for criterion 8 (grid size, sample count
# and master seed; the seed is part of the pinned configuration).
MC_N = 512
MC_SAMPLES = 400
MC_SEED = 2
MC_EPS = [2**-3, 2**-4, 2**-5, 2**-6]


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): PASS {detail}")


def test_criterion_1_symbol_algebra():
    from gpam2d.symbols import (
        PRIMED,
        RHS,
        SOL,
        UNPRIMED,
        check_iota_intertwines,
        generate,
        lift_nonlinearity,
        u_expansion,
    )

    t0 = time.time()
    rhs = {str(s) for s in generate(UNPRIMED, RHS)}
    expected_rhs = {
        "Xi", "X1*Xi", "X2*Xi", "I(Xi)*Xi", "X1*I(Xi)*Xi", "X2*I(Xi)*Xi",
        "I(X1*Xi)*Xi", "I(X2*Xi)*Xi", "I(Xi)*I(Xi)*Xi", "I(I(Xi)*Xi)*Xi",
        "I(Xi)*I(Xi)*I(Xi)*Xi", "I(Xi)*I(I(Xi)*Xi)*Xi",
        "I(I(I(Xi)*Xi)*Xi)*Xi", "I(I(Xi)*I(Xi)*Xi)*Xi",
    }
    assert rhs == expected_rhs
    assert {"One", "X1", "X2"} <= {str(s) for s in generate(UNPRIMED, SOL)}

    lifted = {str(s): str(p) for s, p in lift_nonlinearity(u_expansion(), "g", UNPRIMED)}
    expected_lift = {
        "Xi": "g", "I(Xi)*Xi": "g*g'", "I(I(Xi)*Xi)*Xi": "g*g'^2",
        "I(Xi)*I(Xi)*Xi": "1/2*g^2*g''", "X1*Xi": "du*g'", "X2*Xi": "du*g'",
        "I(I(I(Xi)*Xi)*Xi)*Xi": "g*g'^3", "I(I(Xi)*I(Xi)*Xi)*Xi": "1/2*g^2*g'*g''",
        "I(Xi)*I(Xi)*I(Xi)*Xi": "1/6*g^3*g'''", "I(Xi)*I(I(Xi)*Xi)*Xi": "g^2*g'*g''",
        "I(X1*Xi)*Xi": "du*g'^2", "I(X2*Xi)*Xi": "du*g'^2",
        "X1*I(Xi)*Xi": "du*g*g''", "X2*I(Xi)*Xi": "du*g*g''",
    }
    assert lifted == {k: v for k, v in expected_lift.items()}

    image = {str(s): str(p) for s, p in
             lift_nonlinearity(u_expansion().apply_iota(), "h", PRIMED)}
    assert image == {k: v for k, v in {
        "Xi'": "h", "I(Xi')*Xi'": "g*g'*h'", "X1*Xi'": "du*h'", "X2*Xi'": "du*h'",
    }.items()}

    assert check_iota_intertwines(u_expansion())
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "symbol algebra", f"[{elapsed:.2f}s]")


def test_criterion_2_wick_counts():
    t0 = time.time()
    chain = load_graph("two_noise_tree:chain2")
    pairs = wick_pairings(chain, "all")
    assert len(pairs) == 2
    displayed = {
        canonical_form(load_graph("dumbbell_variance:var-straight")),
        canonical_form(load_graph("dumbbell_variance:var-crossed")),
    }
    assert {canonical_form(g) for g in pairs} == displayed

    cycles = fourth_cumulant_graphs(chain)
    assert len(cycles) == 4
    shipped = {
        canonical_form(graph)
        for name, graph in load_file("kurtosis_cycles").items()
        if name != "cycle-ibp"
    }
    assert {canonical_form(g) for g in cycles} == shipped

    ladder = load_graph("four_noise_a:a01")
    assert len(wick_pairings(ladder, "12-34")) == 4
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, "Wick counts", f"[{elapsed:.2f}s]")


def test_criterion_3_power_counting():
    t0 = time.time()
    # Both variance graphs: the interior condition fails with margin exactly
    # zero at the full inner subset, for every admissible distribution.
    grid = [E(0), E(1) - KB, E(1) - KB - KB, E(1), E(1) + KB, E(2) - KB, E(2)]
    for name in ("var-straight", "var-crossed"):
        g = load_graph(f"dumbbell_variance:{name}")
        mols = sorted(edge_classes(g)["E_M"])
        full = [v for v in g.vertices() if v != g.root]
        lg0 = canonical_labelling(g)
        assert deg2(lg0, full) == EXT_ZERO
        for g1, g2 in itertools.product(grid, repeat=2):
            if (g1 + g2) > E(2):
                continue
            lg = distributed_labelling(g, {mols[0]: g1, mols[1]: g2})
            assert not deg2(lg, full).is_positive()

    # The four rewritten graphs, one whisker less than a full epsilon per
    # mollifier: all five conditions pass, net scale exponent -2 - 2kb.
    target = E(-2) - KB.scale(2)
    for name in ("ibp-moved-straight", "ibp-moved-crossed",
                 "ibp-moved-both-straight", "ibp-moved-both-crossed"):
        g = load_graph(f"ibp_split:{name}")
        normalised, shift = dtest_normalise(g)
        mols = sorted(edge_classes(normalised)["E_M"])
        lg = distributed_labelling(normalised, {m: E(1) - KB for m in mols})
        rep = check_conditions(lg)
        assert rep.ok(), (name, rep.failing())
        assert rep.alpha + E(shift) == target
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, "power counting", f"[{elapsed:.2f}s]")


def test_criterion_4_degree_formula_cross_check():
    t0 = time.time()
    total = 0
    graphs = 0
    for ref, graph in classification_corpus():
        n = degree_formulas_agree(graph)
        total += n
        graphs += bool(n)
    assert total > 1000
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, "degree formulas", f"[{graphs} graphs, {total} subset evaluations, {elapsed:.1f}s]")


@pytest.fixture(scope="module")
def corpus_classification():
    forms = published_forms()
    corpus = classification_corpus()
    results = classify_corpus(corpus, crit_forms=forms["crit"], g2_forms=forms["g2"])
    return corpus, results, forms


DEFECT = PUBLISHED_DEFECT


def test_criterion_5_classification(corpus_classification):
    t0 = time.time()
    corpus, results, forms = corpus_classification
    mism = []
    for ref, graph in corpus:
        want = published_verdict(canonical_form(graph), forms)
        if results[ref].verdict != want:
            mism.append((ref, results[ref].verdict, want))
    # The one graph whose published verdict admits no certificate.
    assert mism == [(DEFECT, IN_G4, VANISHES)]
    counts = Counter(r.verdict for r in results.values())
    assert counts[CRITICAL] == 20 and counts[IN_G3] == 1
    for ref, res in results.items():
        if res.verdict == VANISHES:
            assert res.cases and all(c.report.ok() for c in res.cases), ref
            assert res.eps_rate.is_positive(), ref
            assert res.scale_rate.q0 == 0, ref
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        5,
        "classification",
        f"[{len(corpus) - 1}/{len(corpus)} graphs match the published partition; "
        f"the remaining verdict is a documented defect of the published case "
        f"analysis, see below; {elapsed:.1f}s]",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published partition says the interleaved noise-free display vanishes, "
        "but exhaustion over every rewrite decomposition and faithful labelling "
        "proves no certificate exists (the saturated four-vertex subset forces "
        "the interior margin to minus the epsilon leftover)"
    ),
)
def test_criterion_5_published_partition_in_full(corpus_classification):
    corpus, results, forms = corpus_classification
    for ref, graph in corpus:
        assert results[ref].verdict == published_verdict(canonical_form(graph), forms), ref


def test_criterion_6_noise_amplitude():
    from gpam2d.kernels import Mollifier, SquareKernel, crho_squared

    t0 = time.time()
    spatial = crho_squared("spatial", 128)
    fourier = crho_squared("fourier", 128)
    assert spatial.value > 0 and fourier.value > 0
    assert abs(spatial.value - fourier.value) < 1e-3 * spatial.value

    coarse = crho_squared("spatial", 64, Mollifier(resolution=64))
    assert abs(spatial.value - coarse.value) < 1e-4 * spatial.value

    kernel = SquareKernel(resolution=128)
    integrals = [kernel.integral(eps) for eps in (1.0, 0.5, 0.25)]
    assert (max(integrals) - min(integrals)) < 1e-4 * integrals[0]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        6,
        "noise amplitude",
        f"[c^2 = {spatial.value:.8f}, routes differ by "
        f"{abs(spatial.value - fourier.value) / spatial.value:.1e}, {elapsed:.1f}s]",
    )


def test_criterion_7_kernel_limits():
    from gpam2d.kernels import SquareKernel, approx_unity_report, gconv_limits_check

    t0 = time.time()
    kernel = SquareKernel(resolution=128)
    masses = [
        approx_unity_report(eps, 0.125, kernel.mol, 128)["tail_mass"]
        for eps in (2**-2, 2**-3, 2**-4, 2**-5, 2**-6)
    ]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 1e-3

    residuals = gconv_limits_check(2**-6, n=1024, resolution=128)
    assert all(v < 0.05 for v in residuals.values()), residuals
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        7,
        "kernel limits",
        f"[tail {masses[0]:.4f} -> {masses[-1]:.6f}; residuals "
        + ", ".join(f"{v:.3f}" for v in residuals.values())
        + f"; {elapsed:.1f}s]",
    )


def test_criterion_8_white_noise_limit():
    from gpam2d.kernels import bump_field, crho_squared, torus_coords
    from gpam2d.montecarlo import (
        convergence_table,
        pi_weighted,
        pi_xiixi,
        sample_noise,
        sample_seeds,
    )

    t0 = time.time()
    crho = crho_squared("spatial", 128).value
    phi = bump_field(MC_N, radius=0.25)
    rows = convergence_table(MC_EPS, MC_N, MC_SAMPLES, phi=phi, seed=MC_SEED,
                             crho_sq=crho)

    r6, r3 = rows[-1], rows[0]
    assert abs(r6["var_ratio"] - 1.0) < 0.10
    deviations = [abs(r["var_ratio"] - 1.0) for r in rows]
    errors = [r["var_se"] for r in rows]
    for i in range(len(rows) - 1):
        assert deviations[i + 1] <= deviations[i] + errors[i] + errors[i + 1]

    assert abs(r6["k4_ratio"]) < 0.10
    assert abs(r6["k4_ratio"]) < abs(r3["k4_ratio"])

    x1 = torus_coords(MC_N)[:, None] * np.ones((1, MC_N))
    phi2 = x1 * phi
    target = crho * float(np.sum(x1 * phi * phi2)) / (MC_N * MC_N)
    pairs = []
    for s in sample_seeds(MC_SEED, MC_SAMPLES):  # one noise field alive at a time
        noise = sample_noise(MC_N, s)
        pairs.append((pi_weighted(noise, 2**-6, phi, "xiixxi", 1), pi_xiixi(noise, 2**-6, phi2)))
    weighted, plain = np.array(pairs).T
    cov = float(np.cov(weighted, plain)[0, 1])
    assert abs(cov / target - 1.0) < 0.10

    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(
        8,
        "white-noise limit",
        f"[ratio {r6['var_ratio']:.3f}, kurtosis {r6['k4_ratio']:+.3f}, "
        f"cov/target {cov / target:.3f}, {elapsed:.0f}s]",
    )


def test_criterion_9_determinism(tmp_path):
    from gpam2d.cli import main

    t0 = time.time()
    runs = [
        ["mc", "xiixi", "--eps", "1/8..1/16", "--n", "64", "--samples", "48",
         "--seed", "5", "--resolution", "64"],
        ["constants", "geps", "--eps", "1..1/2", "--resolution", "64"],
        ["symbols", "--structure", "unprimed", "--side", "RHS", "--json"],
    ]
    for argv in runs:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main(["--out", str(a)] + argv) == 0
        assert main(["--out", str(b)] + argv) == 0
        assert a.read_bytes() == b.read_bytes()
        header = json.loads(a.read_text().splitlines()[0].lstrip("# "))
        assert header["version"] and "config" in header
    report(9, "determinism", f"[{time.time() - t0:.1f}s]")
