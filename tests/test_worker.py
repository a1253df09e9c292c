"""The Monte-Carlo layer's worker thread: same bits on one CPU or two.

From N = 256 on (2^15 points), ``Spectral``'s passes run in two halves of
their lines and ``convergence_table`` runs its samples in two lanes, one of
them on the worker.  Every line, row and sample is computed by the same numpy
call as in one piece, so every value must be equal to the bit, not close.
"""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gpam2d
from gpam2d import kernels, montecarlo
from gpam2d.kernels import Spectral, bump_field
from gpam2d.montecarlo import (
    convergence_table,
    estimate_stats,
    pi_weighted,
    pi_xiixi,
    sample_noise,
    sample_seeds,
)

PACKAGE_PARENT = Path(gpam2d.__file__).resolve().parent.parent
N = 256
EPS = [1 / 8, 1 / 16]
ROWS = [("xiixi", 1), ("xiixxi", 1), ("xiixxi", 2), ("xxiixi", 1), ("xxiixi", 2)]
TABLES = (
    "from gpam2d.kernels import bump_field\n"
    "from gpam2d.montecarlo import convergence_table\n"
    f"phi = bump_field({N}, radius=0.25, centre=(0.3, 0.3))\n"
    f"tables = [convergence_table({EPS}, {N}, 16, phi=phi, seed=8, crho_sq=0.2139,\n"
    "                            which=which, j=j) for which, j in " + repr(ROWS) + "]\n"
)


def run_child(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def tables():
    scope = {}
    exec(TABLES, scope)
    return scope["tables"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_tables_on_one_cpu_are_the_same_bits(tables):
    pinned = run_child("import json, os\n"
                       "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                       + TABLES + "print(json.dumps(tables))\n")
    assert json.loads(pinned) == tables  # repr round-trips every float exactly


def test_rows_are_exactly_the_stats_of_the_public_estimators(tables):
    phi = bump_field(N, radius=0.25, centre=(0.3, 0.3))
    noises = [sample_noise(N, s) for s in sample_seeds(8, 16)]
    for (which, j), rows in zip(ROWS, tables):
        weight = phi if which == "xiixi" else montecarlo._coordinate(N, j) * phi
        target = 0.2139 * float(np.sum(weight * weight)) / (N * N)
        for eps, row in zip(EPS, rows):
            if which == "xiixi":
                values = [pi_xiixi(x, eps, phi) for x in noises]
            else:
                values = [pi_weighted(x, eps, phi, which, j) for x in noises]
            stats = estimate_stats(values)
            assert row["var_ratio"] == stats.variance / target
            assert row["var_se"] == stats.variance_se / target
            assert (row["mean"], row["mean_se"], row["k4_ratio"]) == (
                stats.mean, stats.mean_se, stats.excess_ratio)


@pytest.mark.parametrize("n", [256, 512])
def test_split_passes_are_the_unsplit_calls(n, monkeypatch):
    halves = []
    both = kernels._worker.both
    monkeypatch.setattr(kernels._worker, "both", lambda *a: halves.append(1) or both(*a))
    x = np.random.default_rng(n).standard_normal((n, n))
    expected = np.empty((n, n // 2 + 1), dtype=complex, order="F")
    np.fft.rfft(x, axis=1, norm="forward", out=expected)
    np.fft.fft(expected, axis=0, norm="forward", out=expected)
    c = Spectral.coeff(x)
    assert np.array_equal(c, expected)
    lines = np.fft.ifft(c.T, axis=1, norm="forward")
    full = np.fft.irfft(lines.T, n, axis=1, norm="forward")
    assert np.array_equal(Spectral.field(c), full)
    rows = (np.arange(n) * 7 % n)[::-1][:n // 2 + 1]  # odd length, strided, out of order
    assert not rows.flags.contiguous and len(rows) % 2
    assert np.array_equal(Spectral.field(c, rows), full[rows])
    if kernels._worker.ready():
        assert len(halves) == 6  # two passes each: coeff, field, field on rows


@pytest.mark.parametrize("bad", [2, 3], ids=["calling-lane", "worker-lane"])
def test_error_in_a_lane_reaches_the_caller(bad, tables, monkeypatch):
    draw = montecarlo.sample_noise

    def failing(n, seed, out=None):
        if seed.spawn_key == (bad,):
            raise RuntimeError(f"no noise for seed {bad}")
        return draw(n, seed, out=out)

    monkeypatch.setattr(montecarlo, "sample_noise", failing)
    phi = bump_field(N, radius=0.25, centre=(0.3, 0.3))
    with pytest.raises(RuntimeError, match=f"no noise for seed {bad}"):
        convergence_table(EPS, N, 16, phi=phi, seed=8, crho_sq=0.2139)
    monkeypatch.undo()
    assert convergence_table(EPS, N, 16, phi=phi, seed=8, crho_sq=0.2139) == tables[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_runs_a_split_pass():
    x = np.random.default_rng(1).standard_normal((N, N))
    expected = Spectral.coeff(x)  # the parent's worker, if any, is running
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads alive
        pid = os.fork()
    if not pid:
        try:
            os._exit(0 if np.array_equal(Spectral.coeff(x), expected) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while not (status := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not status[0]:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0


def test_import_starts_no_thread():
    out = run_child("import sys, threading\n"
                    "import gpam2d, gpam2d.cli, gpam2d.kernels, gpam2d.montecarlo\n"
                    "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n")
    assert out.split() == ["1", "False"]
