"""The Monte-Carlo layer's worker thread and stacked blocks: same bits on one CPU or two.

``convergence_table`` runs its samples in blocks of ``max(1, _SPLIT // N^2)``
(8 at N = 64, 2 at N = 128), one stack per ``_recentred_product`` call, and
the blocks in two lanes, one of them on the worker.  19 samples leave a
partial last block and split the blocks unevenly across the lanes.  Every
line, row and sample is computed by the same numpy call as alone, so every
value must be equal to the bit, not close.
"""

import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gpam2d
from gpam2d import montecarlo
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
SIZES = [64, 128]
SAMPLES = 19
EPS = [1 / 8, 1 / 16]
ROWS = [("xiixi", 1), ("xiixxi", 1), ("xiixxi", 2), ("xxiixi", 1), ("xxiixi", 2)]
TABLES = (
    "from gpam2d.kernels import bump_field\n"
    "from gpam2d.montecarlo import convergence_table\n"
    f"tables = [[convergence_table({EPS}, n, {SAMPLES}, seed=8, crho_sq=0.2139, which=which,\n"
    "                              j=j, phi=bump_field(n, radius=0.25, centre=(0.3, 0.3)))\n"
    "           for which, j in " + repr(ROWS) + "] for n in " + repr(SIZES) + "]\n"
)
# (mean, var_ratio) at each scale, as the per-sample loop computed them before
# the blocks were stacked: orders 0 are unchanged to the bit.
PINNED = {
    (64, "xiixi", 1): [(-0.3465487068587003, 0.7244879379570439),
                       (-0.2639098418006743, 0.8982565123314931)],
    (64, "xxiixi", 1): [(-0.1233946039298242, 0.5896363464335066),
                        (-0.09387810819479571, 0.8465856908382587)],
    (64, "xxiixi", 2): [(-0.11833392896952176, 0.6606785668983802),
                        (-0.08170499034353122, 0.9064983175532321)],
    (128, "xiixi", 1): [(-0.3062364224762173, 0.999849690788619),
                        (-0.3495519667047602, 1.2218995799963108)],
    (128, "xxiixi", 1): [(-0.16838240542025482, 0.7594279839298462),
                         (-0.17795043823679085, 0.883947900284826)],
    (128, "xxiixi", 2): [(-0.08595562568155643, 0.9726173534250596),
                         (-0.1474883453420588, 1.1154592376895496)],
}


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


@pytest.mark.parametrize("size", range(len(SIZES)), ids=[f"n{n}" for n in SIZES])
def test_rows_are_exactly_the_stats_of_the_public_estimators(size, tables):
    n = SIZES[size]
    phi = bump_field(n, radius=0.25, centre=(0.3, 0.3))
    noises = [sample_noise(n, s) for s in sample_seeds(8, SAMPLES)]
    for (which, j), rows in zip(ROWS, tables[size]):
        weight = phi if which == "xiixi" else montecarlo._coordinate(n, j) * phi
        target = 0.2139 * float(np.sum(weight * weight)) / (n * n)
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


def test_order_zero_rows_are_the_pinned_values(tables):
    for size, n in enumerate(SIZES):
        for (which, j), rows in zip(ROWS, tables[size]):
            if (n, which, j) in PINNED:
                got = [(row["mean"], row["var_ratio"]) for row in rows]
                assert repr(got) == repr(PINNED[n, which, j])


@pytest.mark.parametrize("n", [256, 512])
def test_passes_are_the_inline_calls(n):
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
    stack = np.stack([x[::-1], x])  # a stack of two is each table on its own
    assert np.array_equal(Spectral.coeff(stack)[1], expected)
    assert np.array_equal(Spectral.field(Spectral.coeff(stack), rows)[1], full[rows])


@pytest.mark.parametrize("bad", [2, 10], ids=["calling-lane", "worker-lane"])
def test_error_in_a_lane_reaches_the_caller(bad, tables, monkeypatch):
    draw = montecarlo.sample_noise

    def failing(n, seed, out=None):
        if seed.spawn_key == (bad,):
            raise RuntimeError(f"no noise for seed {bad}")
        return draw(n, seed, out=out)

    monkeypatch.setattr(montecarlo, "sample_noise", failing)
    n = SIZES[0]  # blocks of 8: samples 0-7 and 16-18 on the calling lane, 8-15 on the worker
    phi = bump_field(n, radius=0.25, centre=(0.3, 0.3))
    with pytest.raises(RuntimeError, match=f"no noise for seed {bad}"):
        convergence_table(EPS, n, SAMPLES, phi=phi, seed=8, crho_sq=0.2139)
    monkeypatch.undo()
    assert convergence_table(EPS, n, SAMPLES, phi=phi, seed=8, crho_sq=0.2139) == tables[0][0]


def test_worker_transforms_only_into_given_arrays(tables, monkeypatch):
    # The worker rule: every array a lane writes was allocated by the caller.
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def wrapped(*args, _fft=getattr(np.fft, name), **kw):
            calls.append((threading.current_thread(), "out" in kw))
            return _fft(*args, **kw)
        monkeypatch.setattr(np.fft, name, wrapped)
    n = SIZES[0]
    phi = bump_field(n, radius=0.25, centre=(0.3, 0.3))
    for which, j in ROWS:
        convergence_table(EPS, n, SAMPLES, phi=phi, seed=8, crho_sq=0.2139, which=which, j=j)
    here = threading.current_thread()
    on_worker = [given for thread, given in calls if thread is not here]
    if montecarlo._worker.ready():
        assert on_worker
    assert all(on_worker)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_runs_two_lanes(tables):
    n = SIZES[0]
    phi = bump_field(n, radius=0.25, centre=(0.3, 0.3))
    convergence_table(EPS, n, SAMPLES, phi=phi, seed=8, crho_sq=0.2139)  # the parent's worker runs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads alive
        pid = os.fork()
    if not pid:
        try:
            table = convergence_table(EPS, n, SAMPLES, phi=phi, seed=8, crho_sq=0.2139)
            os._exit(0 if table == tables[0][0] else 1)
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
