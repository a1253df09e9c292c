"""Spectral white-noise sampling and the renormalised-product estimators.

The torus surrogate works on an N x N grid over the unit square with the
chart centred at the origin.  White noise has per-cell variance N^2; all
kernels act as Fourier multipliers (the inverse Laplacian drops its zero
mode), the mollifier enters through its continuum radial transform sampled
at grid frequencies, and the subtracted counterterm is the Gaussian
expectation of the stochastic part, computed in Fourier space rather than
estimated empirically.  It is exact on the grid at both orders: A's
covariance enters as the multiplier ``|d1_frho|^2``, zero on the Nyquist row
like A's ``d1``, and every term is the sum the estimator itself forms.

The two estimators are orders 0 and 1 of one recentring: ``pi_xiixi``
recentres ``K*A`` to order 0, and ``pi_weighted(..., "xiixxi", j)`` recentres
``K*(x_j A)`` to order 1 with the twice-recentred kernel.  Both run one core,
``_recentred_product``, on a stack of noises' coefficients (Fortran-ordered
half-spectrum tables, see ``Spectral``) and on the rows where the test
function lives: the fields it only tests against phi are transformed back on
those rows alone, which ``_plan`` resolves once per input.  A standalone
estimator is a stack of one; ``convergence_table`` stacks blocks of samples
(2^15 points), transforms each noise once for all scales and pairs phi with
the mean field once per scale.

Work on two threads follows ``_Worker``'s rule: the worker writes only
into arrays its caller allocated, so no second malloc arena grows, and every
value is computed by the same numpy calls in the same order, so it is the
same to the bit on one CPU or two.  A table with two blocks or more runs
them in two lanes, the calling thread and the worker, each drawing into and
working on its own ``_Work`` arrays.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import _ROW_BLOCK, Spectral, bump_field, torus_coords


def sample_noise(n: int, seed, out: np.ndarray | None = None) -> np.ndarray:
    """Real white noise on the N x N grid, variance N^2 per cell, seed-determined;
    drawn into ``out`` if given."""
    if n < 1 or n & (n - 1):
        raise ValueError("grid size must be a power of two")
    xi = np.random.default_rng(seed).standard_normal((n, n), out=out)
    xi *= n
    return xi


_spectral = lru_cache(maxsize=16)(Spectral)  # one table per (N, eps)


@lru_cache(maxsize=32)
def _coordinate(n: int, j: int):
    """The chart coordinate x_j (j = 1 or 2), the weight of order j, as a
    read-only (N, 1) or (1, N) array cached per N."""
    x = torus_coords(n)
    x.flags.writeable = False
    return x[:, None] if j == 1 else x[None, :]


def _paired_mean(spec: Spectral, rows: np.ndarray, phi: np.ndarray, j: int) -> float:
    """``<phi, E[A B_j]>``, the sample-independent part, for phi on ``rows``."""
    return float(np.sum(phi * _mean_field(spec, j)[rows])) * spec.mesh2


class _Work:
    """The work arrays of ``_recentred_product`` for a block of ``size``
    samples on an N x N grid and its ``rows``, allocated by the caller: the
    noises, their coefficients, the multiplier product, the complex-pass
    table, A's and B's rows, one block gather, and per sample B's values at
    the origin, the column sums behind them and the origin terms.

    Tables are held in the transposed half-spectrum layout
    ``(size, N/2+1, N)``: each sample's slice of ``lines`` is the table that
    ``field`` makes on its way, and of a coefficient stack (axes swapped) a
    Fortran-ordered table.  At j = 2 the noise's array then holds A on the
    whole grid; at j > 0 ``lines`` holds the origin slopes' products between
    its passes.
    """

    _STACKED = ("noise", "xi_hat", "product", "lines", "a", "b", "origins", "cols", "x1_terms",
                "x2_terms")

    def __init__(self, n: int, rows: np.ndarray, size: int):
        h, count = n // 2 + 1, len(rows)
        self.noise = np.empty((size, n, n))
        self.xi_hat, self.product = (np.empty((size, h, n), dtype=complex).swapaxes(1, 2)
                                     for _ in range(2))
        self.lines = np.empty((size, h, n), dtype=complex)
        self.a, self.b = np.empty((size, count, n)), np.empty((size, count, n))
        self.gather = np.empty(size * h * min(count, _ROW_BLOCK), dtype=complex)
        self.origins = np.empty((size, 3))  # B at the origin, then its two slopes there
        self.cols = np.empty((size, h))
        self.x1 = _coordinate(n, 1)[rows]
        self.x1_terms, self.x2_terms = np.empty((size, count, 1)), np.empty((size, 1, n))

    def first(self, m: int) -> _Work:
        """The same arrays for the first m samples of the block."""
        part = object.__new__(_Work)
        part.__dict__.update(vars(self), **{k: getattr(self, k)[:m] for k in self._STACKED})
        return part


def _recentred_product(spec: Spectral, eps: float, xi_hat: np.ndarray, rows: np.ndarray,
                       phi: np.ndarray, j: int, mean: float, work: _Work,
                       out: np.ndarray) -> np.ndarray:
    """``A * B_j`` tested against phi, less its exact Gaussian expectation, for
    each sample of a block: its values, written into ``out``.

    A is the mollified axis-1 derivative of the noise, whose coefficients are
    the stack ``xi_hat``, and B_j is K*(w A), with w the weight of order j,
    recentred at the origin to order 0 (j = 0) or 1 (j = 1, 2).  phi is given
    on ``rows`` (``_plan``), whose first is the origin row 0, and ``mean`` is
    ``_paired_mean``.  A and B_j are transformed back on those rows only; the
    other base-point values are coefficient sums.  w A's coefficients are
    A's at j = 0; at j = 1, where x_1 is constant along axis 2, they are the
    forward axis-1 transform of x_1 times A's complex-pass table; at j = 2
    they are the forward transform of x_2 A from the whole grid.  So a
    product costs four transforms at j = 0, five at j = 1 and six at j = 2,
    each one numpy call for the whole block (per block of ``_ROW_BLOCK``
    rows for a real pass).  Every array is ``work``'s (or the caller's
    ``xi_hat`` and ``out``), each written by the numpy call that would have
    allocated it.
    """
    passes = dict(lines=work.lines, gather=work.gather)
    a_hat = np.multiply(spec.d1_frho, xi_hat, out=work.product)
    if j == 2:
        grid = spec.field(a_hat, out=work.noise, lines=work.lines)
        a = np.take(grid, rows, axis=1, mode="wrap", out=work.a)
        w_hat = spec.coeff(np.multiply(_coordinate(spec.n, 2), grid, out=grid), out=a_hat)
    else:
        a = spec.field(a_hat, rows, out=work.a, **passes)
        w_hat = a_hat if not j else spec.from_lines(
            np.multiply(work.lines, _coordinate(spec.n, 1).T, out=work.lines), out=a_hat)
    origins = work.origins
    if j:  # the slopes of K*(w A) at the origin, with lines free until B's complex pass
        room = work.lines.swapaxes(1, 2)
        for k, d in ((1, spec.d1), (2, spec.d2)):
            spec.at_origin(np.multiply(np.multiply(d, spec.inv_lap, out=room), w_hat, out=room),
                           out=origins[:, k], cols=work.cols)
    b = spec.field(np.multiply(w_hat, spec.inv_lap, out=w_hat), rows, out=work.b, **passes)
    np.copyto(origins[:, 0], b[:, 0, 0])  # rows[0] is the origin row
    b -= origins[:, :1, None]
    if j:
        b -= np.multiply(work.x1, origins[:, 1, None, None], out=work.x1_terms)
        b -= np.multiply(_coordinate(spec.n, 2), origins[:, 2, None, None], out=work.x2_terms)
    np.multiply(np.multiply(phi, a, out=a), b, out=a)
    stoch = np.sum(a.reshape(len(a), -1), axis=1, out=out)
    stoch *= spec.mesh2
    stoch -= mean
    stoch *= eps
    return stoch


@lru_cache(maxsize=32)
def _mean_field(spec: Spectral, j: int) -> np.ndarray:
    """E[A(z) B_j(z)] as a grid field, exactly.

    A's covariance r_a is the field of its multiplier ``|d1_frho|^2`` and K
    that of ``inv_lap``.  Order 0 is R(0) - R(z) with R = K*r_a.  Order j > 0,
    with w the weight of order j, is ``(K r_a)*w - (w K)*r_a`` plus
    ``x_i ((w d_i K)*r_a)`` for i = 1, 2: E[A(z)] against K*(w A) at z, at the
    origin, and against its gradient there, which is odd.  Every convolution
    is circular, as are the estimator's, so w keeps its jump across the torus.
    """
    cov = np.abs(spec.d1_frho) ** 2
    if not j:
        r = spec.field(cov * spec.inv_lap)
        return r[spec.origin] - r
    w, k = _coordinate(spec.n, j), spec.field(spec.inv_lap)

    def weighted_r_a(kernel):  # (w kernel)*r_a
        return spec.field(spec.coeff(w * kernel) * cov)

    mean = spec.convolve(k * spec.field(cov), np.broadcast_to(w, k.shape)) - weighted_r_a(k)
    for x, d in ((_coordinate(spec.n, 1), spec.d1), (_coordinate(spec.n, 2), spec.d2)):
        mean += x * weighted_r_a(spec.field(d * spec.inv_lap))
    return mean


def _plan(n: int, phi: np.ndarray, which: str, j: int):
    """Estimator ``which`` on axis ``j`` against phi, resolved once.

    Returns the rows where its test function lives, led by the origin row 0;
    the test function on those rows; and the recentring order.  phi must
    cover the grid: no broadcasting, no row guessing.
    """
    if np.shape(phi) != (n, n):
        raise ValueError(f"test function has shape {np.shape(phi)}, not the grid's {(n, n)}")
    if which == "xiixi":
        test, order = phi, 0
    elif j not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, not {j!r}")
    elif which == "xxiixi":
        test, order = _coordinate(n, j) * phi, 0
    elif which == "xiixxi":
        test, order = phi, j
    else:
        raise ValueError(f"unknown estimator {which!r}")
    rows = np.flatnonzero(np.any(test, axis=1))
    if not rows.size or rows[0]:
        rows = np.concatenate(([0], rows))
    return rows, test[rows], order


def _estimate(xi: np.ndarray, eps: float, phi: np.ndarray, which: str, j: int) -> float:
    """One value of estimator ``which`` on the noise xi: its coefficients, then
    the core on a block of one."""
    n = len(xi)
    spec = _spectral(n, eps)
    rows, test, order = _plan(n, phi, which, j)
    mean = _paired_mean(spec, rows, test, order)  # builds the mean field before any work array
    work, value = _Work(n, rows, 1), np.empty(1)
    xi_hat = spec.coeff(xi[None], out=work.xi_hat)
    return float(_recentred_product(spec, eps, xi_hat, rows, test, order, mean, work, value)[0])


def pi_xiixi(xi: np.ndarray, eps: float, phi: np.ndarray) -> float:
    """The renormalised product of the noise with its integrated copy.

    Tests ``A * (K*A - (K*A)(0))`` against phi and subtracts the exact
    Gaussian expectation; A is the mollified noise derivative.
    """
    return _estimate(xi, eps, phi, "xiixi", 0)


def pi_weighted(xi: np.ndarray, eps: float, phi: np.ndarray, which: str,
                j: int = 1) -> float:
    """Coordinate-weighted renormalised products.

    ``xxiixi``: the polynomially decorated product, identically the plain
    estimator tested against ``x_j * phi``.  ``xiixxi``: the integration
    point weighted by ``x_j`` with the twice-recentred kernel.
    """
    if which == "xiixi":
        raise ValueError("pi_weighted takes xxiixi or xiixxi; use pi_xiixi")
    return _estimate(xi, eps, phi, which, j)


MIN_SAMPLES = 16  # the fewest values estimate_stats takes


def require_samples(samples: int) -> None:
    """Reject a sample count too small for ``estimate_stats``; the Monte-Carlo
    callers check before they draw any noise."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")


@dataclass
class StatReport:
    mean: float
    variance: float
    fourth_cumulant: float
    excess_ratio: float
    mean_se: float
    variance_se: float
    fourth_cumulant_se: float


def _k_statistics(values: np.ndarray):
    n = len(values)
    mean = values.mean()
    d = values - mean
    m2 = float(np.mean(d**2))
    m4 = float(np.mean(d**4))
    var = m2 * n / (n - 1)
    k4 = (n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2)) / ((n - 1) * (n - 2) * (n - 3))
    return float(mean), var, k4


def estimate_stats(values) -> StatReport:
    """Unbiased mean/variance and the fourth k-statistic, with errors from
    up to 16 batches of at least 8 values."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    require_samples(n)
    mean, var, k4 = _k_statistics(values)
    splits = np.array_split(values, min(16, n // 8))
    per_batch = np.array([_k_statistics(chunk) for chunk in splits])
    nb = per_batch.shape[0]
    ses = per_batch.std(axis=0, ddof=1) / math.sqrt(nb)
    ratio = k4 / (var * var) if var else 0.0
    return StatReport(
        mean=mean,
        variance=var,
        fourth_cumulant=k4,
        excess_ratio=ratio,
        mean_se=float(ses[0]),
        variance_se=float(ses[1]),
        fourth_cumulant_se=float(ses[2]),
    )


def sample_seeds(master_seed: int, count: int):
    return np.random.SeedSequence(master_seed).spawn(count)


_SPLIT = 1 << 15  # points per block of a convergence table: max(1, _SPLIT // N^2) samples


class _Worker:
    """The one helper thread of the Monte-Carlo lanes.

    Rule: it writes only into arrays its caller allocated.  glibc gives a
    thread that allocates an arena of its own, and the steady heap keeps what
    it grows: on mc_limit (N = 512), lanes that allocated their work arrays
    per sample peaked at 154.3 MB, against 135.9 MB on arrays the caller
    allocated.  Nothing starts at import.  The thread starts at the first
    ``ready``, where the process may run on two CPUs or more; a forked child
    forgets it.
    """

    def __init__(self) -> None:
        self._forget()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._lock, self._pool = threading.Lock(), None  # None: not started; False: one CPU

    def ready(self) -> bool:
        """Whether ``both`` may hand work to the thread: on two CPUs or more."""
        with self._lock:
            if self._pool is None:
                cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
                if cpus > 1:
                    from concurrent.futures import ThreadPoolExecutor

                    self._pool = ThreadPoolExecutor(1, thread_name_prefix="gpam2d")
                else:
                    self._pool = False
        return bool(self._pool)

    def both(self, first, second) -> None:
        """``first()`` on the thread and ``second()`` here, once ``ready`` said
        so; returns when both are done, raising what either raised."""
        future = self._pool.submit(first)
        try:
            second()
        finally:
            future.result()


_worker = _Worker()


def convergence_table(eps_list, n: int, samples: int, phi: np.ndarray | None = None,
                      seed: int = 7, *, crho_sq: float, which: str = "xiixi",
                      j: int = 1) -> list[dict]:
    """Variance ratio, mean and kurtosis across scales, common noise per row.

    ``which`` is ``xiixi`` (``pi_xiixi`` against phi) or a ``pi_weighted``
    estimator on axis ``j``, whose limiting variance is taken against
    ``x_j * phi``.  Each noise is drawn once and evaluated at every scale
    before the next is drawn (common random numbers), so the across-scale
    comparisons in the output are far more stable than the per-entry error
    bars suggest.  Each noise is transformed once, and phi is paired with the
    mean field once per scale.  The samples run in blocks of
    ``max(1, _SPLIT // N^2)`` (8 at N = 64, 1 from N = 256 on), each block one
    stack through ``_recentred_product``, and the blocks in lanes: two where
    there are two blocks or more and the worker is ready (the calling thread
    and the worker), else one on the calling thread.  Each lane draws a
    block's noises into one stack and works in its own ``_Work`` arrays, all
    allocated here beforehand, and writes each value by sample index, so the
    table is the same to the bit with one lane or two.  A test function that
    vanishes off the origin, a scale at which the mollified noise vanishes
    on the grid, or a zero target, is refused before any noise is drawn.
    """
    require_samples(samples)
    if phi is None:
        phi = bump_field(n, radius=0.25)
    live, test, order = _plan(n, phi, which, j)
    weight = phi if which == "xiixi" else _coordinate(n, j) * phi
    target = crho_sq * float(np.sum(weight * weight)) / (n * n)
    if not test.ravel()[1:].any():  # test[0, 0] is the origin, where every product vanishes
        raise ValueError(f"the test function vanishes off the origin of the {n} x {n} grid, "
                         "so every sample is the same constant")
    if not target:
        raise ValueError("the target variance is zero: nothing to compare the samples with")
    specs = [_spectral(n, eps) for eps in eps_list]
    for eps, spec in zip(eps_list, specs):
        if not spec.d1_frho.any():  # every grid frequency lies past the mollifier cut-off
            raise ValueError(f"the mollified noise vanishes on the {n} x {n} grid at scale "
                             f"{eps}, so every sample is the same constant")
    # Every cache a lane reads is built here, on the calling thread.
    means = [_paired_mean(spec, live, test, order) for spec in specs]
    _coordinate(n, 1), _coordinate(n, 2)
    seeds = sample_seeds(seed, samples)
    values = np.empty((samples, len(eps_list)))
    size = max(1, _SPLIT // (n * n))
    starts = range(0, samples, size)
    lanes = [_Work(n, live, size) for _ in range(2 if len(starts) > 1 and _worker.ready() else 1)]
    failed = threading.Event()

    def lane(k: int) -> None:
        try:
            for start in starts[k::len(lanes)]:
                if failed.is_set():
                    return
                block = slice(start, min(start + size, samples))
                work = lanes[k].first(block.stop - start)
                for i, noise in zip(range(start, block.stop), work.noise):
                    sample_noise(n, seeds[i], out=noise)
                xi_hat = Spectral.coeff(work.noise, out=work.xi_hat)
                for column, (eps, spec, mean) in enumerate(zip(eps_list, specs, means)):
                    _recentred_product(spec, eps, xi_hat, live, test, order, mean, work,
                                       values[block, column])
        except BaseException:
            failed.set()  # the other lane stops at its next block
            raise

    if len(lanes) == 1:
        lane(0)
    else:
        _worker.both(lambda: lane(1), lambda: lane(0))
    rows = []
    for eps, column in zip(eps_list, values.T):
        stats = estimate_stats(column)
        rows.append(
            {
                "eps": eps,
                "n": n,
                "samples": samples,
                "which": which,
                "axis": j,
                "var_ratio": stats.variance / target,
                "var_se": stats.variance_se / target,
                "mean": stats.mean,
                "mean_se": stats.mean_se,
                "k4_ratio": stats.excess_ratio,
                "k4_se": stats.fourth_cumulant_se / (stats.variance**2),
                "seed": seed,
            }
        )
    return rows
