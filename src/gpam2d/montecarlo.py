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
``_recentred_product``, on the noise's coefficients (a Fortran-ordered
half-spectrum table, see ``Spectral``) and on the rows where the test
function lives: the fields it only tests against phi are transformed back on
those rows alone, which ``_plan`` resolves once per input.
``convergence_table`` transforms each noise once for all scales and pairs phi
with the mean field once per scale.

Work on two threads follows ``kernels``' worker rule: the worker writes only
into arrays its caller allocated, so no second malloc arena grows, and every
value is computed by the same numpy calls in the same order, so it is the
same to the bit on one CPU or two.  From N = 256 on (the ``Spectral`` size
gate), a table runs its samples in two lanes, the calling thread and the
worker, each drawing into and working on its own ``_Work`` arrays; the
standalone estimators run each large transform in two halves of its lines.
Inside a lane every transform runs inline.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import _ROW_BLOCK, _SPLIT, Spectral, _worker, bump_field, torus_coords


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
    """The work arrays of ``_recentred_product`` on an N x N grid and ``count``
    rows, allocated by the caller: the noise, its coefficients, the multiplier
    product, the complex-pass table, A's and B's rows and one block gather.
    At order j > 0 the noise's array then holds A, and x_j A, on the whole
    grid, and a spare table takes the origin terms."""

    def __init__(self, n: int, count: int, order: int):
        h = n // 2 + 1
        self.noise = np.empty((n, n))
        self.xi_hat = np.empty((n, h), dtype=complex, order="F")
        self.product = np.empty((n, h), dtype=complex, order="F")
        self.lines = np.empty((h, n), dtype=complex)
        self.a, self.b = np.empty((count, n)), np.empty((count, n))
        self.gather = np.empty(h * _ROW_BLOCK, dtype=complex)
        self.spare = np.empty((n, h), dtype=complex, order="F") if order else None


def _recentred_product(spec: Spectral, eps: float, xi_hat: np.ndarray, rows: np.ndarray,
                       phi: np.ndarray, j: int, mean: float, work: _Work) -> float:
    """``A * B_j`` tested against phi, less its exact Gaussian expectation.

    A is the mollified axis-1 derivative of the noise, whose coefficients are
    ``xi_hat``, and B_j is K*(w A), with w the weight of order j, recentred at
    the origin to order 0 (j = 0) or 1 (j = 1, 2).  phi is given on ``rows``
    (``_plan``), whose first is the origin row 0, and ``mean`` is
    ``_paired_mean``.  A and K*(w A) are transformed back on those rows only;
    the other base-point values are coefficient sums.  So j = 0 costs two
    inverse transforms on the rows; j > 0 needs A on the full grid, then the
    forward transform of w A and one inverse transform on the rows.  Every
    array is ``work``'s (or the caller's ``xi_hat``), each written by the
    numpy call that would have allocated it.
    """
    passes = dict(lines=work.lines, gather=work.gather)
    a_hat = np.multiply(spec.d1_frho, xi_hat, out=work.product)
    if j:
        grid = spec.field(a_hat, out=work.noise, lines=work.lines)
        a = np.take(grid, rows, axis=0, mode="wrap", out=work.a)
        w_hat = spec.coeff(np.multiply(_coordinate(spec.n, j), grid, out=grid), out=a_hat)
        origins = [spec.at_origin(np.multiply(np.multiply(d, spec.inv_lap, out=work.spare), w_hat,
                                              out=work.spare)) for d in (spec.d1, spec.d2)]
    else:
        a = spec.field(a_hat, rows, out=work.a, **passes)
        w_hat = a_hat
    b = spec.field(np.multiply(w_hat, spec.inv_lap, out=w_hat), rows, out=work.b, **passes)
    b -= b[0, 0]  # rows[0] is the origin row
    if j:
        for x, origin in zip((_coordinate(spec.n, 1)[rows], _coordinate(spec.n, 2)), origins):
            b -= x * origin
    stoch = float(np.sum(np.multiply(np.multiply(phi, a, out=a), b, out=a))) * spec.mesh2
    return eps * (stoch - mean)


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
    """One value of estimator ``which`` on the noise xi: its coefficients, then the core."""
    n = len(xi)
    spec = _spectral(n, eps)
    rows, test, order = _plan(n, phi, which, j)
    mean = _paired_mean(spec, rows, test, order)  # builds the mean field before any work array
    work = _Work(n, len(rows), order)
    return _recentred_product(spec, eps, spec.coeff(xi, out=work.xi_hat), rows, test, order,
                              mean, work)


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
    mean field once per scale.  The samples run in lanes: two from N = 256
    on, where the worker is ready (the calling thread and the worker), else
    one on the calling thread.  Each lane draws its noises into one buffer
    and works in its own ``_Work`` arrays, all allocated here beforehand, and
    writes each value by sample index, so the table is the same to the bit
    with one lane or two.  A test function that vanishes off the origin, a
    scale at which the mollified noise vanishes on the grid, or a zero
    target, is refused before any noise is drawn.
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
    lanes = [_Work(n, len(live), order)
             for _ in range(2 if n * n >= _SPLIT and _worker.ready() else 1)]
    failed = threading.Event()

    def lane(k: int) -> None:
        work = lanes[k]
        try:
            for i in range(k, samples, len(lanes)):
                if failed.is_set():
                    return
                xi_hat = Spectral.coeff(sample_noise(n, seeds[i], out=work.noise), out=work.xi_hat)
                values[i] = [_recentred_product(spec, eps, xi_hat, live, test, order, mean, work)
                             for eps, spec, mean in zip(eps_list, specs, means)]
        except BaseException:
            failed.set()  # the other lane stops at its next sample
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
