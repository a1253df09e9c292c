"""Spectral white-noise sampling and the renormalised-product estimators.

The torus surrogate works on an N x N grid over the unit square with the
chart centred at the origin.  White noise has per-cell variance N^2; all
kernels act as Fourier multipliers (the inverse Laplacian drops its zero
mode), the mollifier enters through its continuum radial transform sampled
at grid frequencies, and the subtracted counterterm is the Gaussian
expectation of the stochastic part, computed in Fourier space rather than
estimated empirically.  It takes A's covariance as ``s1^2 frho^2``, though
A's multiplier ``d1`` is zero on the Nyquist row, so at N=64 the counterterm
is a relative 3e-6 to 3e-5 off the exact expectation; only ``mean`` moves.

The two estimators are orders 0 and 1 of one recentring: ``pi_xiixi``
recentres ``K*A`` to order 0, and ``pi_weighted(..., "xiixxi", j)`` recentres
``K*(x_j A)`` to order 1 with the twice-recentred kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import RESOLUTION, Spectral, bump_field, torus_coords


@dataclass
class NoiseSample:
    xi: np.ndarray
    n: int


def sample_noise(n: int, seed) -> NoiseSample:
    """Real white noise on the grid, variance N^2 per cell, seed-determined."""
    if n < 1 or n & (n - 1):
        raise ValueError("grid size must be a power of two")
    rng = np.random.default_rng(seed)
    return NoiseSample(xi=rng.standard_normal((n, n)) * n, n=n)


_spectral = lru_cache(maxsize=16)(Spectral)  # one table per (N, eps)


def _coordinate(n: int, j: int):
    """The weight of order ``j``: 1 for j = 0, else the chart coordinate x_j."""
    if j == 0:
        return 1.0
    x = torus_coords(n)
    return x[:, None] if j == 1 else x[None, :]


def _recentred_product(sample: NoiseSample, eps: float, phi: np.ndarray, j: int) -> float:
    """``A * B_j`` tested against phi, less its exact Gaussian expectation.

    A is the mollified axis-1 derivative of the noise and B_j is K*(w A),
    with w the weight of order j, recentred at the origin to order 0 (j = 0)
    or 1 (j = 1, 2).  Base-point values are coefficient sums.  One ``rfft2``
    and two ``irfft2`` per call, and one more ``rfft2`` for the weight x_j.
    """
    spec = _spectral(sample.n, eps)
    a_hat = spec.d1_frho * spec.coeff(sample.xi)
    a = spec.field(a_hat)
    w_hat = spec.coeff(_coordinate(spec.n, j) * a) if j else a_hat
    kw = spec.field(w_hat * spec.inv_lap)
    b = kw - kw[spec.origin]
    if j:
        for i, d in ((1, spec.d1), (2, spec.d2)):
            b -= _coordinate(spec.n, i) * spec.at_origin(d * spec.inv_lap * w_hat)
    stoch = float(np.sum(phi * a * b)) * spec.mesh2
    mean = float(np.sum(phi * _mean_field(spec, j))) * spec.mesh2
    return eps * (stoch - mean)


@lru_cache(maxsize=32)
def _mean_field(spec: Spectral, j: int) -> np.ndarray:
    """E[A(z) B_j(z)] as a grid field, by the covariance closed forms.

    With r_a the covariance of A and k_g the kernel, it is
    ``c1 w - (w k_g)*r_a``, less ``x_i ((w d_i k_g)*r_a)`` for i = 1, 2 when
    j > 0; for w = 1 it is R(0) - R(z) with R = E[A(z) (K*A)(0)].  r_a is
    taken as ``s1^2 frho^2``, though ``d1`` is zero on the Nyquist row: a
    relative 3e-6 to 3e-5 off the exact expectation at N=64 (``mean`` only).
    """
    w = _coordinate(spec.n, j)
    r_a = spec.field(spec.s1**2 * spec.frho**2)
    k_g = spec.field(spec.inv_lap)
    c1 = float(np.sum(k_g * r_a)) * spec.mesh2
    mean = c1 * w - spec.convolve(w * k_g, r_a)
    if j:
        for i, d in ((1, spec.d1), (2, spec.d2)):
            dk = spec.field(d * spec.inv_lap)
            mean -= _coordinate(spec.n, i) * spec.convolve(w * dk, r_a)
    return mean


def pi_xiixi(sample: NoiseSample, eps: float, phi: np.ndarray) -> float:
    """The renormalised product of the noise with its integrated copy.

    Tests ``A * (K*A - (K*A)(0))`` against phi and subtracts the exact
    Gaussian expectation; A is the mollified noise derivative.
    """
    return _recentred_product(sample, eps, phi, 0)


def pi_weighted(sample: NoiseSample, eps: float, phi: np.ndarray, which: str,
                j: int = 1) -> float:
    """Coordinate-weighted renormalised products.

    ``xxiixi``: the polynomially decorated product, identically the plain
    estimator tested against ``x_j * phi``.  ``xiixxi``: the integration
    point weighted by ``x_j`` with the twice-recentred kernel.
    """
    if j not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, not {j!r}")
    if which == "xxiixi":
        return pi_xiixi(sample, eps, _coordinate(sample.n, j) * phi)
    if which != "xiixxi":
        raise ValueError(f"unknown weighted estimator {which!r}")
    return _recentred_product(sample, eps, phi, j)


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
    count: int
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
        count=n,
        mean_se=float(ses[0]),
        variance_se=float(ses[1]),
        fourth_cumulant_se=float(ses[2]),
    )


def sample_seeds(master_seed: int, count: int):
    return np.random.SeedSequence(master_seed).spawn(count)


def convergence_table(eps_list, n: int, samples: int, phi: np.ndarray | None = None,
                      seed: int = 7, crho_sq: float | None = None, which: str = "xiixi",
                      j: int = 1) -> list[dict]:
    """Variance ratio, mean and kurtosis across scales, common noise per row.

    ``which`` is ``xiixi`` (``pi_xiixi`` against phi) or a ``pi_weighted``
    estimator on axis ``j``, whose limiting variance is taken against
    ``x_j * phi``.  Each noise is drawn once and evaluated at every scale
    before the next is drawn (common random numbers, one field alive at a
    time), so the across-scale comparisons in the output are far more stable
    than the per-entry error bars suggest.
    """
    require_samples(samples)
    if phi is None:
        phi = bump_field(n, radius=0.25)
    if crho_sq is None:
        from .kernels import crho_squared

        crho_sq = crho_squared("spatial", RESOLUTION).value
    if which == "xiixi":
        weight = phi
        estimate = lambda noise, eps: pi_xiixi(noise, eps, phi)
    else:
        weight = _coordinate(n, j) * phi
        estimate = lambda noise, eps: pi_weighted(noise, eps, phi, which, j)
    target = crho_sq * float(np.sum(weight * weight)) / (n * n)
    values = np.empty((samples, len(eps_list)))
    for row, s in zip(values, sample_seeds(seed, samples)):
        noise = sample_noise(n, s)
        row[:] = [estimate(noise, eps) for eps in eps_list]
        del noise  # one noise field alive at a time
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
