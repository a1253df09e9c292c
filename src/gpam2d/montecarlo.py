"""Spectral white-noise sampling and the renormalised-product estimators.

The torus surrogate works on an N x N grid over the unit square with the
chart centred at the origin.  White noise has per-cell variance N^2; all
kernels act as Fourier multipliers (the inverse Laplacian drops its zero
mode), the mollifier enters through its continuum radial transform sampled
at grid frequencies, and the subtracted counterterm is the exact Gaussian
expectation of the stochastic part, computed in Fourier space rather than
estimated empirically.
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
    if n & (n - 1):
        raise ValueError("grid size must be a power of two")
    rng = np.random.default_rng(seed)
    return NoiseSample(xi=rng.standard_normal((n, n)) * n, n=n)


_spectral = lru_cache(maxsize=16)(Spectral)  # one table per (N, eps)


def _coords(n: int):
    x = torus_coords(n)
    return x[:, None], x[None, :]


def _smoothed_gradient_field(spec: Spectral, sample: NoiseSample) -> np.ndarray:
    """The mollified axis-1 derivative of the noise."""
    c = spec.coeff(sample.xi)
    return spec.field(1j * spec.s1 * spec.frho * c)


def pi_xiixi(sample: NoiseSample, eps: float, phi: np.ndarray) -> float:
    """The renormalised product of the noise with its integrated copy.

    Tests ``A * (K*A - (K*A)(0))`` against phi and subtracts the exact
    Gaussian expectation; A is the mollified noise derivative.
    """
    spec = _spectral(sample.n, eps)
    a = _smoothed_gradient_field(spec, sample)
    b = spec.field(spec.coeff(a) * spec.inv_lap)
    stoch = float(np.sum(phi * a * (b - b[spec.origin]))) * spec.mesh2
    r = spec.counterterm
    mean = float(np.sum(phi * (r[spec.origin] - r))) * spec.mesh2
    return eps * (stoch - mean)


def _weighted_recentred_field(spec: Spectral, a: np.ndarray, j: int):
    """B_w(z) = (K*W)(z) - (K*W)(0) - z . (grad K * W)(0) for W = x_j A.

    The polynomial decoration weights the integration point by its chart
    coordinate relative to the base point at the origin, with the twice
    recentred kernel.
    """
    x1, x2 = _coords(spec.n)
    xj = x1 if j == 1 else x2
    w_hat = spec.coeff(xj * a)
    kw = spec.field(w_hat * spec.inv_lap)
    gk1 = spec.field(w_hat * 1j * spec.s1 * spec.inv_lap)
    gk2 = spec.field(w_hat * 1j * spec.s2 * spec.inv_lap)
    o = spec.origin
    return kw - kw[o] - x1 * gk1[o] - x2 * gk2[o]


@lru_cache(maxsize=32)
def _weighted_mean_field(spec: Spectral, j: int) -> np.ndarray:
    """E[A(z) B_w(z)] as a grid field, by the covariance closed forms."""
    x1, x2 = _coords(spec.n)
    xj = x1 if j == 1 else x2
    r_a = spec.field(spec.s1**2 * spec.frho**2)
    k_g = spec.field(spec.inv_lap)
    dk1 = spec.field(1j * spec.s1 * spec.inv_lap)
    dk2 = spec.field(1j * spec.s2 * spec.inv_lap)
    c1 = float(np.sum(k_g * r_a)) * spec.mesh2
    t0 = spec.convolve(xj * k_g, r_a)
    tg1 = spec.convolve(xj * dk1, r_a)
    tg2 = spec.convolve(xj * dk2, r_a)
    return c1 * xj - t0 - x1 * tg1 - x2 * tg2


def pi_weighted(sample: NoiseSample, eps: float, phi: np.ndarray, which: str,
                j: int = 1) -> float:
    """Coordinate-weighted renormalised products.

    ``xxiixi``: the polynomially decorated product, identically the plain
    estimator tested against ``x_j * phi``.  ``xiixxi``: the variant with the
    twice-recentred kernel, whose deterministic corrections are evaluated
    spectrally through the exact covariance.
    """
    if which == "xxiixi":
        x1, x2 = _coords(sample.n)
        xj = x1 if j == 1 else x2
        return pi_xiixi(sample, eps, xj * phi)
    if which != "xiixxi":
        raise ValueError(f"unknown weighted estimator {which!r}")
    spec = _spectral(sample.n, eps)
    a = _smoothed_gradient_field(spec, sample)
    bw = _weighted_recentred_field(spec, a, j)
    stoch = float(np.sum(phi * a * bw)) * spec.mesh2
    mean = float(np.sum(phi * _weighted_mean_field(spec, j))) * spec.mesh2
    return eps * (stoch - mean)


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
    if n < 16:
        raise ValueError("need at least 16 values")
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
    ``x_j * phi``.  The same noise panel drives every scale (common random
    numbers), so the across-scale comparisons in the output are far more
    stable than the per-entry error bars suggest.
    """
    if phi is None:
        phi = bump_field(n, radius=0.25)
    if crho_sq is None:
        from .kernels import crho_squared

        crho_sq = crho_squared("spatial", RESOLUTION).value
    if which == "xiixi":
        weight = phi
        estimate = lambda noise, eps: pi_xiixi(noise, eps, phi)
    else:
        x1, x2 = _coords(n)
        weight = (x1 if j == 1 else x2) * phi
        estimate = lambda noise, eps: pi_weighted(noise, eps, phi, which, j)
    target = crho_sq * float(np.sum(weight * weight)) / (n * n)
    noises = [sample_noise(n, s) for s in sample_seeds(seed, samples)]
    rows = []
    for eps in eps_list:
        values = np.array([estimate(noise, eps) for noise in noises])
        stats = estimate_stats(values)
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
