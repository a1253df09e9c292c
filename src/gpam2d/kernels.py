"""Singular-kernel numerics: the mollifier, the square kernel, its integral.

Everything is built on the log kernel (the singular part of the truncated
heat-kernel convolution), whose radial potentials have closed forms: for a
radial density with cumulative mass M, the second axis derivative of its log
potential is ``a(r) + b(r)cos(2 theta)`` with ``a = -dens/2`` and
``b = M/(2 pi r^2) - dens/2``.  The epsilon-scale square kernel inherits an
exact self-similarity, which pins its integral to a single number: the
squared amplitude of the emergent white noise.

Two independent quadrature routes compute that number: a physical-space
route through radial overlap integrals, and a Fourier route through Hankel
transforms of the mollifier profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import j0, jv

TWO_PI = 2.0 * math.pi

RESOLUTION = 128  # the one default mollifier resolution


@lru_cache(maxsize=32)
def _legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(a: float, b: float, n: int):
    x, w = _legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


class Mollifier:
    """A smooth radial bump on the unit disc with unit integral.

    ``profile`` is any positive radial shape supported in [0, 1); the
    constructor normalises it.  Derived objects (mass functions, self
    convolutions, the Fourier transform) are cached per resolution.
    """

    def __init__(self, profile=None, resolution: int = RESOLUTION):
        self.resolution = resolution
        raw = profile if profile is not None else (
            lambda r: np.exp(-1.0 / np.clip(1.0 - r * r, 1e-300, None))
        )
        nodes, weights = _gauss_nodes(0.0, 1.0, 4 * resolution)
        total = TWO_PI * float(np.sum(raw(nodes) * nodes * weights))
        self._raw = raw
        self._norm = 1.0 / total
        self._splines: dict = {}

    def rad(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r < 1.0, self._raw(np.clip(r, 0.0, 1.0 - 1e-12)), 0.0)
        return self._norm * out

    # -- radial profiles of self-convolutions --------------------------------

    def _profile_spline(self, order: int) -> CubicSpline:
        """Radial profile of the ``order``-fold self-convolution (order 1, 2, 3)."""
        key = ("profile", order)
        if key in self._splines:
            return self._splines[key]
        if order == 1:
            grid = np.linspace(0.0, 1.0, 4 * self.resolution)
            spline = CubicSpline(grid, self.rad(grid), extrapolate=False)
        else:
            lower = self._profile_spline(order - 1)
            support = float(order)
            grid = np.linspace(0.0, support, 3 * self.resolution)
            tn, tw = _gauss_nodes(0.0, 1.0, 2 * self.resolution)
            # Full-period rectangle rule: spectrally accurate for the smooth
            # periodic angular integrand.
            an = np.linspace(0.0, TWO_PI, 512, endpoint=False)
            aw = TWO_PI / an.size
            weights = tw * tn * self.rad(tn)
            cos_a = np.cos(an)
            vals = np.empty_like(grid)
            for lo in range(0, grid.size, 16):
                g = grid[lo : lo + 16]
                dist = np.sqrt(
                    np.maximum(
                        g[:, None, None] ** 2
                        + tn[None, :, None] ** 2
                        - 2.0 * g[:, None, None] * tn[None, :, None] * cos_a[None, None, :],
                        0.0,
                    )
                )
                inner = np.nan_to_num(lower(np.clip(dist, 0.0, order - 1.0)))
                vals[lo : lo + 16] = aw * np.einsum("t,gta->g", weights, inner)
            spline = CubicSpline(grid, vals, extrapolate=False)
        self._splines[key] = spline
        return spline

    def conv_profile(self, order: int, r):
        spline = self._profile_spline(order)
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < float(order)
        out[inside] = np.nan_to_num(spline(r[inside]))
        return out

    def mass(self, order: int, r):
        """Mass of the order-fold self-convolution inside radius r."""
        key = ("mass", order)
        if key not in self._splines:
            grid = np.linspace(0.0, float(order), 6 * self.resolution)
            dens = self.conv_profile(order, grid)
            cumulative = np.concatenate(
                [[0.0], np.cumsum(TWO_PI * 0.5 * (dens[1:] * grid[1:] + dens[:-1] * grid[:-1]) * np.diff(grid))]
            )
            self._splines[key] = CubicSpline(grid, cumulative, extrapolate=False)
        spline = self._splines[key]
        r = np.asarray(r, dtype=float)
        return np.where(r >= float(order), 1.0, np.nan_to_num(spline(np.clip(r, 0.0, float(order)))))

    # -- Fourier transform ----------------------------------------------------

    def fourier(self, sigma):
        """Radial Fourier transform; equals 1 at zero frequency."""
        key = "fourier"
        if key not in self._splines:
            tn, tw = _gauss_nodes(0.0, 1.0, 4 * self.resolution)
            sig_grid = np.linspace(0.0, 40.0 * math.sqrt(self.resolution), 40 * self.resolution)
            vals = TWO_PI * np.einsum(
                "t,st->s", tw * tn * self.rad(tn), j0(np.outer(sig_grid, tn))
            )
            self._splines[key] = (sig_grid[-1], CubicSpline(sig_grid, vals))
        cap, spline = self._splines[key]
        sigma = np.asarray(sigma, dtype=float)
        return np.where(np.abs(sigma) <= cap, spline(np.clip(np.abs(sigma), 0.0, cap)), 0.0)


def d11_log_potential(mol: Mollifier, order: int):
    """Angular components of the second axis derivative of the log potential.

    Returns callables ``(a, b)`` with the derivative equal to
    ``a(r) + b(r)cos(2 theta)``; outside the density's support ``a`` vanishes
    and ``b`` is exactly ``1/(2 pi r^2)``.
    """

    def a(r):
        return -0.5 * mol.conv_profile(order, r)

    def b(r):
        r = np.asarray(r, dtype=float)
        safe = np.clip(r, 1e-12, None)
        return mol.mass(order, r) / (TWO_PI * safe * safe) - 0.5 * mol.conv_profile(order, r)

    return a, b


@dataclass
class CrhoResult:
    value: float
    route: str
    resolution: int
    estimated_error: float


def _overlap_integral(mol: Mollifier, order_left: int, order_right: int, rmax: float, n: int):
    """Physical-space overlap of two second-derivative log potentials.

    Computes the full-plane integral of the product, using the exact angular
    reduction and the exact tail beyond ``rmax``.
    """
    a1, b1 = d11_log_potential(mol, order_left)
    a2, b2 = d11_log_potential(mol, order_right)
    nodes, weights = _gauss_nodes(0.0, rmax, n)
    body = np.sum(
        (TWO_PI * a1(nodes) * a2(nodes) + math.pi * b1(nodes) * b2(nodes)) * nodes * weights
    )
    tail = 1.0 / (8.0 * math.pi * rmax * rmax)
    return float(body + tail)


def crho_squared(route: str = "spatial", resolution: int = RESOLUTION, mol: Mollifier | None = None) -> CrhoResult:
    """The limiting noise amplitude squared, by two independent routes.

    The spatial route integrates the square kernel at unit scale through
    radial overlap integrals; the Fourier route evaluates the closed
    frequency-side expression for the first summand via Hankel quadrature,
    plus the same physical-space second summand.  The resolution is that of
    ``mol`` (default: the mollifier at ``resolution``).
    """
    if route not in ("spatial", "fourier"):
        raise ValueError(f"unknown route {route!r}")
    mol = _mollifier(mol, resolution)
    rmax = 16.0 + resolution / 16.0

    def pieces(n: int) -> float:
        if route == "spatial":
            first = _overlap_integral(mol, 1, 3, rmax, n)
        else:
            sn, sw = _gauss_nodes(0.0, 30.0 + 4.0 * math.sqrt(resolution), n)
            first = 3.0 / (16.0 * math.pi) * float(np.sum(mol.fourier(sn) ** 4 * sn * sw))
        return first + _overlap_integral(mol, 2, 2, rmax, n)

    value = pieces(8 * resolution)
    # Refinement-based error estimate: redo both pieces at half the node count.
    coarse = pieces(4 * resolution)
    return CrhoResult(value, route, resolution, abs(value - coarse))


@lru_cache(maxsize=4)
def _default_mollifier(resolution: int = RESOLUTION) -> Mollifier:
    return Mollifier(resolution=resolution)


def _mollifier(mol: Mollifier | None, resolution: int) -> Mollifier:
    """``mol``, which must have ``resolution``, or the default mollifier there."""
    if mol is None:
        return _default_mollifier(resolution)
    if mol.resolution != resolution:
        raise ValueError(f"mollifier resolution {mol.resolution} differs from {resolution}")
    return mol


# ---------------------------------------------------------------------------
# Pointwise square kernel at unit scale, and its scaled family.


class SquareKernel:
    """Pointwise evaluator of the unit-scale square kernel.

    First summand: the self-convolution of the once-mollified second
    derivative, carrying angular harmonics 0, 2 and 4 (computed by Hankel
    quadrature), times the twice-convolved mollifier; it vanishes beyond
    radius 2.  Second summand: the square of the twice-mollified second
    derivative, exact in closed form.  The resolution is that of ``mol``
    (default: the mollifier at ``resolution``).
    """

    def __init__(self, mol: Mollifier | None = None, resolution: int = RESOLUTION):
        self.mol = _mollifier(mol, resolution)
        self.resolution = resolution
        sn, sw = _gauss_nodes(0.0, 30.0 + 4.0 * math.sqrt(resolution), 8 * resolution)
        fr2 = self.mol.fourier(sn) ** 2 * sn * sw
        rgrid = np.linspace(0.0, 2.0, 2 * resolution)
        h_parts = {}
        for k in (0, 2, 4):
            bess = jv(k, np.outer(rgrid, sn))
            h_parts[k] = bess @ fr2
        self._h0 = CubicSpline(rgrid, (3.0 / 8.0) * h_parts[0] / TWO_PI)
        self._h2 = CubicSpline(rgrid, -0.5 * h_parts[2] / TWO_PI)
        self._h4 = CubicSpline(rgrid, (1.0 / 8.0) * h_parts[4] / TWO_PI)
        self._a2, self._b2 = d11_log_potential(self.mol, 2)

    def first_summand(self, r, theta):
        r = np.asarray(r, dtype=float)
        inside = r < 2.0
        rc = np.clip(r, 0.0, 2.0)
        conv = self._h0(rc) + self._h2(rc) * np.cos(2 * theta) + self._h4(rc) * np.cos(4 * theta)
        return np.where(inside, conv * self.mol.conv_profile(2, r), 0.0)

    def second_summand(self, r, theta):
        val = self._a2(r) + self._b2(r) * np.cos(2 * theta)
        return val * val

    def value(self, r, theta):
        return self.first_summand(r, theta) + self.second_summand(r, theta)

    def eps_value(self, x, eps: float) -> float:
        """The epsilon-scale kernel via exact self-similarity."""
        x = np.asarray(x, dtype=float)
        r = float(np.hypot(x[0], x[1]))
        theta = float(np.arctan2(x[1], x[0]))
        return float(self.value(np.asarray(r / eps), theta)) / (eps * eps)

    def _polar_integral(self, integrand, r_lo: float, r_hi: float, n: int) -> float:
        nodes, weights = _gauss_nodes(r_lo, r_hi, n)
        thetas = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        vals = integrand(nodes[:, None], thetas[None, :])
        return float(np.sum(vals.mean(axis=1) * TWO_PI * nodes * weights))

    def integral(self, eps: float = 1.0) -> float:
        """Honest quadrature of the epsilon-scale kernel over the plane.

        A fixed outer radius keeps the node placement independent of the
        scale, so agreement across scales is a real numerical statement.
        """
        rmax = 64.0
        n = 6 * self.resolution
        body = self._polar_integral(
            lambda r, t: self.value(r / eps, t) / (eps * eps), 1e-9, rmax, n
        )
        tail = eps * eps / (8.0 * math.pi * rmax * rmax)
        return body + tail

    def abs_mass(self, eps: float, r_lo: float, r_hi: float) -> float:
        n = 6 * self.resolution
        return self._polar_integral(
            lambda r, t: np.abs(self.value(r / eps, t)) / (eps * eps), r_lo, r_hi, n
        )

    def bound_constant(self, eps: float) -> float:
        """Fitted constant in |G_eps(x)| <= C eps^2 (|x|+eps)^-4 over a sample grid."""
        rr = np.linspace(1e-3, 8.0 * eps, 400)
        tt = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        vals = np.abs(self.value(rr[:, None] / eps, tt[None, :])) / (eps * eps)
        envelope = eps * eps * (rr[:, None] + eps) ** -4.0
        return float(np.max(vals / envelope))


def approx_unity_report(eps: float, delta: float, mol: Mollifier | None = None,
                        resolution: int = RESOLUTION) -> dict:
    """Masses quantifying the approximation-of-unity behaviour.

    Any positive scales are accepted; the tail statement is informative for
    every ratio and the report is routinely taken across a whole scale range.
    The resolution is that of ``mol`` (default: the mollifier at ``resolution``).
    """
    if eps <= 0 or delta <= 0:
        raise ValueError("scales must be positive")
    kernel = _square_kernel(_mollifier(mol, resolution))
    far = 64.0 * max(eps, delta)
    tail_mass = kernel.abs_mass(eps, delta, far) + eps * eps / (8.0 * math.pi * far * far)
    l1 = kernel.abs_mass(eps, 1e-9, far) + eps * eps / (8.0 * math.pi * far * far)
    total = kernel.integral(eps)
    return {"l1_mass": l1, "tail_mass": tail_mass, "total_integral": total}


@lru_cache(maxsize=4)
def _square_kernel(mol: Mollifier) -> SquareKernel:
    return SquareKernel(mol, mol.resolution)


# ---------------------------------------------------------------------------
# Grid (FFT) backend on the unit torus.


def torus_coords(n: int) -> np.ndarray:
    idx = np.arange(n)
    return ((idx + n // 2) % n - n // 2) / n


def bump_field(n: int, radius: float = 0.25, centre=(0.0, 0.0)) -> np.ndarray:
    """Normalised radial bump sampled on the grid chart."""
    x = torus_coords(n)
    dx = (x[:, None] - centre[0] + 0.5) % 1.0 - 0.5
    dy = (x[None, :] - centre[1] + 0.5) % 1.0 - 0.5
    rr = np.sqrt(dx * dx + dy * dy) / radius
    vals = np.where(rr < 1.0, np.exp(-1.0 / np.clip(1.0 - rr * rr, 1e-300, None)), 0.0)
    vals /= vals.sum() / (n * n)
    return vals


class Spectral:
    """Fourier multipliers of the N x N unit torus at one scale.

    ``s1`` (N, 1) and ``s2`` (1, N) broadcast; ``frho`` is 1 at the zero
    mode and ``inv_lap`` drops it.  The static helpers fix the FFT
    normalisation and the projection of grid fields onto their real part.
    """

    def __init__(self, n: int, eps: float, mol: Mollifier | None = None):
        if eps < 4.0 / n:
            raise ValueError(f"grid too coarse for scale {eps}: need eps >= 4/N = {4.0 / n}")
        self.n = n
        self.mesh2 = 1.0 / (n * n)
        self.mol = mol or _default_mollifier(RESOLUTION)
        m = np.fft.fftfreq(n, d=1.0 / n)
        self.s1 = TWO_PI * m[:, None]
        self.s2 = TWO_PI * m[None, :]
        ss = self.s1**2 + self.s2**2
        ss[0, 0] = 1.0
        self.frho = self.mol.fourier(np.sqrt(ss) * eps)
        self.frho[0, 0] = 1.0
        self.inv_lap = np.divide(1.0, ss, out=ss)
        self.inv_lap[0, 0] = 0.0
        self.origin = (0, 0)  # chart origin sits at grid index (0, 0)

    @staticmethod
    def field(coeff: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(coeff).real * coeff.size

    @staticmethod
    def coeff(field: np.ndarray) -> np.ndarray:
        return np.fft.fft2(field) / field.size

    @staticmethod
    def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Circular convolution of two grid fields, weighted by the cell area."""
        return np.fft.ifft2(np.fft.fft2(f) * np.fft.fft2(g)).real / f.size

    @cached_property
    def counterterm(self) -> np.ndarray:
        """R(z) = E[A(z) (K*A)(0)]: minus the twice-mollified d11 log kernel."""
        return self.field(self.s1**2 * self.inv_lap * self.frho**2)


class GepsGrid:
    """FFT evaluation of the epsilon-scale kernel on the unit torus.

    The spectral second derivative of the log kernel is the multiplier
    ``-s1^2/|s|^2`` (zero mode dropped), and the mollifier enters through its
    continuum Fourier transform sampled at grid frequencies.  The multiplier
    table is not kept: it would double the grid's memory.
    """

    def __init__(self, n: int, eps: float, mol: Mollifier | None = None):
        spec = Spectral(n, eps, mol)
        self.n, self.eps, self.mol = n, eps, spec.mol
        conv_sq = spec.field((spec.s1**2 * spec.inv_lap * spec.frho) ** 2)
        self.field = eps * eps * (conv_sq * spec.field(spec.frho**2) + spec.counterterm**2)

    def value(self, x) -> float:
        i = int(round(float(x[0]) * self.n)) % self.n
        j = int(round(float(x[1]) * self.n)) % self.n
        return float(self.field[i, j])

    def convolve(self, f: np.ndarray) -> np.ndarray:
        return Spectral.convolve(self.field, f)


def gconv_limits_check(eps: float, f: np.ndarray | None = None, n: int = 512,
                       mol: Mollifier | None = None, resolution: int = RESOLUTION) -> dict:
    """Relative residuals of the three smoothing limits of the square kernel.

    The resolution is that of ``mol`` (default: the mollifier at ``resolution``).
    """
    grid_mol = _mollifier(mol, resolution)
    if f is None:
        f = bump_field(n, radius=0.175)
    if not f.any():
        return {"limit1": 0.0, "limit2": 0.0, "limit3": 0.0}
    phi = bump_field(n, radius=0.25)
    crho_sq = crho_squared("spatial", resolution, mol).value
    grid = GepsGrid(n, eps, grid_mol)
    mesh2 = 1.0 / (n * n)
    gf = grid.convolve(f)

    lhs1 = float(np.sum(phi * gf)) * mesh2
    rhs1 = crho_sq * float(np.sum(phi * f)) * mesh2

    corr_phi = np.fft.ifft2(np.abs(np.fft.fft2(phi)) ** 2).real * mesh2
    lhs2 = float(np.sum(gf * gf * corr_phi)) * mesh2
    rhs2 = crho_sq * crho_sq * float(np.sum(f * f * corr_phi)) * mesh2

    corr_gf_f = np.fft.ifft2(np.fft.fft2(gf) * np.conj(np.fft.fft2(f))).real * mesh2
    lhs3 = float(np.sum(grid.field * corr_gf_f * corr_phi)) * mesh2
    rhs3 = crho_sq * crho_sq * float(np.sum(phi * phi)) * mesh2 * float(np.sum(f * f)) * mesh2

    rel = lambda lhs, rhs: abs(lhs - rhs) / abs(rhs) if rhs else abs(lhs)
    return {
        "limit1": rel(lhs1, rhs1),
        "limit2": rel(lhs2, rhs2),
        "limit3": rel(lhs3, rhs3),
    }
