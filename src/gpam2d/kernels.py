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
from functools import lru_cache

import numpy as np
from scipy.special import j0, jv

TWO_PI = 2.0 * math.pi

RESOLUTION = 128  # the one default mollifier resolution
_ROW_BLOCK = 64  # rows per real pass of Spectral.field: the fastest of 16..256 at N = 512 and 1024


@lru_cache(maxsize=32)
def _legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(a: float, b: float, n: int):
    x, w = _legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _knot_slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> list:
    """First derivatives at the knots of scipy's not-a-knot ``CubicSpline``.

    Two knots give the chord and three the parabola through them; more give
    scipy's tridiagonal system, solved here by one Thomas sweep without
    pivoting (on a uniform grid of spacing h every pivot is at least 0.4 h).
    """
    n = x.size
    if n < 4:
        mid = (dx[-1] * slope[0] + dx[0] * slope[-1]) / (dx[0] + dx[-1])
        return [2.0 * slope[0] - mid, mid, 2.0 * slope[-1] - mid][:n]
    lower, diag, upper = np.empty(n), np.empty(n), np.empty(n)
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs = np.empty(n)
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    lo, di, up, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, n):
        w = lo[i] / di[i - 1]
        di[i] -= w * up[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= di[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - up[i] * b[i + 1]) / di[i]
    return b


class Spline:
    """Not-a-knot cubic spline through ``(x, y)``, for a uniform grid ``x`` from 0.

    The fit is scipy's ``CubicSpline`` (its default boundary condition).
    ``c[k, i]`` is the coefficient of ``(r - x[i])**(3 - k)`` on piece i.  A
    call reads the piece off as ``floor(r / h)`` instead of searching for it,
    and evaluates it by Horner's rule; r must lie inside ``[0, x[-1]]``.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        s = np.array(_knot_slopes(x, dx, slope))
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, r) -> np.ndarray:
        x, c = self.x, self.c
        r = np.asarray(r, dtype=float)
        piece = np.minimum((r * ((x.size - 1) / x[-1])).astype(np.intp), x.size - 2)
        d = r - x.take(piece)
        out = c[0].take(piece)
        for k in (1, 2, 3):
            out *= d
            out += c[k].take(piece)
        return out


class Mollifier:
    """A smooth radial bump on the unit disc with unit integral.

    ``profile`` is any positive radial shape supported in [0, 1); the
    constructor normalises it.  Derived objects (mass functions, self
    convolutions, the Fourier transform, and the Hankel tables of the
    square kernel's first summand, which ``SquareKernel`` builds) are
    cached per resolution, in ``_splines``.
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

    def _profile_spline(self, order: int) -> Spline:
        """Radial profile of the ``order``-fold self-convolution (order 1, 2, 3)."""
        key = ("profile", order)
        if key in self._splines:
            return self._splines[key]
        if order == 1:
            grid = np.linspace(0.0, 1.0, 4 * self.resolution)
            spline = Spline(grid, self.rad(grid))
        else:
            lower = self._profile_spline(order - 1)
            cap = order - 1.0  # the lower support
            grid = np.linspace(0.0, float(order), 3 * self.resolution)
            tn, tw = _gauss_nodes(0.0, 1.0, 2 * self.resolution)
            # The 512-node full-period rectangle rule (spectrally accurate for
            # the smooth periodic angular integrand), folded onto [0, pi] by
            # the symmetry theta -> 2 pi - theta: 257 nodes, ends halved.
            an = np.linspace(0.0, math.pi, 257)
            aw = np.full(an.size, TWO_PI / 256)
            aw[[0, -1]] *= 0.5
            weights = tw * tn * self.rad(tn)
            cross, tsq = np.multiply.outer(-2.0 * tn, np.cos(an)), tn * tn
            # One radius g per pass, so the temporaries stay in cache.  Beyond
            # the lower support the integrand is lower(cap).  For fixed g and
            # t, |g - t e^{ia}| grows with a on [0, pi], so the live points are
            # a prefix of the angles, and a node t < g - cap has none.  Off the
            # live rectangle [t0:] x [:a1] the sum is exactly lower(cap) times
            # the weight outside it, a difference of products because the
            # weights are a product.  The margin absorbs rounding.
            margin = 1e-9
            edge = float(lower(cap))
            total = aw.sum() * weights.sum()
            vals = np.empty_like(grid)
            for i, g in enumerate(grid):
                t0 = int(np.searchsorted(tn, g - cap - margin))
                sq = cross[t0:] * g
                sq += (g * g + tsq[t0:])[:, None]
                live = np.flatnonzero((sq < cap * cap * (1.0 + margin)).any(axis=0))
                a1 = int(live[-1]) + 1 if live.size else 0
                dist = np.sqrt(np.maximum(sq[:, :a1], 0.0))
                inner = lower(np.minimum(dist, cap, out=dist))
                vals[i] = ((inner @ aw[:a1]) @ weights[t0:]
                           + edge * (total - aw[:a1].sum() * weights[t0:].sum()))
            spline = Spline(grid, vals)
        self._splines[key] = spline
        return spline

    def conv_profile(self, order: int, r):
        spline = self._profile_spline(order)
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r >= 0.0) & (r < float(order))
        out[inside] = spline(r[inside])
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
            self._splines[key] = Spline(grid, cumulative)
        spline = self._splines[key]
        r = np.asarray(r, dtype=float)
        return np.where(r >= float(order), 1.0, spline(np.clip(r, 0.0, float(order))))

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
            self._splines[key] = (sig_grid[-1], Spline(sig_grid, vals))
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


def _square_tail(eps: float, rmax: float) -> float:
    """Exact tail beyond rmax of the eps-scale square kernel (at eps = 1, of one overlap)."""
    return eps * eps / (8.0 * math.pi * rmax * rmax)


@dataclass
class CrhoResult:
    value: float
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
    return float(body + _square_tail(1.0, rmax))


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
    return CrhoResult(value, abs(value - coarse))


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
        if "hankel" not in self.mol._splines:
            # One table of the three harmonics per mollifier; j0 is the fast jv(0, .).
            sn, sw = _gauss_nodes(0.0, 30.0 + 4.0 * math.sqrt(resolution), 8 * resolution)
            fr2 = self.mol.fourier(sn) ** 2 * sn * sw
            rgrid = np.linspace(0.0, 2.0, 2 * resolution)
            arg = np.outer(rgrid, sn)
            bessel = ((j0, 3.0 / 8.0), (lambda z: jv(2, z), -0.5), (lambda z: jv(4, z), 1.0 / 8.0))
            self.mol._splines["hankel"] = tuple(
                Spline(rgrid, c * (j(arg) @ fr2) / TWO_PI) for j, c in bessel)
        self._h0, self._h2, self._h4 = self.mol._splines["hankel"]
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
        scale, so agreement across scales is a real numerical statement.  The
        closed-form tail beyond it is exact while the compact part (radius
        2 eps) lies inside it, so eps may be at most 32.
        """
        rmax = 64.0
        if eps > rmax / 2:
            raise ValueError(f"scale {eps} is above 32: the square kernel integral "
                             "is exact only up to half its outer radius 64")
        n = 6 * self.mol.resolution
        body = self._polar_integral(
            lambda r, t: self.value(r / eps, t) / (eps * eps), 1e-9, rmax, n
        )
        return body + _square_tail(eps, rmax)

    def abs_mass(self, eps: float, r_lo: float, r_hi: float) -> float:
        n = 6 * self.mol.resolution
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

    Any positive delta, and any positive eps up to 32 (the bound of
    ``SquareKernel.integral``), are accepted; the tail statement is informative
    for every ratio and the report is routinely taken across a whole scale
    range.  The resolution is that of ``mol`` (default: the mollifier at
    ``resolution``).
    """
    if eps <= 0 or delta <= 0:
        raise ValueError("scales must be positive")
    kernel = SquareKernel(mol, resolution)
    total = kernel.integral(eps)  # first: it refuses eps above 32
    far = 64.0 * max(eps, delta)
    tail_mass = kernel.abs_mass(eps, delta, far) + _square_tail(eps, far)
    l1 = kernel.abs_mass(eps, 1e-9, far) + _square_tail(eps, far)
    return {"l1_mass": l1, "tail_mass": tail_mass, "total_integral": total}


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


def _check_grid(n: int, eps: float) -> None:
    """The grid rule: N >= 1 points per axis, and at least four per scale."""
    if not (n >= 1 and eps * n >= 4):
        raise ValueError(f"grid too coarse for scale {eps} at N = {n}: need N >= 1, eps*N >= 4")


class Spectral:
    """Fourier multipliers of the N x N unit torus at one scale, on half spectra.

    A real grid field is held by its ``rfft2`` coefficients over the cell
    count: an N x (N/2+1) table of the non-negative axis-2 frequencies, the
    others following by Hermitian symmetry.  ``s1`` (N, 1) and ``s2``
    (1, N/2+1) broadcast; ``frho`` is 1 at the zero mode and ``inv_lap``
    drops it.  Nyquist convention: the derivative multipliers ``d1 = i s1``
    and ``d2 = i s2`` are zero on the Nyquist row and column respectively, the
    one choice that maps real fields to real fields.  ``d1_frho`` is the
    multiplier of the mollified axis-1 derivative.

    Memory order: the full tables, and the output of ``coeff``, are Fortran
    ordered, so the complex pass along axis 1 reads contiguous lines, as the
    real pass along axis 2 does on the C-ordered grid fields.  ``field`` can
    return only some ``rows`` of a field, at the cost of the complex pass and
    of the real pass on those rows alone.  The static helpers fix the FFT
    normalisation, folded into the forward transforms (exact at powers of
    two).
    """

    def __init__(self, n: int, eps: float, mol: Mollifier | None = None):
        _check_grid(n, eps)
        self.n = n
        self.mesh2 = 1.0 / (n * n)
        self.mol = mol or _default_mollifier(RESOLUTION)
        m1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        m2 = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
        self.s1, self.s2 = TWO_PI * m1, TWO_PI * m2
        self.d1 = 1j * np.where(2 * np.abs(m1) == n, 0.0, self.s1)
        self.d2 = 1j * np.where(2 * m2 == n, 0.0, self.s2)
        ss = np.add(self.s1**2, self.s2**2, order="F")
        ss[0, 0] = 1.0
        self.frho = np.asfortranarray(self.mol.fourier(np.sqrt(ss) * eps))
        self.frho[0, 0] = 1.0
        self.inv_lap = np.divide(1.0, ss, out=ss)
        self.inv_lap[0, 0] = 0.0
        self.d1_frho = self.d1 * self.frho
        self.origin = (0, 0)  # chart origin sits at grid index (0, 0)

    @staticmethod
    def field(coeff: np.ndarray, rows=None) -> np.ndarray:
        """The grid field of ``coeff``, or only its ``rows`` (all by default):
        exactly those rows of the full field, in the order given.

        The complex pass runs along the lines of the transposed table; the
        real pass runs on the rows asked for, in blocks, so no transposed copy
        of the whole table is made.
        """
        n = coeff.shape[0]
        lines = np.fft.ifft(coeff.T, axis=1, norm="forward")  # (frequency k2, row)
        out = np.empty((n if rows is None else len(rows), n))
        for r in range(0, len(out), _ROW_BLOCK):
            block = slice(r, r + _ROW_BLOCK) if rows is None else rows[r:r + _ROW_BLOCK]
            np.fft.irfft(lines[:, block].T, n, axis=1, norm="forward", out=out[r:r + _ROW_BLOCK])
        return out

    @staticmethod
    def coeff(field: np.ndarray) -> np.ndarray:
        """``rfft2(field) / field.size``, into a Fortran-ordered table.

        The division is by each axis length in turn, so it is exact only when
        they are powers of two; otherwise the last digits can differ.
        """
        n1, n2 = field.shape
        out = np.empty((n1, n2 // 2 + 1), dtype=complex, order="F")
        np.fft.rfft(field, axis=1, norm="forward", out=out)
        return np.fft.fft(out, axis=0, norm="forward", out=out)

    @staticmethod
    def at_origin(coeff: np.ndarray) -> float:
        """``field(coeff)`` at the origin, with no transform.

        Every column stands for itself and its mirror, except column 0 and,
        for even N, the Nyquist column N/2.
        """
        cols = coeff.real.sum(axis=0)
        once = cols[0] + (cols[-1] if coeff.shape[0] % 2 == 0 else 0.0)
        return float(2.0 * cols.sum() - once)

    @staticmethod
    def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Circular convolution of two grid fields, weighted by the cell area."""
        return Spectral.field(Spectral.coeff(f) * Spectral.coeff(g))

    @staticmethod
    def correlate(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Circular correlation ``sum_y f(x + y) g(y)``, weighted by the cell area."""
        return Spectral.field(Spectral.coeff(f) * Spectral.coeff(g).conj())


def geps_field(n: int, eps: float, mol: Mollifier | None = None) -> np.ndarray:
    """The epsilon-scale kernel on the N x N unit torus, by FFT.

    The spectral second derivative of the log kernel is the multiplier
    ``-s1^2/|s|^2`` (zero mode dropped), and the mollifier enters through its
    continuum Fourier transform sampled at grid frequencies.  The multiplier
    table is not kept: it would double the grid's memory.
    """
    spec = Spectral(n, eps, mol)
    conv_sq = spec.field((spec.s1**2 * spec.inv_lap * spec.frho) ** 2)
    return eps * eps * (conv_sq * spec.field(spec.frho**2)
                        + spec.field(spec.s1**2 * spec.inv_lap * spec.frho**2) ** 2)


def gconv_limits_check(eps: float, f: np.ndarray | None = None, n: int = 512,
                       mol: Mollifier | None = None, resolution: int = RESOLUTION) -> dict:
    """Relative residuals of the three smoothing limits of the square kernel.

    The resolution is that of ``mol`` (default: the mollifier at ``resolution``).
    """
    _check_grid(n, eps)
    grid_mol = _mollifier(mol, resolution)
    if f is None:
        f = bump_field(n, radius=0.175)
    if not f.any():
        return {"limit1": 0.0, "limit2": 0.0, "limit3": 0.0}
    phi = bump_field(n, radius=0.25)
    crho_sq = crho_squared("spatial", resolution, mol).value
    geps = geps_field(n, eps, grid_mol)
    mesh2 = 1.0 / (n * n)
    gf = Spectral.convolve(geps, f)

    lhs1 = float(np.sum(phi * gf)) * mesh2
    rhs1 = crho_sq * float(np.sum(phi * f)) * mesh2

    corr_phi = Spectral.correlate(phi, phi)
    lhs2 = float(np.sum(gf * gf * corr_phi)) * mesh2
    rhs2 = crho_sq * crho_sq * float(np.sum(f * f * corr_phi)) * mesh2

    corr_gf_f = Spectral.correlate(gf, f)
    lhs3 = float(np.sum(geps * corr_gf_f * corr_phi)) * mesh2
    rhs3 = crho_sq * crho_sq * float(np.sum(phi * phi)) * mesh2 * float(np.sum(f * f)) * mesh2

    rel = lambda lhs, rhs: abs(lhs - rhs) / abs(rhs) if rhs else abs(lhs)
    return {
        "limit1": rel(lhs1, rhs1),
        "limit2": rel(lhs2, rhs2),
        "limit3": rel(lhs3, rhs3),
    }
