"""Singular-kernel numerics: the mollifier, the square kernel, its integral.

Everything is built on the log kernel (the singular part of the truncated
heat-kernel convolution), whose radial potentials have closed forms: for a
radial density with cumulative mass M, the second axis derivative of its log
potential is ``a(r) + b(r)cos(2 theta)`` with ``a = -dens/2`` and
``b = M/(2 pi r^2) - dens/2``.  The epsilon-scale square kernel inherits an
exact self-similarity, which pins its integral to a single number: the
squared amplitude of the emergent white noise.

Two quadrature routes that share no term compute that number: a
physical-space route through a radial squared norm, and a Fourier route
through the mollifier's transform, taken along one axis over the disc.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

RESOLUTION = 128  # the one default mollifier resolution
_ROW_BLOCK = 64  # lines per pass of Spectral.field (the fastest of 16..256 at N = 512, 1024) and Spectral.even
_BLOCK = 1 << 16  # points per pass of Mollifier.fourier's table and lookup, and of the Abel profiles
_ABEL_M = 1024  # nodes per unit length of the Abel profiles' grids: M against 2M within 2.0e-14


def _steady_heap() -> bool:
    """Fix glibc's mmap and trim thresholds at 32 MiB and 64 MiB; True if set.

    By default glibc maps each block of 128 kB or more afresh and unmaps it
    on free, so every numpy temporary of that size faults its pages in again.
    Its dynamic rule lifts both thresholds only once a mapped block above the
    current threshold is freed, which no table of this module does; these are
    the highest values that rule reaches.  Nothing is done where ``mallopt``
    is absent (off glibc), or where glibc's own malloc settings are given
    (``MALLOC_*_`` variables or ``GLIBC_TUNABLES``).
    """
    if (any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process handle
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 64 << 20))


_steady_heap()


def _legendre_values(x: np.ndarray, n: int):
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence in x's precision, for ``|x| < 1``."""
    p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):  # (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)
        np.multiply(x, p1, out=t)
        t *= x.dtype.type(2 * k + 1) / (k + 1)
        p0 *= x.dtype.type(k) / (k + 1)
        t -= p0
        p0, p1, t = p1, t, p0
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=32)
def _legendre(n: int):
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1] for ``n >= 1``.

    Newton's method on the recurrence over the non-negative half, from
    Tricomi's first guess ``(1 - (n - 1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2))``,
    to steps below 1e-15 (three or four), then one in long double; the weights,
    ``2/((1 - x^2) P_n'(x)^2)``, are corrected by that step to first order.  The
    negative half is the mirror image, and for odd n the middle node is exactly 0.
    Against a long-double rule the nodes are correctly rounded and the weights
    within 5e-14 relative up to n = 3072 (5e-12 where long double is double).
    The rule is O(n^2); Hale and Townsend (SIAM J. Sci. Comput. 35, 2013) give O(n).
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes, not {n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(8):
        p, dp = _legendre_values(x, n)
        step = p / dp
        x -= step
        if np.abs(step).max() <= 1e-15:
            break
    p, dp = _legendre_values(x.astype(np.longdouble), n)
    step, sin2 = p / dp, (1.0 - x) * (1.0 + x)
    w = (2.0 / (sin2 * dp * dp) * (1.0 + 2.0 * x * step / sin2)).astype(float)
    x = (x - step).astype(float)
    pairs = x.size - n % 2  # the nodes other than a middle 0
    return np.concatenate([-x[:pairs], x[::-1]]), np.concatenate([w[:pairs], w[::-1]])


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
    constructor normalises it.  Derived objects (disc means, self
    convolutions, the Fourier transform, and the order-4 harmonic of the
    square kernel's first summand, which ``SquareKernel`` builds) are
    cached per resolution, in ``_splines``.  The Fourier transform is a quarter-disc
    Gauss-Legendre rule, ``4 max(R, RESOLUTION)`` nodes per axis, exact to 2.3e-15 at its knots.
    """

    def __init__(self, profile=None, resolution: int = RESOLUTION):
        self.resolution = resolution
        raw = profile if profile is not None else (
            lambda r: np.exp(-1.0 / np.clip(1.0 - r * r, 1e-300, None))
        )
        nodes, weights = _gauss_nodes(0.0, 1.0, 4 * RESOLUTION)  # one rule at every resolution
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
        """Radial profile of the ``order``-fold self-convolution (order 1, 2, 3).

        By Abel projection: ``P(y) = int rho(sqrt(y^2 + z^2)) dz`` has the
        self-convolution ``Q = P^{*k}``, and the profile is ``-(1/pi)
        int_0^sqrt(k^2 - r^2) q(sqrt(r^2 + u^2)) du`` with ``q(y) = Q'(y)/y``, a
        spline (``q(0) = Q''(0)``).  P is the trapezoid rule on y and z grids of
        spacing ``1/_ABEL_M`` and u the midpoint rule on M nodes, both in blocks,
        and spectral for the bump (flat at r = 1): doubling M moves them at most 2.0e-14.
        """
        key = ("profile", order)
        if key in self._splines:
            return self._splines[key]
        h, rows = 1.0 / _ABEL_M, _BLOCK // (_ABEL_M + 1)
        y = np.arange(_ABEL_M + 1) * h
        # P on y >= 0: the trapezoid rule over the whole z line, row block by row block.
        blocks = (self.rad(np.hypot(y[s:s + rows, None], y)) for s in range(0, y.size, rows))
        half = np.concatenate([h * (2.0 * d.sum(axis=1) - d[:, 0]) for d in blocks])
        slope, curve = Spectral.self_convolution_slopes(np.concatenate([half[:0:-1], half]), order, h)
        y = np.arange(slope.size) * h
        q = Spline(y, np.concatenate([[curve], slope[1:] / y[1:]]))
        grid = np.linspace(0.0, float(order), 3 * self.resolution)
        top, u = np.sqrt(order * order - grid * grid), (np.arange(_ABEL_M) + 0.5) * h
        blocks = (q(np.hypot(grid[s:s + rows, None], top[s:s + rows, None] * u))
                  for s in range(0, grid.size, rows))
        spline = Spline(grid, -h / math.pi * top * np.concatenate([d.sum(axis=1) for d in blocks]))
        self._splines[key] = spline
        return spline

    def conv_profile(self, order: int, r):
        spline = self._profile_spline(order)
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r >= 0.0) & (r < float(order))
        out[inside] = spline(r[inside])
        return out

    def _disc_mean(self, order: int, r):
        """Mean density of the order-fold self-convolution over the disc of radius r.

        Tabulated on the support, whose end clips r; at r = 0 the table holds
        the density there, the mean's limit, so nothing is divided by r^2.
        """
        key = ("mean", order)
        if key not in self._splines:
            grid = np.linspace(0.0, float(order), 6 * self.resolution)
            dens = self.conv_profile(order, grid)
            cumulative = np.cumsum(TWO_PI * 0.5 * (dens[1:] * grid[1:] + dens[:-1] * grid[:-1]) * np.diff(grid))
            mean = np.concatenate([dens[:1], cumulative / (math.pi * grid[1:] ** 2)])
            self._splines[key] = Spline(grid, mean)
        return self._splines[key](np.clip(r, 0.0, float(order)))

    # -- Fourier transform ----------------------------------------------------

    def fourier(self, sigma):
        """Radial Fourier transform; equals 1 at zero frequency.  Looked up in row blocks.

        Tabulated on 40R knots over ``[0, 40 sqrt(R)]`` as the transform along one axis
        over the quarter disc, ``x = (sin phi, t cos phi)``: ``4 int_0^(pi/2) cos(sigma sin phi)
        cos^2 phi int_0^1 rho(sqrt(sin^2 phi + t^2 cos^2 phi)) dt dphi``, by Gauss-Legendre
        on ``4 max(R, RESOLUTION)`` nodes in each of phi and t (4R cannot resolve the bump at
        R = 1, 2).  At every knot the tables of ``(1 - r^2)^k`` (k = 1..4; R = 32, 64, 128)
        lie within 2.3e-15 of Sonine's closed form.  Both sums run in row blocks of at most
        ``_BLOCK`` points (or one row).
        """
        key = "fourier"
        if key not in self._splines:
            n = 4 * max(self.resolution, RESOLUTION)
            rows = max(1, _BLOCK // n)

            def row_sums(block, count, weights):  # einsum sums each row in one order, whatever the block
                return np.concatenate([np.einsum("ij,j->i", block(slice(s, s + rows)), weights)
                                       for s in range(0, count, rows)])

            (phi, pw), (t, tw) = _gauss_nodes(0.0, 0.5 * math.pi, n), _gauss_nodes(0.0, 1.0, n)
            y, z = np.sin(phi), np.cos(phi)
            inner = row_sums(lambda s: self.rad(np.hypot(y[s, None], z[s, None] * t)), n, tw)
            sig_grid = np.linspace(0.0, 40.0 * math.sqrt(self.resolution), 40 * self.resolution)
            vals = row_sums(lambda s: np.cos(np.outer(sig_grid[s], y)), sig_grid.size,
                            4.0 * pw * z * z * inner)
            self._splines[key] = (sig_grid[-1], Spline(sig_grid, vals))
        cap, spline = self._splines[key]
        sigma = np.asarray(sigma, dtype=float)
        out = np.empty_like(sigma)
        rows_in, rows_out = np.atleast_1d(sigma, out)
        step = max(1, _BLOCK // max(1, rows_in[:1].size))
        for s in range(0, len(rows_in), step):
            a = np.abs(rows_in[s:s + step])
            # fmin reads NaN as the cap, which the spline can index; minimum keeps NaN as NaN.
            rows_out[s:s + step] = np.where(a <= cap, spline(np.fmin(a, cap)), np.minimum(a, 0.0))
        return out


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
        inside = r < float(order)
        far = np.where(inside, float(order), r)
        return np.where(inside, 0.5 * (mol._disc_mean(order, r) - mol.conv_profile(order, r)),
                        1.0 / (TWO_PI * far * far))

    return a, b


def _square_tail(eps: float, rmax: float) -> float:
    """Exact tail beyond rmax of the eps-scale square kernel (at eps = 1, of one overlap)."""
    return eps * eps / (8.0 * math.pi * rmax * rmax)


@dataclass
class CrhoResult:
    value: float
    estimated_error: float


def _overlap_integral(mol: Mollifier, rmax: float, n: int):
    """Squared norm over the plane of the twice-mollified second derivative.

    The angular integral is exact, and so is the tail beyond ``rmax``.
    """
    a, b = d11_log_potential(mol, 2)
    nodes, weights = _gauss_nodes(0.0, rmax, n)
    body = np.sum((TWO_PI * a(nodes) ** 2 + math.pi * b(nodes) ** 2) * nodes * weights)
    return float(body + _square_tail(1.0, rmax))


def crho_squared(route: str = "spatial", resolution: int = RESOLUTION, mol: Mollifier | None = None) -> CrhoResult:
    """The limiting noise amplitude squared, by two routes that share no term.

    With ``Phi_k`` the log potential of the k-fold self-convolution of the
    mollifier, the square kernel integrates to ``<d11 Phi_1, d11 Phi_3> +
    ||d11 Phi_2||^2``.  The mollifier is radial, so both summands equal
    ``3/(16 pi) int fourier^4 sigma dsigma``.  The spatial route is twice the
    squared norm, by radial quadrature in physical space; the Fourier route
    is ``3/(8 pi)`` times the Fourier-side integral.  The resolution is that
    of ``mol`` (default: the mollifier at ``resolution``).
    """
    if route not in ("spatial", "fourier"):
        raise ValueError(f"unknown route {route!r}")
    mol = _mollifier(mol, resolution)
    rmax = 16.0 + resolution / 16.0

    def integral(n: int) -> float:
        if route == "spatial":
            return 2.0 * _overlap_integral(mol, rmax, n)
        sn, sw = _gauss_nodes(0.0, 30.0 + 4.0 * math.sqrt(resolution), n)
        return 3.0 / (8.0 * math.pi) * float(np.sum(mol.fourier(sn) ** 4 * sn * sw))

    value = integral(8 * resolution)
    # Refinement-based error estimate: redo the integral at half the node count.
    coarse = integral(4 * resolution)
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


_R_INNER, _R_OUTER = 1e-9, 64.0  # the radii of SquareKernel.integral's rule


class SquareKernel:
    """Pointwise evaluator of the unit-scale square kernel.

    First summand: the self-convolution of the once-mollified second
    derivative, times the twice-convolved mollifier rho2; it vanishes beyond
    radius 2.  The self-convolution carries angular harmonics 0, 2 and 4, the
    Hankel transforms ``c_n f_n / 2 pi`` with ``f_n(r) = int fourier^2 J_n(sigma r)
    sigma dsigma`` and c = 3/8, -1/2, 1/8.  The recurrence of J_n and
    ``int_0^r s^(n+1) J_n(sigma s) ds = r^(n+1) J_(n+1)(sigma r) / sigma`` give them
    from rho2 (``f_0 = 2 pi rho2``): ``h0 = (3/8) rho2``, ``h2 = -(m2 - rho2)/2``,
    which is ``-b`` of ``d11_log_potential``, and ``h4 = (2 m2 + rho2 - 3 m4)/8``,
    with the disc mean m2 and ``m4 = (4/r^4) int_0^r t^3 rho2``.  Only h4 is a
    table of its own, one per mollifier.  Second summand: the square of the
    twice-mollified second derivative, exact in closed form.  The resolution
    is that of ``mol`` (default: the mollifier at ``resolution``).
    """

    def __init__(self, mol: Mollifier | None = None, resolution: int = RESOLUTION):
        self.mol = _mollifier(mol, resolution)
        self._a2, self._b2 = d11_log_potential(self.mol, 2)
        key = ("harmonic", 4)
        if key not in self.mol._splines:
            # m4 exactly on each cubic piece of rho2's spline (4 Gauss nodes), with m4(0) = rho2(0).
            rho2 = self.mol._profile_spline(2)
            x = rho2.x
            u, w = _gauss_nodes(0.0, x[1], 4)
            t = x[:-1, None] + u
            dens = self.mol.conv_profile(2, x)
            m4 = np.concatenate([dens[:1], 4.0 * np.cumsum(t**3 * rho2(t) @ w) / x[1:] ** 4])
            self.mol._splines[key] = Spline(x, (2.0 * self.mol._disc_mean(2, x) + dens - 3.0 * m4) / 8.0)
        self._h4 = self.mol._splines[key]

    def first_summand(self, r, theta):
        r = np.asarray(r, dtype=float)
        rho2 = self.mol.conv_profile(2, r)
        h4 = self._h4(np.clip(r, 0.0, 2.0))
        conv = 0.375 * rho2 - self._b2(r) * np.cos(2 * theta) + h4 * np.cos(4 * theta)
        return np.where(r < 2.0, conv * rho2, 0.0)

    def second_summand(self, r, theta):
        val = self._a2(r) + self._b2(r) * np.cos(2 * theta)
        return val * val

    def value(self, r, theta):
        return self.first_summand(r, theta) + self.second_summand(r, theta)

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
        return self._integral(eps, 6 * self.mol.resolution)

    def integral_estimate(self, eps: float = 1.0) -> tuple[float, float]:
        """``integral(eps)`` and an estimate of its error, the sum of two parts.

        As in ``crho_squared``, the change at half the radial nodes: it grows
        where the kernel, concentrated within radius 2 eps, falls between the
        scale-independent nodes.  And the disc inside the rule's inner radius,
        which by self-similarity holds the unit kernel's integral within
        ``1e-9 / eps``, taken by the same half rule at unit scale: the whole
        integral once that radius passes 2.
        """
        n = 3 * self.mol.resolution
        value = self.integral(eps)
        inner = _R_INNER / eps
        disc = self._polar_integral(self.value, 0.0, min(inner, _R_OUTER), n)
        if inner > _R_OUTER:
            disc += _square_tail(1.0, _R_OUTER) - _square_tail(1.0, inner)
        return value, abs(value - self._integral(eps, n)) + abs(disc)

    def _integral(self, eps: float, n: int) -> float:
        if eps > _R_OUTER / 2:
            raise ValueError(f"scale {eps} is above 32: the square kernel integral "
                             "is exact only up to half its outer radius 64")
        body = self._polar_integral(
            lambda r, t: self.value(r / eps, t) / (eps * eps), _R_INNER, _R_OUTER, n
        )
        return body + _square_tail(eps, _R_OUTER)

    def abs_mass(self, eps: float, r_lo: float, r_hi: float) -> float:
        n = 6 * self.mol.resolution
        return self._polar_integral(
            lambda r, t: np.abs(self.value(r / eps, t)) / (eps * eps), r_lo, r_hi, n
        )


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
    vals = _bump(dx, dy, radius)
    vals /= vals.sum() / (n * n)
    return vals


def _bump(dx, dy, radius: float) -> np.ndarray:
    """The unnormalised bump at the offsets ``(dx, dy)``, broadcast; the
    exponential is taken on the support only, where ``1 - r^2`` >= 2.2e-16."""
    vals = np.sqrt(dx * dx + dy * dy) / radius  # the radii, then the field
    inside = vals < 1.0
    r = vals[inside]
    vals.fill(0.0)
    vals[inside] = np.exp(-1.0 / (1.0 - r * r))
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
    one choice that maps real fields to real fields.  ``d1_frho``, built
    when first read, is the multiplier of the mollified axis-1 derivative.

    Memory order: the full tables, and the output of ``coeff``, are Fortran
    ordered, so the complex pass along axis 1 reads contiguous lines, as the
    real pass along axis 2 does on the C-ordered grid fields.  ``field`` can
    return only some ``rows`` of a field, at the cost of the complex pass and
    of the real pass on those rows alone.  The static helpers fix the FFT
    normalisation, folded into the forward transforms (exact at powers of
    two).

    Stacks: ``coeff``, ``field``, ``from_lines`` and ``at_origin`` take a
    stack of fields or tables along leading axes, each table Fortran ordered
    (its axes swapped, a C-ordered ``(..., N/2+1, N)`` array).  Every line is
    transformed by the same numpy call as alone, and every sum runs over one
    table's own values, so each result is the same to the bit as without the
    stack.  The caller may give every array they write (``out``, ``lines``,
    ``gather``, ``cols``).
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
        self.origin = (0, 0)  # chart origin sits at grid index (0, 0)

    d1_frho = cached_property(lambda self: self.d1 * self.frho)

    @staticmethod
    def field(coeff: np.ndarray, rows=None, out=None, lines=None, gather=None) -> np.ndarray:
        """The grid field of ``coeff``, or only its ``rows`` (all by default, each
        taken modulo N): exactly those rows of the full field, in the order given.

        The complex pass runs along the lines of the transposed table, into
        ``lines`` (N/2+1 x N, C-ordered): axis-2 frequency by axis-1 position,
        which ``from_lines`` takes back.  The real pass runs on the rows asked
        for, in blocks, so no transposed copy of the whole table is made.  The
        caller may give the work arrays: ``out`` for the rows, ``lines``, and
        ``gather``, flat room for one block of the lines at ``rows``.
        """
        lines = np.empty(coeff.swapaxes(-1, -2).shape, dtype=complex) if lines is None else lines
        np.fft.ifft(coeff.swapaxes(-1, -2), axis=-1, norm="forward", out=lines)
        *stack, h, n = lines.shape
        out = np.empty((*stack, n if rows is None else len(rows), n)) if out is None else out
        if rows is not None and gather is None:
            gather = np.empty(lines.size // n * min(len(rows), _ROW_BLOCK), dtype=complex)
        for r in range(0, out.shape[-2], _ROW_BLOCK):
            if rows is None:
                block = lines[..., r:r + _ROW_BLOCK]
            else:
                index = rows[r:r + _ROW_BLOCK]
                block = np.take(lines, index, axis=-1, mode="wrap",
                                out=gather[:lines.size // n * len(index)].reshape(*stack, h, -1))
            np.fft.irfft(block.swapaxes(-1, -2), n, axis=-1, norm="forward",
                         out=out[..., r:r + _ROW_BLOCK, :])
        return out

    @staticmethod
    def even(quarter: np.ndarray, n: int, inverse: bool = False) -> np.ndarray:
        """``coeff``, or with ``inverse`` ``field``, of a real N x N field even in
        each axis, held by its quarter ``[0..N/2]^2`` (``a[N - i] = a[i]`` on each
        axis), as the transform's quarter.  Each pass takes the ``rfft`` of the
        even extension of a block of lines and writes its real part as columns.
        """
        norm = "backward" if inverse else "forward"
        h = n // 2 + 1
        for _ in range(2):
            lines, quarter = quarter, np.empty((h, h))
            for r in range(0, h, _ROW_BLOCK):
                block = lines[r:r + _ROW_BLOCK]
                whole = np.concatenate([block, block[:, n - h:0:-1]], axis=1)
                quarter[:, r:r + _ROW_BLOCK] = np.fft.rfft(whole, axis=1, norm=norm).real.T
        return quarter

    @staticmethod
    def coeff(field: np.ndarray, out=None) -> np.ndarray:
        """``rfft2(field) / field.size``, into a Fortran-ordered table (``out``
        if given).

        The division is by each axis length in turn, so it is exact only when
        they are powers of two; otherwise the last digits can differ.
        """
        *stack, n1, n2 = field.shape
        if out is None:
            out = np.empty((*stack, n2 // 2 + 1, n1), dtype=complex).swapaxes(-1, -2)
        np.fft.rfft(field, axis=-1, norm="forward", out=out)
        return np.fft.fft(out, axis=-2, norm="forward", out=out)

    @staticmethod
    def from_lines(lines: np.ndarray, out=None) -> np.ndarray:
        """``coeff`` of the field whose complex pass ``field`` wrote into
        ``lines``, by the forward axis-1 transform alone, into ``out`` if given.

        A weight constant along axis 2 may multiply ``lines`` first, as it
        would the field.  This skips the real pass and its inverse, and with
        them the rounding they add, so it agrees with ``coeff`` of the field to
        rounding, not to the bit.
        """
        out = np.empty(lines.shape, dtype=complex).swapaxes(-1, -2) if out is None else out
        np.fft.fft(lines, axis=-1, norm="forward", out=out.swapaxes(-1, -2))
        return out

    @staticmethod
    def at_origin(coeff: np.ndarray, out=None, cols=None):
        """``field(coeff)`` at the origin, with no transform, into ``out`` if
        given; ``cols``, room for the column sums, is overwritten.

        Every column stands for itself and its mirror, except column 0 and,
        for even N, the Nyquist column N/2.
        """
        cols = np.sum(coeff.real, axis=-2, out=cols)
        total = np.sum(cols, axis=-1, out=out)
        if coeff.shape[-2] % 2 == 0:
            np.add(cols[..., 0], cols[..., -1], out=cols[..., 0])
        total *= 2.0
        total -= cols[..., 0]
        return total

    @staticmethod
    def self_convolution_slopes(line: np.ndarray, k: int, h: float):
        """First derivative of ``h^(k-1) line^{*k}`` at the centre and beyond, and
        its second at the centre: an odd line of spacing h, centred on its middle
        sample, by one padded transform so that nothing wraps round."""
        n = k * (line.size - 1) + 1
        size = 1 << (n - 1).bit_length()
        power = np.fft.rfft(line * h, size) ** k / h
        w = TWO_PI * np.fft.rfftfreq(size, h)
        slope, curve = np.fft.irfft(np.stack([1j * w * power, -w * w * power]), size)
        return slope[n // 2:n], curve[n // 2]

    @staticmethod
    def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Circular convolution of two grid fields, weighted by the cell area."""
        return Spectral.field(Spectral.coeff(f) * Spectral.coeff(g))


def geps_field(n: int, eps: float, mol: Mollifier | None = None) -> np.ndarray:
    """The epsilon-scale kernel on the N x N unit torus, by FFT: its quarter
    ``[0..N/2]^2``, the rest following by ``g[N - i, j] = g[i, N - j] = g[i, j]``.

    The spectral second derivative of the log kernel is the multiplier
    ``-s1^2/|s|^2`` (zero mode dropped), and the mollifier enters through its
    continuum Fourier transform sampled at grid frequencies.  Both are even in
    each frequency, so the tables are built on the quarter of non-negative
    frequencies and each field is taken by ``Spectral.even``.
    """
    _check_grid(n, eps)
    mol = mol or _default_mollifier(RESOLUTION)
    s1 = TWO_PI * np.arange(n // 2 + 1.0)[:, None]  # and s2 = s1.T
    ss = s1**2 + s1.T**2
    ss[0, 0] = 1.0
    frho = mol.fourier(np.sqrt(ss) * eps)
    frho[0, 0] = 1.0
    d11 = np.multiply(s1**2, np.divide(1.0, ss, out=ss), out=ss)  # 0 at the zero mode
    out = Spectral.even(np.square(d11 * frho), n, inverse=True)
    out *= Spectral.even(np.square(frho, out=frho), n, inverse=True)
    out += Spectral.even(np.multiply(d11, frho, out=d11), n, inverse=True) ** 2
    return eps * eps * out


def gconv_limits_check(eps: float, n: int = 512, mol: Mollifier | None = None,
                       resolution: int = RESOLUTION) -> dict:
    """Relative residuals of the three smoothing limits of the square kernel,
    on a bump f of radius 0.175 tested against one of radius 0.25.

    Every field is even in each axis, so it is held by its quarter and
    transformed by ``Spectral.even``, once.  The correlations ``phi.phi`` and
    ``(g*f).f`` are the fields of ``phi^2`` and ``g^ f^2``, and each array is
    dropped after its last use.
    The resolution is that of ``mol`` (default: the mollifier at ``resolution``).
    """
    _check_grid(n, eps)
    grid_mol = _mollifier(mol, resolution)
    crho_sq = crho_squared("spatial", resolution, mol).value
    h = n // 2 + 1
    weight = np.where(2 * np.arange(h) % n == 0, 1.0, 2.0)  # lines 0 and N/2 are their own mirrors
    dot = lambda a, b: float(weight @ (a * b) @ weight) / (n * n)
    dx = (torus_coords(n)[:h] + 0.5) % 1.0 - 0.5  # the bumps' quarter offsets, as in bump_field
    geps = geps_field(n, eps, grid_mol)
    f = _bump(dx[:, None], dx, 0.175)
    f /= dot(f, 1.0)
    gf, corr_gf_f = Spectral.even(geps, n), Spectral.even(f, n)  # coefficients until transformed
    gf *= corr_gf_f
    corr_gf_f *= gf
    corr_gf_f = Spectral.even(corr_gf_f, n, inverse=True)
    gf = Spectral.even(gf, n, inverse=True)
    corr_gf_f *= geps
    del geps
    phi = _bump(dx[:, None], dx, 0.25)
    phi /= dot(phi, 1.0)
    lhs1, rhs1 = dot(phi, gf), crho_sq * dot(phi, f)
    rhs3 = crho_sq * crho_sq * dot(phi, phi) * dot(f, f)
    corr_phi = Spectral.even(phi, n)
    del phi
    corr_phi = Spectral.even(np.square(corr_phi, out=corr_phi), n, inverse=True)
    lhs2 = dot(np.square(gf, out=gf), corr_phi)
    lhs3 = dot(corr_gf_f, corr_phi)
    rhs2 = crho_sq * crho_sq * dot(np.square(f, out=f), corr_phi)
    rel = lambda lhs, rhs: abs(lhs - rhs) / abs(rhs) if rhs else abs(lhs)
    return {"limit1": rel(lhs1, rhs1), "limit2": rel(lhs2, rhs2), "limit3": rel(lhs3, rhs3)}
