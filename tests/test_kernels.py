import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from conftest import (disc_mass, hankel_tables, polar_profile_reference, reference_gconv_limits,
                      reference_geps_field)
from gpam2d import kernels

from gpam2d.kernels import (
    Mollifier,
    Spectral,
    SquareKernel,
    Spline,
    _gauss_nodes,
    approx_unity_report,
    bump_field,
    crho_squared,
    d11_log_potential,
    gconv_limits_check,
    geps_field,
    torus_coords,
)

RES = 96  # test-speed resolution; the acceptance suite runs higher
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@pytest.fixture(scope="module")
def mol():
    return Mollifier(resolution=RES)


@pytest.fixture(scope="module")
def kernel(mol):
    return SquareKernel(mol, resolution=RES)


@pytest.fixture(scope="module")
def crho(mol):
    return crho_squared("spatial", RES, mol).value


@pytest.fixture(scope="module")
def fourier_crho(mol):
    # The route that shares no table with the square kernel, which reads spatial tables only.
    return crho_squared("fourier", RES, mol).value


GAUSS_S = 0.15  # the width of the Gaussian profile, whose c_rho^2 is 3/(32 pi s^2)


@pytest.fixture(scope="module")
def gaussian():
    return Mollifier(profile=lambda r: np.exp(-r * r / (2 * GAUSS_S**2)), resolution=RES)


def eps_value(kernel, x, eps):
    """The epsilon-scale kernel at the point x, by exact self-similarity."""
    r, theta = float(np.hypot(x[0], x[1])), float(np.arctan2(x[1], x[0]))
    return float(kernel.value(np.asarray(r / eps), theta)) / eps**2


def bound_constant(kernel, eps):
    """Fitted constant in |G_eps(x)| <= C eps^2 (|x|+eps)^-4 over a sample grid."""
    rr = np.linspace(1e-3, 8.0 * eps, 400)
    tt = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    vals = np.abs(kernel.value(rr[:, None] / eps, tt[None, :])) / eps**2
    envelope = eps * eps * (rr[:, None] + eps) ** -4.0
    return float(np.max(vals / envelope))


class TestMollifier:
    def test_normalised_radial_nonnegative_supported(self, mol):
        grid = np.linspace(0, 1.2, 500)
        vals = mol.rad(grid)
        assert (vals >= 0).all()
        assert vals[grid >= 1.0].max() == 0.0
        assert abs(float(disc_mass(mol, 1, 1.0)) - 1.0) < 1e-10

    @pytest.mark.parametrize("resolution", [1, 2, 4, 8, 16])
    def test_one_normalisation_at_every_resolution(self, resolution):
        assert Mollifier(resolution=resolution)._norm == Mollifier(resolution=128)._norm

    def test_self_convolutions_keep_unit_mass(self, mol):
        assert abs(float(disc_mass(mol, 2, 2.0)) - 1.0) < 1e-8
        assert abs(float(disc_mass(mol, 3, 3.0)) - 1.0) < 1e-7

    @pytest.mark.xfail(strict=True, reason=(
        "the disc-mean table comes from a trapezoid cumulative mass, short by "
        "1.2e-6, 3.4e-6 and 5.3e-6 at the support edge (RES = 96); integrating "
        "the profile spline exactly, piece by piece, waits for a benchmark change "
        "that re-records the gconv references"))
    @pytest.mark.parametrize("order, bound", [(1, 1e-10), (2, 1e-8), (3, 1e-7)])
    def test_unit_mass_just_inside_the_support_edge(self, mol, order, bound):
        # disc_mass(mol, k, k) is 1.0 by definition, so the edge is read from inside.
        assert abs(float(disc_mass(mol, order, order * (1.0 - 1e-12))) - 1.0) < bound

    def test_fourier_bounded_by_value_at_zero(self, mol):
        sig = np.linspace(0, 60, 500)
        vals = mol.fourier(sig)
        assert abs(vals[0] - 1.0) < 1e-9
        assert np.max(np.abs(vals[1:])) < 1.0

    def test_fourier_lookup_in_row_blocks_is_one_pass(self, mol, monkeypatch):
        # Past the table's end (40 sqrt(RES) = 392) the transform reads 0.
        sig = np.linspace(-5.0, 500.0, 3000).reshape(60, 50)
        whole = [mol.fourier(s) for s in (sig, np.asfortranarray(sig), sig[7], 3.5)]
        spec = Spectral(64, 1 / 8, mol)
        # Blocks of two 50-point rows, of three 33-point rows, of 120 points.
        monkeypatch.setattr(kernels, "_BLOCK", 120)
        for s, expected in zip((sig, np.asfortranarray(sig), sig[7], 3.5), whole):
            assert np.array_equal(mol.fourier(s), expected)
            assert np.shape(mol.fourier(s)) == np.shape(s)
        assert mol.fourier(np.asfortranarray(sig)).flags.f_contiguous
        blocked = Spectral(64, 1 / 8, mol)
        assert np.array_equal(blocked.frho, spec.frho) and blocked.frho.flags.f_contiguous

    def test_fourier_matches_direct_quadrature(self, mol):
        from scipy.integrate import quad
        from scipy.special import j0

        for sigma in (2.0, 7.5, 15.0):
            direct = 2 * math.pi * quad(lambda t: float(mol.rad(t)) * j0(sigma * t) * t, 0, 1, limit=200)[0]
            assert abs(float(mol.fourier(sigma)) - direct) < 1e-7


class TestCrho:
    def test_positive_and_routes_agree(self, mol):
        spatial = crho_squared("spatial", RES, mol)
        fourier = crho_squared("fourier", RES, mol)
        assert spatial.value > 0 and fourier.value > 0
        assert abs(spatial.value - fourier.value) < 1e-3 * spatial.value

    def test_gaussian_profile_oracle(self, gaussian):
        got = crho_squared("spatial", RES, gaussian).value
        exact = 3.0 / (32.0 * math.pi * GAUSS_S**2)
        assert abs(got - exact) < 2e-4 * exact

    def test_gaussian_profile_oracle_fourier_route(self, gaussian):
        got = crho_squared("fourier", RES, gaussian).value
        exact = 3.0 / (32.0 * math.pi * GAUSS_S**2)
        assert abs(got - exact) < 1e-8 * exact

    @pytest.mark.parametrize("profile", ["mol", "gaussian"])
    def test_cross_overlap_is_the_squared_norm(self, profile, request):
        # <d11 Phi_1, d11 Phi_3> = ||d11 Phi_2||^2 for a radial mollifier, the
        # identity that lets the spatial route double one integral.  The cross
        # overlap is computed here on the same nodes, as the reference.
        m = request.getfixturevalue(profile)
        rmax, n = 16.0 + RES / 16.0, 8 * RES
        nodes, weights = _gauss_nodes(0.0, rmax, n)
        (a1, b1), (a3, b3) = d11_log_potential(m, 1), d11_log_potential(m, 3)
        cross = float(np.sum((2.0 * math.pi * a1(nodes) * a3(nodes)
                              + math.pi * b1(nodes) * b3(nodes)) * nodes * weights))
        cross += 1.0 / (8.0 * math.pi * rmax**2)
        square = kernels._overlap_integral(m, rmax, n)
        assert abs(cross - square) < 1e-4 * square

    def test_self_convergence(self, mol):
        coarse = crho_squared("spatial", RES // 2, Mollifier(resolution=RES // 2)).value
        fine = crho_squared("spatial", RES, mol).value
        assert abs(fine - coarse) < 1e-4 * abs(fine)


class TestQuadrature:
    """The cold quadrature against the rules it stands in for."""

    def test_uniform_eval_is_the_spline(self, monkeypatch):
        # Every table the package builds, and a wavy one, against scipy's
        # not-a-knot spline through the same data, at knots and between them.
        built = []

        class Recording(Spline):
            def __init__(self, x, y):
                super().__init__(x, y)
                built.append((self, np.asarray(x), np.asarray(y)))

        monkeypatch.setattr(kernels, "Spline", Recording)
        for resolution in (1, 2, 32):
            mol = Mollifier(resolution=resolution)
            SquareKernel(mol, resolution=resolution)
            mol.fourier(0.0)
            for order in (1, 2, 3):
                mol._disc_mean(order, 0.5)
            assert len(mol._splines) == 8  # profiles and disc means 1-3, harmonic 4, fourier
        # Each of those eight, and the q spline of each Abel profile, not kept.
        assert len(built) == 3 * 11
        grid = np.linspace(0.0, 5.0, 77)
        wavy = Spline(grid, np.sin(6.0 * grid))
        built.append((wavy, grid, np.sin(6.0 * grid)))
        rng = np.random.default_rng(11)
        for spline, x, y in built:
            r = np.concatenate([x, rng.uniform(0.0, x[-1], 4000)])
            gap = np.max(np.abs(spline(r) - CubicSpline(x, y)(r)))
            assert gap <= 1e-15 * np.max(np.abs(y)), x.size
        r = rng.uniform(0.0, 5.0, (7, 9, 11))
        assert wavy(r).shape == r.shape
        assert np.max(np.abs(wavy(r) - CubicSpline(grid, np.sin(6.0 * grid))(r))) <= 1e-15

    @pytest.mark.parametrize("resolution, order, bound", [
        (32, 2, 1e-9), (64, 2, 5e-11), (96, 2, 1.1e-11), (128, 2, 3.2e-12), (128, 3, 6e-12),
    ])
    def test_abel_profiles_against_the_polar_rule(self, resolution, order, bound):
        # The polar rule's own error shrinks with the resolution; the Abel
        # profile's does not depend on it.  Measured gaps: 8.0e-10, 3.9e-11,
        # 8.7e-12, 2.5e-12 and 4.7e-12.
        knots = np.linspace(0.0, float(order), 3 * resolution)
        abel = Mollifier(resolution=resolution)._profile_spline(order)(knots)
        assert np.max(np.abs(abel - polar_profile_reference(resolution, order))) <= bound

    @PROPERTY
    @given(st.floats(0.1, 0.2), st.sampled_from([2, 3]))
    def test_abel_profiles_of_a_gaussian(self, s, order):
        # rho_k(r) = exp(-r^2/(2 k s^2))/(2 pi k s^2).  The mollifier cuts the
        # Gaussian at r = 1, where it leaves out the mass delta = exp(-1/(2 s^2)),
        # and renormalises: the profile's peak rises by k delta.  Where delta
        # is negligible (s below 0.135), the measured gap is below 6e-12 of the peak.
        mol = Mollifier(lambda r: np.exp(-r * r / (2 * s * s)), resolution=32)
        knots = np.linspace(0.0, float(order), 96)
        peak = 1.0 / (2.0 * math.pi * order * s * s)
        exact = peak * np.exp(-knots**2 / (2.0 * order * s * s))
        gap = np.max(np.abs(mol._profile_spline(order)(knots) - exact))
        assert gap <= (1.01 * order * math.exp(-0.5 / (s * s)) + 1e-11) * peak

    def test_flat_disc_profile_is_the_lens_area(self):
        # The disc's density jumps at its edge, so no rule is spectrally
        # accurate here.  Measured: 2.55e-4; the polar rule's was 1.7e-3.
        disc = Mollifier(lambda r: np.ones_like(r), resolution=32)
        knots = np.linspace(0.0, 2.0, 96)
        lens = (2.0 * np.arccos(knots / 2) - knots / 2 * np.sqrt(4.0 - knots**2)) / math.pi**2
        assert np.max(np.abs(disc._profile_spline(2)(knots) - lens)) <= 3e-4

    @pytest.mark.parametrize("resolution", [1, 2, 4, 8])
    def test_small_resolutions_are_no_worse(self, resolution):
        # At its knots each table lies no farther from the resolution-128 one
        # than the polar rule's table does: the Abel profiles keep their grid
        # and their normalisation at every resolution.
        for order in (2, 3):
            knots = np.linspace(0.0, float(order), 3 * resolution)
            fine = Mollifier(resolution=128)._profile_spline(order)(knots)
            abel = Mollifier(resolution=resolution)._profile_spline(order)(knots)
            polar = polar_profile_reference(resolution, order)
            assert np.max(np.abs(abel - fine)) <= np.max(np.abs(polar - fine)), order

    def test_the_routes_share_no_term(self, monkeypatch):
        # Each route still runs with the other's terms refused.
        def refuse(*args):
            raise AssertionError("a term of the other route")

        expected = {route: crho_squared(route, 64).value for route in ("spatial", "fourier")}
        with monkeypatch.context() as patch:
            patch.setattr(Mollifier, "fourier", refuse)  # the whole Fourier table lies inside it
            assert crho_squared("spatial", 64, Mollifier(resolution=64)).value == expected["spatial"]
        monkeypatch.setattr(Mollifier, "_profile_spline", refuse)
        monkeypatch.setattr(Mollifier, "_disc_mean", refuse)
        monkeypatch.setattr(Spectral, "self_convolution_slopes", refuse)
        assert crho_squared("fourier", 64, Mollifier(resolution=64)).value == expected["fourier"]

    @pytest.mark.parametrize("route, resolution, value", [
        ("spatial", 64, 0.21385533278401708),
        ("fourier", 64, 0.21385730057328864),
        ("spatial", 128, 0.21385681413033134),
        ("fourier", 128, 0.2138573044162522),
    ])
    def test_crho_pinned(self, route, resolution, value):
        # One integral per route; the spatial profiles by Abel projection.
        got = crho_squared(route, resolution).value
        assert abs(got - value) <= 1e-12 * value


class TestSquareKernel:
    def test_scale_invariant_integral(self, kernel):
        vals = [kernel.integral(eps) for eps in (1.0, 0.5, 0.25)]
        spread = (max(vals) - min(vals)) / vals[0]
        assert spread < 1e-6

    def test_integral_matches_amplitude(self, kernel, fourier_crho):
        assert abs(kernel.integral(1.0) - fourier_crho) < 1e-4 * fourier_crho

    def test_first_summand_supported_in_twice_the_scale(self, kernel):
        assert kernel.first_summand(np.asarray(2.01), 0.3) == 0.0
        x = np.asarray([0.3, 0.0])
        assert eps_value(kernel, x, 0.125) == pytest.approx(
            kernel.second_summand(np.asarray(0.3 / 0.125), 0.0) / 0.125**2
        )

    def test_envelope_constant_stable_across_scales(self, kernel):
        consts = [bound_constant(kernel, eps) for eps in (0.5, 0.25, 0.125)]
        assert max(consts) < 10.0 * min(consts)
        assert all(np.isfinite(consts))

    def test_tail_masses_decrease_with_scale(self, kernel):
        delta = 0.125
        masses = [
            approx_unity_report(eps, delta, kernel.mol, RES)["tail_mass"]
            for eps in (1 / 16, 1 / 64)
        ]
        assert masses[1] < masses[0]

    def test_l1_mass_uniformly_bounded(self, kernel, crho, fourier_crho):
        reports = [approx_unity_report(eps, 0.125, kernel.mol, RES) for eps in (1 / 8, 1 / 32)]
        for rep in reports:
            assert rep["l1_mass"] < 5.0 * crho
            assert rep["total_integral"] == pytest.approx(fourier_crho, rel=1e-3)

    def test_one_harmonic_table_per_mollifier(self, monkeypatch):
        # Criterion 7's set-up: a kernel, then reports on its mollifier.  The
        # kernel reads rho2, its disc mean and its one h4 table, so the
        # Fourier table is never built.
        def refuse(*args):
            raise AssertionError("a Fourier table lookup")

        monkeypatch.setattr(Mollifier, "fourier", refuse)
        own = Mollifier(resolution=128)
        first = SquareKernel(own, resolution=128)
        assert SquareKernel(own, resolution=128)._h4 is first._h4
        report = approx_unity_report(0.25, 0.125, own, 128)
        assert own._splines[("harmonic", 4)] is first._h4
        assert list(own._splines) == [("profile", 2), ("mean", 2), ("harmonic", 4)]
        # The three integrals, at 1e-15.  Read with the first summand of the
        # Hankel tables at R = 256 (conftest.hankel_tables) they are 0.21640790511,
        # 0.11806816458 and 0.21385706026: these lie -1.9e-7, -3.6e-7 and +4.0e-10
        # relative from them, set by the disc mean that h2 and h4 read near r = 0.
        pinned = {"l1_mass": 0.21640786286035346, "tail_mass": 0.11806812230928994,
                  "total_integral": 0.21385706034324165}
        for key, value in pinned.items():
            assert abs(report[key] - value) <= 1e-15 * value, key

    @pytest.mark.parametrize("resolution, bound", [(64, 2.8e-6), (128, 7e-7)])
    def test_first_summand_against_the_hankel_tables(self, resolution, bound):
        # The oracle is the first summand of the Hankel tables at R = 256, built
        # with scipy's J_n.  Measured: 2.3-2.6e-6 at R = 64 and 5.8-6.4e-7 at
        # R = 128, worst near r = 0.01, where the trapezoid disc mean that h2
        # and h4 read is off; the second summand, which reads the same disc
        # mean, lies 0.6-3.6e-6 and 1.2-7.1e-7 from its R = 256 self.
        oracle_mol, (h0, h2, h4) = hankel_tables(256)
        kernel = SquareKernel(Mollifier(resolution=resolution), resolution=resolution)
        r = np.linspace(0.0, 2.2, 2201)
        rc = np.clip(r, 0.0, 2.0)
        for theta in (0.0, 0.3, 0.7):
            harmonics = h0(rc) + h2(rc) * np.cos(2 * theta) + h4(rc) * np.cos(4 * theta)
            oracle = np.where(r < 2.0, harmonics * oracle_mol.conv_profile(2, r), 0.0)
            assert np.max(np.abs(kernel.first_summand(r, theta) - oracle)) <= bound, theta

    @PROPERTY
    @given(st.floats(0.1, 0.2))
    def test_harmonics_of_a_gaussian(self, s):
        # With U = r^2/(4 s^2): rho2 = exp(-U)/(4 pi s^2), its disc mean
        # m2 = (1 - exp(-U))/(pi r^2) and m4 = (8 s^2/(pi r^4))(1 - (1 + U) exp(-U)),
        # so h2 = -(m2 - rho2)/2 and h4 = (2 m2 + rho2 - 3 m4)/8.  The bound is
        # the trapezoid disc mean's (m2 is read from it, m4 is exact on rho2's
        # pieces): at R = 96 the measured gaps are 0.94-3.8e-5 of rho2's peak for
        # h4 and 1.9-7.5e-5 for h2, falling as 1/s^2 from s = 0.1.  The cut at
        # r = 1 adds at most 7.5e-6 (s = 0.2).
        mol = Mollifier(lambda r: np.exp(-r * r / (2 * s * s)), resolution=RES)
        kernel = SquareKernel(mol, resolution=RES)
        r = np.linspace(0.0, 2.0, 97)[1:]
        u = r * r / (4 * s * s)
        peak = 1.0 / (4.0 * math.pi * s * s)
        rho2 = peak * np.exp(-u)
        m2 = -np.expm1(-u) / (math.pi * r * r)
        m4 = 8.0 * s * s / (math.pi * r**4) * (-np.expm1(-u) - u * np.exp(-u))
        assert np.max(np.abs(-kernel._b2(r) + (m2 - rho2) / 2)) <= 1e-4 * peak
        assert np.max(np.abs(kernel._h4(r) - (2.0 * m2 + rho2 - 3.0 * m4) / 8.0)) <= 5e-5 * peak

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_value_at_the_origin_is_its_limit(self, kernel, mol, theta):
        # b and h4 vanish at the origin, so the limit is
        # (3/8) rho2(0)^2 + (rho2(0)/2)^2 = (5/8) rho2(0)^2.
        rho2 = float(mol.conv_profile(2, np.asarray(0.0)))
        assert float(kernel.value(np.asarray(0.0), theta)) == pytest.approx(0.625 * rho2 * rho2, rel=1e-12)

    @pytest.mark.parametrize("r", [1e-9, 1e-6, 1e-4, 1e-3])
    def test_value_continuous_at_the_origin(self, kernel, r):
        at_zero = float(kernel.value(np.asarray(0.0), 0.0))
        for theta in (0.0, 0.7):
            assert abs(float(kernel.value(np.asarray(r), theta)) / at_zero - 1.0) <= 1e-5

    def test_b_vanishes_at_the_origin(self, mol):
        for order in (1, 2, 3):
            assert float(d11_log_potential(mol, order)[1](np.asarray(0.0))) == 0.0

    def test_b_outside_the_support_is_the_point_mass_field(self, mol):
        for order in (1, 2, 3):
            r = np.array([order, order + 0.5, 7.0, 40.0])
            assert np.array_equal(d11_log_potential(mol, order)[1](r), 1.0 / (2.0 * math.pi * r * r))

    def test_rejects_nonpositive_scales(self, kernel):
        with pytest.raises(ValueError):
            approx_unity_report(0.0, 0.125, kernel.mol, RES)


class TestGrid:
    def test_grid_matches_radial_backend(self, mol, kernel):
        # The torus images contribute an order-one smooth correction on top
        # of the scale-singular part, so pointwise agreement is loose.
        n, eps = 256, 1 / 16
        field = geps_field(n, eps, mol)  # the quarter [0..N/2]^2, which holds every probe
        for point in ([0.05, 0.0], [0.0, 0.04], [0.03, 0.03]):
            radial = eps_value(kernel, point, eps)
            i, j = (round(x * n) % n for x in point)
            assert field[i, j] == pytest.approx(radial, rel=0.25, abs=2.0)

    def test_too_coarse_grid_rejected(self, mol):
        with pytest.raises(ValueError):
            geps_field(64, 1 / 32, mol)
        with pytest.raises(ValueError):
            geps_field(256, 1 / 512, mol)

    @pytest.mark.parametrize("n", [0, -4, 16])
    def test_off_grid_zero_field_rejected(self, mol, n):
        # The grid rule holds before any field is built: eps*N >= 4.
        with pytest.raises(ValueError, match="grid too coarse"):
            gconv_limits_check(1 / 8, n=n, mol=mol, resolution=RES)

    def test_residuals_shrink_with_scale(self, mol):
        n = 256
        r_coarse = gconv_limits_check(1 / 8, n=n, mol=mol, resolution=RES)
        r_fine = gconv_limits_check(1 / 32, n=n, mol=mol, resolution=RES)
        assert r_fine["limit1"] < r_coarse["limit1"]
        assert r_fine["limit2"] < r_coarse["limit2"]

    @pytest.mark.parametrize("n,eps", [(64, 1 / 8), (256, 1 / 16), (1, 4), (2, 2), (3, 2), (6, 1),
                                       (65, 1 / 16), (100, 1 / 16)])
    def test_against_the_whole_table_formulas(self, mol, n, eps):
        # Odd sizes have no Nyquist line; N = 1 and 2 are all zero and Nyquist lines.
        field, reference = geps_field(n, eps, mol), reference_geps_field(n, eps, mol)
        assert field.shape == (n // 2 + 1,) * 2
        reference = reference[:n // 2 + 1, :n // 2 + 1]
        assert np.max(np.abs(field - reference)) <= 1e-15 * np.max(np.abs(reference))
        got = gconv_limits_check(eps, n=n, mol=mol, resolution=RES)
        expected = reference_gconv_limits(eps, n, mol, RES)
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-12 * value, key

    def test_gconv_holds_under_three_grid_fields(self, mol):
        # Measured on quarter fields: 2.33 fields of 8 N^2 bytes at N = 256
        # (1.63 at N = 1024, 6.5 quarters), against 5.4 on whole grids.
        n = 256
        gconv_limits_check(1 / 16, n=n, mol=mol, resolution=RES)  # the mollifier's tables
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            gconv_limits_check(1 / 16, n=n, mol=mol, resolution=RES)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 2.9 * 8 * n * n

    def test_d1_frho_is_built_when_first_read(self, mol):
        spec = Spectral(64, 1 / 8, mol)
        assert "d1_frho" not in vars(spec)
        table = spec.d1_frho
        assert spec.d1_frho is table and table.flags.f_contiguous and table.shape == (64, 33)
        assert np.array_equal(table, spec.d1 * spec.frho)

    def test_field_at_origin_is_the_coefficient_sum(self, mol):
        # The estimators read base-point values as half-spectrum coefficient
        # sums, each column but 0 and N/2 counted for its mirror too.
        spec = Spectral(64, 1 / 8, mol)
        rng = np.random.default_rng(4)
        noise_hat = spec.coeff(rng.standard_normal((64, 64)))
        for c in (spec.coeff(bump_field(64)), noise_hat,
                  1j * spec.s2 * spec.inv_lap * noise_hat,
                  spec.d1 * spec.inv_lap * noise_hat):
            value = spec.at_origin(c)
            assert abs(spec.field(c)[spec.origin] - value) <= 1e-12 * abs(value)

    def test_bump_field_normalised(self):
        n = 128
        phi = bump_field(n, radius=0.25)
        assert float(phi.sum()) / (n * n) == pytest.approx(1.0, abs=1e-12)
        x = torus_coords(n)
        assert phi[0, 0] == phi.max()

    @pytest.mark.parametrize("n,radius,centre", [
        (16, 0.25, (0.0, 0.0)), (64, 0.175, (0.3, -0.45)), (512, 0.25, (0.25, 0.125)),
        (1024, 0.175, (0.0, 0.0)), (97, 0.6, (0.5, 0.5))])
    def test_bump_field_is_the_whole_grid_formula(self, n, radius, centre):
        # The exponential on the support alone changes no bit.
        x = torus_coords(n)
        dx = (x[:, None] - centre[0] + 0.5) % 1.0 - 0.5
        dy = (x[None, :] - centre[1] + 0.5) % 1.0 - 0.5
        rr = np.sqrt(dx * dx + dy * dy) / radius
        whole = np.where(rr < 1.0, np.exp(-1.0 / np.clip(1.0 - rr * rr, 1e-300, None)), 0.0)
        whole /= whole.sum() / (n * n)
        assert np.array_equal(bump_field(n, radius, centre), whole)


def _orders(x):
    return [np.ascontiguousarray(x), np.asfortranarray(x)]


class TestSpectralTransforms:
    """``coeff`` and ``field`` against numpy's 2-d transforms, bit for bit on
    the installed numpy: the layout and the row path change no value."""

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_coeff_is_rfft2_over_the_cell_count(self, n):
        x = np.random.default_rng(n).standard_normal((n, n))
        for xo in _orders(x):
            c = Spectral.coeff(xo)
            assert c.flags.f_contiguous and c.shape == (n, n // 2 + 1)
            assert np.array_equal(c, np.fft.rfft2(x) / x.size)

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_rows_of_the_field_are_rows_of_the_full_field(self, n):
        x = np.random.default_rng(n + 1).standard_normal((n, n))
        c = Spectral.coeff(x)
        full = np.fft.irfft2(c, s=(n, n)) * (n * n)
        support = np.flatnonzero(bump_field(n, radius=0.25).any(axis=1))
        for co in _orders(c):
            assert np.array_equal(Spectral.field(co), full)
            for rows in (support, [n // 2 - 1], np.arange(n)):
                assert np.array_equal(Spectral.field(co, rows), full[rows])

    @PROPERTY
    @given(n=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 64, 65, 100]), seed=st.integers(0, 2**32 - 1))
    def test_even_is_the_whole_transform_on_quarters(self, n, seed):
        """``even`` on the quarter of an even field, both ways, against numpy's
        2-d transforms of the whole field."""
        h = n // 2 + 1
        mirror = np.r_[0:h, n - h:0:-1]  # line i of the whole field is quarter line mirror[i]
        unfold = lambda q: q[np.ix_(mirror, mirror)]
        quarter = np.random.default_rng(seed).standard_normal((h, h))
        whole = {False: np.fft.rfft2(unfold(quarter)) / (n * n),
                 True: np.fft.irfft2(unfold(quarter)[:, :h], s=(n, n)) * (n * n)}
        for inverse, expected in whole.items():
            got = unfold(Spectral.even(quarter, n, inverse))
            assert np.array_equal(got, got[-np.arange(n)]) and np.array_equal(got, got[:, -np.arange(n)])
            assert np.max(np.abs(got[:, :expected.shape[1]] - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [9, 12])
    def test_other_sizes_agree_to_rounding(self, n):
        """Off the powers of two the scaling is no longer exact: agreement to
        rounding, and the row path still reads the full field bit for bit."""
        x = np.random.default_rng(n).standard_normal((n, n))
        c = Spectral.coeff(x)
        np.testing.assert_allclose(c, np.fft.rfft2(x) / x.size, rtol=0, atol=1e-15)
        np.testing.assert_allclose(Spectral.field(c), x, rtol=0, atol=1e-14)
        assert np.array_equal(Spectral.field(c, [0, n - 1, 2]), Spectral.field(c)[[0, n - 1, 2]])


@pytest.mark.parametrize(
    "call",
    [
        lambda mol: crho_squared("spatial", RES // 2, mol),
        lambda mol: SquareKernel(mol, resolution=RES // 2),
        lambda mol: approx_unity_report(1 / 8, 1 / 8, mol, RES // 2),
        lambda mol: gconv_limits_check(1 / 8, n=64, mol=mol, resolution=RES // 2),
    ],
    ids=["crho_squared", "SquareKernel", "approx_unity_report", "gconv_limits_check"],
)
def test_mollifier_of_another_resolution_rejected(call, mol):
    with pytest.raises(ValueError, match="resolution"):
        call(mol)
