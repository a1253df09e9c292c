import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import j0, jv

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
    gconv_limits_check,
    geps_field,
    torus_coords,
)

RES = 96  # test-speed resolution; the acceptance suite runs higher


@pytest.fixture(scope="module")
def mol():
    return Mollifier(resolution=RES)


@pytest.fixture(scope="module")
def kernel(mol):
    return SquareKernel(mol, resolution=RES)


@pytest.fixture(scope="module")
def crho(mol):
    return crho_squared("spatial", RES, mol).value


class TestMollifier:
    def test_normalised_radial_nonnegative_supported(self, mol):
        grid = np.linspace(0, 1.2, 500)
        vals = mol.rad(grid)
        assert (vals >= 0).all()
        assert vals[grid >= 1.0].max() == 0.0
        assert abs(float(mol.mass(1, 1.0)) - 1.0) < 1e-10

    def test_self_convolutions_keep_unit_mass(self, mol):
        assert abs(float(mol.mass(2, 2.0)) - 1.0) < 1e-8
        assert abs(float(mol.mass(3, 3.0)) - 1.0) < 1e-7

    def test_fourier_bounded_by_value_at_zero(self, mol):
        sig = np.linspace(0, 60, 500)
        vals = mol.fourier(sig)
        assert abs(vals[0] - 1.0) < 1e-9
        assert np.max(np.abs(vals[1:])) < 1.0

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

    def test_gaussian_profile_oracle(self):
        # For a Gaussian shape the closed form is 3/(32 pi s^2).
        s = 0.15
        gmol = Mollifier(profile=lambda r: np.exp(-r * r / (2 * s * s)), resolution=RES)
        got = crho_squared("spatial", RES, gmol).value
        exact = 3.0 / (32.0 * math.pi * s * s)
        assert abs(got - exact) < 2e-4 * exact

    def test_self_convergence(self, mol):
        coarse = crho_squared("spatial", RES // 2, Mollifier(resolution=RES // 2)).value
        fine = crho_squared("spatial", RES, mol).value
        assert abs(fine - coarse) < 1e-4 * abs(fine)


class TestQuadrature:
    """The cold quadrature against the rules it stands in for."""

    @pytest.fixture(scope="class")
    def small(self):
        return Mollifier(resolution=32)

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
            for order in (1, 2, 3):
                mol.mass(order, 0.5)
            assert len(mol._splines) == 8  # profiles and masses 1-3, fourier, hankel
        assert len(built) == 3 * 10
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

    def test_half_angle_rule_is_the_full_period_rule(self, small):
        # The 512-node rectangle rule over the whole period, written out, on
        # every point of the (t, angle) rectangle: the bump, and the flat
        # disc, whose profile does not vanish at its edge, so the live
        # rectangle of each radius ends where the integrand jumps.
        disc = Mollifier(lambda r: np.ones_like(r), resolution=32)
        for mol in (small, disc):
            tn, tw = _gauss_nodes(0.0, 1.0, 2 * mol.resolution)
            weights = tw * tn * mol.rad(tn)
            cos_a = np.cos(np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False))
            for order in (2, 3):
                lower = mol._profile_spline(order - 1)
                grid = np.linspace(0.0, float(order), 3 * mol.resolution)
                dist = np.sqrt(np.maximum(
                    grid[:, None, None] ** 2 + tn[None, :, None] ** 2
                    - 2.0 * grid[:, None, None] * tn[None, :, None] * cos_a, 0.0))
                inner = np.nan_to_num(lower(np.clip(dist, 0.0, order - 1.0)))
                full = 2.0 * math.pi / 512 * np.einsum("t,gta->g", weights, inner)
                assert np.max(np.abs(mol._profile_spline(order)(grid) - full)) <= 1e-13

    @pytest.mark.parametrize("route, resolution, value", [
        ("spatial", 64, 0.21385501263536402),
        ("fourier", 64, 0.2138563166779222),
        ("spatial", 128, 0.2138567340125781),
        ("fourier", 128, 0.21385705927329168),
    ])
    def test_crho_pinned(self, route, resolution, value):
        # Values of the scipy-evaluated, full-period quadrature.
        got = crho_squared(route, resolution).value
        assert abs(got - value) <= 1e-12 * value


class TestSquareKernel:
    def test_scale_invariant_integral(self, kernel):
        vals = [kernel.integral(eps) for eps in (1.0, 0.5, 0.25)]
        spread = (max(vals) - min(vals)) / vals[0]
        assert spread < 1e-6

    def test_integral_matches_amplitude(self, kernel, crho):
        assert abs(kernel.integral(1.0) - crho) < 1e-4 * crho

    def test_first_summand_supported_in_twice_the_scale(self, kernel):
        assert kernel.first_summand(np.asarray(2.01), 0.3) == 0.0
        x = np.asarray([0.3, 0.0])
        assert kernel.eps_value(x, 0.125) == pytest.approx(
            kernel.second_summand(np.asarray(0.3 / 0.125), 0.0) / 0.125**2
        )

    def test_envelope_constant_stable_across_scales(self, kernel):
        consts = [kernel.bound_constant(eps) for eps in (0.5, 0.25, 0.125)]
        assert max(consts) < 10.0 * min(consts)
        assert all(np.isfinite(consts))

    def test_tail_masses_decrease_with_scale(self, kernel):
        delta = 0.125
        masses = [
            approx_unity_report(eps, delta, kernel.mol, RES)["tail_mass"]
            for eps in (1 / 16, 1 / 64)
        ]
        assert masses[1] < masses[0]

    def test_l1_mass_uniformly_bounded(self, kernel, crho):
        reports = [approx_unity_report(eps, 0.125, kernel.mol, RES) for eps in (1 / 8, 1 / 32)]
        for rep in reports:
            assert rep["l1_mass"] < 5.0 * crho
            assert rep["total_integral"] == pytest.approx(crho, rel=1e-3)

    def test_one_hankel_table_per_mollifier(self, monkeypatch):
        # Criterion 7's set-up: a kernel, then reports on its mollifier.
        own = Mollifier(resolution=128)
        first = SquareKernel(own, resolution=128)
        calls = []
        monkeypatch.setattr(kernels, "jv", lambda *a: calls.append(a) or jv(*a))
        monkeypatch.setattr(kernels, "j0", lambda *a: calls.append(a) or j0(*a))
        assert SquareKernel(own, resolution=128)._h0 is first._h0
        report = approx_unity_report(0.25, 0.125, own, 128)
        assert own._splines["hankel"][0] is first._h0
        assert calls == []
        # The three integrals of the build with one table per kernel.
        pinned = {"l1_mass": 0.21640790493493736, "tail_mass": 0.11806816443094101,
                  "total_integral": 0.21385706002162017}
        for key, value in pinned.items():
            assert abs(report[key] - value) <= 1e-15 * value, key

    def test_rejects_nonpositive_scales(self, kernel):
        with pytest.raises(ValueError):
            approx_unity_report(0.0, 0.125, kernel.mol, RES)


class TestGrid:
    def test_grid_matches_radial_backend(self, mol, kernel):
        # The torus images contribute an order-one smooth correction on top
        # of the scale-singular part, so pointwise agreement is loose.
        n, eps = 256, 1 / 16
        field = geps_field(n, eps, mol)
        for point in ([0.05, 0.0], [0.0, 0.04], [0.03, 0.03]):
            radial = kernel.eps_value(np.asarray(point), eps)
            i, j = (round(x * n) % n for x in point)
            assert field[i, j] == pytest.approx(radial, rel=0.25, abs=2.0)

    def test_too_coarse_grid_rejected(self, mol):
        with pytest.raises(ValueError):
            geps_field(64, 1 / 32, mol)
        with pytest.raises(ValueError):
            geps_field(256, 1 / 512, mol)

    @pytest.mark.parametrize("n", [0, -4, 16])
    def test_off_grid_zero_field_rejected(self, mol, n):
        # The grid rule holds before the zero-field shortcut: eps*N >= 4.
        with pytest.raises(ValueError, match="grid too coarse"):
            gconv_limits_check(1 / 8, f=np.zeros((max(n, 0),) * 2), n=n, mol=mol,
                               resolution=RES)

    def test_zero_field_has_zero_residuals(self, mol):
        n = 128
        res = gconv_limits_check(1 / 8, f=np.zeros((n, n)), n=n, mol=mol,
                                 resolution=RES)
        assert res == {"limit1": 0.0, "limit2": 0.0, "limit3": 0.0}

    def test_residuals_shrink_with_scale(self, mol):
        n = 256
        f = bump_field(n, radius=0.125)
        r_coarse = gconv_limits_check(1 / 8, f=f, n=n, mol=mol, resolution=RES)
        r_fine = gconv_limits_check(1 / 32, f=f, n=n, mol=mol, resolution=RES)
        assert r_fine["limit1"] < r_coarse["limit1"]
        assert r_fine["limit2"] < r_coarse["limit2"]

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
