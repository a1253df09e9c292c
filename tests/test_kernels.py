import math

import numpy as np
import pytest

from gpam2d.kernels import (
    GepsGrid,
    Mollifier,
    SquareKernel,
    approx_unity_report,
    bump_field,
    crho_squared,
    gconv_limits_check,
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

    def test_rejects_nonpositive_scales(self, kernel):
        with pytest.raises(ValueError):
            approx_unity_report(0.0, 0.125, kernel.mol, RES)


class TestGrid:
    def test_grid_matches_radial_backend(self, mol, kernel):
        # The torus images contribute an order-one smooth correction on top
        # of the scale-singular part, so pointwise agreement is loose.
        n, eps = 256, 1 / 16
        grid = GepsGrid(n, eps, mol)
        for point in ([0.05, 0.0], [0.0, 0.04], [0.03, 0.03]):
            radial = kernel.eps_value(np.asarray(point), eps)
            assert grid.value(point) == pytest.approx(radial, rel=0.25, abs=2.0)

    def test_too_coarse_grid_rejected(self, mol):
        with pytest.raises(ValueError):
            GepsGrid(64, 1 / 32, mol)
        with pytest.raises(ValueError):
            GepsGrid(256, 1 / 512, mol)

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

    def test_bump_field_normalised(self):
        n = 128
        phi = bump_field(n, radius=0.25)
        assert float(phi.sum()) / (n * n) == pytest.approx(1.0, abs=1e-12)
        x = torus_coords(n)
        assert phi[0, 0] == phi.max()


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
