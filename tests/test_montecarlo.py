import numpy as np
import pytest

from gpam2d.kernels import bump_field, torus_coords
from gpam2d.montecarlo import (
    convergence_table,
    estimate_stats,
    pi_weighted,
    pi_xiixi,
    sample_noise,
    sample_seeds,
)

N = 64
EPS = 1 / 8


@pytest.fixture(scope="module")
def phi():
    return bump_field(N, radius=0.25)


class TestNoise:
    def test_determinism(self):
        a = sample_noise(N, 42)
        b = sample_noise(N, 42)
        assert np.array_equal(a.xi, b.xi)
        assert not np.array_equal(a.xi, sample_noise(N, 43).xi)

    def test_cell_variance(self):
        rng_seeds = sample_seeds(0, 400)
        second = np.array([np.mean(sample_noise(N, s).xi ** 2) for s in rng_seeds])
        mean = second.mean()
        se = second.std(ddof=1) / np.sqrt(len(second))
        assert abs(mean - N * N) < 5 * se * N * N / mean + 5 * se

    def test_spectral_flatness(self):
        acc = np.zeros((N, N))
        for s in sample_seeds(1, 200):
            acc += np.abs(np.fft.fft2(sample_noise(N, s).xi) / (N * N)) ** 2
        acc /= 200
        band = acc[1:, 1:]
        assert abs(band.mean() - 1.0) < 0.05
        assert band.max() < 1.6 and band.min() > 0.5

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            sample_noise(96, 0)


class TestEstimators:
    def test_zero_noise_gives_deterministic_counterterm(self, phi):
        z = sample_noise(N, 5)
        z.xi[:] = 0.0
        # The second input reads the cached weighted mean field twice.
        for estimate in (lambda: pi_xiixi(z, EPS, phi),
                         lambda: pi_weighted(z, EPS, phi, "xiixxi", 1)):
            v1 = estimate()
            v2 = estimate()
            assert v1 == v2 != 0.0

    def test_noise_sign_invariance_of_stochastic_part(self, phi):
        # The estimator is quadratic in the noise: flipping the sign of the
        # field leaves it unchanged.
        s = sample_noise(N, 9)
        value = pi_xiixi(s, EPS, phi)
        s.xi *= -1.0
        assert pi_xiixi(s, EPS, phi) == pytest.approx(value, rel=1e-12)

    def test_quadratic_scaling(self, phi):
        s = sample_noise(N, 10)
        z = sample_noise(N, 10)
        z.xi[:] = 0.0
        counterterm = pi_xiixi(z, EPS, phi)
        base = pi_xiixi(s, EPS, phi)
        s.xi *= 2.0
        scaled = pi_xiixi(s, EPS, phi)
        assert scaled - counterterm == pytest.approx(4.0 * (base - counterterm), rel=1e-9)

    def test_weighted_is_plain_against_weighted_testfunction(self, phi):
        s = sample_noise(N, 3)
        x = torus_coords(N)
        x1 = x[:, None] * np.ones((1, N))
        x2 = x[None, :] * np.ones((N, 1))
        assert pi_weighted(s, EPS, phi, "xxiixi", 1) == pi_xiixi(s, EPS, x1 * phi)
        assert pi_weighted(s, EPS, phi, "xxiixi", 2) == pi_xiixi(s, EPS, x2 * phi)

    def test_counterterm_centres_the_estimator(self, phi):
        values = np.array(
            [pi_xiixi(sample_noise(N, s), EPS, phi) for s in sample_seeds(21, 600)]
        )
        stats = estimate_stats(values)
        assert abs(stats.mean) < 4 * stats.mean_se

    def test_weighted_centred_too(self, phi):
        values = np.array(
            [pi_weighted(sample_noise(N, s), EPS, phi, "xiixxi", 1)
             for s in sample_seeds(22, 400)]
        )
        stats = estimate_stats(values)
        assert abs(stats.mean) < 4 * stats.mean_se

    def test_grid_resolution_guard(self, phi):
        with pytest.raises(ValueError):
            pi_xiixi(sample_noise(N, 0), 1 / 1024, phi)

    def test_unknown_estimator(self, phi):
        with pytest.raises(ValueError):
            pi_weighted(sample_noise(N, 0), EPS, phi, "nope")


class TestStats:
    def test_gaussian_has_no_excess(self):
        rng = np.random.default_rng(100)
        stats = estimate_stats(rng.standard_normal(20000))
        assert abs(stats.mean) < 3 * stats.mean_se
        assert abs(stats.variance - 1.0) < 3 * stats.variance_se
        assert abs(stats.fourth_cumulant) < 3 * stats.fourth_cumulant_se

    def test_centred_chi_square_oracle(self):
        # For Z^2 - 1 the cumulants are known exactly: variance 2, fourth 48.
        rng = np.random.default_rng(200)
        z = rng.standard_normal(200000)
        stats = estimate_stats(z * z - 1.0)
        assert abs(stats.variance - 2.0) < 4 * stats.variance_se
        assert abs(stats.fourth_cumulant - 48.0) < 4 * stats.fourth_cumulant_se

    def test_constant_input(self):
        stats = estimate_stats(np.full(64, 3.25))
        assert stats.variance == 0.0 and stats.fourth_cumulant == 0.0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            estimate_stats(np.ones(8))


class TestConvergenceTable:
    def test_deterministic_and_structured(self, phi):
        rows1 = convergence_table([1 / 4, 1 / 8], N, 32, phi=phi, seed=5, crho_sq=0.2139)
        rows2 = convergence_table([1 / 4, 1 / 8], N, 32, phi=phi, seed=5, crho_sq=0.2139)
        assert rows1 == rows2
        assert [r["eps"] for r in rows1] == [1 / 4, 1 / 8]
        assert all(r["seed"] == 5 for r in rows1)

    def test_error_bars_shrink_with_samples(self, phi):
        small = convergence_table([1 / 8], N, 64, phi=phi, seed=6, crho_sq=0.2139)[0]
        large = convergence_table([1 / 8], N, 256, phi=phi, seed=6, crho_sq=0.2139)[0]
        assert large["var_se"] < small["var_se"]
