import re
import weakref

import numpy as np
import pytest

from conftest import isserlis_mean_field
from gpam2d import montecarlo
from gpam2d.kernels import RESOLUTION, _default_mollifier, bump_field, torus_coords
from gpam2d.montecarlo import (
    _mean_field,
    _spectral,
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
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_noise(N, 43))

    def test_cell_variance(self):
        rng_seeds = sample_seeds(0, 400)
        second = np.array([np.mean(sample_noise(N, s) ** 2) for s in rng_seeds])
        mean = second.mean()
        se = second.std(ddof=1) / np.sqrt(len(second))
        assert abs(mean - N * N) < 5 * se * N * N / mean + 5 * se

    def test_spectral_flatness(self):
        acc = np.zeros((N, N))
        for s in sample_seeds(1, 200):
            acc += np.abs(np.fft.fft2(sample_noise(N, s)) / (N * N)) ** 2
        acc /= 200
        band = acc[1:, 1:]
        assert abs(band.mean() - 1.0) < 0.05
        assert band.max() < 1.6 and band.min() > 0.5

    def test_stream_is_the_scaled_generator_output(self):
        expected = np.random.default_rng(42).standard_normal((N, N)) * N
        assert np.array_equal(sample_noise(N, 42), expected)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            sample_noise(96, 0)

    @pytest.mark.parametrize("n", [0, -4])
    def test_non_positive_size_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            sample_noise(n, 0)


class TestEstimators:
    def test_zero_noise_gives_deterministic_counterterm(self, phi):
        z = sample_noise(N, 5)
        z[:] = 0.0
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
        s *= -1.0
        assert pi_xiixi(s, EPS, phi) == pytest.approx(value, rel=1e-12)

    def test_quadratic_scaling(self, phi):
        s = sample_noise(N, 10)
        z = sample_noise(N, 10)
        z[:] = 0.0
        counterterm = pi_xiixi(z, EPS, phi)
        base = pi_xiixi(s, EPS, phi)
        s *= 2.0
        scaled = pi_xiixi(s, EPS, phi)
        assert scaled - counterterm == pytest.approx(4.0 * (base - counterterm), rel=1e-9)

    def test_weighted_is_plain_against_weighted_testfunction(self, phi):
        s = sample_noise(N, 3)
        x = torus_coords(N)
        x1 = x[:, None] * np.ones((1, N))
        x2 = x[None, :] * np.ones((N, 1))
        assert pi_weighted(s, EPS, phi, "xxiixi", 1) == pi_xiixi(s, EPS, x1 * phi)
        assert pi_weighted(s, EPS, phi, "xxiixi", 2) == pi_xiixi(s, EPS, x2 * phi)

    def test_order_zero_mean_field_is_the_counterterm(self):
        # With weight 1 the mean field is R(0) - R, where R = E[A(z) (K*A)(0)]
        # is the field of A's covariance multiplier times the inverse Laplacian.
        spec = _spectral(N, EPS)
        r = spec.field(np.abs(spec.d1_frho) ** 2 * spec.inv_lap)
        expected = r[spec.origin] - r
        gap = np.max(np.abs(_mean_field(spec, 0) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("eps", [1 / 8, 1 / 16])
    @pytest.mark.parametrize("j", [1, 2])
    def test_order_j_mean_field_is_the_convolution_form(self, j, eps):
        # (k_g r_a)*w - (w k_g)*r_a + sum_i x_i (w d_i k_g)*r_a, with A's
        # covariance r_a and the kernel k_g built as grid fields: checked at
        # every grid point, not only where phi lives.
        spec = _spectral(N, eps)
        w = montecarlo._coordinate(N, j) * np.ones((N, N))
        r_a = spec.field(np.abs(spec.d1_frho) ** 2)
        k_g = spec.field(spec.inv_lap)
        expected = spec.convolve(k_g * r_a, w) - spec.convolve(w * k_g, r_a)
        for i, d in ((1, spec.d1), (2, spec.d2)):
            dk = spec.field(d * spec.inv_lap)
            expected += montecarlo._coordinate(N, i) * spec.convolve(w * dk, r_a)
        gap = np.max(np.abs(_mean_field(spec, j) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected))

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
        for which in ("nope", "xiixi"):
            with pytest.raises(ValueError):
                pi_weighted(sample_noise(N, 0), EPS, phi, which)

    @pytest.mark.parametrize("which", ["xiixxi", "xxiixi"])
    @pytest.mark.parametrize("j", [0, 3, -1])
    def test_unknown_axis(self, phi, which, j):
        with pytest.raises(ValueError, match="axis"):
            pi_weighted(sample_noise(N, 0), EPS, phi, which, j)

    @pytest.mark.parametrize("shape", [(N, 1), (1, N), (N // 2, N // 2), (N,)])
    def test_wrong_shaped_test_function_rejected(self, shape):
        bad = np.ones(shape)
        z = sample_noise(N, 0)
        calls = [lambda: pi_xiixi(z, EPS, bad)]
        calls += [lambda w=w, j=j: pi_weighted(z, EPS, bad, w, j)
                  for w in ("xiixxi", "xxiixi") for j in (1, 2)]
        calls += [lambda w=w: convergence_table([EPS], N, 16, phi=bad, crho_sq=0.2139, which=w)
                  for w in ("xiixi", "xiixxi", "xxiixi")]
        for call in calls:
            with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\({N}, {N}\)"):
                call()

    def test_coordinates_are_cached_read_only(self):
        for j in (1, 2):
            x = montecarlo._coordinate(N, j)
            assert x is montecarlo._coordinate(N, j) and not x.flags.writeable


def full_spectrum_estimate(xi, eps, phi, j):
    """The estimators on complex full-spectrum FFTs, written out: the oracle.

    The derivative multipliers are taken as they are; ``.real`` projects
    them onto real fields.
    """
    n = xi.shape[0]
    m = np.fft.fftfreq(n, d=1.0 / n)
    s1, s2 = 2 * np.pi * m[:, None], 2 * np.pi * m[None, :]
    ss = s1**2 + s2**2
    ss[0, 0] = 1.0
    frho = _default_mollifier(RESOLUTION).fourier(np.sqrt(ss) * eps)
    frho[0, 0] = 1.0
    inv_lap = 1.0 / ss
    inv_lap[0, 0] = 0.0

    def field(c):
        return np.fft.ifft2(c).real * c.size

    def coeff(f):
        return np.fft.fft2(f) / f.size

    def convolve(f, g):
        return np.fft.ifft2(np.fft.fft2(f) * np.fft.fft2(g)).real / f.size

    x = torus_coords(n)
    weight = {0: np.ones((n, n)), 1: x[:, None], 2: x[None, :]}
    a = field(1j * s1 * frho * coeff(xi))
    w_hat = coeff(weight[j] * a)
    kw = field(w_hat * inv_lap)
    b = kw - kw[0, 0]
    # A's covariance: the real projection drops the Nyquist row of i s1.
    r_a = field(np.where(2 * np.abs(m[:, None]) == n, 0.0, s1**2) * frho**2)
    k_g = field(inv_lap)
    mean = convolve(k_g * r_a, weight[0] * weight[j]) - convolve(weight[j] * k_g, r_a)
    if j:
        for i, s in ((1, s1), (2, s2)):
            b -= weight[i] * (1j * s * inv_lap * w_hat).sum().real
            mean += weight[i] * convolve(weight[j] * field(1j * s * inv_lap), r_a)
    stoch = float(np.sum(phi * a * b)) / (n * n)
    return eps * (stoch - float(np.sum(phi * mean)) / (n * n))


@pytest.mark.parametrize("n,eps", [(16, 1 / 4), (32, 1 / 8)], ids=["N16", "N32"])
@pytest.mark.parametrize("which,j", [("xiixi", 0), ("xxiixi", 1), ("xxiixi", 2),
                                     ("xiixxi", 1), ("xiixxi", 2)])
def test_counterterm_is_the_dense_isserlis_expectation(n, eps, which, j):
    # On zero noise each estimator is minus eps times its counterterm, which
    # must be the exact expectation of its stochastic part: A and B summed
    # cell by cell over the dense maps.  The mean field is checked at every
    # grid point as well; the bump is off-centre, so no pairing vanishes by
    # symmetry, and the pairing's bound scales with its summands.
    phi = bump_field(n, radius=0.25, centre=(0.25, 0.125))
    order = j if which == "xiixxi" else 0
    test = montecarlo._coordinate(n, j) * phi if which == "xxiixi" else phi
    exact = isserlis_mean_field(n, eps, order)
    field = _mean_field(_spectral(n, eps), order)
    assert np.max(np.abs(field - exact)) <= 1e-12 * np.max(np.abs(exact))
    zero = np.zeros((n, n))
    value = pi_xiixi(zero, eps, phi) if which == "xiixi" else pi_weighted(zero, eps, phi,
                                                                          which, j)
    expected = -eps * float(np.sum(test * exact)) / (n * n)
    assert abs(value - expected) <= 1e-12 * eps * float(np.sum(np.abs(test * exact))) / (n * n)


class TestHalfSpectrum:
    @pytest.mark.parametrize("n", [64, 128])
    def test_estimators_match_the_full_spectrum_oracle(self, n):
        phi = bump_field(n, radius=0.25)
        for seed in sample_seeds(31, 3):
            noise = sample_noise(n, seed)
            for eps in (1 / 8, 1 / 16):
                got = [pi_xiixi(noise, eps, phi),
                       pi_weighted(noise, eps, phi, "xiixxi", 1),
                       pi_weighted(noise, eps, phi, "xiixxi", 2)]
                for j, value in enumerate(got):
                    expected = full_spectrum_estimate(noise, eps, phi, j)
                    assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)

    @pytest.mark.parametrize("centre", [(0.3, 0.3), (0.0, 0.4)])
    def test_supports_off_the_origin_row_match_the_oracle(self, centre):
        # The base point K*(w A)(0) lives on row 0, which these test
        # functions (and x_1 phi) do not touch.
        phi = bump_field(N, radius=0.25, centre=centre)
        x1 = torus_coords(N)[:, None] * np.ones((1, N))
        for seed in sample_seeds(32, 2):
            noise = sample_noise(N, seed)
            for eps in (1 / 8, 1 / 16):
                cases = [(pi_xiixi(noise, eps, phi), phi, 0),
                         (pi_weighted(noise, eps, phi, "xxiixi", 1), x1 * phi, 0),
                         (pi_weighted(noise, eps, phi, "xiixxi", 1), phi, 1),
                         (pi_weighted(noise, eps, phi, "xiixxi", 2), phi, 2)]
                for value, test, j in cases:
                    expected = full_spectrum_estimate(noise, eps, test, j)
                    assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_estimator_tables_are_fortran_ordered(self):
        # Both passes of every transform read contiguous lines only so.
        spec = _spectral(N, EPS)
        for table in (spec.frho, spec.inv_lap, spec.d1_frho, spec.coeff(sample_noise(N, 0))):
            assert table.flags.f_contiguous and table.shape == (N, N // 2 + 1)

    def test_derivative_multipliers_vanish_on_the_nyquist_lines(self):
        spec = _spectral(N, EPS)
        assert spec.frho.shape == spec.inv_lap.shape == (N, N // 2 + 1)
        assert np.all(spec.d1[N // 2] == 0) and np.all(spec.d2[:, N // 2] == 0)
        rows = np.arange(N) != N // 2
        assert np.array_equal(spec.d1[rows], 1j * spec.s1[rows])
        assert np.array_equal(spec.d2[:, :-1], 1j * spec.s2[:, :-1])


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

    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.3, 0.3)])
    @pytest.mark.parametrize("which,j", [("xiixi", 1), ("xiixxi", 1), ("xiixxi", 2),
                                         ("xxiixi", 1), ("xxiixi", 2)])
    def test_rows_are_the_stats_of_the_public_estimators(self, centre, which, j):
        phi = bump_field(N, radius=0.25, centre=centre)
        eps_list = [1 / 8, 1 / 16]
        rows = convergence_table(eps_list, N, 16, phi=phi, seed=8, crho_sq=0.2139,
                                 which=which, j=j)
        weight = phi if which == "xiixi" else montecarlo._coordinate(N, j) * phi
        target = 0.2139 * float(np.sum(weight * weight)) / (N * N)
        noises = [sample_noise(N, s) for s in sample_seeds(8, 16)]
        for eps, row in zip(eps_list, rows):
            if which == "xiixi":
                values = [pi_xiixi(x, eps, phi) for x in noises]
            else:
                values = [pi_weighted(x, eps, phi, which, j) for x in noises]
            stats = estimate_stats(values)
            expected = {"var_ratio": stats.variance / target, "mean": stats.mean,
                        "k4_ratio": stats.excess_ratio, "var_se": stats.variance_se / target,
                        "mean_se": stats.mean_se}
            for key, value in expected.items():
                assert row[key] == pytest.approx(value, rel=1e-12, abs=0), key

    def test_one_noise_alive_at_a_time(self, phi, monkeypatch):
        refs, alive_at_draw = [], []
        draw = montecarlo.sample_noise

        def counted(n, seed):
            alive_at_draw.append(sum(ref() is not None for ref in refs))
            noise = draw(n, seed)
            refs.append(weakref.ref(noise))
            return noise

        monkeypatch.setattr(montecarlo, "sample_noise", counted)
        for which in ("xiixi", "xiixxi"):
            convergence_table([1 / 4, 1 / 8], N, 16, phi=phi, seed=5, crho_sq=0.2139,
                              which=which)
        assert alive_at_draw == [0] * 32

    def test_error_bars_shrink_with_samples(self, phi):
        small = convergence_table([1 / 8], N, 64, phi=phi, seed=6, crho_sq=0.2139)[0]
        large = convergence_table([1 / 8], N, 256, phi=phi, seed=6, crho_sq=0.2139)[0]
        assert large["var_se"] < small["var_se"]

    @pytest.mark.parametrize("which,j", [("xiixi", 1), ("xiixxi", 1), ("xxiixi", 2)])
    def test_degenerate_test_function_rejected_before_any_noise(self, which, j, monkeypatch):
        # At the origin every recentred product vanishes: a test function
        # living there alone makes every sample the same constant.  On row 0,
        # x_1 phi vanishes and so does the xiixxi target on axis 1.
        def no_draw(n, seed):
            raise AssertionError("noise drawn for a degenerate test function")

        monkeypatch.setattr(montecarlo, "sample_noise", no_draw)
        origin, row0 = np.zeros((N, N)), np.zeros((N, N))
        origin[0, 0] = row0[0, :8] = 1.0
        with pytest.raises(ValueError, match="vanishes off the origin of the 64 x 64 grid"):
            convergence_table([1 / 8], N, 16, phi=origin, crho_sq=0.2139, which=which, j=j)
        if which == "xiixxi":
            with pytest.raises(ValueError, match="target variance is zero"):
                convergence_table([1 / 8], N, 16, phi=row0, crho_sq=0.2139, which=which, j=j)

    @pytest.mark.parametrize("which", ["xiixi", "xiixxi"])
    def test_scale_where_the_mollified_noise_vanishes_rejected_before_any_noise(
            self, phi, which, monkeypatch):
        # The default mollifier's transform is cut off at 40 sqrt(128); above
        # eps ~ 72 even the lowest grid frequency 2 pi lies beyond it, so A
        # vanishes and every sample is the same constant.
        def no_draw(n, seed):
            raise AssertionError("noise drawn at a scale where the mollified noise vanishes")

        monkeypatch.setattr(montecarlo, "sample_noise", no_draw)
        assert not _spectral(N, 80.0).d1_frho.any() and _spectral(N, 64.0).d1_frho.any()
        with pytest.raises(ValueError, match="vanishes on the 64 x 64 grid at scale 80.0"):
            convergence_table([64.0, 80.0], N, 16, phi=phi, crho_sq=0.2139, which=which)

    @pytest.mark.parametrize("samples", [1, 15])
    def test_too_few_samples_rejected_before_any_noise(self, phi, samples, monkeypatch):
        def no_draw(n, seed):
            raise AssertionError("noise drawn before the sample count was checked")

        monkeypatch.setattr(montecarlo, "sample_noise", no_draw)
        for which in ("xiixi", "xiixxi"):
            with pytest.raises(ValueError, match="at least 16 samples"):
                convergence_table([1 / 4, 1 / 8], N, samples, phi=phi, seed=5,
                                  crho_sq=0.2139, which=which)
