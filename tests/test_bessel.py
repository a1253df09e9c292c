"""``kernels._bessel``, the Bessel function ``J_0``, against mpmath at 30 digits,
and against scipy.special (a test-only import) on the argument array of the
package's one Bessel table, the Fourier transform."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from scipy.special import jv

from gpam2d import kernels
from gpam2d.kernels import Mollifier, _bessel

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)
ARGUMENTS = st.floats(0.0, 700.0, allow_nan=False)


def exact(x) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(0, mpmath.mpf(float(v)))) for v in x])


def test_fixed_points_match_mpmath():
    # Both sides of the switch at 20, the smallest floats, and a grid up to
    # the top of the Fourier table at resolution 256, 40 sqrt(256).
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-3, 19.999, np.nextafter(20.0, 0.0), 20.0,
                         20.001], np.linspace(0.0, 40.0 * math.sqrt(256), 641)])
    assert np.max(np.abs(_bessel(x) - exact(x))) <= 1e-15


@PROPERTY
@given(st.lists(ARGUMENTS, min_size=1, max_size=8))
def test_draws_match_mpmath(x):
    assert np.max(np.abs(_bessel(x) - exact(x))) <= 1e-15


@pytest.mark.parametrize("resolution", [8, 64, 128])
def test_table_arguments_match_scipy(resolution, monkeypatch):
    # The exact argument array of the Fourier table, taken in blocks of
    # whole grid rows.
    calls = []
    monkeypatch.setattr(kernels, "_bessel", lambda x: calls.append(x) or _bessel(x))
    Mollifier(resolution=resolution).fourier(0.0)
    tn = kernels._gauss_nodes(0.0, 1.0, 4 * resolution)[0]
    sig_grid = np.linspace(0.0, 40.0 * math.sqrt(resolution), 40 * resolution)
    assert all(x.size <= kernels._BESSEL_BLOCK for x in calls)
    assert np.array_equal(np.concatenate(calls), np.outer(sig_grid, tn))
    for x in calls:
        assert np.max(np.abs(_bessel(x) - jv(0, x))) <= 2e-15


def test_zero_is_exact_and_nan_stays_nan():
    assert float(_bessel(0.0)) == 1.0
    values = _bessel([1.0, np.nan, 30.0])
    assert np.isfinite(values[[0, 2]]).all() and np.isnan(values[1])


@pytest.mark.parametrize("x", [-1.0, -1e-300, [2.0, np.nan, -30.0]])
def test_negative_argument_refused(x):
    with pytest.raises(ValueError, match="negative argument"):
        _bessel(x)


def test_shape_leaves_the_values():
    x = np.random.default_rng(3).uniform(0.0, 60.0, (30, 40))
    whole = _bessel(x)
    assert whole.shape == x.shape
    np.testing.assert_array_equal(whole.ravel(), _bessel(x.ravel()))


@pytest.mark.parametrize("block", [1, 7, 23, 46, 1 << 16])
def test_bessel_sums_are_the_dense_product(block, monkeypatch):
    # Blocks of whole rows, down to one row when a row alone is over the
    # block; the order of each row's sum may differ from the dense product's.
    rng = np.random.default_rng(3)
    grid, nodes = np.linspace(0.0, 60.0, 37), rng.uniform(0.0, 1.0, 23)
    weights = rng.uniform(-1.0, 1.0, 23)
    dense = _bessel(np.outer(grid, nodes)) @ weights
    monkeypatch.setattr(kernels, "_BESSEL_BLOCK", block)
    sums = kernels._bessel_sums(grid, nodes, weights)
    assert sums.shape == grid.shape
    assert np.max(np.abs(sums - dense)) <= 1e-15 * np.abs(weights).sum()


def test_economised_fit_is_the_expansion():
    # The seven-term fits against the eighteen-term expansions they replace,
    # as one difference polynomial in 1/x^2 over x >= 20.
    def a(k):
        return math.prod(-(2 * i - 1) ** 2 for i in range(1, k + 1)) / (math.factorial(k) * 8.0**k)

    w = np.linspace(0.0, 20.0**-2, 401)
    for odd, fit in zip((0, 1), kernels._hankel_fit()):
        raw = Polynomial([(-1) ** k * a(2 * k + odd) for k in range(18)])
        gap = Polynomial(fit[::-1]) - raw / math.sqrt(math.pi)
        assert np.max(np.abs(gap(w))) <= 3e-17
