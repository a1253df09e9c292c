"""``kernels._bessel`` against mpmath at 30 digits, and against scipy.special
(a test-only import) on the argument arrays of the package's own tables."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from scipy.special import jv

from gpam2d import kernels
from gpam2d.kernels import Mollifier, SquareKernel, _bessel

ORDERS = (0, 1, 2, 3, 4)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)
ARGUMENTS = st.floats(0.0, 700.0, allow_nan=False)


def exact(x) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array([[float(mpmath.besselj(n, mpmath.mpf(float(v)))) for v in x]
                         for n in ORDERS])


def test_fixed_points_match_mpmath():
    # Both sides of the switch at 20, the smallest floats, and a grid up to
    # the top of the Fourier table at resolution 256, 40 sqrt(256).
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-3, 19.999, np.nextafter(20.0, 0.0), 20.0,
                         20.001], np.linspace(0.0, 40.0 * math.sqrt(256), 641)])
    assert np.max(np.abs(np.array(_bessel(x, ORDERS)) - exact(x))) <= 1e-15


@PROPERTY
@given(st.lists(ARGUMENTS, min_size=1, max_size=8))
def test_draws_match_mpmath(x):
    assert np.max(np.abs(np.array(_bessel(x, ORDERS)) - exact(x))) <= 1e-15


@PROPERTY
@given(ARGUMENTS)
def test_three_term_recurrence(x):
    # x (J_(n-1) + J_(n+1)) = 2n J_n, each J within its own rounding.
    j = _bessel(x, ORDERS)
    for n in (1, 2, 3):
        gap = x * (j[n - 1] + j[n + 1]) - 2 * n * j[n]
        assert abs(gap) <= 1e-15 * (x + 2 * n), n


@PROPERTY
@given(st.floats(0.0, 2.0))
def test_normalisation(x):
    # J_0 + 2 sum J_2k = 1; the orders from 6 up are each at most
    # (x/2)^2k / (2k)! (DLMF 10.14.4).
    j0, j2, j4 = _bessel(x, (0, 2, 4))
    rest = 2.0 * sum((x / 2) ** (2 * k) / math.factorial(2 * k) for k in range(3, 12))
    assert abs(j0 + 2.0 * (j2 + j4) - 1.0) <= rest + 4e-16


@pytest.mark.parametrize("resolution", [8, 64, 128])
def test_table_arguments_match_scipy(resolution, monkeypatch):
    # The exact argument arrays of the Fourier table and the Hankel tables,
    # taken in blocks of whole grid rows.
    calls = []
    monkeypatch.setattr(kernels, "_bessel",
                        lambda x, orders: calls.append((x, orders)) or _bessel(x, orders))
    SquareKernel(Mollifier(resolution=resolution), resolution=resolution)
    tn = kernels._gauss_nodes(0.0, 1.0, 4 * resolution)[0]
    sn = kernels._gauss_nodes(0.0, 30.0 + 4.0 * math.sqrt(resolution), 8 * resolution)[0]
    sig_grid = np.linspace(0.0, 40.0 * math.sqrt(resolution), 40 * resolution)
    tables = {(0,): np.outer(sig_grid, tn),
              (0, 2, 4): np.outer(np.linspace(0.0, 2.0, 2 * resolution), sn)}
    assert list(dict.fromkeys(orders for _, orders in calls)) == list(tables)
    for orders, table in tables.items():
        blocks = [x for x, o in calls if o == orders]
        assert all(x.size <= kernels._BESSEL_BLOCK for x in blocks)
        assert np.array_equal(np.concatenate(blocks), table)
    for x, orders in calls:
        for n, values in zip(orders, _bessel(x, orders)):
            assert np.max(np.abs(values - jv(n, x))) <= 2e-15, n


def test_zero_is_exact_and_nan_stays_nan():
    assert [float(v) for v in _bessel(0.0, ORDERS)] == [1.0, 0.0, 0.0, 0.0, 0.0]
    for values in _bessel([1.0, np.nan, 30.0], ORDERS):
        assert np.isfinite(values[[0, 2]]).all() and np.isnan(values[1])


@pytest.mark.parametrize("x", [-1.0, -1e-300, [2.0, np.nan, -30.0]])
def test_negative_argument_refused(x):
    with pytest.raises(ValueError, match="negative argument"):
        _bessel(x, (0,))


def test_orders_outside_0_to_4_refused():
    with pytest.raises(ValueError, match="outside 0..4"):
        _bessel(1.0, (0, 5))


def test_shape_and_order_leave_the_values():
    x = np.random.default_rng(3).uniform(0.0, 60.0, (30, 40))
    whole = _bessel(x, (4, 0, 2))
    assert all(v.shape == x.shape for v in whole)
    flat = _bessel(x.ravel(), (0, 2, 4))
    np.testing.assert_array_equal(whole[0].ravel(), flat[2])
    np.testing.assert_array_equal(whole[1].ravel(), flat[0])


@pytest.mark.parametrize("block", [1, 7, 23, 46, 1 << 16])
def test_bessel_sums_are_the_dense_product(block, monkeypatch):
    # Blocks of whole rows, down to one row when a row alone is over the
    # block; the order of each row's sum may differ from the dense product's.
    rng = np.random.default_rng(3)
    grid, nodes = np.linspace(0.0, 60.0, 37), rng.uniform(0.0, 1.0, 23)
    weights = rng.uniform(-1.0, 1.0, 23)
    dense = np.array(_bessel(np.outer(grid, nodes), (4, 0, 2))) @ weights
    monkeypatch.setattr(kernels, "_BESSEL_BLOCK", block)
    sums = kernels._bessel_sums(grid, nodes, weights, (4, 0, 2))
    assert sums.shape == (3, grid.size)
    assert np.max(np.abs(sums - dense)) <= 1e-15 * np.abs(weights).sum()


@pytest.mark.parametrize("nu", [0, 1])
def test_economised_fit_is_the_expansion(nu):
    # The seven-term fits against the eighteen-term expansions they replace,
    # as one difference polynomial in 1/x^2 over x >= 20.
    def a(k):
        return math.prod(4 * nu * nu - (2 * i - 1) ** 2 for i in range(1, k + 1)) / (
            math.factorial(k) * 8.0**k)

    w = np.linspace(0.0, 20.0**-2, 401)
    for odd, fit in zip((0, 1), kernels._hankel_fit(nu)):
        raw = Polynomial([(-1) ** k * a(2 * k + odd) for k in range(18)])
        gap = Polynomial(fit[::-1]) - raw / math.sqrt(math.pi)
        assert np.max(np.abs(gap(w))) <= 3e-17
