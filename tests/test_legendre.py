"""``kernels._legendre``, the Newton Gauss-Legendre rule, against a rule
computed in long double by code that shares nothing with it."""

import numpy as np
import pytest

from gpam2d import kernels
from gpam2d.kernels import _legendre

EXTENDED = np.finfo(np.longdouble).eps < 1e-18


def long_double_rule(n: int):
    """Newton's method in long double from the plain cosine guess, over all n nodes."""
    pi = np.longdouble("3.141592653589793238462643383279502884")
    k = np.arange(n, 0, -1, dtype=np.longdouble)
    x = np.cos(pi * (4 * k - 1) / (4 * n + 2))

    def values(x):
        p0, p1 = np.ones_like(x), x.copy()
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / (1 - x * x)

    for _ in range(12):
        p, dp = values(x)
        x -= p / dp
    _, dp = values(x)
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.skipif(not EXTENDED, reason="long double is double here: no finer reference")
@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 127, 384, 768, 1024, 1536, 2048])
def test_rule_against_long_double(n):
    x, w = _legendre(n)
    xr, wr = long_double_rule(n)
    assert x.dtype == w.dtype == np.float64 and x.shape == w.shape == (n,)
    assert float(np.max(np.abs(x - xr))) <= 2.2e-16
    assert float(np.max(np.abs(w / wr - 1))) <= 1e-11
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(float(w.sum()) - 2.0) <= 1e-14
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])


@pytest.mark.parametrize("n", range(1, 9))
def test_rule_is_exact_on_monomials(n):
    x, w = _legendre(n)
    for degree in range(2 * n):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(float(np.sum(w * x**degree)) - exact) <= 1e-15, degree


@pytest.mark.parametrize("n", [0, -3])
def test_rule_needs_a_node(n):
    with pytest.raises(ValueError, match="n >= 1"):
        kernels._legendre.__wrapped__(n)
