"""``Mollifier.fourier``'s table against an exact oracle, and its blocks.

The normalised profile ``(1 - r^2)^k`` has the transform
``2^(k+1) (k+1)! J_(k+1)(sigma) / sigma^(k+1)`` (Sonine's integral), 1 at
sigma = 0; scipy.special (a test-only import) gives the Bessel function.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from gpam2d import kernels
from gpam2d.kernels import Mollifier

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)


def knots(resolution: int) -> np.ndarray:
    return np.linspace(0.0, 40.0 * math.sqrt(resolution), 40 * resolution)


def sonine(k: int, sigma: np.ndarray) -> np.ndarray:
    out = np.ones_like(sigma)
    s = sigma[sigma > 0.0]
    out[sigma > 0.0] = 2.0 ** (k + 1) * math.factorial(k + 1) * jv(k + 1, s) / s ** (k + 1)
    return out


@PROPERTY
@given(st.integers(1, 4), st.sampled_from([32, 64, 128]))
def test_table_is_sonines_closed_form_at_every_knot(k, resolution):
    mol = Mollifier(lambda r: (1.0 - r * r) ** k, resolution=resolution)
    sigma = knots(resolution)
    assert np.max(np.abs(mol.fourier(sigma) - sonine(k, sigma))) <= 5e-15


@pytest.mark.parametrize("resolution", [1, 2, 4])
def test_node_floor_holds_at_small_resolutions(resolution):
    # Below the default resolution the rule keeps 4 RESOLUTION nodes per
    # axis; 4R nodes could not follow cos(sigma sin phi) up to 40 sqrt(R).
    mol = Mollifier(lambda r: (1.0 - r * r) ** 2, resolution=resolution)
    sigma = knots(resolution)
    assert np.max(np.abs(mol.fourier(sigma) - sonine(2, sigma))) <= 5e-15


@pytest.mark.parametrize("block", [1, 700, 3000, 1 << 20])
def test_build_in_blocks_is_one_table(block, monkeypatch):
    # Each pass of the inner sums (profile values) and of the cosine sums
    # holds at most _BLOCK points, or one row of 4 RESOLUTION nodes when a
    # row alone is over the block, and together they cover the table; it is
    # the same to the bit.
    row, resolution = 4 * kernels.RESOLUTION, 16
    whole = Mollifier(resolution=resolution).fourier(knots(resolution))
    profile, cosine = [], []
    raw = lambda r: profile.append(r.size) or np.exp(-1.0 / np.clip(1.0 - r * r, 1e-300, None))
    cos = np.cos
    monkeypatch.setattr(kernels, "_BLOCK", block)
    mol = Mollifier(raw, resolution=resolution)
    profile.clear()  # the normalisation's one pass
    monkeypatch.setattr(np, "cos", lambda x: cosine.append(np.size(x)) or cos(x))
    mol.fourier(0.0)
    monkeypatch.undo()
    assert sum(profile) == row * row and sum(cosine) == row + 40 * resolution * row
    assert max(profile + cosine) <= max(block, row)
    assert np.array_equal(mol.fourier(knots(resolution)), whole)


@pytest.mark.parametrize("resolution", [1, 8, 128])
def test_zero_frequency_is_the_unit_mass(resolution):
    # The profile is normalised by the spatial rule; the table's own rule
    # integrates it to 1 within rounding.
    assert abs(float(Mollifier(resolution=resolution).fourier(0.0)) - 1.0) <= 1e-15


def test_lookup_is_even_and_keeps_the_shape():
    mol = Mollifier(resolution=16)
    cap = knots(16)[-1]
    sigma = np.random.default_rng(3).uniform(-1.1 * cap, 1.1 * cap, (30, 40))
    whole = mol.fourier(sigma)
    assert whole.shape == sigma.shape
    np.testing.assert_array_equal(whole.ravel(), mol.fourier(sigma.ravel()))
    np.testing.assert_array_equal(whole, mol.fourier(-sigma))


def test_zero_past_the_top_knot():
    mol = Mollifier(resolution=16)
    cap = knots(16)[-1]
    past = [np.nextafter(cap, np.inf), 2.0 * cap, 1e300, np.inf, -np.inf]
    assert float(mol.fourier(cap)) != 0.0
    np.testing.assert_array_equal(mol.fourier(past), 0.0)
