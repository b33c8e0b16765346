"""The raw-array Chebyshev kernels on the phase-finding path against numpy.polynomial."""
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from qsprep._factor import mul_one_minus_x2, mulx, to_mp
from qsprep.polyapprox import lobatto_values

ONE_MINUS_X2 = np.array([0.5, 0.0, -0.5])


def _series(rng, size, complex_):
    c = rng.normal(size=size)
    return c + 1j * rng.normal(size=size) if complex_ else c


def _sizes(n):
    # below, at and above the grid's last index n - 1; the longer series
    # exercise the folding of high coefficients onto the grid
    return (1, max(n - 5, 1), n - 1, n, n + 1, 2 * n - 1, 3 * n + 7)


@pytest.mark.parametrize("n", [2, 9, 33, 129])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_lobatto_values_match_chebval(n, complex_):
    rng = np.random.default_rng(n)
    xs = np.cos(np.linspace(0.0, np.pi, n))
    for size in _sizes(n):
        c = _series(rng, size, complex_)
        err = np.abs(lobatto_values(c, n) - cheb.chebval(xs, c)).max()
        assert err <= 1e-13 * np.abs(c).sum(), (size, err)


def test_lobatto_values_on_the_check_grid():
    # at n = 2001 and degree ~n, chebval's value moves by up to d^2 * 1e-16
    # because cos(linspace(0, pi, n)) is rounded, so the reference is the
    # cosine sum at the exact grid points, each term cos(pi (k j mod 2(n-1)) / (n-1))
    n = 2001
    rng = np.random.default_rng(7)
    js = np.concatenate([[0, 1, 2, n - 2, n - 1], rng.integers(0, n, 20)])
    for size in _sizes(n):
        c = _series(rng, size, True)
        k = np.arange(size)
        got = lobatto_values(c, n)[js]
        for j, val in zip(js, got):
            basis = np.cos(np.pi * ((k * j) % (2 * (n - 1))) / (n - 1))
            want = complex(math.fsum(c.real * basis), math.fsum(c.imag * basis))
            assert abs(val - want) <= 1e-13 * np.abs(c).sum(), (size, j)


@pytest.mark.parametrize("size", [1, 2, 3, 8, 75])
def test_mulx_matches_chebmulx(size):
    c = _series(np.random.default_rng(size), size, True)
    np.testing.assert_allclose(mulx(c), cheb.chebmulx(c), rtol=0, atol=1e-15)


@pytest.mark.parametrize("size", [1, 2, 3, 8, 75])
def test_mul_one_minus_x2_matches_chebmul(size):
    c = _series(np.random.default_rng(size), size, True)
    scale = max(1.0, np.abs(c).max())
    np.testing.assert_allclose(mul_one_minus_x2(c), cheb.chebmul(ONE_MINUS_X2, c),
                               rtol=0, atol=1e-15 * scale)


@pytest.mark.parametrize("size", [1, 2, 5, 12])
def test_products_on_mpc_object_arrays(size):
    c = _series(np.random.default_rng(size), size, True)
    with mp.workdps(40):
        m = to_mp(c)
        for got, want in ((mulx(m), cheb.chebmulx(m)),
                          (mul_one_minus_x2(m), cheb.chebmul(to_mp(ONE_MINUS_X2), m))):
            assert got.dtype == object and len(got) == len(want)
            assert all(isinstance(z, mp.mpc) for z in got)
            assert max(abs(g - w) for g, w in zip(got, want)) < mp.mpf(10) ** -35
