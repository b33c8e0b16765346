"""The raw-array Chebyshev kernels on the phase-finding path against numpy.polynomial."""
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from qsprep._factor import mul_one_minus_x2, mulx, to_mp, u_series_to_t
from qsprep.polyapprox import _scaled_values, lobatto_coefficients, lobatto_values

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


@pytest.mark.parametrize("n", [2, 3, 9, 33, 129])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_lobatto_coefficients_invert_lobatto_values(n, complex_):
    # a degree-(n - 1) series is fixed by its n values on the n-point grid
    rng = np.random.default_rng(n)
    c = _series(rng, n, complex_)
    values = lobatto_values(c, n)
    kept = values.copy()
    got = lobatto_coefficients(values)
    assert np.abs(got - c).max() <= 1e-14 * np.abs(c).sum()
    assert values.tobytes() == kept.tobytes()
    assert np.abs(lobatto_values(got, n) - values).max() <= 1e-14 * np.abs(c).sum()
    xs = np.cos(np.linspace(0.0, np.pi, n))
    assert np.abs(cheb.chebval(xs, got) - values).max() <= 1e-13 * np.abs(c).sum()


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


@pytest.mark.parametrize("size", [1, 2, 3, 8, 41])
def test_u_series_to_t_matches_sine_ratio(size):
    # U_j(cos t) = sin((j + 1) t) / sin t
    ub = np.random.default_rng(size).standard_normal(size)
    ts = np.linspace(0.05, 3.09, 57)
    want = np.sin(np.outer(ts, np.arange(1, size + 1))) @ ub / np.sin(ts)
    got = cheb.chebval(np.cos(ts), u_series_to_t(ub))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(ub).sum() * size)


@pytest.mark.parametrize("size", [1, 2, 7, 30])
def test_scaled_values_match_chebval(size):
    c = np.random.default_rng(size).standard_normal((size, 2)) @ np.array([1.0, 1j])
    xs = np.array([1 + 1e-6, -1.05, 1.25, -2.0, 0.0j, 0.35j, 2j])
    scaled, log_scale = _scaled_values(c, xs)
    want = cheb.chebval(xs, c)
    np.testing.assert_allclose(scaled * np.exp(log_scale), want, rtol=1e-12, atol=1e-12)


def test_scaled_values_do_not_overflow():
    c = np.zeros(5001)
    c[-1] = 1.0  # |T_5000(2)| = cosh(5000 acosh 2) ~ e^6585, |T_5000(2i)| = cosh(5000 asinh 2)
    scaled, log_scale = _scaled_values(c, np.array([2.0, -2.0, 2j]))
    assert np.isfinite(scaled).all()
    t = np.array([np.arccosh(2.0), np.arccosh(2.0), np.arcsinh(2.0)])
    np.testing.assert_allclose(np.log(np.abs(scaled)) + log_scale, 5000 * t - np.log(2), rtol=1e-12)
