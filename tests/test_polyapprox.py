import math
import time

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy.special import erfinv, ive

from qsprep import _factor, polyapprox
from qsprep.errors import CompletionError, ConditionError, DegreeOverflowError, InfeasibleError, InputError
from qsprep.phases import find_phases
from qsprep.pipeline import DELTA_MARGIN
from qsprep.polyapprox import (
    REAL_TARGET_L1,
    Polynomial,
    arcsin_target,
    arcsin_taylor,
    chebyshev_economize,
    complete_to_complex,
    detect_parity,
    evaluate,
    lobatto_values,
    poly_from_text,
    poly_to_text,
    sign_approx,
)


def dense_grid(lo=-1.0, hi=1.0, n=10_000):
    return np.linspace(lo, hi, n)


def completion_residual(p):
    """max |P P* + (1 - x^2) Q^2 - 1| of a completion on its Lobatto grid.

    Q is the completion's, from ``_factor.complete_real`` of Re P, and the
    grid has max(4001, 4d + 1) points, as in ``complete_to_complex``.
    """
    d = p.degree
    pr, p_i = p.coefficients[: d + 1].real, p.coefficients[: d + 1].imag
    q = _factor.complete_real(pr)[1]
    total = cheb.chebadd(cheb.chebmul(pr, pr), cheb.chebmul(p_i, p_i))
    total = cheb.chebadd(total, cheb.chebmul([0.5, 0.0, -0.5], cheb.chebmul(q, q)))
    total[0] -= 1.0
    return float(np.abs(lobatto_values(total, max(4001, 4 * d + 1))).max())


# ---------------------------------------------------------------------------
# arcsin truncation
# ---------------------------------------------------------------------------

def test_arcsin_is_odd_and_vanishes_at_origin():
    p = arcsin_taylor(1e-3, 0.3)
    assert p.parity == "odd"
    assert evaluate(p, 0.0) == 0.0


def test_arcsin_value_at_half():
    eps = 1e-4
    p = arcsin_taylor(eps, 0.3)
    assert abs(evaluate(p, 0.5).real - 1.0 / 6.0) <= eps


def test_arcsin_cubic_coefficient():
    taylor = cheb.cheb2poly(arcsin_taylor(1e-3, 0.3).coefficients)
    assert abs(taylor[3].real - 1.0 / (6.0 * np.pi)) < 1e-15
    assert abs(taylor[1].real - 1.0 / np.pi) < 1e-16


@pytest.mark.parametrize("delta", [0.1, 0.29])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_arcsin_sup_error_on_interval(delta, eps):
    p = arcsin_taylor(eps, delta)
    xs = dense_grid(-1 + delta, 1 - delta)
    err = np.abs(evaluate(p, xs).real - np.arcsin(xs) / np.pi).max()
    assert err <= eps


def test_arcsin_bounded_by_one_everywhere():
    p = arcsin_taylor(1e-6, 0.1)
    xs = dense_grid()
    assert np.abs(evaluate(p, xs)).max() <= 1.0


def test_arcsin_degree_monotone_in_delta():
    degs = [arcsin_taylor(1e-4, d).degree for d in (0.05, 0.1, 0.2, 0.3, 0.5)]
    assert degs == sorted(degs, reverse=True)


def test_arcsin_degree_linear_in_log_inv_eps():
    for delta in (0.1, 0.29):
        epss = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        logs = np.log(1.0 / np.array(epss))
        degs = np.array([arcsin_taylor(e, delta).degree for e in epss], dtype=float)
        assert (degs / logs).max() <= 2.0 / delta
        slope, offset = np.polyfit(logs, degs, 1)
        fitted = slope * logs + offset
        assert slope > 0
        assert np.abs(fitted - degs).max() <= 0.1 * degs.max() + 2.0


def loop_arcsin_coefficients(epsilon, delta):
    """The truncated series as a list of terms, built term by term."""
    y = 1.0 - delta
    geom = 1.0 / (1.0 - y * y)
    terms = [1.0 / np.pi]
    while True:
        k = len(terms) - 1
        a_next = terms[-1] * (2 * k + 1) ** 2 / (2.0 * (k + 1) * (2 * k + 3))
        if a_next * y ** (2 * k + 3) * geom <= epsilon:
            break
        terms.append(a_next)
    coeffs = np.zeros(2 * len(terms))
    coeffs[1::2] = terms
    return coeffs


@pytest.mark.parametrize("eps, delta", [(0.1, 0.05), (1e-3, 0.29), (3e-5, 0.29), (1e-6, 0.05)])
def test_arcsin_series_built_once_equals_the_loop(eps, delta):
    # the memoized Chebyshev series is bit-identical to the conversion of
    # the term-by-term series, so memo keys built on its bytes do not change;
    # each call returns a new copy of it, so writing into one changes no other
    want = cheb.poly2cheb(loop_arcsin_coefficients(eps, delta).astype(complex))
    for _ in range(2):
        p = arcsin_taylor(eps, delta)
        assert p.coefficients.tobytes() == want.tobytes()
        p.coefficients[1] = 0.0


def test_warm_arcsin_target_converts_nothing(monkeypatch):
    arcsin_taylor(1e-4, 0.29)

    def no_conversion(c):
        raise AssertionError("poly2cheb called")

    monkeypatch.setattr(polyapprox.cheb, "poly2cheb", no_conversion)
    e = chebyshev_economize(arcsin_taylor(1e-4, 0.29), 1e-6)
    assert e.parity == "odd"


def test_arcsin_degree_overflow(monkeypatch):
    monkeypatch.setattr(polyapprox, "MAX_DEGREE", 100)
    with pytest.raises(DegreeOverflowError) as exc:
        arcsin_taylor(1e-6, 0.001)
    assert exc.value.needed is not None and exc.value.needed > 100


@pytest.mark.parametrize("epsilon, delta", [(np.nan, 0.1), (0.0, 0.1), (1.0, 0.1),
                                            (1e-3, np.nan), (1e-3, 0.0), (1e-3, np.inf)])
def test_arcsin_refuses_budget_outside_unit_interval(epsilon, delta):
    with pytest.raises(InputError, match="must lie in"):
        arcsin_taylor(epsilon, delta)


@pytest.mark.parametrize("delta", [DELTA_MARGIN, 0.1, 0.5])
def test_arcsin_target_is_within_epsilon_on_the_levels_interval(delta):
    # against a 40-digit arcsin / pi, with the double coefficients summed in
    # 40 digits too, at the generator errors a run may ask for (2^-8 ..
    # 2^-51): the target misses by at most epsilon; under 2^-51, twice the
    # rounding floor the cut leaves the transform, it is refused
    with mp.workdps(40):
        a = 1 - mp.mpf(delta)
        for k in [*range(8, 51, 3), 51]:
            epsilon = 2.0**-k
            c = arcsin_target(epsilon, delta).coefficients.real
            d = c.size - 1
            terms = [mp.mpf(float(ck)) for ck in c[:0:-1]]
            miss = mp.mpf(0)
            for j in range(4 * d + 1):  # the function and the target are odd
                y = a * j / (4 * d)
                b1 = b2 = mp.mpf(0)
                for ck in terms:
                    b1, b2 = 2 * y * b1 - b2 + ck, b1
                miss = max(miss, abs(y * b1 - b2 - mp.asin(y) / mp.pi))
            assert float(miss) <= epsilon, (k, float(miss) / epsilon)
    for k in (52, 56):
        with pytest.raises(InfeasibleError, match="under 2\\^-51"):
            arcsin_target(2.0**-k, delta)


@pytest.mark.parametrize("delta", [DELTA_MARGIN, 0.1, 0.5])
def test_arcsin_cut_spends_its_share_part_by_part(delta):
    # the cut leaves 2^-52 to rounding and splits the rest, the share: the
    # Taylor tail at 1 - delta, bounded by its first term over 1 - y^2, fits
    # in 0.05 of it, and the dropped t-tail's l1 norm in 0.95, with no odd
    # coefficient to spare, at every half power of 2 from 2^-8 to 2^-51
    y = 1.0 - delta
    for epsilon in np.exp2(-np.arange(16, 103) / 2.0):
        share = epsilon - 2.0**-52
        degree, keep = polyapprox._arcsin_cut(epsilon, delta)
        j = (degree + 1) // 2  # the first dropped term is of y^(2j+1)
        first_dropped = math.comb(2 * j, j) / (np.pi * 4**j * (2 * j + 1)) * y ** (2 * j + 1)
        assert first_dropped / (1.0 - y * y) <= 0.05 * share, (epsilon, degree)
        t_series = np.abs(polyapprox._arcsin_t_series(degree, delta))
        assert t_series[keep:].sum() <= 0.95 * share, (epsilon, keep)
        assert keep == 2 or t_series[keep - 1:].sum() > 0.95 * share, (epsilon, keep)


@pytest.mark.parametrize("delta", [DELTA_MARGIN, 0.1, 0.5])
def test_arcsin_target_is_bounded_by_its_l1_norm_on_the_whole_interval(delta):
    # outside the levels' interval the transform only needs |p| <= 1, which
    # the l1 norm bounds; it is also the real-target iteration's condition.
    # |p(1)| = l1 when every coefficient is positive, so the two sums may
    # differ by their rounding
    for k in [*range(8, 51, 3), 51]:
        p = arcsin_target(2.0**-k, delta)
        l1 = float(np.abs(p.coefficients).sum())
        assert l1 <= REAL_TARGET_L1
        assert np.abs(lobatto_values(p.coefficients.real, 4001)).max() <= l1 * (1 + 1e-14)
        assert p.parity == "odd" and p.is_real(0.0)


# ---------------------------------------------------------------------------
# sign approximant
# ---------------------------------------------------------------------------

def test_sign_is_odd_by_construction():
    p = sign_approx(0.3, 0.2)
    assert p.parity == "odd"
    assert evaluate(p, 0.0) == 0.0
    xs = dense_grid(n=1001)
    np.testing.assert_allclose(
        evaluate(p, xs).real, -evaluate(p, -xs).real, atol=1e-15
    )


def test_sign_example_values():
    p = sign_approx(0.3, 0.2)
    grid = np.linspace(-1, 1, 1000)
    vals = evaluate(p, grid).real
    assert evaluate(p, 0.5).real >= 0.9
    assert np.abs(vals).max() <= 1.0 + 1e-9


def test_sign_plateau_guarantee():
    for delta_t, fail in ((0.3, 0.2), (0.1, 0.05), (0.25, 0.01)):
        p = sign_approx(delta_t, fail)
        xs = np.linspace(delta_t, 1.0, 2000)
        assert evaluate(p, xs).real.min() >= 1.0 - fail / 2.0
        assert np.abs(evaluate(p, dense_grid(n=4001))).max() <= 1.0


def test_sign_degree_scaling():
    fail = 0.1
    degs = {d: sign_approx(d, fail).degree for d in (0.05, 0.1, 0.2, 0.4)}
    # degree grows like 1/Delta at fixed failure budget
    assert degs[0.05] > degs[0.1] > degs[0.2] > degs[0.4]
    assert degs[0.05] / degs[0.2] > 2.5
    coeffs = np.polyfit([1 / d for d in degs], list(degs.values()), 1)
    fitted = np.polyval(coeffs, [1 / d for d in degs])
    rel = np.abs(fitted - list(degs.values())) / np.array(list(degs.values()))
    assert rel.max() < 0.2


def test_sign_infeasible_parameters(monkeypatch):
    monkeypatch.setattr(polyapprox, "MAX_DEGREE", 200)
    with pytest.raises(DegreeOverflowError):
        sign_approx(0.001, 0.01)


def test_sign_overflow_reports_the_degree_it_would_build(monkeypatch):
    # the threshold of the n = 18 search table; its Bessel-table size
    # estimate is degree 50813
    with pytest.raises(DegreeOverflowError) as exc:
        sign_approx(0.9 * 0.25 * 2.0**-9, 0.1)
    assert exc.value.needed == 13165
    monkeypatch.setattr(polyapprox, "MAX_DEGREE", 20_000)
    assert sign_approx(0.9 * 0.25 * 2.0**-9, 0.1).degree == 13165


def loop_sign_coefficients(Delta, delta, degree):
    """The sign approximant's coefficients summed term by term in a loop."""
    k = float(erfinv(1.0 - delta / 8.0)) / Delta
    z = k * k / 2.0
    pref = 2.0 * k / np.sqrt(np.pi)
    big_j = (degree - 1) // 2
    bess = ive(np.arange(big_j + 1), z)
    coeffs = np.zeros(degree + 1)
    coeffs[1] += pref * bess[0]
    for jj in range(1, big_j + 1):
        term = pref * ((-1) ** jj) * bess[jj]
        coeffs[2 * jj + 1] += term / (2 * jj + 1)
        coeffs[2 * jj - 1] -= term / (2 * jj - 1)
    coeffs *= 1.0 / (1.0 + delta / 4.0)
    return coeffs


@pytest.mark.parametrize("Delta, delta", [(0.9, 0.5), (0.5, 0.9), (0.3, 0.2), (0.08, 0.1),
                                          (0.025, 0.1), (0.0024859216854976273, 0.1)])
def test_sign_coefficients_equal_the_term_loop(Delta, delta):
    p = sign_approx(Delta, delta)
    ref = loop_sign_coefficients(Delta, delta, p.degree)
    assert p.coefficients.size == ref.size
    assert np.all(p.coefficients == ref)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_complete_identity_polynomial():
    p = complete_to_complex(Polynomial([0.0, 1.0], parity="odd"))
    np.testing.assert_allclose(p.coefficients, [0, 1], atol=1e-12)


def test_complete_zero_polynomial_is_unimodular():
    p = complete_to_complex(Polynomial([0.0], parity="even"))
    xs = dense_grid(n=501)
    np.testing.assert_allclose(np.abs(evaluate(p, xs)), 1.0, atol=1e-12)


def test_complete_sign_round_trip():
    s = sign_approx(0.3, 0.2)
    p = complete_to_complex(s)
    xs = np.linspace(-1, 1, 1000)
    err = np.abs(evaluate(p, xs).real - evaluate(s, xs).real).max()
    assert err <= 1e-8
    assert p.parity == "odd"
    assert p.degree == s.degree


def test_complete_preserves_unit_bound_and_conditions():
    rng = np.random.default_rng(2)
    for d, parity in ((7, "odd"), (12, "even"), (33, "odd")):
        c = rng.standard_normal(d + 1) * 0.6 ** np.arange(d + 1)
        off = 1 if parity == "even" else 0
        c[off::2] = 0.0
        xs = dense_grid(n=4001)
        sup = np.abs(cheb.chebval(xs, c)).max()
        pr = Polynomial(c / sup * 0.9, parity)
        p = complete_to_complex(pr)
        vals = np.abs(evaluate(p, xs))
        assert vals.max() <= 1.0 + 1e-9
        # the completion's complement satisfies the defining identity
        q = _factor.complete_real(pr.coefficients.real)[1]
        total = cheb.chebval(xs, cheb.chebmul(p.coefficients, p.coefficients.conj())).real
        total += (1 - xs**2) * np.abs(cheb.chebval(xs, q)) ** 2
        np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_complete_rejects_unbounded_input():
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial([0.0, 1.5], parity="odd"))


def _one_minus_x2_u(n):
    """(1 - x^2) U_{n-1} = (T_{n-1} - T_{n+1}) / 2, zero on the (n + 1)-point Lobatto grid."""
    c = np.zeros(n + 2)
    c[n - 1], c[n + 1] = 0.5, -0.5
    return c


def test_grid_checks_see_bumps_above_degree_2000():
    # each reaches 1.5 in modulus yet vanishes on a 4001- (2001-) point Lobatto grid
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial(1.5 * _one_minus_x2_u(4000), "odd"))
    p = 1.5j * _one_minus_x2_u(2000)
    p[1] = 1.0
    with pytest.raises(ConditionError):
        find_phases(Polynomial(p, "odd"))


def test_complete_rejects_mixed_parity():
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial([0.3, 0.4, 0.1]))


@pytest.mark.parametrize("degree", [2329, 4655])
def test_completion_at_sign_degree_2329_is_finite(degree):
    # the sign polynomials of the n = 13 and n = 15 search instances; a
    # product over the roots of 1 - P_R^2 at these degrees overflows doubles
    n = {2329: 13, 4655: 15}[degree]
    s = sign_approx(0.9 * 0.25 * 2.0 ** (-n / 2), 0.1)
    assert s.degree == degree
    p = complete_to_complex(s)
    assert np.isfinite(p.coefficients).all()
    assert np.isfinite(_factor.complete_real(s.coefficients.real)[1]).all()
    assert completion_residual(p) <= 5e-9


def _root_completion(pr):
    """P_I and Q from the roots of F = 1 - P_R^2, the reference at d <= 200.

    Each root u of F in u = 2x^2 - 1 gives the factor (zeta - w) of h,
    zeta = z^2, with w = u -/+ 2 sqrt(x^2 (x^2 - 1)) the branch inside the
    disk. The plain product over d <= 200 roots stays below 2^200, and its
    scale follows from Parseval: the mean of F on the circle is f_0.
    """
    d = len(pr) - 1
    f = -cheb.chebmul(pr, pr)
    f[0] += 1.0
    u = cheb.chebroots(f[::2]).astype(complex)
    x2 = (u + 1) / 2
    s = 2 * np.sqrt(x2 * x2 - x2)
    w = np.where(np.abs(u + s) <= np.abs(u - s), u + s, u - s)
    zeta = np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    h = np.fft.fft(np.prod(zeta[:, None] - w, axis=1)).real / (d + 1)
    g = np.zeros(2 * d + 1)
    g[::2] = np.sqrt(f[0] / (h @ h)) * h  # z^-d .. z^d
    pos, neg = g[d + 1:], g[d - 1::-1]
    return np.concatenate([[g[d]], pos + neg]), _factor.u_series_to_t(pos - neg)


def test_completion_matches_root_reference():
    rng = np.random.default_rng(7)
    for sup in np.tile([0.5, 0.9, 0.95, 0.99, 0.999], 8):
        d = int(rng.integers(1, 201))
        c = rng.standard_normal(d + 1) * rng.uniform(0.6, 0.99) ** np.arange(d + 1)
        c[(d + 1) % 2::2] = 0.0
        c *= sup / np.abs(lobatto_values(c, 40001)).max()
        for got, want in zip(_factor.complete_real(c), _root_completion(c)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_completion_of_polynomials_touching_one():
    # x and T_2 reach |P_R| = 1 only at x = +/-1 and x = 0, exact zeros of
    # 1 - P_R^2 that the completion divides out
    for c, p_i, q in (([0.0, 1.0], [0.0, 0.0], [1.0]), ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 2.0])):
        got_i, got_q = _factor.complete_real(np.array(c))
        np.testing.assert_allclose(got_i, p_i, atol=1e-14)
        np.testing.assert_allclose(got_q, q, atol=1e-14)
    # (3x - x^3)/2 touches 1 at x = 1 with zero slope: a double zero there;
    # scaled by 1 - 1e-10 it misses 1 by 2e-10, divided out all the same
    for scale, residual in ((1.0, 1e-14), (1 - 1e-10, 3e-10)):
        pr = scale * np.array([0.0, 1.125, 0.0, -0.125])
        p = complete_to_complex(Polynomial(pr, "odd"))
        assert completion_residual(p) <= residual
    # T_3 touches 1 at x = +/-1/2 inside the interval: no outer factor
    start = time.perf_counter()
    with pytest.raises(CompletionError):
        complete_to_complex(Polynomial([0.0, 0.0, 0.0, 1.0], "odd"))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_completion_guards_reject_non_finite_values(bad, monkeypatch):
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial([0.0, 0.5, 0.0, bad]))
    with pytest.raises(CompletionError):
        _factor.complete_real(np.array([0.0, 0.5, 0.0, bad]))
    with pytest.raises(CompletionError):
        _factor.complementary_q(np.array([0.0, 0.5, 0.0, bad], dtype=complex))
    # a non-finite factorization raises CompletionError, not a numpy warning
    monkeypatch.setattr(_factor, "complete_real",
                        lambda pr: (np.full(pr.size, bad), np.full(pr.size - 1, bad)))
    with pytest.raises(CompletionError):
        complete_to_complex(Polynomial([0.0, 0.5], "odd"))


# ---------------------------------------------------------------------------
# evaluation, serialization
# ---------------------------------------------------------------------------

def test_eval_monomial_square():
    p = Polynomial([0.5, 0.0, 0.5], "even")  # x^2 = (T_0 + T_2) / 2
    assert evaluate(p, 3.0) == 9.0


def test_eval_chebyshev_t2():
    p = Polynomial([0.0, 0.0, 1.0], "even")
    assert abs(evaluate(p, 0.5) - (-0.5)) < 1e-15


def test_parity_invariant_enforced():
    with pytest.raises(ValueError):
        Polynomial([0.5, 1.0], parity="odd")
    p = Polynomial([0.0, 1.0, 0.0, 0.5], parity="odd")
    assert p.degree == 3
    assert detect_parity(p.coefficients) == "odd"


def test_economize_spends_within_budget():
    p = arcsin_taylor(1e-6, 0.29)
    budget = 1e-8
    e = chebyshev_economize(p, budget)
    assert e.degree <= p.degree
    xs = dense_grid(n=2001)
    drift = np.abs(evaluate(e, xs) - evaluate(p, xs)).max()
    assert drift <= budget * (1 + 1e-12)
    assert e.parity == "odd"


def test_poly_from_text_refuses_a_monomial_header():
    with pytest.raises(InputError, match="monomial"):
        poly_from_text("monomial odd 1\n0 0\n1 0\n")


def test_serialization_round_trip():
    p = complete_to_complex(sign_approx(0.3, 0.2))
    text = poly_to_text(p)
    q = poly_from_text(text)
    assert q.parity == p.parity and q.degree == p.degree
    np.testing.assert_allclose(q.coefficients, p.coefficients[: p.degree + 1], rtol=0, atol=1e-16)
