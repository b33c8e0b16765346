import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from qsprep import _factor
from qsprep.errors import CompletionError, ConditionError, DegreeOverflowError
from qsprep.polyapprox import (
    Polynomial,
    arcsin_taylor,
    chebyshev_economize,
    complete_to_complex,
    detect_parity,
    evaluate,
    poly_from_text,
    poly_to_text,
    sign_approx,
    to_chebyshev,
    to_monomial,
)


def dense_grid(lo=-1.0, hi=1.0, n=10_000):
    return np.linspace(lo, hi, n)


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
    p = arcsin_taylor(1e-3, 0.3)
    assert abs(p.coefficients[3].real - 1.0 / (6.0 * np.pi)) < 1e-15
    assert abs(p.coefficients[1].real - 1.0 / np.pi) < 1e-16


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


def test_arcsin_degree_overflow():
    with pytest.raises(DegreeOverflowError) as exc:
        arcsin_taylor(1e-6, 0.001, max_degree=100)
    assert exc.value.needed is not None and exc.value.needed > 100


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


def test_sign_infeasible_parameters():
    with pytest.raises(DegreeOverflowError):
        sign_approx(0.001, 0.01, max_degree=200)


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
        pr = Polynomial(c / sup * 0.9, basis="chebyshev", parity=parity)
        p = complete_to_complex(pr)
        vals = np.abs(evaluate(p, xs))
        assert vals.max() <= 1.0 + 1e-9
        # the attached complement satisfies the defining identity
        q = p.meta["q_cheb"]
        total = cheb.chebval(xs, cheb.chebmul(p.coefficients, p.coefficients.conj())).real
        total += (1 - xs**2) * np.abs(cheb.chebval(xs, q)) ** 2
        np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_complete_rejects_unbounded_input():
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial([0.0, 1.5], parity="odd"))


def test_complete_rejects_mixed_parity():
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial([0.3, 0.4, 0.1]))


def test_completion_at_sign_degree_2329_is_finite():
    # the sign polynomial of the n = 13 search instance; its root product
    # overflows unless it is taken in logarithms
    s = sign_approx(0.9 * 0.25 * 2.0**-6.5, 0.1)
    assert s.degree == 2329
    p = complete_to_complex(s)
    assert np.isfinite(p.coefficients).all() and np.isfinite(p.meta["q_cheb"]).all()
    assert p.meta["completion_residual"] <= 5e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_completion_guards_reject_non_finite_values(bad, monkeypatch):
    with pytest.raises(ConditionError):
        complete_to_complex(Polynomial([0.0, 0.5, 0.0, bad], basis="chebyshev"))
    with pytest.raises(CompletionError):
        _factor.complete_real(np.array([0.0, 0.5, 0.0, bad]))
    with pytest.raises(CompletionError):
        _factor.complementary_q(np.array([0.0, 0.5, 0.0, bad], dtype=complex))
    # a non-finite factorization raises CompletionError, not a numpy warning
    monkeypatch.setattr(_factor, "complete_real",
                        lambda pr: (np.full(pr.size, bad), np.full(pr.size - 1, bad)))
    with pytest.raises(CompletionError):
        complete_to_complex(Polynomial([0.0, 0.5], basis="chebyshev", parity="odd"))


# ---------------------------------------------------------------------------
# evaluation, bases, serialization
# ---------------------------------------------------------------------------

def test_eval_monomial_square():
    p = Polynomial([0.0, 0.0, 1.0], parity="even")
    assert evaluate(p, 3.0) == 9.0


def test_eval_chebyshev_t2():
    p = Polynomial([0.0, 0.0, 1.0], basis="chebyshev", parity="even")
    assert abs(evaluate(p, 0.5) - (-0.5)) < 1e-15


def test_basis_round_trip_random_degree_50():
    rng = np.random.default_rng(8)
    for _ in range(5):
        c = rng.standard_normal(51) + 1j * rng.standard_normal(51)
        p = Polynomial(c)
        back = to_monomial(to_chebyshev(p))
        xs = np.linspace(-1, 1, 200)
        np.testing.assert_allclose(
            evaluate(back, xs), evaluate(p, xs), rtol=1e-12, atol=1e-12
        )


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


def test_serialization_round_trip():
    p = complete_to_complex(sign_approx(0.3, 0.2))
    text = poly_to_text(p)
    q = poly_from_text(text)
    assert q.basis == p.basis and q.parity == p.parity and q.degree == p.degree
    np.testing.assert_allclose(q.coefficients, p.coefficients[: p.degree + 1], rtol=0, atol=1e-16)
