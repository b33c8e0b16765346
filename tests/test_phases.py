import logging

import numpy as np
import pytest

from qsprep._factor import complementary_q
from qsprep.errors import CompletionError, ConditionError, InputError, PhaseFindingError
from qsprep.phases import (
    PhaseSequence,
    conjugate_phases,
    find_phases,
    phases_from_text,
    phases_to_text,
    polynomial_from_phases,
    reconstruct,
    reconstruct_matrix,
    verify_phases,
)
from qsprep.pipeline import grover_case
from qsprep.polyapprox import (
    Polynomial,
    arcsin_taylor,
    complete_to_complex,
    evaluate,
    sign_approx,
)


def product_matrix(angles, x):
    """Independent 2x2 product, kept separate from the library routine."""
    s = np.sqrt(1 - x * x)
    m = np.eye(2, dtype=complex)
    refl = np.array([[x, s], [s, -x]])
    for a in angles:
        m = m @ np.diag([np.exp(1j * a), np.exp(-1j * a)]) @ refl
    return m


def cheb_nodes(n):
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def random_restricted_phases(rng, d):
    return rng.uniform(0.3 * np.pi, 0.7 * np.pi, d) * rng.choice([-1.0, 1.0], d)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_single_zero_angle():
    assert abs(reconstruct(PhaseSequence([0.0]), 0.7) - 0.7) < 1e-15


def test_reconstruct_two_zero_angles_is_one():
    phi = PhaseSequence([0.0, 0.0])
    for x in (-0.9, -0.3, 0.0, 0.4, 1.0):
        assert abs(reconstruct(phi, x) - 1.0) < 1e-14


def test_reconstruct_half_pi_pair():
    phi = PhaseSequence([np.pi / 2, np.pi / 2])
    # independent product: realizes 1 - 2 x^2
    assert abs(product_matrix([np.pi / 2, np.pi / 2], 0.5)[0, 0] - 0.5) < 1e-14
    assert abs(reconstruct(phi, 0.5) - 0.5) < 1e-14


def test_reconstruct_matrix_is_unitary():
    rng = np.random.default_rng(4)
    for _ in range(20):
        phi = PhaseSequence(rng.uniform(-np.pi, np.pi, int(rng.integers(1, 9))))
        x = rng.uniform(-1, 1)
        m = reconstruct_matrix(phi, x)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
        assert abs(m[0, 0]) <= 1.0 + 1e-12


def test_reconstruct_matrix_matches_product():
    rng = np.random.default_rng(6)
    for d in (0, 1, 2, 5, 16, 33, 60):
        angles = rng.uniform(-np.pi, np.pi, d)
        for x in (-1.0, -0.37, 0.0, 0.81, 1.0):
            np.testing.assert_allclose(
                reconstruct_matrix(PhaseSequence(angles), x), product_matrix(angles, x),
                rtol=0, atol=1e-13,
            )


def test_reconstruct_has_definite_parity():
    rng = np.random.default_rng(9)
    for d in (3, 4, 7, 10):
        phi = PhaseSequence(rng.uniform(-np.pi, np.pi, d))
        xs = np.linspace(-1, 1, 101)
        vals = reconstruct(phi, xs)
        flipped = reconstruct(phi, -xs)
        np.testing.assert_allclose(vals, (-1.0) ** d * flipped, atol=1e-12)


def test_polynomial_from_phases_matches_pointwise():
    rng = np.random.default_rng(14)
    for d in (1, 2, 5, 12, 27):
        ang = rng.uniform(-np.pi, np.pi, d)
        poly = polynomial_from_phases(PhaseSequence(ang))
        xs = cheb_nodes(40)
        np.testing.assert_allclose(
            evaluate(poly, xs), reconstruct(PhaseSequence(ang), xs), atol=1e-12
        )


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_of_zero_angle():
    phi = conjugate_phases(PhaseSequence([0.0]))
    assert phi.phases[0] == 0.0


def test_conjugate_half_pi_pair():
    phi = PhaseSequence([np.pi / 2, np.pi / 2])
    conj = conjugate_phases(phi)
    xs = np.linspace(-1, 1, 51)
    np.testing.assert_allclose(
        reconstruct(conj, xs), np.conj(reconstruct(phi, xs)), atol=1e-14
    )


def test_conjugate_property_random_length_9():
    rng = np.random.default_rng(31)
    phi = PhaseSequence(rng.uniform(-np.pi, np.pi, 9))
    conj = conjugate_phases(phi)
    xs = np.linspace(-1, 1, 100)
    np.testing.assert_allclose(
        reconstruct(conj, xs), np.conj(reconstruct(phi, xs)), atol=1e-12
    )


# ---------------------------------------------------------------------------
# phase finding
# ---------------------------------------------------------------------------

def test_find_phases_identity_polynomial():
    phi = find_phases(Polynomial([0.0, 1.0], parity="odd"))
    assert len(phi) == 1
    assert abs(phi.phases[0]) < 1e-12


def test_find_phases_negated_t2():
    p = Polynomial([1.0, 0.0, -2.0], parity="even")
    phi = find_phases(p)
    xs = cheb_nodes(32)
    np.testing.assert_allclose(reconstruct(phi, xs), 1 - 2 * xs**2, atol=1e-12)


def test_find_phases_arcsin_completion_round_trip():
    p = complete_to_complex(arcsin_taylor(1e-3, 0.3))
    phi = find_phases(p)
    xs = cheb_nodes(4 * p.degree)
    err = np.abs(reconstruct(phi, xs) - evaluate(p, xs)).max()
    assert err <= 1e-7


def test_find_phases_random_valid_polynomials():
    rng = np.random.default_rng(77)
    for d in (1, 2, 3, 8, 13, 21, 34, 55):
        target = polynomial_from_phases(PhaseSequence(random_restricted_phases(rng, d)))
        phi = find_phases(target)
        assert len(phi) == d
        xs = cheb_nodes(max(4 * d, 32))
        err = np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max()
        assert err <= 1e-7


@pytest.mark.parametrize("Delta, degree", [(0.08, 73), (0.025, 233)], ids=["d73", "d233"])
def test_find_phases_large_completed_polynomial(Delta, degree):
    s = sign_approx(Delta, 0.1)
    # completion and stripping stay in double precision at these degrees
    assert s.degree == degree
    p = complete_to_complex(s)
    phi = find_phases(p)
    xs = cheb_nodes(4 * p.degree)
    err = np.abs(reconstruct(phi, xs) - evaluate(p, xs)).max()
    assert err <= 1e-7


def _unhinted_target():
    """Realizable degree-24 polynomial whose double-precision complement fails.

    Without a completion hint, factoring 1 - P P* in double precision finds
    an odd number of real roots and raises CompletionError.
    """
    phases = np.random.default_rng(0).uniform(-np.pi, np.pi, 24)
    return polynomial_from_phases(PhaseSequence(phases))


def test_find_phases_escalates_after_completion_error():
    target = _unhinted_target()
    with pytest.raises(CompletionError):
        complementary_q(target.coefficients[: target.degree + 1])
    try:
        phi = find_phases(target)
    except PhaseFindingError as exc:
        assert exc.residual is not None
    else:
        xs = cheb_nodes(4 * target.degree)
        assert np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max() <= 1e-7


def test_escalations_are_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="qsprep")
    grover_case(3, 5, 0.1, 0.05)
    assert not [r for r in caplog.records if r.name.startswith("qsprep")]
    find_phases(_unhinted_target())
    logged = [r for r in caplog.records if r.name == "qsprep.phases"]
    assert len(logged) == 1
    assert logged[0].levelno == logging.DEBUG
    msg = logged[0].getMessage()
    assert "extended precision, attempt 1" in msg and "CompletionError" in msg


def test_find_phases_rejects_unbounded():
    with pytest.raises(ConditionError):
        find_phases(Polynomial([0.0, 0.0, 0.0, 1.2], parity="odd"))


def test_find_phases_rejects_inside_only_polynomial():
    # bounded by 1 inside but also below 1 outside: not realizable
    with pytest.raises(ConditionError):
        find_phases(Polynomial([0.0, 0.5], parity="odd"))


def test_find_phases_optimizer_route(caplog):
    # without a completion hint the complement of this degree-37 polynomial
    # cannot be factored in double precision and extended-precision stripping
    # stalls near 2e-3, so only the least-squares polish reaches the tolerance
    rng = np.random.default_rng(2)
    d = int(rng.integers(20, 41))
    target = polynomial_from_phases(PhaseSequence(rng.uniform(-np.pi, np.pi, d)))
    caplog.set_level(logging.DEBUG, logger="qsprep")
    phi = find_phases(target)
    xs = cheb_nodes(4 * d)
    assert np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max() <= 1e-7
    logged = [r for r in caplog.records if r.name == "qsprep.phases"]
    assert "least-squares polish" in logged[-1].getMessage()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("coeffs", [[1.0], [0.0, 0.5, 0.0, 1.0]], ids=["constant", "degree-3"])
def test_find_phases_rejects_non_finite_series(coeffs, bad):
    c = np.array(coeffs, dtype=complex)
    c[0 if len(c) == 1 else 2] = bad
    with pytest.raises(ConditionError):
        find_phases(Polynomial(c, basis="chebyshev"))


def test_nan_residual_counts_as_degraded(monkeypatch, caplog):
    import qsprep.phases as phases

    target = complete_to_complex(sign_approx(0.3, 0.2))
    strip = phases._strip

    def nan_in_double(p, q):
        phis, drop = strip(p, q)
        if p.dtype != object:
            phis = np.full_like(phis, np.nan)
        return phis, drop

    monkeypatch.setattr(phases, "_strip", nan_in_double)
    caplog.set_level(logging.DEBUG, logger="qsprep")
    phi = find_phases(target)
    logged = [r for r in caplog.records if r.name == "qsprep.phases"]
    assert "extended precision, attempt 1" in logged[0].getMessage()
    xs = cheb_nodes(4 * target.degree)
    assert np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max() <= 1e-7


def test_find_phases_degree_zero():
    phi = find_phases(Polynomial([1.0], parity="even"))
    assert len(phi) == 0
    with pytest.raises(ConditionError):
        find_phases(Polynomial([1j], parity="even"))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def test_verify_phases_identity():
    rep = verify_phases(PhaseSequence([0.0]), Polynomial([0.0, 1.0], parity="odd"), 16)
    assert rep.passed
    assert rep.max_error < 1e-15


def test_verify_phases_detects_corruption():
    phi = PhaseSequence([0.1])
    rep = verify_phases(phi, Polynomial([0.0, 1.0], parity="odd"), 64)
    assert not rep.passed
    # the error |e^{0.1 i} x - x| peaks at the largest node
    expected = abs(np.exp(0.1j) - 1.0) * np.cos(np.pi * 0.5 / 64)
    assert abs(rep.max_error - expected) < 0.1 * expected


def test_verify_phases_round_trip_pass():
    p = complete_to_complex(sign_approx(0.3, 0.2))
    phi = find_phases(p)
    rep = verify_phases(phi, p, 4 * p.degree)
    assert rep.passed


def test_verify_phases_grid_guard():
    with pytest.raises(ValueError):
        verify_phases(PhaseSequence([0.0, 0.0]), Polynomial([1.0]), 1)


def test_angle_normalization():
    phi = PhaseSequence([3 * np.pi, -np.pi, 0.5])
    assert np.all(phi.phases <= np.pi) and np.all(phi.phases > -np.pi)
    assert phi.phases[0] == pytest.approx(np.pi)
    assert phi.phases[1] == pytest.approx(np.pi)  # ties at -pi map to +pi
    near = -np.pi + 1e-6
    assert PhaseSequence([near]).phases[0] == near


def test_phase_serialization_round_trip():
    phi = PhaseSequence(np.array([0.1, -1.7, 3.1]))
    back = phases_from_text(phases_to_text(phi))
    np.testing.assert_allclose(back.phases, phi.phases, rtol=0, atol=0)


@pytest.mark.parametrize("text", ["0.1\nabc\n", "0.1 0.2\n", "nan\n", "0.1\ninf\n"],
                         ids=["word", "two-numbers", "nan", "inf"])
def test_phases_text_rejects_malformed_lines(text):
    with pytest.raises(InputError):
        phases_from_text(text)


@pytest.mark.parametrize("seed", [7006, 7029])
def test_boundary_tangent_completion_contract(seed):
    # completing a small oscillatory polynomial gives a near-unimodular P
    # that touches |P| = 1 at many interior points; these two draws come
    # out of stripping with angles within 3e-5 of -pi, which must survive
    # normalization for the residual check to accept them
    from numpy.polynomial import chebyshev as cheb

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 130))
    decay = rng.uniform(0.6, 0.98)
    c = rng.standard_normal(d + 1) * decay ** np.arange(d + 1)
    c[(1 if d % 2 == 0 else 0)::2] = 0
    xs = np.linspace(-1, 1, 3001)
    sup = np.abs(cheb.chebval(xs, c)).max()
    pr = Polynomial(c / sup * rng.uniform(0.5, 0.95), basis="chebyshev",
                    parity="even" if d % 2 == 0 else "odd")
    target = complete_to_complex(pr)
    phi = find_phases(target)
    nodes = cheb_nodes(4 * target.degree)
    err = np.abs(reconstruct(phi, nodes) - evaluate(target, nodes)).max()
    assert err <= 1e-7
