import logging
import time
from dataclasses import FrozenInstanceError

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from qsprep import _factor, blockenc, phases, polyapprox
from qsprep._factor import complementary_q
from qsprep.errors import (
    CompletionError,
    ConditionError,
    DegreeOverflowError,
    InputError,
    PhaseFindingError,
)
from qsprep.phases import (
    PhaseSequence,
    conjugate_phases,
    find_phases,
    phases_from_text,
    phases_to_text,
    polynomial_from_phases,
    reconstruct,
    real_target_phases,
)
from qsprep.oracle import AmplitudeOracle
from qsprep.pipeline import DELTA_MARGIN, PrepConfig, grover_case, verify_error_bounds
from qsprep.polyapprox import (
    REAL_TARGET_SUP,
    Polynomial,
    _arcsin_cut,
    _arcsin_degree,
    _arcsin_t_series,
    _arcsin_target,
    _economized_length,
    arcsin_taylor,
    complete_to_complex,
    evaluate,
    poly_from_text,
    poly_to_text,
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
    p = Polynomial([0.0, 0.0, -1.0], "even")  # 1 - 2x^2 = -T_2
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


def test_completion_without_its_complement_strips_the_same():
    # the completion of Re P is unique, so a completion read back from a
    # file, which carries no complement, strips with the same Q
    p = complete_to_complex(sign_approx(0.3, 0.2))
    bare = poly_from_text(poly_to_text(p))
    np.testing.assert_array_equal(find_phases(bare).phases, find_phases(p).phases)


def test_find_phases_rejects_unbounded():
    with pytest.raises(ConditionError):
        find_phases(Polynomial([0.0, 0.0, 0.0, 1.2], parity="odd"))


@pytest.mark.parametrize("d", [1001, 9999])
def test_find_phases_refuses_a_polynomial_below_one_at_the_ends(d):
    # R(+-1) is diagonal, so |P(+-1)| = 1; 0.5 T_d passes the samples just
    # outside [-1, 1] at these degrees, and stripping it ran for 17 s at
    # d = 1001 before raising PhaseFindingError
    c = np.zeros(d + 1)
    c[d] = 0.5
    start = time.perf_counter()
    with pytest.raises(ConditionError, match=r"\|P\(1\)\| = 0\.5"):
        find_phases(Polynomial(c, "odd"))
    assert time.perf_counter() - start < 1.0


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
    logged = [r.getMessage() for r in caplog.records if r.name == "qsprep.phases"]
    # one extended-precision attempt at strip_dps digits, then the polish
    assert len(logged) == 2
    assert "extended precision" in logged[0] and "least-squares polish" in logged[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("coeffs", [[1.0], [0.0, 0.5, 0.0, 1.0]], ids=["constant", "degree-3"])
def test_find_phases_rejects_non_finite_series(coeffs, bad):
    c = np.array(coeffs, dtype=complex)
    c[0 if len(c) == 1 else 2] = bad
    with pytest.raises(ConditionError):
        find_phases(Polynomial(c))


def test_nan_residual_counts_as_degraded(monkeypatch, caplog):
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


def test_find_phases_refuses_a_degree_above_the_limit_before_any_grid(monkeypatch):
    from qsprep.polyapprox import MAX_DEGREE

    d = MAX_DEGREE + 1
    c = np.zeros(d + 1)
    c[d] = 0.5
    p = Polynomial(c, "odd")

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(phases, "_check_qsp_conditions", no_grid)
    monkeypatch.setattr(phases, "_nodes", no_grid)
    with pytest.raises(DegreeOverflowError) as exc:
        find_phases(p)
    assert exc.value.needed == d


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
    pr = Polynomial(c / sup * rng.uniform(0.5, 0.95), "even" if d % 2 == 0 else "odd")
    target = complete_to_complex(pr)
    phi = find_phases(target)
    nodes = cheb_nodes(4 * target.degree)
    err = np.abs(reconstruct(phi, nodes) - evaluate(target, nodes)).max()
    assert err <= 1e-7


# ---------------------------------------------------------------------------
# stripping real targets
# ---------------------------------------------------------------------------

def random_real_target(rng, d):
    """Bounded real series of degree d and parity d mod 2, sup below 1."""
    c = rng.standard_normal(d + 1) * rng.uniform(0.8, 0.97) ** np.arange(d + 1)
    c[(1 if d % 2 == 0 else 0)::2] = 0
    c[d] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)  # keep the degree at d
    sup = np.abs(cheb.chebval(np.linspace(-1, 1, 4001), c)).max()
    return Polynomial(c / sup * rng.uniform(0.5, 0.95), "even" if d % 2 == 0 else "odd")


def angle_gap(a, b):
    return float(np.abs(np.angle(np.exp(1j * (a - b)))).max())


def count_stripped_levels(monkeypatch):
    """Levels stripped per ``_strip`` call, appended as the calls are made."""
    levels = []
    strip, mulx = phases._strip, phases.mulx

    def counting_mulx(c):
        levels[-1] += 0.5  # each level multiplies P and Q by x once
        return mulx(c)

    def counting_strip(p, q):
        levels.append(0)
        return strip(p, q)

    monkeypatch.setattr(phases, "mulx", counting_mulx)
    monkeypatch.setattr(phases, "_strip", counting_strip)
    return levels


# the degree-2329 sign target of grover_case(13, 5, 0.1, 0.05)
SIGN_2329 = (0.0024859216854976273, 0.1)

# residuals on the find_phases grid, rounded up, when only the top half of
# the levels was stripped and the rest mirrored; peeling every level moves
# them by a few rounding errors of the values, which are at most 1
HALF_STRIP_RESIDUAL = {3: 5.80e-16, 4: 1.01e-15, 5: 1.41e-15, 6: 1.20e-15, 17: 5.00e-15, 30: 1.07e-14, 51: 3.24e-14, 64: 4.87e-14,
                       97: 2.72e-13, 120: 1.14e-13, 2329: 2.25e-11}


@pytest.mark.parametrize("d", sorted(HALF_STRIP_RESIDUAL))
def test_real_target_full_strip_is_palindromic(d, monkeypatch):
    pr = sign_approx(*SIGN_2329) if d == 2329 else random_real_target(np.random.default_rng(d), d)
    comp = complete_to_complex(pr)
    assert comp.degree == d
    levels = count_stripped_levels(monkeypatch)
    phi = find_phases(comp)
    assert levels == [d - 1]
    xs = cheb_nodes(max(4 * d, 32))
    assert np.abs(reconstruct(phi, xs) - evaluate(comp, xs)).max() <= HALF_STRIP_RESIDUAL[d] + 1e-15
    # the completion's Q has one phase, so phi_2 .. phi_d read the same
    # backwards, the centre of an even d included
    assert angle_gap(phi.phases[1:], phi.phases[1:][::-1]) <= 1e-13


@pytest.mark.parametrize("d", [4, 6, 10])
def test_even_degree_strip_peels_the_centre_angle(d, monkeypatch):
    # the centre angle phi_{d/2 + 1} of an even d, its own mirror, is peeled
    # like every other level, not left over
    comp = complete_to_complex(random_real_target(np.random.default_rng(d), d))
    levels = count_stripped_levels(monkeypatch)
    phi = find_phases(comp)
    assert levels == [d - 1]
    xs = cheb_nodes(4 * d)
    assert np.abs(reconstruct(phi, xs) - evaluate(comp, xs)).max() <= 1e-13


def test_extended_precision_strip_matches_double(monkeypatch):
    comp = complete_to_complex(sign_approx(0.3, 0.2))
    d = comp.degree
    c = comp.coefficients[: d + 1]
    q = _factor.complete_real(c.real)[1].astype(complex)
    levels = count_stripped_levels(monkeypatch)
    with mp.workdps(_factor.strip_dps(d)):
        exact = phases._strip(_factor.to_mp(c), _factor.to_mp(q))[0]
    double = phases._strip(c, q)[0]
    assert levels == [d - 1, d - 1]
    assert angle_gap(exact, double) <= 1e-13


def test_complex_complement_takes_the_full_strip(monkeypatch):
    rng = np.random.default_rng(77)
    d = 13
    target = polynomial_from_phases(PhaseSequence(random_restricted_phases(rng, d)))
    c = target.coefficients[: d + 1]
    assert phases._completion_q(c) is None  # no completion of its real part
    levels = count_stripped_levels(monkeypatch)
    phi = find_phases(target)
    assert levels == [d - 1]
    xs = cheb_nodes(4 * d)
    assert np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max() <= 1e-7


def test_preparation_reaches_no_completion_or_stripping(monkeypatch):
    # the pipeline's arcsin angles come from the real-target iteration alone:
    # a search and a random table pass with the complex route refused
    def refuse(*args):
        raise AssertionError("a preparation reached the complex route")

    monkeypatch.setattr(polyapprox, "complete_to_complex", refuse)
    monkeypatch.setattr(phases, "find_phases", refuse)
    monkeypatch.setattr(_factor, "complete_real", refuse)
    blockenc._encoding.cache_clear()
    blockenc._phases_at_cut.cache_clear()
    table = AmplitudeOracle(7, 8, np.random.default_rng(5).uniform(0.0, 1.0, 2**7))
    for rep in (grover_case(4, 11, 0.1, 0.05), verify_error_bounds(PrepConfig(table, 0.05, 0.1))):
        assert rep.all_passed, [c for c in rep.bound_checks if not c.passed]


def _assert_scaled_targets_realized(delta, errors, miss):
    """The scaled targets the phase iteration is given at each error's cut.

    Each is the cut's gain times the target economized on the levels'
    interval (``arcsin_target``), has l1 norm at most ``REAL_TARGET_SUP``,
    and is realized by the unrounded W-form angles to an l1 miss of
    ``miss``, by the series the iteration returns, sampled in as many layers
    as there are angles, and by their doubles to the iteration's own floor,
    max(1e-14, d 2^-52), by the independent reference
    polynomial_from_phases. Returns the degrees.
    """
    cuts = {_arcsin_cut(error, delta) for error in errors}
    for degree, keep in sorted(cuts):
        phi, series, layers, l1, gain = blockenc._phases_at_cut(degree, keep, delta)
        c = gain * _arcsin_target(degree, keep, delta)
        assert 1.0 <= gain <= blockenc.ARCSIN_GAIN and l1 <= REAL_TARGET_SUP, degree
        assert len(phi) == keep - 1
        assert layers == len(phi) and np.abs(series[1:keep:2] - c[1::2]).sum() <= miss, degree
        exact = polynomial_from_phases(phi).coefficients.real
        assert np.abs(exact - c).sum() <= max(1e-14, len(phi) * 2.0**-52), degree
    return {keep - 1 for _, keep in cuts}


def test_real_target_phases_realize_every_economized_arcsin_cut():
    # every cut at the generator errors a run may ask for, 2^-8 .. 2^-51,
    # takes the whole gain: the scaled targets reach l1 0.926 at most, the
    # unrounded angles miss by 7.7e-19 at most, and the doubles by 3.3e-15
    errors = np.geomspace(2.0**-8, 2.0**-51, 4000)
    assert _assert_scaled_targets_realized(DELTA_MARGIN, errors, 1e-18) >= {3, 7, 27, 33}


@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_scaled_arcsin_targets_converge_at_small_deltas(delta):
    # at errors 2^-k, k = 8 .. 51, a smaller delta raises the degree (to 61
    # at 0.1 and 195 at 0.01) and the l1 norm, so that some cuts fill
    # REAL_TARGET_SUP at a gain of 1.985 and 1.926 at least; the unrounded
    # angles miss by 1.6e-18 and 5.2e-18 at most, and the doubles by 0.50
    # and 0.73 of the floor
    _assert_scaled_targets_realized(delta, 2.0 ** -np.arange(8, 52), 1e-17)


def test_real_target_phases_accept_the_rounding_floor_of_a_high_degree():
    # at degree 363 (delta 0.01) the rounding of the angles leaves the l1
    # miss at 2.5e-14, above 1e-14: the least miss is accepted up to d 2^-52
    degree = _arcsin_degree(0.9e-15, 0.01)
    series = _arcsin_t_series(degree, 0.0)  # the Taylor series in y
    c = series[: _economized_length(series, 0.05e-15)]
    phi = real_target_phases(c)[0]
    d = len(phi)
    assert d == c.size - 1 == 363
    exact = polynomial_from_phases(phi).coefficients.real
    assert np.abs(exact[1 : d + 1 : 2] - c[1::2]).sum() <= d * 2.0**-52


def test_real_target_step_sign_picks_the_negative_degree_one_angle():
    # Re a is even in the reduced angles (negated angles conjugate a), so
    # negated angles realize the same Re a. At degree 1, Re a = cos(phi_1) x
    # = cos(2 r_0) x, and Newton's method from r_0 = -pi/4, where Re a = 0,
    # moves r_0 to -arccos(c_1) / 2
    phi = real_target_phases(np.array([0.0, 0.3]))[0]
    assert abs(phi.phases[0] + np.arccos(0.3)) <= 1e-13
    phi = real_target_phases(_arcsin_t_series(37, 0.0)[:30])[0]
    xs = cheb_nodes(4 * len(phi))
    assert np.array_equal(phases._top_row(-phi.phases, xs)[0].real, phases._top_row(phi.phases, xs)[0].real)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
def test_palindrome_top_left_equals_the_whole_product(dtype):
    # the first half's factors, closed as C R C^T, give the whole palindromic
    # product's M_00 and count its L layers, at every odd L up to 201: over
    # an array of points, and at one point (a Python float with Python
    # complex factors, or a long-double scalar), to L ulps of the precision
    rng = np.random.default_rng(41)
    xs = cheb_nodes(12).astype(dtype)
    zero = np.zeros(1, dtype)
    for rounds in range(1, 202, 2):
        half = rng.uniform(-np.pi, np.pi, (rounds - 1) // 2).astype(dtype)
        exact = phases._top_row(np.concatenate((zero, half, half[::-1])), xs)[0]
        tol = rounds * np.finfo(dtype).eps
        factors = np.exp(1j * half)
        got, layers = phases.palindrome_top_left(factors, xs)
        assert layers == rounds and got.dtype == exact.dtype
        assert np.abs(got - exact).max() <= tol, rounds
        if dtype is float:
            got, layers = phases.palindrome_top_left(factors.tolist(), float(xs[5]))
            assert type(got) is complex
        else:
            got, layers = phases.palindrome_top_left(factors, xs[5])
            assert got.dtype == np.clongdouble
        assert layers == rounds and abs(got - exact[5]) <= tol, rounds


def test_palindrome_top_left_samples_the_w_form_product():
    # real_target_phases samples Re a as Re(e^{2 i r_0} M_00) of the
    # palindrome phi_2 .. phi_d = r_j - pi/2: at the pipeline's cuts, errors
    # 2^-8 .. 2^-51 at DELTA_MARGIN (degrees 3 .. 33), that equals the whole
    # W-form product's a, taken in 40 digits from the same long-double
    # angles and points, to 1e-18 (5.3e-19 at most). The whole product in
    # long double is no reference at that bound: it misses the 40-digit one
    # by up to 1.3e-18 itself
    def exact(v):  # a long double is the sum of two doubles
        hi = float(v)
        return mp.mpf(hi) + float(v - np.longdouble(hi))

    with mp.workdps(40):
        for degree, keep in sorted({_arcsin_cut(float(e), DELTA_MARGIN) for e in 2.0 ** -np.arange(8, 52)}):
            phi = blockenc._phases_at_cut(degree, keep, DELTA_MARGIN)[0].phases
            d = len(phi)
            r = phi[: (d + 1) // 2].astype(np.longdouble)
            r[0] /= 2
            r[1:] += polyapprox.PI_LD / 2
            xs = np.sin(polyapprox.PI_LD * np.arange(d + 1, -d - 2, -2) / (2 * (d + 1)))
            m00, layers = phases.palindrome_top_left(np.exp(1j * (r[1:] - polyapprox.PI_LD / 2)), xs)
            assert layers == d
            factors = [mp.expj(exact(p)) for p in phases._w_form_angles(r)]
            for x, got in zip(xs, np.exp(2j * r[0]) * m00):
                x = exact(x)
                s = mp.sqrt(1 - x * x)
                a, b = mp.mpc(1), mp.mpc(0)
                for e in factors:
                    a, b = a * e * x + b * mp.conj(e) * s, a * e * s - b * mp.conj(e) * x
                assert abs(mp.mpc(exact(got.real), exact(got.imag)) - a) <= 1e-18, d


def test_real_target_phases_refuse_a_target_no_angles_reach():
    # |a| <= 1, and this target reaches 1.8 at x = 1: the miss stops falling
    # far above any floor
    with pytest.raises(PhaseFindingError, match="no convergence") as info:
        real_target_phases(np.array([0.0, 0.9, 0.0, 0.9]))
    assert info.value.residual > 0.1


def test_memoized_arcsin_angles_are_read_only():
    # every encoding of one cut shares the memoized angles
    phi = blockenc._phases_at_cut(*_arcsin_cut(0.01, 0.29), 0.29)[0]
    assert blockenc._phases_at_cut(*_arcsin_cut(0.01, 0.29), 0.29)[0] is phi
    with pytest.raises(ValueError):
        phi.phases[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        phi.phases = None


def test_warm_cut_samples_nothing(monkeypatch):
    # the series of Re a is kept with the memoized angles, so a second
    # encoding of the same cut, at new sines, runs no sampling pass (no
    # palindrome_top_left and no lobatto_coefficients) and sums the series
    # the memo holds; it is read-only and equals the realized polynomial's
    # real part
    blockenc._encoding.cache_clear()
    blockenc._phases_at_cut.cache_clear()
    first = blockenc.hamiltonian_from_unitary(np.sin(np.pi * np.array([0.05, 0.15])), 0.001, 0.29)
    phi, series, layers, *_ = blockenc._phases_at_cut(*_arcsin_cut(0.001, 0.29), 0.29)
    assert first.phases is phi and first.info["cu_calls"] == layers == len(phi)
    exact = polynomial_from_phases(phi).coefficients.real
    assert np.abs(series[: exact.size] - exact).max() <= 1e-15
    assert np.abs(series[exact.size:]).max(initial=0.0) <= 1e-15
    with pytest.raises(ValueError):
        series[1] = 0.0

    def no_sampling(*args):
        raise AssertionError("the series was sampled again")

    monkeypatch.setattr(phases, "palindrome_top_left", no_sampling)
    monkeypatch.setattr(phases, "lobatto_coefficients", no_sampling)
    monkeypatch.setattr(polyapprox, "lobatto_coefficients", no_sampling)
    sines = np.sin(np.pi * np.array([0.02, 0.11, 0.2]))
    again = blockenc.hamiltonian_from_unitary(sines, 0.001, 0.29)
    assert again is not first and again.phases is phi
    assert again.diagonal.tobytes() == blockenc._level_diagonal(sines, series).tobytes()
