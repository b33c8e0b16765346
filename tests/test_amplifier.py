import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from qsprep import amplifier, pipeline
from qsprep.amplifier import (
    MAX_ROUNDS,
    AmplificationPlan,
    _fixed_point_phases,
    amplify,
    amplify_state,
    build_projectors,
    plan_amplification,
)
from qsprep.errors import DegreeOverflowError, InputError
from qsprep.oracle import AmplitudeOracle
from qsprep.phases import _top_row, reconstruct
from qsprep.pipeline import PrepConfig, grover_case, verify_error_bounds
from qsprep.simulator import (
    StateVector,
    UnitaryMatrix,
    fidelity,
    project_measure,
)


def hadamard_layer(n):
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    m = np.array([[1.0]])
    for _ in range(n):
        m = np.kron(m, had)
    return UnitaryMatrix(m.astype(complex))


def rank_one_instance(rng, n, sigma, ancillas=2):
    """A unitary whose flagged compression is exactly sigma |w><Psi|."""
    dim = 2 ** (ancillas + n)
    s = hadamard_layer(n)
    w = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    w /= np.linalg.norm(w)
    w_full = np.zeros(dim, dtype=complex)
    w_full[: 2**n] = w
    psi = np.zeros(dim, dtype=complex)
    psi[: 2**n] = s.entries[:, 0]
    garbage = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    garbage[: 2**n] = 0.0  # keep it outside the flagged subspace
    garbage -= (np.vdot(w_full, garbage)) * w_full
    garbage /= np.linalg.norm(garbage)
    image = sigma * w_full + np.sqrt(1 - sigma**2) * garbage
    # unitary completion mapping psi -> image
    basis = np.eye(dim, dtype=complex)
    cols = [psi] + [basis[:, k] for k in range(dim - 1)]
    q_in, _ = np.linalg.qr(np.column_stack(cols))
    # fix possible sign flip of the first column
    q_in[:, 0] = psi
    q_in = np.linalg.qr(np.column_stack([psi] + [q_in[:, k] for k in range(1, dim)]))[0]
    q_in[:, 0] = psi
    cols_out = [image] + [basis[:, k] for k in range(dim - 1)]
    q_out = np.linalg.qr(np.column_stack(cols_out))[0]
    q_out[:, 0] = image
    c = q_out @ q_in.conj().T
    return UnitaryMatrix(c), s, StateVector(psi), StateVector(w_full)


def test_build_projectors_single_qubit():
    s = hadamard_layer(1)
    flag, init = build_projectors(1, s)
    assert init.rank == 1
    plus = np.zeros(8, dtype=complex)
    plus[0] = plus[1] = 1 / np.sqrt(2)
    np.testing.assert_allclose(init.apply_vec(plus), plus, atol=1e-14)
    # nested projectors and traces
    np.testing.assert_allclose(flag.matrix @ init.matrix, init.matrix, atol=1e-14)
    assert abs(np.trace(flag.matrix) - 2) < 1e-12
    assert abs(np.trace(init.matrix) - 1) < 1e-12
    flag.validate()
    init.validate()


def test_plan_sigma_one_is_trivial():
    # the closed form needs no identity branch: L = 1 is the angle 0, whose
    # success is sigma^2, and a tighter delta plans real rounds
    plan = plan_amplification(1.0, 0.5)
    assert plan.rounds == 1
    assert plan.phases.phases.tolist() == [0.0]
    assert plan.predicted_success() == pytest.approx(1.0)
    plan = plan_amplification(1.0, 0.1)
    assert plan.rounds == 3
    assert plan.predicted_success() == pytest.approx(1.0)


def test_plan_values_at_half():
    plan = plan_amplification(0.5, 0.01)
    assert plan.predicted_success(0.5) >= 0.995
    assert plan.rounds % 2 == 1


def test_plan_rounds_scale_linearly_in_inverse_sigma():
    sigmas = (0.05, 0.08, 0.125, 0.2, 0.35)
    rounds = np.array([plan_amplification(s, 0.1).rounds for s in sigmas], dtype=float)
    inv = 1.0 / np.array(sigmas)
    slope, offset = np.polyfit(inv, rounds, 1)
    fitted = slope * inv + offset
    assert np.abs(fitted - rounds).max() / rounds.max() < 0.2


def test_plan_degree_limit(monkeypatch):
    # at the search instances' sigma = 2^(-n/2) / 4 of an unscaled arcsin
    # transform, n = 16 plans 2479 rounds, n = 18 4957, n = 24 39655, n = 32
    # 634469 and n = 40 10151485; a plan computes no angle
    def no_angles(rounds, edge):
        raise AssertionError("angles computed")

    monkeypatch.setattr(amplifier, "_fixed_point_phases", no_angles)
    plan = plan_amplification(0.25 * 2.0**-8, 0.1)
    assert plan.rounds == 2479
    assert plan.predicted_success() >= 1 - 0.1 / 2
    assert plan_amplification(0.25 * 2.0**-9, 0.1).rounds == 4957
    assert plan_amplification(0.25 * 2.0**-12, 0.1).rounds == 39655
    assert plan_amplification(0.25 * 2.0**-16, 0.1).rounds == 634469
    assert plan_amplification(0.25 * 2.0**-20, 0.1).rounds == 10151485
    # a smaller sigma's round count is refused
    with pytest.raises(DegreeOverflowError) as exc:
        plan_amplification(1e-7, 0.1)
    assert exc.value.needed == 24203025 > MAX_ROUNDS


@pytest.mark.parametrize("sigma", [1e-300, 1e-308, 5e-324])
def test_plan_refuses_a_round_count_past_2_to_the_53(sigma):
    # the count is 3e300 rounds at sigma = 1e-300 and infinite from about
    # 1e-308 on, where math.ceil raised a bare OverflowError; it is refused
    # as a float, with 2^53 as a lower bound and a message of one line
    with pytest.raises(DegreeOverflowError, match="more than 2\\^53 rounds") as exc:
        plan_amplification(sigma, 0.1)
    assert exc.value.needed == 2**53
    assert len(str(exc.value)) < 120


@pytest.mark.parametrize("sigma, delta", [(np.nan, 0.1), (0.0, 0.1), (1.5, 0.1),
                                          (0.3, np.nan), (0.3, 0.0), (0.3, 1.0)])
def test_plan_refuses_sigma_or_delta_out_of_range(sigma, delta):
    with pytest.raises(InputError, match="must lie in"):
        plan_amplification(sigma, delta)


@pytest.mark.parametrize("sigma, delta", [("0.5", 0.1), (np.array([0.5]), 0.1), (None, 0.1),
                                          (0.5, "0.1"), (0.5, np.array([0.1])), (True, 0.1)])
def test_plan_refuses_sigma_or_delta_that_is_not_a_real_number(sigma, delta):
    # a string raised a bare TypeError from the range check; each input,
    # an unhashable one-element array included, is refused before the memo
    # sees it, so the memo records nothing
    with pytest.raises(InputError, match="must lie in"):
        plan_amplification(sigma, delta)
    assert amplifier._plan.cache_info().currsize == 0


@pytest.mark.parametrize("sigma, plan", [(0.5, None), (0.5, (0.3, 0.1, 17)), ("0.5", "plan"),
                                         (np.array([0.5]), "plan"), (None, "plan")])
def test_amplify_state_refuses_a_sigma_or_plan_of_the_wrong_type(sigma, plan):
    # a plan that is not an AmplificationPlan raised a bare AttributeError;
    # each input is refused before the memo sees it
    if plan == "plan":
        plan = plan_amplification(0.3, 0.1)
    with pytest.raises(InputError, match="must be"):
        amplify_state(sigma, plan)
    assert amplifier._amplified.cache_info().currsize == 0


def test_plan_and_amplitude_memos_return_what_a_cold_call_built():
    # a repeated (sigma, delta) returns the plan the first call built, and a
    # repeated (sigma, plan) the same amplitude, without running the loop
    plan = plan_amplification(0.3, 0.1)
    assert plan_amplification(np.float64(0.3), 0.1) is plan and type(plan.sigma) is float
    cold = amplify_state(0.3, plan)
    assert amplify_state(np.float64(0.3), plan) is cold
    assert amplifier._amplified.cache_info()[:2] == (1, 1)
    assert cold == amplifier._amplified.__wrapped__(0.3, plan)


# a hand-built plan takes no field plan_amplification would not give: before
# it checked them, delta = 2 gave band edge 0 and success 1.0, delta = 5 and
# rounds = -1 a bare math domain error, delta = 0 ZeroDivisionError, a NaN
# delta a NaN success, and 2^24 + 1 rounds passed
@pytest.mark.parametrize("sigma, delta, rounds, error", [
    (0.3, 2.0, 17, InputError), (0.3, 5.0, 17, InputError), (0.3, 0.1, -1, InputError),
    (0.3, 0.0, 17, InputError), (0.3, np.nan, 17, InputError), (0.3, 1.0, 17, InputError),
    (0.0, 0.1, 17, InputError), (1.5, 0.1, 17, InputError), (np.nan, 0.1, 17, InputError),
    (0.3, 0.1, 16, InputError), (0.3, 0.1, 0, InputError), (0.3, 0.1, 17.0, InputError),
    (1e-7, 0.1, MAX_ROUNDS + 1, DegreeOverflowError),
])
def test_plan_checks_its_own_fields(sigma, delta, rounds, error):
    with pytest.raises(error) as info:
        AmplificationPlan(sigma, delta, rounds)
    if error is DegreeOverflowError:
        assert info.value.needed == MAX_ROUNDS + 1


def test_plan_arrays_are_read_only():
    plan = plan_amplification(0.3, 0.1)
    angles = plan.phases.phases.copy()
    with pytest.raises(ValueError):
        plan.phases.phases[0] = 0.0
    again = plan_amplification(0.3, 0.1)
    np.testing.assert_array_equal(again.phases.phases, angles)


def engine_success(sigma, plan):
    amplitude, _ = amplify_state(sigma, plan)
    return abs(amplitude) ** 2


class Captured(Exception):
    pass


@pytest.mark.parametrize("n", range(3, 21))
def test_predicted_success_equals_the_engine_on_search_cases(monkeypatch, n):
    # the sigma and plan grover_case(n, 2^n - 3, 0.1, 0.05) amplifies, up to
    # n = 20 (L = 9915)
    captured = []

    def capture(sigma, plan):
        captured.append((sigma, plan))
        raise Captured

    monkeypatch.setattr(pipeline, "amplify_state", capture)
    with pytest.raises(Captured):
        grover_case(n, 2**n - 3, 0.1, 0.05)
    sigma, plan = captured[0]
    assert type(sigma) is float
    assert abs(engine_success(sigma, plan) - plan.predicted_success(sigma)) <= 1e-10


@pytest.mark.parametrize(
    "sigma, plan",
    [(1.0, plan_amplification(1.0, 0.5)), (0.0, plan_amplification(0.3, 0.1))],
    ids=["sigma-one", "sigma-zero"],
)
def test_amplify_state_at_the_ends_of_the_band(sigma, plan):
    # all of C|Psi> is flagged, or none of it: one of the two directions the
    # amplification rotates between is missing, and the flagged direction
    # keeps all of the state or none of it; at sigma = 0 an odd L gives
    # M_00(0) = 0 exactly
    amplitude, applications = amplify_state(sigma, plan)
    assert np.isfinite(amplitude)
    if sigma == 0.0:
        assert amplitude == 0
    else:
        assert abs(abs(amplitude) - 1.0) <= 1e-12
    assert applications == plan.rounds


def random_plans(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield plan_amplification(10 ** rng.uniform(-3, np.log10(0.5)), 10 ** rng.uniform(-6, np.log10(0.5)))


# random draws, the n = 20 search plan, whose L = 9915 is the largest a
# search table reaches, and two plans at sigma near 1: 3 rounds at (0.95,
# 0.1), where the success sigma^2 of one round misses 1 - delta/2, and one
# round at (1.0, 0.5)
@pytest.mark.parametrize("plan", [*random_plans(12, 31), plan_amplification(0.25 * 2.0**-10, 0.1),
                                  plan_amplification(0.95, 0.1), plan_amplification(1.0, 0.5)],
                         ids=lambda p: f"L{p.rounds}")
def test_success_meets_the_target_across_the_band(plan):
    # L is the least odd count whose band edge tanh(acosh(1 / delta_Y) / L)
    # reaches 0.9 sigma
    edge = lambda rounds: np.tanh(np.arccosh(np.sqrt(2.0 / plan.delta)) / rounds)
    w = edge(plan.rounds)
    assert w <= 0.9 * plan.sigma
    assert plan.rounds == 1 or 0.9 * plan.sigma < edge(plan.rounds - 2)
    # on one index the engine's product is the reflection-convention 2x2
    # product; the success touches 1 - delta/2 wherever T_L = +-1, so the
    # grid may round below it by a few ulps
    grid = np.linspace(0.9 * plan.sigma, 1.0, 401)
    assert (np.abs(reconstruct(plan.phases, grid)) ** 2).min() >= 1 - plan.delta / 2 - 1e-12
    # T_L'(1) = L^2, so the closed form is checked next to the edge as well
    points = np.concatenate([grid, w * (1 + np.array([-1e-4, -1e-6, 0.0, 1e-6, 1e-4]))])
    predicted = [plan.predicted_success(s) for s in points]
    assert np.abs(np.abs(reconstruct(plan.phases, points)) ** 2 - predicted).max() <= 1e-10


def fixed_point_search_success(lam, rounds, delta):
    """|<T| G(alpha_l, beta_l) ... G(alpha_1, beta_1) |s>|^2 in the 2x2 basis (|T>, |T-bar>).

    Yoder, Low & Chuang's iterates G(alpha, beta) = -S_s(alpha) S_t(beta),
    with S_s(alpha) = 1 - (1 - e^{-i alpha})|s><s|, S_t(beta) = 1 -
    (1 - e^{i beta})|T><T| and |s> = sqrt(lam)|T> + sqrt(1 - lam)|T-bar>.
    """
    width = np.tanh(np.arccosh(np.sqrt(2.0 / delta)) / rounds)
    l = (rounds - 1) // 2
    j = np.arange(1, l + 1)
    alpha = 2.0 * np.arctan2(1.0, np.tan(2.0 * np.pi * j / rounds) * width)
    beta = -alpha[::-1]
    s = np.array([np.sqrt(lam), np.sqrt(1.0 - lam)], dtype=complex)
    t = np.array([1.0, 0.0], dtype=complex)
    state = s.copy()
    for a, b in zip(alpha, beta):
        s_s = np.eye(2) - (1.0 - np.exp(-1j * a)) * np.outer(s, s.conj())
        s_t = np.eye(2) - (1.0 - np.exp(1j * b)) * np.outer(t, t.conj())
        state = -s_s @ s_t @ state
    return float(abs(state[0]) ** 2)


@pytest.mark.parametrize("plan", random_plans(10, 47), ids=lambda p: f"L{p.rounds}")
def test_angles_match_the_fixed_point_search_iterates(plan):
    rng = np.random.default_rng(plan.rounds)
    for s in (plan.sigma, *rng.uniform(0.0, 1.0, 3)):
        direct = fixed_point_search_success(s * s, plan.rounds, plan.delta)
        assert abs(engine_success(s, plan) - direct) <= 1e-10
        assert abs(plan.predicted_success(s) - direct) <= 1e-10


@pytest.mark.parametrize("edge", [1e-6, 0.01, 0.3, 0.999])
def test_fixed_point_angles_are_a_zero_and_a_palindrome(edge):
    # the symmetry amplify_state closes its product with: phi_0 = 0 and
    # phi_k = phi_{L-k}, bit for bit, at every odd L up to 201
    for rounds in range(1, 202, 2):
        phi = _fixed_point_phases(rounds, edge).phases
        assert phi.size == rounds and phi[0] == 0.0
        assert phi[1:].tobytes() == phi[1:][::-1].tobytes()


# the search plans at n = 0 .. 20 (L = 11 .. 9915, sigma = 2^-(n/2) / 4)
# and random draws
@pytest.mark.parametrize("plan", [*(plan_amplification(0.25 * 2.0 ** (-n / 2), 0.1) for n in range(21)),
                                  *random_plans(6, 53)], ids=lambda p: f"L{p.rounds}")
def test_amplify_state_equals_the_whole_product(plan):
    # the half loop closed by the palindrome gives the L-factor ansatz
    # product's flagged entry, and counts every factor
    amplitude, applications = amplify_state(plan.sigma, plan)
    a, _, layers = _top_row(plan.phases.phases, np.array([plan.sigma]))
    assert abs(amplitude - a[0]) <= 1e-13
    assert applications == layers == plan.rounds


def test_amplify_state_equals_the_whole_product_at_634469_rounds():
    # the n = 32 search plan of an unscaled arcsin transform, sigma = 2^-16
    # / 4; the L factors e^{i phi} multiplied one by one,
    # in Python complex arithmetic, as the recurrence runs at one point
    plan = plan_amplification(0.25 * 2.0**-16, 0.1)
    assert plan.rounds == 634469
    x = plan.sigma
    s = np.sqrt(1.0 - x * x)
    a, b = 1.0 + 0j, 0j
    for e in np.exp(1j * plan.phases.phases).tolist():
        ec = e.conjugate()
        a, b = a * (e * x) + b * (ec * s), a * (e * s) - b * (ec * x)
    amplitude, applications = amplify_state(x, plan)
    assert abs(amplitude - a) <= 1e-12
    assert applications == plan.rounds


def extended_product(plan, x, dps=40):
    """M_00(x) of the L-factor product, at ``dps`` digits from angles computed at ``dps`` digits."""
    with mp.workdps(dps):
        rounds = plan.rounds
        w = mp.tanh(mp.acosh(mp.sqrt(2 / mp.mpf(plan.delta))) / rounds)
        half = (rounds - 1) // 2
        minus_half_alpha = [mp.atan2(-1, mp.tan(2 * mp.pi * j / rounds) * w) for j in range(1, half + 1)]
        phi = [mp.mpf(0)] * rounds
        phi[1::2] = minus_half_alpha[::-1]
        phi[2::2] = minus_half_alpha
        x = mp.mpf(x)
        s = mp.sqrt(1 - x * x)
        a, b = mp.mpc(1), mp.mpc(0)
        for p in phi:
            e = mp.expj(p)
            ec = mp.conj(e)
            a, b = a * e * x + b * ec * s, a * e * s - b * ec * x
        return complex(a)


def closed_form_angles(plan):
    """The L angles, each atan2(-1, w tan(2 pi j / L)) rounded once to a double.

    ``plan.phases`` takes them from the factors ``amplify_state`` multiplies
    and normalizes them, which can move an angle by an ulp or two.
    """
    rounds = plan.rounds
    j = np.arange(1.0, (rounds - 1) // 2 + 1)
    minus_half_alpha = np.arctan2(-1.0, np.tan(2.0 * np.pi * j / rounds) * plan.band_edge)
    phi = np.zeros(rounds)
    phi[1::2] = minus_half_alpha[::-1]
    phi[2::2] = minus_half_alpha
    return phi


# the search plans at even n up to 16 (L = 11 .. 2479) and two tighter deltas
@pytest.mark.parametrize("plan", [*(plan_amplification(0.25 * 2.0 ** (-n / 2), 0.1) for n in range(0, 17, 2)),
                                  plan_amplification(0.3, 0.01), plan_amplification(0.05, 0.001)],
                         ids=lambda p: f"L{p.rounds}")
def test_amplify_state_is_as_accurate_as_the_whole_product(plan):
    # against a 40-digit product, the half loop errs by at most L 2^-52 / 2,
    # the scale of the whole product's rounding (0.33 of it at most, at L101
    # and L1241, x = 0.9). The whole product in doubles is no reference: its
    # own error moves by more than 1e-15 when an angle moves by an ulp. The
    # plan's own angles agree with the closed form to a few ulps
    assert np.abs(plan.phases.phases - closed_form_angles(plan)).max() <= 4 * np.finfo(float).eps * np.pi
    for x in (plan.sigma, 0.5, 0.9):
        exact = extended_product(plan, x)
        assert abs(amplify_state(x, plan)[0] - exact) <= 0.5 * plan.rounds * 2.0**-52, x


def test_amplify_state_keeps_no_array_of_the_rounds():
    # the n = 24 search plan of an unscaled arcsin transform, whose L
    # factors as a list of Python complex numbers alone would take 1.6 MB
    # (tracing slows the loop some 20-fold, so a larger L would cost seconds)
    plan = plan_amplification(0.25 * 2.0**-12, 0.1)
    tracemalloc.start()
    try:
        amplitude, applications = amplify_state(plan.sigma, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert applications == plan.rounds == 39655
    assert abs(amplitude) ** 2 >= 1 - plan.delta / 2
    assert peak < 2**16


@pytest.mark.parametrize("oracle", [AmplitudeOracle.indicator(12, 5, 8),
                                    AmplitudeOracle(5, 8, np.random.default_rng(7).uniform(0, 1, 32))],
                         ids=["indicator-n12", "random-n5"])
def test_a_run_builds_no_angle_array(monkeypatch, oracle):
    def no_angles(rounds, edge):
        raise AssertionError("angles computed")

    monkeypatch.setattr(amplifier, "_fixed_point_phases", no_angles)
    rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
    assert rep.all_passed, [c.name for c in rep.bound_checks if not c.passed]


def test_amplify_boosts_rank_one_instances():
    rng = np.random.default_rng(10)
    for sigma, delta in ((0.25, 0.1), (0.5, 0.01), (0.7, 0.05)):
        c, s, psi, w = rank_one_instance(rng, n=2, sigma=sigma)
        plan = plan_amplification(sigma, delta)
        u = amplify(c, s, plan)
        flag, _ = build_projectors(2, s)
        evolved = StateVector(u.entries @ psi.amplitudes)
        post, p = project_measure(flag, evolved)
        assert p >= (1 - delta / 2) ** 2
        assert fidelity(post, w) >= 1 - 1e-6
        # success probability equals the polynomial value squared
        assert p == pytest.approx(plan.predicted_success(sigma), abs=1e-10)


def test_amplify_near_perfect_input():
    rng = np.random.default_rng(11)
    c, s, psi, w = rank_one_instance(rng, n=2, sigma=1.0)
    plan = plan_amplification(1.0, 0.1)
    u = amplify(c, s, plan)
    out = u.entries @ psi.amplitudes
    ref = c.entries @ psi.amplitudes
    assert abs(abs(np.vdot(out, ref)) - 1.0) < 1e-10


def test_amplify_dimension_guard():
    rng = np.random.default_rng(12)
    c, s, _, _ = rank_one_instance(rng, n=2, sigma=0.5)
    big_s = hadamard_layer(5)
    plan = plan_amplification(0.5, 0.1)
    with pytest.raises(Exception):
        amplify(c, big_s, plan)


def test_exact_block_postselection_and_amplification():
    # with an ideal generator encoding, post-selecting the flag register on
    # C|00>|+> yields |00>|psi_c> with probability exactly gamma/4; the
    # fixed-point plan at sigma = sqrt(gamma)/2 then boosts it to 1 - delta
    rng = np.random.default_rng(21)
    n = 3
    c_vals = rng.uniform(0.1, 0.9, 2**n)
    g = float(np.mean(c_vals**2))
    h = np.diag(c_vals / 2.0)
    from qsprep.blockenc import reflection_encoding

    inner = reflection_encoding(h)  # one-ancilla dilation of the generator
    dim = 2 ** (n + 2)
    c_mat = np.kron(np.eye(2), inner.unitary.entries)  # pad to two ancillas
    c_unitary = UnitaryMatrix(c_mat)

    s = hadamard_layer(n)
    psi = np.zeros(dim, dtype=complex)
    psi[: 2**n] = s.entries[:, 0]
    flag, _ = build_projectors(n, s)
    post, p = project_measure(flag, StateVector(c_mat @ psi))
    assert p == pytest.approx(g / 4.0, rel=1e-12)
    target = c_vals / np.linalg.norm(c_vals)
    assert abs(np.vdot(post.amplitudes[: 2**n], target)) == pytest.approx(1.0, abs=1e-12)

    delta = 0.1
    plan = plan_amplification(np.sqrt(g) / 2.0, delta)
    u = amplify(c_unitary, s, plan)
    boosted, p_amp = project_measure(flag, StateVector(u.entries @ psi))
    assert p_amp >= 1 - delta
    assert abs(np.vdot(boosted.amplitudes[: 2**n], target)) >= 1 - 1e-8
