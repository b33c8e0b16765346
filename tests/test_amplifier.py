import numpy as np
import pytest

from qsprep import amplifier, pipeline
from qsprep.amplifier import (
    MAX_ROUNDS,
    amplify,
    amplify_state,
    build_projectors,
    plan_amplification,
)
from qsprep.errors import DegreeOverflowError, InputError
from qsprep.phases import reconstruct
from qsprep.pipeline import grover_case
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
    # the n = 16 search instance plans 2479 rounds, n = 18 4957, n = 24
    # 39655 and n = 32 634469
    plan = plan_amplification(0.25 * 2.0**-8, 0.1)
    assert plan.rounds == 2479
    assert plan.predicted_success() >= 1 - 0.1 / 2
    assert plan_amplification(0.25 * 2.0**-9, 0.1).rounds == 4957
    assert plan_amplification(0.25 * 2.0**-12, 0.1).rounds == 39655
    assert plan_amplification(0.25 * 2.0**-16, 0.1).rounds == 634469
    # a smaller sigma's round count is refused before any angle is computed
    def no_angles(rounds, edge):
        raise AssertionError("angles computed")

    monkeypatch.setattr(amplifier, "_fixed_point_phases", no_angles)
    with pytest.raises(DegreeOverflowError) as exc:
        plan_amplification(2e-6, 0.1)
    assert exc.value.needed == 1210153 > MAX_ROUNDS


@pytest.mark.parametrize("sigma, delta", [(np.nan, 0.1), (0.0, 0.1), (1.5, 0.1),
                                          (0.3, np.nan), (0.3, 0.0), (0.3, 1.0)])
def test_plan_refuses_sigma_or_delta_out_of_range(sigma, delta):
    with pytest.raises(InputError, match="must lie in"):
        plan_amplification(sigma, delta)


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
