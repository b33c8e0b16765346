import numpy as np
import pytest

from qsprep.amplifier import (
    amplify,
    build_projectors,
    plan_amplification,
    plan_from_text,
    plan_to_text,
)
from qsprep.errors import DegreeOverflowError, InputError
from qsprep.polyapprox import evaluate
from qsprep.simulator import (
    RegisterLayout,
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
    return UnitaryMatrix(m.astype(complex), RegisterLayout.single(n))


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
    layout = RegisterLayout((("flag", ancillas), ("data", n)))
    return UnitaryMatrix(c, layout), s, StateVector(psi, layout), StateVector(w_full, layout)


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
    plan = plan_amplification(1.0, 0.1)
    assert plan.rounds == 1
    assert plan.predicted_success() == pytest.approx(1.0)


def test_plan_values_at_half():
    plan = plan_amplification(0.5, 0.01)
    assert evaluate(plan.polynomial, 0.5).real >= 0.995
    assert plan.rounds % 2 == 1


def test_plan_rounds_scale_linearly_in_inverse_sigma():
    sigmas = (0.05, 0.08, 0.125, 0.2, 0.35)
    rounds = np.array([plan_amplification(s, 0.1).rounds for s in sigmas], dtype=float)
    inv = 1.0 / np.array(sigmas)
    slope, offset = np.polyfit(inv, rounds, 1)
    fitted = slope * inv + offset
    assert np.abs(fitted - rounds).max() / rounds.max() < 0.2


def test_plan_sigma_floor():
    with pytest.raises(DegreeOverflowError):
        plan_amplification(1e-4, 0.1)


def test_amplify_boosts_rank_one_instances():
    rng = np.random.default_rng(10)
    for sigma, delta in ((0.25, 0.1), (0.5, 0.01), (0.7, 0.05)):
        c, s, psi, w = rank_one_instance(rng, n=2, sigma=sigma)
        plan = plan_amplification(sigma, delta)
        u = amplify(c, s, plan)
        flag, _ = build_projectors(2, s)
        evolved = StateVector(u.entries @ psi.amplitudes, psi.layout)
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


def test_plan_serialization_round_trip():
    plan = plan_amplification(0.4, 0.05)
    text = plan_to_text(plan)
    back = plan_from_text(text)
    assert back.rounds == plan.rounds
    np.testing.assert_allclose(back.phases.phases, plan.phases.phases, atol=0)
    header = text.splitlines()[0].split()
    assert float(header[0]) == plan.sigma and int(header[2]) == plan.rounds
    # the file's angles are what the plan carries, once they check out
    lines = text.splitlines()
    lines[1] = f"{plan.phases.phases[0] + 1e-10:.17g}"
    nudged = plan_from_text("\n".join(lines) + "\n")
    assert abs(nudged.phases.phases[0] - (plan.phases.phases[0] + 1e-10)) < 1e-14
    lines[1] = "0.123"
    with pytest.raises(InputError):
        plan_from_text("\n".join(lines) + "\n")


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
    layout = RegisterLayout((("flag", 2), ("data", n)))
    c_unitary = UnitaryMatrix(c_mat, layout)

    s = hadamard_layer(n)
    psi = np.zeros(dim, dtype=complex)
    psi[: 2**n] = s.entries[:, 0]
    flag, _ = build_projectors(n, s)
    post, p = project_measure(flag, StateVector(c_mat @ psi, layout))
    assert p == pytest.approx(g / 4.0, rel=1e-12)
    target = c_vals / np.linalg.norm(c_vals)
    assert abs(np.vdot(post.amplitudes[: 2**n], target)) == pytest.approx(1.0, abs=1e-12)

    delta = 0.1
    plan = plan_amplification(np.sqrt(g) / 2.0, delta)
    u = amplify(c_unitary, s, plan)
    boosted, p_amp = project_measure(flag, StateVector(u.entries @ psi, layout))
    assert p_amp >= 1 - delta
    assert abs(np.vdot(boosted.amplitudes[: 2**n], target)) >= 1 - 1e-8
