import numpy as np
import pytest

from qsprep.errors import DimensionError
from qsprep.simulator import (
    Projector,
    StateVector,
    apply,
    circuit_unitary,
    cphase,
    controlled,
    fidelity,
    hadamard,
    op_dist,
    pauli_y,
    project_measure,
    spectral_norm,
    state_dist,
    unitary_gate,
)

RT2 = np.sqrt(2.0)


def test_hadamard_on_zero():
    out = apply(hadamard(0), StateVector.zero_state(1))
    np.testing.assert_allclose(out.amplitudes, [1 / RT2, 1 / RT2], atol=1e-15)


def test_pauli_y_on_zero():
    out = apply(pauli_y(0), StateVector.zero_state(1))
    np.testing.assert_allclose(out.amplitudes, [0, 1j], atol=1e-15)


def test_controlled_phase_acts_only_on_11():
    s = apply(hadamard(1), apply(hadamard(0), StateVector.zero_state(2)))
    out = apply(cphase(0, 1, 0.7), s)
    expected = s.amplitudes.copy()
    expected[3] *= np.exp(0.7j)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_gate_norm_preservation():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    s = StateVector(amps)
    pauli_x = unitary_gate((0,), np.array([[0, 1], [1, 0]]), "X")
    phase = unitary_gate((2,), np.diag([1.0, np.exp(-0.4j)]), "PHASE")
    for gate in (hadamard(2), pauli_x, cphase(1, 3, 1.1), phase):
        s = apply(gate, s)
    assert abs(s.norm() - 1.0) < 1e-12


def test_apply_rejects_bad_targets():
    s = StateVector.zero_state(2)
    with pytest.raises(DimensionError):
        apply(hadamard(2), s)
    with pytest.raises(DimensionError):
        apply(cphase(1, 1, 0.3), s)


def test_project_measure_plus_state():
    s = apply(hadamard(0), StateVector.zero_state(1))
    proj = Projector.from_diag_mask(np.array([True, False]))
    post, p = project_measure(proj, s)
    assert abs(p - 0.5) < 1e-14
    np.testing.assert_allclose(post.amplitudes, [1, 0], atol=1e-14)


def test_project_measure_identity_and_zero():
    s = apply(hadamard(0), StateVector.zero_state(1))
    ident = Projector.from_diag_mask(np.array([True, True]))
    post, p = project_measure(ident, s)
    assert abs(p - 1.0) < 1e-14
    assert state_dist(post, s) < 1e-14
    nothing = Projector.from_diag_mask(np.array([False, False]))
    post0, p0 = project_measure(nothing, s)
    assert p0 == 0.0
    assert post0.norm() == 0.0


def test_circuit_unitary_empty_is_identity():
    u = circuit_unitary([], 2)
    np.testing.assert_allclose(u.entries, np.eye(4), atol=1e-15)


def test_circuit_unitary_hh_is_identity():
    u = circuit_unitary([hadamard(0), hadamard(0)], 1)
    np.testing.assert_allclose(u.entries, np.eye(2), atol=1e-15)


def _random_circuit(rng, q, depth):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 0:
            gates.append(hadamard(int(rng.integers(0, q))))
        elif kind == 1:
            a, b = rng.choice(q, size=2, replace=False)
            gates.append(cphase(int(a), int(b), float(rng.uniform(-np.pi, np.pi))))
        else:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            qmat, _ = np.linalg.qr(m)
            gates.append(unitary_gate((int(rng.integers(0, q)),), qmat))
    return gates


def test_circuit_unitary_matches_sequential_apply():
    rng = np.random.default_rng(23)
    for q in (2, 4, 6, 8):
        gates = _random_circuit(rng, q, 12)
        u = circuit_unitary(gates, q)
        assert u.unitarity_defect() < 1e-10
        amps = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
        amps /= np.linalg.norm(amps)
        s = StateVector(amps)
        seq = s
        for g in gates:
            seq = apply(g, seq)
        np.testing.assert_allclose(u.entries @ amps, seq.amplitudes, atol=1e-12)


def test_controlled_gate_blocks():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    g = controlled(x, 0, (1,))
    u = circuit_unitary([g], 2)
    expected = np.eye(4, dtype=complex)
    expected[2:, 2:] = x
    np.testing.assert_allclose(u.entries, expected, atol=1e-15)


def test_distances():
    s = apply(hadamard(0), StateVector.zero_state(1))
    assert state_dist(s, s) == 0.0
    assert abs(op_dist(np.eye(4), -np.eye(4)) - 2.0) < 1e-12
    z = StateVector.zero_state(1)
    assert abs(fidelity(z, s) - 1 / RT2) < 1e-12


def test_spectral_norm_simple_cases():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    m = np.diag([3.0, -5.0, 1.0]).astype(complex)
    assert abs(spectral_norm(m) - 5.0) < 1e-10
    # top singular vector orthogonal to a fixed vector v (drawn from
    # default_rng(7)): power iteration started at v stalls at 1.0
    rng = np.random.default_rng(7)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    u = np.eye(4)[0] - v * np.conj(v[0])
    u /= np.linalg.norm(u)
    m = 2.0 * np.outer(u, u.conj()) + np.outer(v, v.conj())
    assert spectral_norm(m) == pytest.approx(2.0, rel=1e-12)


def test_projector_validate():
    good = Projector.from_vector(np.array([1.0, 1j]) / RT2)
    good.validate()
    bad = Projector(np.array([[1.0, 0.2], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        bad.validate()


def test_state_norm_guard():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        StateVector(np.ones(3) / 2.0)


def test_circuit_unitary_qubit_limit():
    with pytest.raises(DimensionError):
        circuit_unitary([], 15)
