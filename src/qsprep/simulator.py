"""Dense statevector and unitary simulation.

Everything is exact linear algebra on complex128 arrays. Measurement is
deterministic projection with a tracked probability. All values are
immutable: operations return new objects, so concurrent reads are safe.
States and unitaries carry no register layout: the qubit count follows from
the array's size.

Conventions: qubit 0 is the most significant bit. Control/ancilla qubits
are placed before data qubits, which makes an encoded block the literal
top-left block of a unitary.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import DimensionError

# Largest register the dense reference simulates: a 2^q x 2^q complex
# matrix takes 2^(2q + 4) bytes, 4 GiB at q = 14.
MAX_QUBITS = 14

_H = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _qubits(dim: int) -> int:
    """q for a dimension 2^q; any other dimension raises DimensionError."""
    if dim < 1 or dim & (dim - 1):
        raise DimensionError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector of length 2^q.

    Sub-normalized states are allowed (projection residues); norms above 1
    are rejected.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=complex))
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1:
            raise DimensionError(f"amplitudes must form a vector, got shape {amps.shape}")
        _qubits(amps.size)
        n2 = float(np.vdot(amps, amps).real)
        if n2 > 1 + 1e-9:
            raise ValueError(f"squared norm {n2} exceeds 1")

    @property
    def num_qubits(self) -> int:
        return _qubits(self.amplitudes.size)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def basis_state(cls, num_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def zero_state(cls, num_qubits: int) -> "StateVector":
        return cls.basis_state(num_qubits, 0)


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense 2^q x 2^q matrix.

    Unitarity is not enforced at construction (cubic cost); call
    :func:`unitarity_defect` where the invariant matters.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.entries, dtype=complex))
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"matrix of shape {m.shape} is not square")
        _qubits(m.shape[0])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def num_qubits(self) -> int:
        return _qubits(self.dim)

    def unitarity_defect(self) -> float:
        gram = self.entries.conj().T @ self.entries
        gram[np.diag_indices_from(gram)] -= 1.0
        return spectral_norm(gram)


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix, optionally with fast-apply structure.

    kind "diag" carries a boolean mask over basis states, kind "rank1" a unit
    vector; "dense" falls back to matrix products.
    """

    matrix: np.ndarray
    rank: int
    kind: str = "dense"
    mask: np.ndarray | None = field(default=None, compare=False)
    vector: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def from_diag_mask(cls, mask: np.ndarray) -> "Projector":
        mask = np.asarray(mask, dtype=bool)
        return cls(np.diag(mask.astype(complex)), int(mask.sum()), "diag", mask=mask)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Projector":
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), 1, "rank1", vector=v)

    @classmethod
    def ancilla_zero(cls, ancillas: int, data_qubits: int) -> "Projector":
        """|0..0><0..0| on the leading ancilla register, identity on the rest."""
        dim = 2 ** (ancillas + data_qubits)
        mask = np.arange(dim) < 2 ** data_qubits
        return cls.from_diag_mask(mask)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise ValueError("projector is not Hermitian")
        if np.max(np.abs(m @ m - m)) > tol:
            raise ValueError("projector is not idempotent")

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "diag":
            return np.where(self.mask, v, 0.0)
        if self.kind == "rank1":
            return self.vector * np.vdot(self.vector, v)
        return self.matrix @ v

    def right(self, m: np.ndarray) -> np.ndarray:
        """Return m @ P."""
        if self.kind == "diag":
            out = np.zeros_like(m)
            out[:, self.mask] = m[:, self.mask]
            return out
        if self.kind == "rank1":
            return np.outer(m @ self.vector, self.vector.conj())
        return m @ self.matrix


@dataclass(frozen=True)
class GateSpec:
    """A named k-local gate: a 2^k x 2^k matrix acting on the listed qubits."""

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray


def hadamard(q: int) -> GateSpec:
    return GateSpec("H", (q,), _H)


def pauli_y(q: int) -> GateSpec:
    return GateSpec("Y", (q,), _Y)


def cphase(control: int, target: int, angle: float) -> GateSpec:
    return GateSpec(
        "CPHASE", (control, target), np.diag([1.0, 1.0, 1.0, np.exp(1j * angle)])
    )


def unitary_gate(qubits: tuple[int, ...], matrix: np.ndarray, name: str = "U") -> GateSpec:
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise DimensionError(f"gate matrix shape {matrix.shape} does not act on {k} qubits")
    return GateSpec(name, qubits, matrix)


def controlled(matrix: np.ndarray, control: int, targets: tuple[int, ...], name: str = "cU") -> GateSpec:
    """Controlled-U with the control as the leading (most significant) gate qubit."""
    matrix = np.asarray(matrix, dtype=complex)
    k = len(targets)
    dim = 2**k
    if matrix.shape != (dim, dim):
        raise DimensionError(f"target matrix shape {matrix.shape} does not act on {k} qubits")
    big = np.eye(2 * dim, dtype=complex)
    big[dim:, dim:] = matrix
    return GateSpec(name, (control, *targets), big)


def _apply_gate_array(arr: np.ndarray, gate: GateSpec, q: int) -> np.ndarray:
    """Apply a gate to an array whose first q axes are qubit axes.

    Trailing axes (e.g. the column axis of a matrix) are carried along.
    """
    k = len(gate.qubits)
    for t in gate.qubits:
        if not 0 <= t < q:
            raise DimensionError(f"gate {gate.name} targets qubit {t} outside 0..{q - 1}")
    if len(set(gate.qubits)) != k:
        raise DimensionError(f"gate {gate.name} repeats a target qubit")
    op = gate.matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(op, arr, axes=(tuple(range(k, 2 * k)), gate.qubits))
    return np.moveaxis(moved, tuple(range(k)), gate.qubits)


def apply(gate: GateSpec, state: StateVector) -> StateVector:
    """Apply one gate; preserves the norm to machine precision."""
    q = state.num_qubits
    psi = state.amplitudes.reshape((2,) * q)
    psi = _apply_gate_array(psi, gate, q)
    return StateVector(psi.reshape(-1))


def check_dense_size(q: int) -> None:
    """Raise DimensionError before a dense matrix on q qubits is allocated."""
    if q > MAX_QUBITS:
        raise DimensionError(f"{q} qubits exceeds the dense simulator limit {MAX_QUBITS}")


def circuit_unitary(gates: list[GateSpec], num_qubits: int) -> UnitaryMatrix:
    """Exact dense product of the gate matrices, in application order."""
    check_dense_size(num_qubits)
    dim = 2**num_qubits
    u = np.eye(dim, dtype=complex).reshape((2,) * num_qubits + (dim,))
    for g in gates:
        u = _apply_gate_array(u, g, num_qubits)
    return UnitaryMatrix(u.reshape(dim, dim))


def project_measure(proj: Projector, state: StateVector) -> tuple[StateVector, float]:
    """Deterministic post-selection onto range(P) with its success probability.

    Probabilities below 1e-28 return the empty (all-zero) state and 0.0.
    """
    if proj.dim != state.dim:
        raise DimensionError("projector dimension does not match state")
    pv = proj.apply_vec(state.amplitudes)
    nrm = float(np.linalg.norm(pv))
    if nrm < 1e-14:
        return StateVector(np.zeros_like(pv)), 0.0
    return StateVector(pv / nrm), nrm**2


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, exact (from the singular value decomposition)."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def state_dist(a: StateVector, b: StateVector) -> float:
    """Euclidean distance between amplitude vectors."""
    if a.dim != b.dim:
        raise DimensionError("states have different dimensions")
    return float(np.linalg.norm(a.amplitudes - b.amplitudes))


def op_dist(a: np.ndarray | UnitaryMatrix, b: np.ndarray | UnitaryMatrix) -> float:
    """Spectral-norm distance between operators."""
    ma = a.entries if isinstance(a, UnitaryMatrix) else np.asarray(a, dtype=complex)
    mb = b.entries if isinstance(b, UnitaryMatrix) else np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise DimensionError("operators have different shapes")
    return spectral_norm(ma - mb)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Overlap magnitude |<a|b>|."""
    if a.dim != b.dim:
        raise DimensionError("states have different dimensions")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
