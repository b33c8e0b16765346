"""Block encodings: the sine construction, QSVT circuits, and the
Hamiltonian extraction that inverts a phase unitary.

Ancilla registers sit in front of the data register, so an encoded matrix is
always the literal top-left block. Projector-controlled phases are applied
directly as matrices on the stated projectors rather than compiled to gate
networks; at desk scale this keeps every identity exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionError, InfeasibleError
from .phases import PhaseSequence, conjugate_phases, find_phases
from .polyapprox import Polynomial, arcsin_taylor, chebyshev_economize, complete_to_complex, evaluate
from .simulator import (
    Projector,
    RegisterLayout,
    UnitaryMatrix,
    circuit_unitary,
    controlled,
    hadamard,
    pauli_y,
)


@dataclass
class BlockEncoding:
    """A unitary carrying a matrix in its corner block.

    certified_error bounds the distance between the extracted block and the
    intended matrix (when one is attached); errors compose additively along
    a pipeline except through a singular value transform, where the
    4 d sqrt(eps) robustness rule applies.
    """

    unitary: UnitaryMatrix
    ancillas: int
    proj_left: Projector
    proj_right: Projector
    certified_error: float = 0.0
    scale: float = 1.0
    intended: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    @property
    def data_qubits(self) -> int:
        return self.unitary.num_qubits - self.ancillas

    @property
    def data_dim(self) -> int:
        return 2**self.data_qubits


def extract_block(be: BlockEncoding) -> np.ndarray:
    """The compressed block, restricted to the data space.

    With ancillas in front and the standard |0..0> projectors this is the
    literal top-left data_dim x data_dim block.
    """
    dd = be.data_dim
    return be.unitary.entries[:dd, :dd].copy()


def _ancilla_projectors(ancillas: int, data_qubits: int) -> Projector:
    return Projector.ancilla_zero(ancillas, data_qubits)


def reflection_encoding(a: np.ndarray) -> BlockEncoding:
    """One-ancilla encoding [[A, B], [B, -A]] of a Hermitian A with ||A|| <= 1."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("expected a square matrix")
    if np.max(np.abs(a - a.conj().T)) > 1e-12:
        raise ValueError("reflection encoding requires a Hermitian matrix")
    evals, vecs = np.linalg.eigh(a)
    if np.abs(evals).max() > 1.0 + 1e-12:
        raise InfeasibleError("matrix norm exceeds 1; rescale before encoding")
    comp = vecs @ np.diag(np.sqrt(np.clip(1.0 - evals**2, 0.0, None))) @ vecs.conj().T
    u = np.block([[a, comp], [comp, -a]])
    s = int(np.log2(a.shape[0])) if a.shape[0] > 1 else 0
    if 2**s != a.shape[0]:
        raise DimensionError("matrix dimension must be a power of two")
    layout = RegisterLayout((("anc", 1), ("data", s)))
    proj = _ancilla_projectors(1, s)
    return BlockEncoding(UnitaryMatrix(u, layout), 1, proj, proj, 0.0, intended=a.copy())


def sine_block_encoding(u_data: UnitaryMatrix, hamiltonian: np.ndarray | None = None) -> BlockEncoding:
    """Exact one-ancilla encoding of sin(pi H) for U = exp(i pi H).

    The circuit is Hadamard, controlled-U, Y, controlled-U dagger, Hadamard
    on the ancilla; its top-left block equals sin(pi H) to machine precision.
    """
    n = u_data.num_qubits
    layout = RegisterLayout((("anc", 1), ("data", n)))
    data_qubits = tuple(range(1, n + 1))
    gates = [
        hadamard(0),
        controlled(u_data.entries, 0, data_qubits, name="cU"),
        pauli_y(0),
        controlled(u_data.entries.conj().T, 0, data_qubits, name="cU+"),
        hadamard(0),
    ]
    u = circuit_unitary(gates, layout)
    if hamiltonian is None:
        hamiltonian = principal_hamiltonian(u_data)
    evals, vecs = np.linalg.eigh(hamiltonian)
    intended = vecs @ np.diag(np.sin(np.pi * evals)) @ vecs.conj().T
    proj = _ancilla_projectors(1, n)
    be = BlockEncoding(u, 1, proj, proj, 0.0, intended=intended)
    be.info["hamiltonian"] = np.asarray(hamiltonian)
    return be


def principal_hamiltonian(u_data: UnitaryMatrix) -> np.ndarray:
    """H with U = exp(i pi H) and eigenphases in (-pi, pi]."""
    ent = u_data.entries
    off = np.abs(ent - np.diag(np.diag(ent))).max()
    if off < 1e-13:
        return np.diag(np.angle(np.diag(ent)) / np.pi)
    logm = scipy.linalg.logm(ent)
    return np.asarray(logm / (1j * np.pi))


def qsvt_circuit(
    be: BlockEncoding,
    phi: PhaseSequence,
    parity: str,
    polynomial: Polynomial | None = None,
) -> BlockEncoding:
    """Alternating-phase product realizing a singular value transform.

    Odd parity interleaves left- and right-projector phases around U and its
    adjoint starting and ending with U; even parity pairs U-adjoint then U.
    The extracted block equals the transform of the encoded matrix exactly
    when the input encoding is exact, and to within 4 d sqrt(eps) when the
    input block carries error eps.
    """
    d = len(phi)
    if d < 1:
        raise ValueError("need at least one angle")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if (d % 2 == 0) != (parity == "even"):
        raise DimensionError(f"parity {parity} does not match {d} angles")
    u = be.unitary.entries
    ud = u.conj().T
    left, right = be.proj_left, be.proj_right
    angles = phi.phases

    # walk the factor list left to right, accumulating the matrix product
    acc = None

    def push(mat):
        nonlocal acc
        acc = mat.copy() if acc is None else acc @ mat

    def push_phase(proj, ang):
        nonlocal acc
        if acc is None:
            pm = proj.matrix
            acc = np.exp(-1j * ang) * (np.eye(u.shape[0], dtype=complex) - pm) + np.exp(1j * ang) * pm
        else:
            pa = proj.right(acc)  # acc @ P via the projector's structure
            acc = np.exp(-1j * ang) * (acc - pa) + np.exp(1j * ang) * pa

    if parity == "odd":
        for j in range(d):
            push_phase(left if j % 2 == 0 else right, angles[j])
            push(u if j % 2 == 0 else ud)
    else:
        for j in range(d):
            push_phase(right if j % 2 == 0 else left, angles[j])
            push(ud if j % 2 == 0 else u)

    out_left = left if parity == "odd" else right
    err = 4.0 * d * np.sqrt(be.certified_error) if be.certified_error > 0 else 1e-10
    intended = None
    if be.intended is not None and polynomial is not None:
        evals, vecs = np.linalg.eigh(be.intended)
        intended = vecs @ np.diag(evaluate(polynomial, evals)) @ vecs.conj().T
    out = BlockEncoding(
        UnitaryMatrix(acc, be.unitary.layout),
        be.ancillas,
        out_left,
        be.proj_right,
        err,
        intended=intended,
    )
    out.info["degree"] = d
    return out


def lcu_real_part(
    be: BlockEncoding, phi: PhaseSequence, polynomial: Polynomial | None = None
) -> BlockEncoding:
    """Encode the real-part transform (P + P*)/2 of the encoded matrix.

    Realizes both P (angles phi) and P* (angles -phi) and averages them with
    one extra select ancilla between Hadamards.
    """
    parity = "even" if len(phi) % 2 == 0 else "odd"
    plus = qsvt_circuit(be, phi, parity, polynomial)
    minus = qsvt_circuit(be, conjugate_phases(phi), parity)
    up, um = plus.unitary.entries, minus.unitary.entries
    half_sum = 0.5 * (up + um)
    half_diff = 0.5 * (up - um)
    u = np.block([[half_sum, half_diff], [half_diff, half_sum]])
    layout = RegisterLayout((("lcu", 1), *be.unitary.layout.registers))
    a = be.ancillas + 1
    proj = _ancilla_projectors(a, be.data_qubits)
    intended = None
    if plus.intended is not None:
        intended = 0.5 * (plus.intended + plus.intended.conj().T)
    out = BlockEncoding(UnitaryMatrix(u, layout), a, proj, proj, plus.certified_error, intended=intended)
    out.info["degree"] = len(phi)
    return out


def hamiltonian_from_unitary(
    u_data: UnitaryMatrix,
    epsilon: float,
    delta: float,
    hamiltonian: np.ndarray | None = None,
    max_degree: int = 10_000,
    seed: int = 11,
) -> BlockEncoding:
    """Two-ancilla encoding of H given U = exp(i pi H), via sine + arcsin.

    Requires ||sin(pi H)|| <= 1 - delta so the arcsin approximant's accuracy
    interval covers the spectrum; the extracted block is then within epsilon
    of H. Records the polynomial degree, which is also the count of
    controlled-U queries per use in the stated accounting (each transform
    layer queries the controlled phase unitary once).
    """
    if hamiltonian is None:
        hamiltonian = principal_hamiltonian(u_data)
    evals = np.linalg.eigvalsh(hamiltonian)
    sine_norm = float(np.abs(np.sin(np.pi * evals)).max())
    if sine_norm > 1.0 - delta:
        raise InfeasibleError(
            f"||sin(pi H)|| = {sine_norm:.6f} exceeds 1 - delta = {1 - delta:.6f}; "
            "rescale the amplitudes (smaller beta) or widen delta"
        )
    # split the budget: most for the Taylor tail, a slice for economization
    pr = arcsin_taylor(0.9 * epsilon, delta, max_degree=max_degree)
    pr = chebyshev_economize(pr, 0.05 * epsilon)
    comp = complete_to_complex(pr, max_degree=max_degree)
    ang = find_phases(comp, seed=seed)
    be = sine_block_encoding(u_data, hamiltonian=hamiltonian)
    out = lcu_real_part(be, ang, polynomial=comp)
    out.intended = np.asarray(hamiltonian)
    out.certified_error = epsilon
    out.info.update(
        {
            "arcsin_degree": len(ang),
            "taylor_degree": pr.meta.get("economized_from", pr.degree),
            "cu_calls": len(ang),
            "delta_margin": delta,
        }
    )
    return out
