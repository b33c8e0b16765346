"""Block encodings: the sine construction, QSVT circuits, and the
Hamiltonian extraction that inverts a diagonal phase unitary.

The pipeline's phase oracle is diagonal, so its generator encoding splits
into one 4x4 block per data index; ``hamiltonian_from_unitary`` builds those
blocks directly, in O(N d) time. The dense functions (``sine_block_encoding``,
``qsvt_circuit``, ``lcu_real_part``, ``extract_block``) build the same
encoding as one unitary and are the reference the blocks are tested against.

Ancilla registers sit in front of the data register, so an encoded matrix is
always the literal top-left block. Projector-controlled phases are applied
directly as matrices on the stated projectors rather than compiled to gate
networks; at desk scale this keeps every identity exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InfeasibleError, InputError
from .phases import PhaseSequence, _prefix_rows, conjugate_phases, find_phases
from .polyapprox import arcsin_taylor, chebyshev_economize, complete_to_complex
from .simulator import (
    Projector,
    RegisterLayout,
    UnitaryMatrix,
    check_dense_size,
    circuit_unitary,
    controlled,
    hadamard,
    pauli_y,
)


@dataclass
class BlockEncoding:
    """A unitary carrying a matrix in its corner block.

    certified_error bounds the distance between the extracted block and the
    matrix the construction aims at; errors compose additively along a
    pipeline except through a singular value transform, where the
    4 d sqrt(eps) robustness rule applies.
    """

    unitary: UnitaryMatrix
    ancillas: int
    proj_left: Projector
    proj_right: Projector
    certified_error: float = 0.0

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
    proj = Projector.ancilla_zero(1, s)
    return BlockEncoding(UnitaryMatrix(u, layout), 1, proj, proj, 0.0)


def sine_block_encoding(u_data: UnitaryMatrix) -> BlockEncoding:
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
    proj = Projector.ancilla_zero(1, n)
    return BlockEncoding(u, 1, proj, proj, 0.0)


def qsvt_circuit(be: BlockEncoding, phi: PhaseSequence, parity: str) -> BlockEncoding:
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
    return BlockEncoding(UnitaryMatrix(acc, be.unitary.layout), be.ancillas, out_left, be.proj_right, err)


def lcu_real_part(be: BlockEncoding, phi: PhaseSequence) -> BlockEncoding:
    """Encode the real-part transform (P + P*)/2 of the encoded matrix.

    Realizes both P (angles phi) and P* (angles -phi) and averages them with
    one extra select ancilla between Hadamards.
    """
    check_dense_size(be.unitary.num_qubits + 1)
    parity = "even" if len(phi) % 2 == 0 else "odd"
    plus = qsvt_circuit(be, phi, parity)
    minus = qsvt_circuit(be, conjugate_phases(phi), parity)
    up, um = plus.unitary.entries, minus.unitary.entries
    half_sum = 0.5 * (up + um)
    half_diff = 0.5 * (up - um)
    u = np.block([[half_sum, half_diff], [half_diff, half_sum]])
    layout = RegisterLayout((("lcu", 1), *be.unitary.layout.registers))
    a = be.ancillas + 1
    proj = Projector.ancilla_zero(a, be.data_qubits)
    return BlockEncoding(UnitaryMatrix(u, layout), a, proj, proj, plus.certified_error)


# Largest data register the per-index engine accepts. A whole
# verify_error_bounds run on a random table (eps 0.05, delta 0.1) peaked at
# 124 MB resident at n = 16, 244 MB at n = 18 and 724 MB at n = 20 (2.5 s
# on a 2-vCPU x86 host); the blocks alone take 256 * 2^n bytes.
ENGINE_MAX_QUBITS = 20


def check_engine_size(n: int) -> None:
    """Raise DimensionError when n data qubits exceed the engine's limit."""
    if n > ENGINE_MAX_QUBITS:
        raise DimensionError(
            f"{n} data qubits exceeds the per-index engine limit {ENGINE_MAX_QUBITS}"
        )


@dataclass
class IndexBlocks:
    """The generator encoding of a diagonal phase oracle, one block per index.

    The sine encoding, the arcsin transform and the real-part combination act
    on each data index x on its own, so the encoding unitary is the direct
    sum of the 4x4 blocks ``blocks[x]``. Their rows and columns are ordered by
    the ancilla pattern (lcu, anc) = 00, 01, 10, 11, as in the dense
    ``lcu_real_part(sine_block_encoding(u), phases)``; the encoded generator
    is diagonal with entries ``blocks[:, 0, 0]``.
    """

    blocks: np.ndarray
    phases: PhaseSequence
    info: dict = field(default_factory=dict)

    ancillas = 2

    @property
    def diagonal(self) -> np.ndarray:
        """The encoded generator's diagonal, the top-left entry of each block."""
        return self.blocks[:, 0, 0]


def _index_blocks(diagonal: np.ndarray, phi: PhaseSequence) -> tuple[np.ndarray, int]:
    """The (N, 4, 4) real-part blocks and the number of transform layers.

    Per index the sine encoding is the Hermitian W = [[s, ic], [-ic, -s]] with
    s = sin(pi h), c = cos(pi h) (so the dense circuit's U and U-dagger
    layers coincide), and a projector phase is e^{i phi Z}, so the transform
    is the 2x2 product of e^{i phi_j Z} W over the angles. With G = diag(1,
    -i sgn c), W = G R(s) G^-1 for the ansatz reflection R, and G commutes
    with e^{i phi Z}: the +phi transform is G M G^-1 for the ansatz product
    M = [[a, b], [-D conj(b), D conj(a)]] at x = s (D = (-1)^d), and the
    -phi transform is G conj(M) G^-1. The layers are counted as the
    ansatz's prefix rows are produced. The blocks are stored index-last,
    so the returned (N, 4, 4) array is a view whose [a, b, x] transpose is
    contiguous.
    """
    sgn = np.where(diagonal.real < 0, -1.0, 1.0)
    for layers, (a, b) in enumerate(_prefix_rows(phi.phases, diagonal.imag)):
        pass
    det = (-1.0) ** layers
    # (acc(phi) + acc(-phi)) / 2 and (acc(phi) - acc(-phi)) / 2
    blocks = np.empty((4, 4, diagonal.size), dtype=complex)
    blocks[:2, :2] = blocks[2:, 2:] = [[a.real, 1j * sgn * b.real],
                                       [1j * sgn * det * b.real, det * a.real]]
    blocks[:2, 2:] = blocks[2:, :2] = [[1j * a.imag, -sgn * b.imag],
                                       [sgn * det * b.imag, -1j * det * a.imag]]
    return blocks.transpose(2, 0, 1), layers


def hamiltonian_from_unitary(diagonal: np.ndarray, epsilon: float, delta: float) -> IndexBlocks:
    """Encoding of H given the diagonal of U = exp(i pi H), via sine + arcsin.

    Requires ||sin(pi H)|| <= 1 - delta so the arcsin approximant's accuracy
    interval covers the spectrum; the encoded generator is then within
    epsilon of H. The result holds one 4x4 block per data index, equal to
    the corresponding block of the dense ``lcu_real_part`` of the sine
    encoding. Records the polynomial degree and the counted transform
    layers; each layer queries the controlled phase unitary and its adjoint,
    shared by both branches of the real-part combination.
    """
    diagonal = np.asarray(diagonal, dtype=complex)
    size = diagonal.size
    if diagonal.ndim != 1 or size < 1 or size & (size - 1):
        raise DimensionError("the oracle diagonal must be a vector of length 2^n")
    check_engine_size(size.bit_length() - 1)
    if np.abs(np.abs(diagonal) - 1.0).max() > 1e-12:
        raise InputError("the oracle diagonal must have unit-modulus entries")
    sine_norm = float(np.abs(diagonal.imag).max())
    if sine_norm > 1.0 - delta:
        raise InfeasibleError(
            f"||sin(pi H)|| = {sine_norm:.6f} exceeds 1 - delta = {1 - delta:.6f}; "
            "rescale the amplitudes (smaller beta) or widen delta"
        )
    # split the budget: most for the Taylor tail, a slice for economization
    pr = arcsin_taylor(0.9 * epsilon, delta)
    pr = chebyshev_economize(pr, 0.05 * epsilon)
    ang = find_phases(complete_to_complex(pr))
    blocks, layers = _index_blocks(diagonal, ang)
    return IndexBlocks(blocks, ang, {"arcsin_degree": len(ang), "cu_calls": layers})
