"""Block encodings: the sine construction, QSVT circuits, and the
Hamiltonian extraction that inverts a diagonal phase unitary.

The pipeline's phase oracle is diagonal, so its generator encoding splits
into one 4x4 block per data index, and the block of an index depends only
on the oracle's diagonal entry there. Post-selecting the flag keeps only
the encoded generator, which is diagonal and real, and its entry at a
level is one fixed real polynomial of the angles, Re P, at the level's
sine. So ``hamiltonian_from_unitary`` takes the sines of the K distinct
entries, one real each, and computes one real per entry: the series of Re
P that ``real_target_phases`` returns with the angles is kept with them in
the one angle memo (``_phases_at_cut``) and summed at the K sines in O(K
d) time and O(K) memory. The dense functions
(``sine_block_encoding``, ``qsvt_circuit``, ``lcu_real_part``,
``extract_block``) build the same encoding as one unitary and are the
reference the entries are tested against.

P is G times the arcsin target (``polyapprox.arcsin_target``), so the
encoded generator is G H: the larger flagged amplitude saves amplification
rounds. G is the cut's: ``ARCSIN_GAIN`` = 2, or less where that would take
the target's sup past ``polyapprox.REAL_TARGET_SUP`` = 0.95. This module
alone picks it; callers read it from the encoding's
``info["arcsin_gain"]``. The target is economized on the sines' interval
[-(1 - delta), 1 - delta] alone, since outside it the transform only needs
|P| <= 1. That halves its degree, and so the oracle calls, against a target
economized on all of [-1, 1]. A target is fixed by its cut (Taylor degree,
kept length) and delta, so both its angles and the encodings built from
them are memoized on the cut, not on epsilon. The cut is asked for in the
units of arcsin / pi, whatever G, and the encoding misses G H by at most G
times it. The angles are found in extended precision and their series is
summed in double, which misses the scaled target by at most G
``polyapprox.ARCSIN_ROUNDING`` = G 2^-52; the cut leaves exactly that much
of epsilon to the rounding, and an epsilon under 2^-51 is refused. Of the
rest it spends 0.95 on the dropped t-tail, which sets the degree, and 0.05
on the Taylor tail, whose terms the economization drops again.

Ancilla registers sit in front of the data register, so an encoded matrix is
always the literal top-left block. Projector-controlled phases are applied
directly as matrices on the stated projectors rather than compiled to gate
networks; at desk scale this keeps every identity exact.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import oracle
from .errors import DimensionError, InfeasibleError, InputError
from .phases import PhaseSequence, conjugate_phases, real_target_phases
from .polyapprox import REAL_TARGET_SUP, _arcsin_cut, _arcsin_target, _target_l1
from .simulator import (
    Projector,
    UnitaryMatrix,
    check_dense_size,
    circuit_unitary,
    controlled,
    hadamard,
    pauli_y,
)

# Most gain on the arcsin transform: the phase solver gets G arcsin(y) / pi,
# so the encoded generator, and the flagged amplitude the amplification
# reads, is G times larger, and the fixed-point plan needs about 1 / G the
# rounds. QSP asks only |G p| <= 1 on [-1, 1]; an arcsin target's
# coefficients are non-negative, so its sup is its Chebyshev l1 norm, and a
# cut takes G = min(ARCSIN_GAIN, ``polyapprox.REAL_TARGET_SUP`` / l1). That
# l1 approaches arcsin(1) / pi = 1/2 as delta falls; at the pipeline's
# margin it is at most 0.465, so every cut there takes the whole cap. A
# higher cap (G up to 2.44 at that margin) cuts more rounds but leaves the
# amplification less room: at G = 2.3 the least success over the
# benchmark's sweep inputs fell from 0.961 to 0.932
ARCSIN_GAIN = 2.0


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
    # a dimension that is not a power of two raises DimensionError here
    u = UnitaryMatrix(np.block([[a, comp], [comp, -a]]))
    proj = Projector.ancilla_zero(1, u.num_qubits - 1)
    return BlockEncoding(u, 1, proj, proj, 0.0)


def sine_block_encoding(u_data: UnitaryMatrix) -> BlockEncoding:
    """Exact one-ancilla encoding of sin(pi H) for U = exp(i pi H).

    The circuit is Hadamard, controlled-U, Y, controlled-U dagger, Hadamard
    on the ancilla; its top-left block equals sin(pi H) to machine precision.
    """
    n = u_data.num_qubits
    data_qubits = tuple(range(1, n + 1))
    gates = [
        hadamard(0),
        controlled(u_data.entries, 0, data_qubits, name="cU"),
        pauli_y(0),
        controlled(u_data.entries.conj().T, 0, data_qubits, name="cU+"),
        hadamard(0),
    ]
    u = circuit_unitary(gates, n + 1)  # the ancilla, then the data
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
    return BlockEncoding(UnitaryMatrix(acc), be.ancillas, out_left, be.proj_right, err)


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
    # the select ancilla leads, in front of the encoding's own qubits
    u = np.block([[half_sum, half_diff], [half_diff, half_sum]])
    a = be.ancillas + 1
    proj = Projector.ancilla_zero(a, be.data_qubits)
    return BlockEncoding(UnitaryMatrix(u), a, proj, proj, plus.certified_error)


@dataclass(frozen=True)
class LevelEncoding:
    """The generator encoding of a diagonal phase oracle, one entry per level.

    The sine encoding, the arcsin transform and the real-part combination act
    on each data index x on its own, so the encoding unitary is the direct
    sum of 4x4 blocks, and the block of x depends only on the oracle's
    diagonal entry at x. ``diagonal[k]`` is the flagged entry, ancilla
    pattern (lcu, anc) = 00, of column 0 of the block of the k-th distinct
    entry (level), as in the dense ``lcu_real_part(sine_block_encoding(u),
    phases)``: the only entry post-selecting the flag keeps. It is
    read-only, since every caller with the same levels shares it.
    """

    diagonal: np.ndarray
    phases: PhaseSequence
    info: Mapping


def _level_diagonal(sines: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Each level's encoded generator entry, summed from the odd Chebyshev series of Re a.

    Per level the sine encoding is the Hermitian W = [[s, ic], [-ic, -s]] with
    s = sin(pi h), c = cos(pi h) (so the dense circuit's U and U-dagger
    layers coincide), and a projector phase is e^{i phi Z}, so the transform
    is the 2x2 product of e^{i phi_j Z} W over the angles. W is the ansatz
    reflection R(s) conjugated by diag(1, -i sgn c), which commutes with
    e^{i phi Z} and leaves the top-left entry alone: the +phi transform has
    the ansatz's a at x = s there, the -phi transform conj(a), and the
    real-part combination (a + conj(a)) / 2 = Re a, one fixed real
    polynomial of the angles. Its Chebyshev series is the one
    ``real_target_phases`` returns for the unrounded angles it found. The
    arcsin target is odd, so its angles are odd in number and the series
    is odd, c_1 T_1 + c_3 T_3 + ..., and since T_{2j+1}(x) =
    x (U_j(y) - U_{j-1}(y)) at y = 2x^2 - 1, Re a(x) = x sum_j g_j U_j(y)
    with g_j = c_{2j+1} - c_{2j+3}, summed by Clenshaw's recurrence in
    (d + 1) / 2 steps of O(K) memory.
    """
    odd = series[1::2]
    g = (odd - np.append(odd[1:], 0.0)).tolist()
    x = sines
    two_y = 4.0 * x * x - 2.0
    b1, b2 = g[-1], 0.0
    for gj in g[-2::-1]:
        b1, b2 = two_y * b1 - b2 + gj, b1
    return x * b1


def hamiltonian_from_unitary(sines: np.ndarray, epsilon: float, delta: float) -> LevelEncoding:
    """Encoding of H given the sines of the distinct diagonal entries of U = exp(i pi H).

    ``sines`` are sin(pi h), 8 bytes each, at the distinct entries e^{i pi
    h} the oracle takes, each listed once (listing one twice only repeats
    its entry); the caller maps every data index to its level. The flagged
    entry of a level's block depends on its entry through the sine alone.
    A sine that is not a real number, a non-finite sine, or one outside
    [-1, 1], raises InputError, and so does an epsilon or a delta that is
    not a real number in (0, 1), before the memo sees it. Requires
    ||sin(pi H)|| <= 1 - delta so the arcsin approximant's accuracy
    interval covers the spectrum, and raises InfeasibleError otherwise; the
    encoded generator is then within G epsilon of G H, G the cut's gain
    (``ARCSIN_GAIN`` at most, in ``info["arcsin_gain"]``): epsilon, like
    the cut it picks, is in the units of arcsin / pi. An
    epsilon under 2^-51, twice the rounding floor the arcsin cut leaves,
    raises InfeasibleError. Its diagonal equals the top-left block's
    diagonal in the dense ``lcu_real_part`` of the sine encoding. Records
    the polynomial degree and the counted transform layers, where each
    layer queries the controlled phase unitary and its adjoint, shared by
    both branches of the real-part combination, and the target's cut
    (Taylor degree, kept length), the Chebyshev l1 norm of the scaled
    target the phase iteration was given and its gain.

    Memoized per process on the exact bytes of the sines, the target's cut
    and delta: epsilon enters only through the cut, which scalar loops find
    before the memo is looked up (``polyapprox._arcsin_cut``, which keeps
    the cuts of the 64 latest budgets), so two epsilons of one cut share an
    encoding. The ``_MEMO_SIZE`` most recently used encodings of at most
    ``_MEMO_MAX_LEVELS`` levels are kept, a hit returns the read-only result
    a cold call built, and exceptions are not cached. An encoding of more
    levels is built afresh on every call, and no key is made for it; its
    angles still come from the one angle memo, ``_phases_at_cut``, keyed on
    the same cut.
    """
    sines = oracle._real_array(sines, "the oracle's level sines")
    if sines.ndim != 1 or sines.size < 1:
        raise DimensionError("the oracle's level sines must be a non-empty vector")
    if sines.size > 2**oracle.MAX_TABLE_QUBITS:
        raise DimensionError(
            f"{sines.size} levels exceed the table limit of {2**oracle.MAX_TABLE_QUBITS} indices"
        )
    # written so that a NaN fails it, and before the memo sees the key
    real = oracle._is_real(epsilon) and oracle._is_real(delta)
    if not (real and 0 < epsilon < 1 and 0 < delta < 1):
        raise InputError(f"epsilon and delta must lie in (0, 1), got {epsilon!r} and {delta!r}")
    epsilon, delta = float(epsilon), float(delta)
    degree, keep = _arcsin_cut(epsilon, delta)
    if sines.size > _MEMO_MAX_LEVELS:
        return _encode(sines, degree, keep, delta)
    return _encoding(sines.tobytes(), degree, keep, delta)


# distinct encodings, and distinct arcsin cuts, whose results stay memoized
_MEMO_SIZE = 64
# Most levels of an encoding the memo keeps. An entry holds 16 bytes per
# level (the 8-byte key and the 8-byte diagonal), so the memo holds at most
# _MEMO_SIZE * 16 * 2^12 bytes, 4 MiB. Search tables have 2 levels, and a
# uniform-random table at the m a run derives for epsilon >= 0.01 (m <= 12)
# at most 2^12; one at n = 20 and m = 30 has ~2^20 levels, 16 MB, and is
# not kept.
_MEMO_MAX_LEVELS = 2**12


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _encoding(key: bytes, degree: int, keep: int, delta: float) -> LevelEncoding:
    return _encode(np.frombuffer(key), degree, keep, delta)


def _encode(sines: np.ndarray, degree: int, keep: int, delta: float) -> LevelEncoding:
    # one pass for both guards, written so that a NaN fails the first
    sine_norm = float(max(sines.max(), -sines.min()))
    if not sine_norm <= 1.0:
        raise InputError("the oracle's level sines must be finite and lie in [-1, 1]")
    if sine_norm > 1.0 - delta:
        raise InfeasibleError(
            f"||sin(pi H)|| = {sine_norm:.6f} exceeds 1 - delta = {1 - delta:.6f}; "
            "rescale the amplitudes or widen delta"
        )
    ang, series, layers, l1, gain = _phases_at_cut(degree, keep, delta)
    diagonal = _level_diagonal(sines, series)
    diagonal.flags.writeable = False
    info = MappingProxyType({"arcsin_degree": len(ang), "cu_calls": layers,
                             "arcsin_cut": (degree, keep), "arcsin_l1": l1,
                             "arcsin_gain": gain})
    return LevelEncoding(diagonal, ang, info)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _phases_at_cut(degree: int, keep: int, delta: float) -> tuple[PhaseSequence, np.ndarray, int, float, float]:
    # the one angle memo: the angles, their read-only series of Re a and the
    # layers that sampled it (``real_target_phases``), the l1 norm of the
    # scaled target the iteration is given and the gain, at least 1, since
    # an unscaled target above REAL_TARGET_SUP is refused; real_target_phases
    # is a module global, so a tracer's wrapper sees every solve
    target = _arcsin_target(degree, keep, delta)
    l1 = _target_l1(target)
    gain = min(ARCSIN_GAIN, REAL_TARGET_SUP / l1)
    return (*real_target_phases(gain * target), gain * l1, gain)
