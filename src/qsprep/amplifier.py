"""Fixed-point amplification of a rank-one encoded singular value.

When a unitary C satisfies C|Psi> = sigma |w> + |garbage> with the garbage
orthogonal to the flagged subspace, the compression between the flag
projector and |Psi><Psi| is the rank-one matrix sigma |w><Psi|. Applying an
odd sign-function polynomial to that singular value through the alternating
phase product pushes the success amplitude to at least 1 - delta/2 using a
number of rounds that scales like (1/sigma) log(1/delta). The construction
is non-unitary-friendly: it never requires C|Psi> to be close to a unitary
image, but it does consume the initial-state preparer S (and its adjoint)
once per round, so the initial state is fixed.

``amplify`` forms the whole amplification unitary and is the dense
reference. The pipeline uses ``amplify_state``, which applies the same
product to |0..0>|+^n> round by round when C is a direct sum of per-index
blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blockenc import BlockEncoding, qsvt_circuit
from .errors import DegreeOverflowError, DimensionError, InputError
from .phases import PhaseSequence, find_phases, phases_from_text, phases_to_text, verify_phases
from .polyapprox import Polynomial, complete_to_complex, evaluate, sign_approx
from .simulator import Projector, UnitaryMatrix

# Smallest singular value a plan accepts; below it the sign degree, roughly
# (2 / sigma) log(16 / delta), is refused before any work is done.
SIGMA_FLOOR = 1e-3


@dataclass(frozen=True)
class AmplificationPlan:
    """Resolved amplification parameters.

    rounds equals the sign polynomial degree and the number of C (and S)
    uses, counting adjoints; it is always odd. ``polynomial`` is the real
    sign target; ``realized`` the completed polynomial the angles implement,
    whose extra imaginary part only raises the success probability.
    """

    sigma: float
    delta: float
    phases: PhaseSequence
    rounds: int
    polynomial: Polynomial
    realized: Polynomial

    def __post_init__(self):
        if not 0 < self.sigma <= 1:
            raise ValueError("sigma must lie in (0, 1]")
        if self.rounds % 2 == 0:
            raise ValueError("rounds must be odd for an odd polynomial")

    def predicted_success(self, sigma: float | None = None) -> float:
        s = self.sigma if sigma is None else sigma
        return float(abs(evaluate(self.realized, s)) ** 2)


def plan_to_text(plan: AmplificationPlan) -> str:
    head = f"{plan.sigma:.17g} {plan.delta:.17g} {plan.rounds}\n"
    return head + phases_to_text(plan.phases)


def plan_from_text(text: str) -> AmplificationPlan:
    """Read a plan; its angles must realize the plan its header describes.

    The header's parameters are re-planned, and the file's angles are checked
    with ``verify_phases`` against the re-planned polynomial, on the grid and
    at the tolerance ``find_phases`` accepts by default. The returned plan
    carries the file's angles; a malformed file or a mismatch raises
    InputError.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    try:
        sigma, delta, rounds = lines[0].split()
        sigma, delta, rounds = float(sigma), float(delta), int(rounds)
    except (IndexError, ValueError) as exc:
        raise InputError(f"plan file needs a header `sigma delta rounds`: {exc}") from exc
    phi = phases_from_text("\n".join(lines[1:]))
    plan = plan_amplification(sigma, delta)
    if plan.rounds != rounds or len(phi) != plan.rounds:
        raise InputError("serialized plan is inconsistent with its parameters")
    check = verify_phases(phi, plan.realized, max(4 * plan.rounds, 32))
    if not check.passed:
        raise InputError(
            f"serialized angles miss the planned polynomial by {check.max_error:.3e}"
        )
    return replace(plan, phases=phi)


def build_projectors(n: int, s_unitary: UnitaryMatrix, ancillas: int = 2) -> tuple[Projector, Projector]:
    """Flag projector |0..0><0..0| (x) 1 and initial-state projector.

    The initial-state projector is |0..0><0..0| (x) S|0^n><0^n|S-dagger;
    extra encoding ancillas are padded with |0><0| factors via the leading
    register convention.
    """
    if s_unitary.num_qubits != n:
        raise DimensionError("S acts on the wrong number of qubits")
    flag = Projector.ancilla_zero(ancillas, n)
    vec = np.zeros(2 ** (ancillas + n), dtype=complex)
    vec[: 2**n] = s_unitary.entries[:, 0]
    init = Projector.from_vector(vec)
    return flag, init


def plan_amplification(sigma: float, delta: float) -> AmplificationPlan:
    """Sign-polynomial plan boosting a singular value >= sigma to 1 - delta/2.

    The sign approximant is built at threshold 0.9 * sigma to tolerate the
    estimation error a quantized amplitude table induces on sigma.
    """
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if sigma < SIGMA_FLOOR:
        est = int(np.ceil(2.0 / sigma * np.log(16.0 / delta)))
        raise DegreeOverflowError(
            f"sigma = {sigma:.2e} below the floor {SIGMA_FLOOR}; the plan would "
            f"need roughly degree {est}",
            needed=est,
        )
    if sigma >= 1.0 - delta / 2.0:
        # the identity polynomial already reaches the target, and degrades
        # continuously, so no threshold margin is needed
        poly = Polynomial(np.array([0.0, 1.0]), basis="chebyshev", parity="odd")
        return AmplificationPlan(sigma, delta, PhaseSequence(np.zeros(1)), 1, poly, poly)
    poly = sign_approx(0.9 * sigma, delta)
    comp = complete_to_complex(poly)
    phi = find_phases(comp)
    return AmplificationPlan(sigma, delta, phi, len(phi), poly, comp)


def amplify(c_unitary: UnitaryMatrix, s_unitary: UnitaryMatrix, plan: AmplificationPlan) -> UnitaryMatrix:
    """The full amplification unitary: alternating phases around C and C+.

    Post-selecting the flag register of the result applied to
    |0..0> S|0^n> succeeds with probability |P(sigma)|^2 and leaves the
    amplified state exactly (up to a global phase) when the compression is
    exactly rank-one.
    """
    n = s_unitary.num_qubits
    ancillas = c_unitary.num_qubits - n
    if ancillas < 1:
        raise DimensionError("C must carry at least one flag qubit")
    flag, init = build_projectors(n, s_unitary, ancillas)
    be = BlockEncoding(c_unitary, ancillas, flag, init)
    out = qsvt_circuit(be, plan.phases, "odd")
    return out.unitary


def amplify_state(blocks: np.ndarray, plan: AmplificationPlan) -> tuple[np.ndarray, int]:
    """``amplify`` applied to |0..0>|+^n>, for C the direct sum of ``blocks``.

    The state is a (K, N) array over the K ancilla patterns and the N data
    indices, and C acts on column x through blocks[x]. The flag phase is a
    row mask (row 0 is the flagged pattern) and the initial-state phase a
    rank-one update along |0..0>|+^n>, so each round costs O(K^2 N) and
    U_amp is never formed. Returns the state and the number of applications
    of C and C-dagger, counted as they are made.
    """
    size, k = blocks.shape[0], blocks.shape[1]
    blocks_t = np.ascontiguousarray(blocks.transpose(1, 2, 0))  # [a, b, x]
    plus = np.full(size, 1.0 / np.sqrt(size))
    state = np.zeros((k, size), dtype=complex)
    state[0] = plus
    applications = 0
    angles = plan.phases.phases
    # factors left to right: flag phase, C, initial-state phase, C-dagger, ...
    for j in range(len(angles) - 1, -1, -1):
        up, down = np.exp(1j * angles[j]), np.exp(-1j * angles[j])
        if j % 2 == 0:  # C, then the flag phase
            state = np.einsum("abx,bx->ax", blocks_t, state)
            state[0] *= up
            state[1:] *= down
        else:  # C-dagger, then the initial-state phase
            # (C^+ v)_a = conj(sum_b C_ba conj(v_b))
            state = np.einsum("bax,bx->ax", blocks_t, state.conj()).conj()
            overlap = plus @ state[0]
            state *= down
            state[0] += (up - down) * overlap * plus
        applications += 1
    return state, applications
