"""Fixed-point amplification of a rank-one encoded singular value.

When a unitary C satisfies C|Psi> = sigma |w> + |garbage> with the garbage
orthogonal to the flagged subspace, the compression between the flag
projector and |Psi><Psi| is the rank-one matrix sigma |w><Psi|. The
alternating phase product around C and C-dagger applies an odd polynomial
P of degree L to that singular value, and post-selecting the flag succeeds
with probability |P(sigma)|^2. The plan is the fixed-point search of Yoder,
Low & Chuang (PRL 113, 210501, arXiv:1409.3305), which the QSVT paper uses
as fixed-point amplitude amplification (Gilyen, Su, Low & Wiebe,
arXiv:1806.01838): with delta_Y = sqrt(delta / 2),

    |P(s)|^2 = 1 - delta_Y^2 T_L(T_{1/L}(1 / delta_Y) sqrt(1 - s^2))^2,

which is at least 1 - delta / 2 for every s >= w = sqrt(1 - gamma^2),
gamma^-1 = T_{1/L}(1 / delta_Y). A plan takes the least odd L that puts w
at or below its threshold, about log(2 / delta_Y) / threshold rounds, and
no odd polynomial meets the same guarantee with fewer. The angles are
closed-form, so a plan builds no polynomial and finds no phases. The
construction does not need C|Psi> to be close to a unitary image, but it
consumes the initial-state preparer S (and its adjoint) once per round, so
the initial state is fixed.

``amplify`` forms the whole amplification unitary and is the dense
reference. The pipeline uses ``amplify_state``, which applies the same
product to the initial state given sigma alone. The initial-state
projector is rank one, so by Jordan's lemma the L rounds never leave one
two-dimensional subspace, where C is the reflection R(sigma) and each
projector phase is e^{i phi Z}: the product is the phase ansatz of
``phases`` at the single point sigma, which only multiplies the flagged
direction by one complex number. Post-selecting the flag therefore keeps
the flagged part of C|Psi> normalized, and ``amplify_state`` returns only
that number, in O(L) scalar operations and no array of the state's size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, qsvt_circuit
from .errors import DegreeOverflowError, DimensionError, InputError
from .phases import PhaseSequence, _top_row
from .simulator import Projector, UnitaryMatrix

# Most rounds a plan may take. Search at n = 32 plans 634469 rounds at
# delta = 0.1 and 973153 at delta = 0.01, and at n = 34 1268937, which is
# refused. The angles and the amplification's scalar recurrence cost O(L),
# about 0.4 s at 634469 rounds on a 2-vCPU x86 host, and the limit stops a
# tiny sigma from allocating angles without end.
MAX_ROUNDS = 2**20


def _lift(delta: float) -> float:
    """acosh(1 / delta_Y), which equals L acosh(1 / gamma) for every L."""
    return math.acosh(math.sqrt(2.0 / delta))


@dataclass(frozen=True, slots=True)
class AmplificationPlan:
    """Resolved amplification parameters.

    rounds is the degree L of the fixed-point polynomial and the number of
    C (and S) uses, counting adjoints; it is always odd. ``phases`` are the
    closed-form angles in ``amplify_state``'s order, and ``predicted_success``
    evaluates |P(s)|^2 from delta and L alone.
    """

    sigma: float
    delta: float
    phases: PhaseSequence
    rounds: int

    def __post_init__(self):
        if not 0 < self.sigma <= 1:
            raise ValueError("sigma must lie in (0, 1]")
        if self.rounds % 2 == 0:
            raise ValueError("rounds must be odd for an odd polynomial")

    @property
    def band_edge(self) -> float:
        """w = tanh(acosh(1 / delta_Y) / L): every s >= w succeeds with probability >= 1 - delta / 2."""
        return math.tanh(_lift(self.delta) / self.rounds)

    def predicted_success(self, sigma: float | None = None) -> float:
        """1 - delta_Y^2 T_L(x)^2 at x = sqrt(1 - s^2) / gamma.

        T_L(x) is cos(L theta) for x = cos(theta) <= 1 (s >= w) and
        cosh(L u) for x = cosh(u) > 1. Both angles are read from
        sin(theta) = sqrt(s^2 - w^2) / gamma and sinh(u) =
        sqrt(w^2 - s^2) / gamma, not from x: T_L'(1) = L^2, so rounding x
        alone would cost ~L^2 ulps near the edge of the band.
        """
        s = self.sigma if sigma is None else sigma
        lift = _lift(self.delta) / self.rounds
        w = math.tanh(lift)
        if s >= w:
            theta = math.atan2(math.sqrt((s - w) * (s + w)), math.sqrt((1.0 - s) * (1.0 + s)))
            t = math.cos(self.rounds * theta)
        else:
            t = math.cosh(self.rounds * math.asinh(math.cosh(lift) * math.sqrt((w - s) * (w + s))))
        return float(1.0 - self.delta / 2.0 * t * t)


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
    """Fixed-point plan boosting a singular value >= sigma to 1 - delta/2.

    The band edge w is placed at 0.9 * sigma to tolerate the estimation
    error a quantized amplitude table induces on sigma: L is the least odd
    integer with w = tanh(acosh(1 / delta_Y) / L) <= 0.9 * sigma. Near sigma
    = 1 that can be L = 1, the angle 0 with success sigma^2. An L above
    ``MAX_ROUNDS`` raises DegreeOverflowError with L in ``needed``, before
    any angle is computed.
    """
    if not 0 < sigma <= 1:
        raise InputError("sigma must lie in (0, 1]")
    if not 0 < delta < 1:
        raise InputError("delta must lie in (0, 1)")
    lift = _lift(delta)
    rounds = math.ceil(lift / math.atanh(0.9 * sigma))
    rounds += 1 - rounds % 2
    if rounds > MAX_ROUNDS:
        raise DegreeOverflowError(
            f"fixed-point amplification needs {rounds} rounds (> max {MAX_ROUNDS}) "
            f"for sigma={sigma}, delta={delta}",
            needed=rounds,
        )
    return AmplificationPlan(sigma, delta, _fixed_point_phases(rounds, math.tanh(lift / rounds)), rounds)


def _fixed_point_phases(rounds: int, edge: float) -> PhaseSequence:
    """The Yoder-Low-Chuang angles in ``amplify_state``'s order.

    With l = (L - 1) / 2 and the band edge w, alpha_j = 2 cot^-1(tan(2 pi
    j / L) w) for j = 1 .. l (cot^-1 in (0, pi)) and beta_j =
    -alpha_{l-j+1}; the angles are phi_0 = 0, phi_{2i-1} = -alpha_{l-i+1} / 2
    and phi_{2i} = beta_{l-i+1} / 2 = -alpha_i / 2. Each lies in (-pi, 0], so
    the sequence takes them without normalizing them again.
    """
    j = np.arange(1.0, (rounds - 1) // 2 + 1)
    minus_half_alpha = np.arctan2(-1.0, np.tan(2.0 * np.pi * j / rounds) * edge)
    phi = np.zeros(rounds)
    phi[1::2] = minus_half_alpha[::-1]
    phi[2::2] = minus_half_alpha
    return PhaseSequence._from_normalized(phi)


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


def amplify_state(sigma: float, plan: AmplificationPlan) -> tuple[complex, int]:
    """The factor ``amplify`` puts on the flagged direction of |Psi>, given sigma.

    C|Psi> is sigma |w> + sqrt(1 - sigma^2) |g> with |w> flagged and |g>
    not. The initial-state projector is rank one, so the compression is
    exactly sigma |w><Psi|, and by Jordan's lemma (Gilyen, Su, Low & Wiebe,
    arXiv:1806.01838) the product acts on span{|Psi>, |Psi'>} and span{|w>,
    |g>} alone. In those bases C and C-dagger are the reflection R(sigma)
    and both projector phases are e^{i phi Z}, so the whole product is the
    ansatz M(phases, sigma), whose flagged part is M_00 |w>: the L rounds
    only rescale |w>, so no state is formed. Returns M_00(sigma), with which
    post-selecting the flag succeeds with probability |M_00|^2, and the
    number of applications of C and C-dagger, counted as the recurrence
    yields each layer. At sigma = 0 an odd L gives M_00 = 0 exactly.
    """
    a, _, applications = _top_row(plan.phases.phases, float(sigma))
    return a, applications
