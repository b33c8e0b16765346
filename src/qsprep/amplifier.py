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
that number.

It does so over half the rounds, in O(1) memory. The angles are phi_0 = 0
and a palindrome, phi_k = phi_{L-k}, so ``phases.palindrome_top_left``,
the evaluator the arcsin angles' solver samples through as well, closes
the product from the (L - 1) / 2 factors of its first half; its docstring
derives the closing. ``_fixed_point_factors`` forms each factor from its
closed form as the loop reaches it, and ``_fixed_point_phases`` reads the
same factors for the dense reference, so the formula exists once. The
closing divides by the computed norm of the half's top row, so the
rounding's radial part, which the factors pile up, drops out: against a
40-digit product of the exact angles, the success of a search run at n =
21 (L = 14021) is off by 7e-16, where the whole product in doubles is off
by 1.05e-12.

A plan is a closed-form function of (sigma, delta), and the amplitude of
(sigma, plan), so both are memoized, each on the ``_MEMO_SIZE`` most
recently used keys: a sweep's rows that repeat a (sigma, delta), which
differ only in the marked item or share a table, plan and amplify once.
Both check their inputs before the memo sees them, and a hit returns what
the cold call built, an immutable plan or a (complex, int) pair.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blockenc import _MEMO_SIZE, BlockEncoding, qsvt_circuit
from .errors import DegreeOverflowError, DimensionError, InputError
from .oracle import _is_real
from .phases import PhaseSequence, palindrome_top_left
from .simulator import Projector, UnitaryMatrix

# Most rounds a plan may take. Search at delta = 0.1 plans 317235 rounds at
# n = 32, 5075743 at n = 40 and 10151485 at n = 42, which fits; from n = 43
# the value-bit budget refuses it first, and n = 42 at delta = 0.001 needs
# 20941105 rounds, which are refused. ``amplify_state`` costs O(L) time and
# O(1) memory, 5 to 6 s at 12689357 rounds on a 2-vCPU x86 host, so the
# limit bounds the time a tiny sigma may ask for.
MAX_ROUNDS = 2**24


def _check_band(sigma: float, delta: float) -> None:
    """InputError unless sigma is a real number in (0, 1] and delta one in (0, 1); a NaN fails both."""
    if not (_is_real(sigma) and 0 < sigma <= 1):
        raise InputError(f"sigma must lie in (0, 1], got {sigma!r}")
    if not (_is_real(delta) and 0 < delta < 1):
        raise InputError(f"delta must lie in (0, 1), got {delta!r}")


def _lift(delta: float) -> float:
    """acosh(1 / delta_Y), which equals L acosh(1 / gamma) for every L."""
    return math.acosh(math.sqrt(2.0 / delta))


@dataclass(frozen=True, slots=True)
class AmplificationPlan:
    """Resolved amplification parameters.

    rounds is the degree L of the fixed-point polynomial and the number of
    C (and S) uses, counting adjoints; it is always odd. A plan holds no
    angles: ``phases`` builds the L closed-form angles in the ansatz order on
    each read, for the dense reference ``amplify`` and the tests, while
    ``amplify_state`` forms their factors as its loop reaches them.
    ``predicted_success`` evaluates |P(s)|^2 from delta and L alone.
    A plan checks its fields as ``plan_amplification`` checks its inputs:
    sigma in (0, 1] and delta in (0, 1) or InputError, rounds a positive
    odd int or InputError, and at most ``MAX_ROUNDS`` or
    DegreeOverflowError.
    """

    sigma: float
    delta: float
    rounds: int

    def __post_init__(self):
        _check_band(self.sigma, self.delta)
        if not (isinstance(self.rounds, int) and self.rounds > 0 and self.rounds % 2 == 1):
            raise InputError(f"rounds must be a positive odd integer, not {self.rounds!r}")
        if self.rounds > MAX_ROUNDS:
            raise DegreeOverflowError(
                f"fixed-point amplification needs {self.rounds} rounds (> max {MAX_ROUNDS}) "
                f"for sigma={self.sigma}, delta={self.delta}",
                needed=self.rounds,
            )

    @property
    def phases(self) -> PhaseSequence:
        """The L angles, phi_0 = 0 first; built on each read, and read by no preparation."""
        return _fixed_point_phases(self.rounds, self.band_edge)

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
    ``MAX_ROUNDS`` raises DegreeOverflowError with L in ``needed``, or 2^53,
    a lower bound, when L is past what a double counts exactly (it is
    infinite from sigma ~ 1e-308 on). No angle is computed. A sigma or a
    delta that is not a real number in its range raises InputError before
    the memo sees it; the plan holds both as Python floats.
    """
    _check_band(sigma, delta)
    return _plan(float(sigma), float(delta))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _plan(sigma: float, delta: float) -> AmplificationPlan:
    rounds = _lift(delta) / math.atanh(0.9 * sigma)
    if not rounds <= 2**53:
        raise DegreeOverflowError(f"fixed-point amplification needs more than 2^53 rounds (> max {MAX_ROUNDS}) "
                                  f"for sigma={sigma:.3e}, delta={delta}", needed=2**53)
    rounds = math.ceil(rounds)
    return AmplificationPlan(sigma, delta, rounds + 1 - rounds % 2)


def _fixed_point_factors(rounds: int, edge: float):
    """Yield e^{i phi_k}, k = 1 .. (L - 1) / 2: the first half of the Yoder-Low-Chuang angles.

    With h = (L - 1) / 2 and the band edge w, alpha_j = 2 cot^-1(tan(2 pi
    j / L) w) for j = 1 .. h (cot^-1 in (0, pi)) and beta_j =
    -alpha_{h-j+1}; the angles are phi_0 = 0, phi_{2i-1} = -alpha_{h-i+1} /
    2 and phi_{2i} = beta_{h-i+1} / 2 = -alpha_i / 2, so phi_k = phi_{L-k}.
    Factor k = 2i - 1 takes j = h - i + 1 and k = 2i takes j = i, as
    e^{i phi} = (t - i) / hypot(t, 1) with t = w tan(2 pi j / L): phi =
    atan2(-1, t) lies in (-pi, 0), and neither atan2 nor exp is called.
    """
    half = (rounds - 1) // 2
    turn = 2.0 * math.pi
    tan, hypot = math.tan, math.hypot  # local names: a lookup less per factor
    for k in range(1, half + 1):
        j = half - k // 2 if k % 2 else k // 2
        t = tan(turn * j / rounds) * edge
        norm = hypot(t, 1.0)
        # the bits of complex(t, -1.0) / norm, without a complex division
        yield complex(t / norm, -1.0 / norm)


def _fixed_point_phases(rounds: int, edge: float) -> PhaseSequence:
    """The L angles in the ansatz order: phi_0 = 0, then ``_fixed_point_factors``' half and its mirror."""
    half = np.angle(np.fromiter(_fixed_point_factors(rounds, edge), complex, (rounds - 1) // 2))
    return PhaseSequence(np.concatenate(([0.0], half, half[::-1])))


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
    number of applications of C and C-dagger.

    The angles are a zero and a palindrome, so ``phases.palindrome_top_left``
    closes the product from the (L - 1) / 2 factors of its first half,
    which ``_fixed_point_factors`` forms one by one from their closed form:
    no angle array and no list of factors is kept. Its count is L. At sigma
    = 0 an odd L gives M_00 = 0 exactly. A sigma that is not a real number,
    or a plan that is not an ``AmplificationPlan``, raises InputError before
    the memo sees it.
    """
    if not isinstance(plan, AmplificationPlan):
        raise InputError(f"plan must be an AmplificationPlan, got {type(plan).__name__}")
    if not _is_real(sigma):
        raise InputError(f"sigma must be a real number, got {sigma!r}")
    return _amplified(float(sigma), plan)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _amplified(sigma: float, plan: AmplificationPlan) -> tuple[complex, int]:
    return palindrome_top_left(_fixed_point_factors(plan.rounds, plan.band_edge), sigma)
