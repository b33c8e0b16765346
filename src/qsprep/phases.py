"""Phase sequences for the reflection-convention signal-processing ansatz.

The ansatz is the 2x2 product

    M(Phi, x) = e^{i phi_1 Z} R(x) * e^{i phi_2 Z} R(x) * ... * e^{i phi_d Z} R(x)

with R(x) = [[x, s], [s, -x]], s = sqrt(1 - x^2). Its top-left entry is a
degree-d polynomial of parity d mod 2. Every factor is unitary with
determinant -1, so the top row (a, b) of a k-factor prefix fixes the whole
prefix as [[a, b], [-D conj(b), D conj(a)]] with D = (-1)^k. One top-row
recurrence, ``_prefix_rows``, therefore gives the reconstruction, the
Jacobian of the least-squares polish, the Chebyshev series of Re a
(``_real_part``, kept per angle set by ``PhaseSequence.real_part``) from which
``blockenc._level_diagonal`` sums the engine's encoded generator at each
distinct oracle entry, and the whole fixed-point amplification, which is
this product at x = sigma (``amplifier.amplify_state``).

``find_phases`` inverts the map by layer stripping (peel phi_d off the
leading coefficients, reduce the degree, repeat) in double precision. Each
level is a few slice operations on raw Chebyshev coefficient arrays
(``_factor.mulx`` and ``_factor.mul_one_minus_x2``), the same code for
complex arrays and for the mpmath.mpc object arrays of extended precision.
Every strip peels all d - 1 levels. A candidate is scored once: one
reconstruction on the max(4d, 32) Chebyshev-node grid yields both its
global-phase correction and its max residual. Only when stripping
raises, or its residual or truncated coefficient mass shows lost digits,
is it repeated in extended precision at ``_factor.strip_dps`` digits,
once per source of Q; if the best candidate still misses, one
Levenberg-Marquardt least-squares run on the same nodes polishes it. The
start is fixed, as in the optimization-based phase finding of Dong, Lin,
Ni & Wang (arXiv:2002.11649), so nothing is random; scipy's solver can
still end in different last digits from one process to the next (its
result follows the Python hash seed and the BLAS thread count), and scipy
is imported only when a polish runs. Each escalation is logged at DEBUG
level on the ``qsprep.phases`` logger.

The pipeline's real targets get their angles from ``real_target_phases``, a
fixed-point iteration on Re a alone; completion, stripping, extended
precision and the polish serve ``qsprep phases`` and complex targets.

Note on conventions: other codebases often parameterize the ansatz with the
x-rotation W(x) instead of the reflection R(x); the two differ by a pi/2
shift of the interior phases and fixed boundary offsets. Everything here but
``real_target_phases`` (a W-form iteration) is native to the reflection form.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
import mpmath as mp

from . import _factor
from ._factor import mul_one_minus_x2, mulx
from .errors import (
    CompletionError,
    ConditionError,
    DegreeOverflowError,
    InputError,
    PhaseFindingError,
)
from .polyapprox import (
    MAX_DEGREE,
    Polynomial,
    _check_qsp_conditions,
    evaluate,
    lobatto_coefficients,
)

log = logging.getLogger(__name__)

TOL = 1e-7  # largest reconstruction residual find_phases accepts
# most steps of real_target_phases; an arcsin target reaches its floor in 15-21
_MAX_STEPS = 100


def _normalize_angles(phis: np.ndarray) -> np.ndarray:
    out = np.mod(np.asarray(phis, dtype=float) + np.pi, 2 * np.pi) - np.pi
    out[out == -np.pi] = np.pi  # exact ties at -pi map to +pi
    return out


@dataclass(frozen=True)
class PhaseSequence:
    """Angles (phi_1 .. phi_d), each normalized into (-pi, pi]; read-only."""

    phases: np.ndarray

    def __post_init__(self):
        phases = _normalize_angles(np.atleast_1d(self.phases))
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)

    @classmethod
    def _from_normalized(cls, phases: np.ndarray) -> "PhaseSequence":
        """Take a float array already in (-pi, pi] as it is, without normalizing it again."""
        phases.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "phases", phases)
        return out

    def __len__(self) -> int:
        return self.phases.size

    @functools.cached_property
    def real_part(self) -> tuple[np.ndarray, int]:
        """``_real_part`` of the angles, built on first read and kept with them."""
        return _real_part(self.phases)

    def __iter__(self):
        return iter(self.phases)


def _real_part(phases: np.ndarray) -> tuple[np.ndarray, int]:
    """Chebyshev coefficients of Re a for raw angles, and the layers that sampled it.

    One ``_top_row`` pass samples Re a on the (d + 2)-point Lobatto grid,
    where a degree-d series is exact, and ``lobatto_coefficients`` turns the
    samples into coefficients. The grid points are taken as sines, exact at
    the ends and symmetric about 0. The coefficients are read-only.
    """
    n = phases.size + 2
    xs = np.sin(np.pi * np.arange(n - 1, -n, -2) / (2 * (n - 1)))
    a, _, layers = _top_row(phases, xs)
    coefficients = lobatto_coefficients(a.real)
    coefficients.flags.writeable = False
    return coefficients, layers


def phases_to_text(phi: PhaseSequence) -> str:
    return "\n".join(f"{p:.17g}" for p in phi.phases) + "\n"


def phases_from_text(text: str) -> PhaseSequence:
    """Parse ``phases_to_text`` output; a line that is not one finite angle raises InputError."""
    vals = []
    for k, ln in enumerate(text.splitlines(), 1):
        if not ln.strip():
            continue
        try:
            val = float(ln)
        except ValueError:
            val = np.nan
        if not np.isfinite(val):
            raise InputError(f"line {k} is not a finite angle: {ln.strip()!r}")
        vals.append(val)
    return PhaseSequence(np.asarray(vals))


def _nodes(grid: int) -> np.ndarray:
    return np.cos(np.pi * (np.arange(grid) + 0.5) / grid)


def _prefix_rows(phases: np.ndarray, xs):
    """Yield the top rows (a_k, b_k) of the prefix products F_1 ... F_k, k = 0 .. d.

    F_j = e^{i phi_j Z} R(x). ``xs`` is either an array of points, and each
    row is then a pair of arrays over them, or one float, and each row is
    then a pair of Python complex numbers: at a single point the recurrence
    costs a few scalar operations per angle instead of a few array calls.
    The factors e^{i phi_j} are computed once for all angles.
    """
    es = np.exp(1j * phases).tolist()
    if isinstance(xs, float):
        xs = float(xs)
        ss = math.sqrt(max(1.0 - xs * xs, 0.0))
        a, b = 1.0 + 0j, 0j
    else:
        ss = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
        a = np.ones(xs.size, dtype=complex)
        b = np.zeros_like(a)
    yield a, b
    for e in es:
        ec = e.conjugate()
        a, b = a * (e * xs) + b * (ec * ss), a * (e * ss) - b * (ec * xs)
        yield a, b


def _top_row(phases: np.ndarray, xs):
    """Top row (a, b) of the whole product and its number of layers, keeping only the running prefix."""
    for layers, (a, b) in enumerate(_prefix_rows(phases, xs)):
        pass
    return a, b, layers


def reconstruct(phi: PhaseSequence, x):
    """Top-left entry of the ansatz product; vectorized over x."""
    if np.ndim(x):
        return _top_row(phi.phases, np.asarray(x, dtype=float))[0]
    return _top_row(phi.phases, float(x))[0]


def conjugate_phases(phi: PhaseSequence) -> PhaseSequence:
    """Negated angles; they generate the conjugate-coefficient polynomial."""
    return PhaseSequence(-phi.phases)


def polynomial_from_phases(phi: PhaseSequence) -> Polynomial:
    """Exact Chebyshev coefficients of the polynomial the angles realize."""
    p = np.array([1.0 + 0j])
    q = np.array([0.0 + 0j])
    one_minus_x2 = np.array([0.5, 0.0, -0.5])
    for ang in phi.phases:
        e = np.exp(1j * ang)
        p_new = cheb.chebadd(e * cheb.chebmulx(p), np.conj(e) * cheb.chebmul(one_minus_x2, q))
        q_new = cheb.chebsub(e * p, np.conj(e) * cheb.chebmulx(q))
        p, q = p_new, q_new
    d = len(phi)
    out = np.zeros(d + 1, dtype=complex)
    out[: len(p)] = p[: d + 1]
    parity = "even" if d % 2 == 0 else "odd"
    off = 1 if parity == "even" else 0
    out[off::2] = 0.0
    return Polynomial(out, parity)


# ---------------------------------------------------------------------------
# layer stripping
# ---------------------------------------------------------------------------

def _leading_phase_factor(p_top, q_top, level: int):
    """Unimodular ratio aligning the complementary series with P at one level."""
    kappa = 0.5 if level >= 2 else 1.0
    lam = p_top / (q_top * kappa)
    mag = abs(lam)
    if not 0.5 < mag < 2.0:
        raise PhaseFindingError(
            f"leading coefficients are inconsistent (|ratio| = {mag:.3e})"
        )
    return lam / mag


def _strip(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Peel angles off a (P, Q) Chebyshev pair.

    The pair (P of length d + 1, Q of length d) is either complex arrays
    (double precision) or object arrays of mpmath.mpc (the current
    ``mp.dps``); both run through the same raw-array products ``mulx`` and
    ``mul_one_minus_x2``. Q is first aligned with P by a unimodular factor.
    Returns (angles, worst relative coefficient mass dropped by truncation);
    the latter is the degradation monitor for the fallback decision.

    All d - 1 levels are peeled, d down to 2, and phi_1 is read off the
    degree-1 remainder; ``_align`` then corrects it for the global phase.
    When Q has one phase, as every completion of a real target has
    (``_factor.complete_real``), B = R e^{i phi_2 Z} R ... e^{i phi_d Z} R
    is symmetric; reversing phi_2 .. phi_d transposes B, and stripping is
    unique, so those angles come out a palindrome.
    """
    exact = p.dtype == object
    arg, expj = (mp.arg, mp.expj) if exact else (np.angle, lambda t: np.exp(1j * t))
    d = len(p) - 1
    q = q * _leading_phase_factor(p[d], q[d - 1], d)
    phis = np.zeros(d)
    worst_drop = 0.0
    for k in range(d, 1, -1):
        # p has degree k and q degree k - 1: a has k + 2 terms, b has k + 1
        a_full = mulx(p) + mul_one_minus_x2(q)
        b_full = p - mulx(q)
        scale = max(np.abs(a_full).max(), np.abs(b_full).max(), 1e-300)
        dropped = max(np.abs(a_full[k:]).max(initial=0.0), np.abs(b_full[k:]).max(initial=0.0))
        worst_drop = max(worst_drop, float(dropped / scale))
        # degree-deficient intermediates leave dust at the top; scan down to
        # the joint leading index where the pair actually lives
        j = k - 1
        while j >= 1 and max(abs(a_full[j]), abs(b_full[j - 1])) < 1e-11 * scale:
            j -= 2
        if j < 1:
            raise PhaseFindingError(
                f"degenerate leading coefficients while stripping at degree {k}"
            )
        a_top, b_top = a_full[j], b_full[j - 1]
        kappa = 0.5 if j >= 2 else 1.0
        phi = arg(a_top / (b_top * kappa)) / 2
        phis[k - 1] = float(phi)
        e = expj(phi)
        p = a_full[:k] / e
        q = b_full[: k - 1] * e
    phis[0] = float(arg(p[1]))
    return phis, worst_drop


def _align(phis: np.ndarray, xs: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Absorb a global phase of the realized polynomial into phi_1.

    Prepending e^{i a Z} multiplies the top-left entry by e^{i a}, so a
    uniform phase mismatch (including a sign flip, and the ill-conditioned
    rotation mode a completion can carry) is corrected exactly. The same
    factor turns the reconstructed values, so one reconstruction on the
    residual grid gives the corrected angles and their max residual.
    """
    got = _top_row(phis, xs)[0]
    overlap = np.vdot(got, target)
    if abs(overlap) > 1e-12:
        phis = phis.copy()
        phis[0] += np.angle(overlap)
        got = got * (overlap / abs(overlap))
    return phis, float(np.abs(got - target).max())


def _residual(phis: np.ndarray, xs: np.ndarray, target: np.ndarray) -> float:
    return float(np.abs(_top_row(phis, xs)[0] - target).max())


def _polish(phi0: np.ndarray, xs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """One Levenberg-Marquardt least-squares run from phi0 on Chebyshev nodes.

    With (a_j, b_j) the top row and D_j = (-1)^j the determinant of the
    j-factor prefix, the derivative of the top-left entry P in phi_{j+1} is
    i (|a_j|^2 - |b_j|^2) P - 2i D_j a_j b_j M_10, M_10 = -(-1)^d conj(M_01).
    """
    from scipy.optimize import least_squares  # 0.3-0.4 s to import, and rarely reached

    d = len(phi0)
    det = (-1.0) ** np.arange(d + 1)[:, None]

    def resid(phis):
        r = _top_row(phis, xs)[0] - target
        return np.concatenate([r.real, r.imag])

    def jac(phis):
        a, b = map(np.array, zip(*_prefix_rows(phis, xs)))
        top, m10 = a[-1], -det[d] * np.conj(b[-1])
        a, b = a[:-1], b[:-1]
        cols = 1j * (np.abs(a) ** 2 - np.abs(b) ** 2) * top - 2j * det[:-1] * a * b * m10
        return np.concatenate([cols.real, cols.imag], axis=1).T

    # at 400 evaluations the run stalls just above 1e-7 on some hint-less
    # polynomials of degree 26-37 that it solves given more steps
    return least_squares(resid, phi0, jac=jac, method="lm", max_nfev=2000).x


def _strip_extended(c: np.ndarray, q_comp, xs: np.ndarray, target: np.ndarray, trigger: str):
    """Extended-precision stripping at ``_factor.strip_dps`` digits.

    Q is the completion's (``q_comp``) first when there is one, then
    ``_factor.complementary_q`` of P at the same digits. More digits buy
    nothing: on hint-less random-angle polynomials up to degree 160,
    attempts at 1.7 and 2.89 times as many digits reach the same residual
    as the first. Returns (angles, residual) of the last attempt that did
    not raise (None when every attempt raised); stops once the residual
    meets ``TOL``.
    """
    d = len(c) - 1
    dps, found = _factor.strip_dps(d), None
    # completions produce the stable (inside-disk) factor, for which
    # double-precision consistency suffices
    sources = [None] if q_comp is None else [q_comp, None]  # None: Q from P
    for attempt, q_source in enumerate(sources, 1):
        log.debug("degree %d: extended precision, attempt %d at %d digits, after %s",
                  d, attempt, dps, trigger)
        try:
            with mp.workdps(dps):
                p = _factor.to_mp(c)
                q = _factor.complementary_q(p) if q_source is None else _factor.to_mp(q_source)
                phis = _strip(p, q)[0]
        except (PhaseFindingError, CompletionError) as exc:
            trigger = f"{type(exc).__name__}: {exc}"
        else:
            found = _align(phis, xs, target)
            if found[1] <= TOL:
                break
            trigger = f"residual {found[1]:.3e}"
    return found


def _completion_q(c: np.ndarray):
    """Q of the completion of Re P when that completion is P, else None.

    The completion of a real P_R is unique and computed deterministically
    (``_factor.complete_real``), so the Q recomputed here by FFT is the one
    ``complete_to_complex`` found, whether P comes from it in this process
    or from a file. It is used when the recomputed P_I matches Im P to 1e-9.
    """
    try:
        p_i, q = _factor.complete_real(c.real)
    except CompletionError:
        return None
    if not np.abs(p_i - c.imag).max() <= 1e-9:
        return None
    return q.astype(complex)


def find_phases(p: Polynomial) -> PhaseSequence:
    """Angles whose ansatz product realizes the polynomial.

    ``p`` is a complex polynomial meeting the realizability conditions
    (checked at tolerance 1e-8 before solving; violations raise
    ConditionError). The reconstruction residual on a Chebyshev grid of
    max(4 * degree, 32) points must meet ``TOL``.

    Stripping needs the complementary series Q. It is the completion's when
    Re P completes to P (``_completion_q``), and is computed from P alone
    otherwise (``_factor.complementary_q``).

    The route is fixed. Strip in double precision; if that raises, drops
    coefficient mass above 1e-10 or leaves a residual above 1e-9, strip in
    extended precision at ``_factor.strip_dps`` digits (with the
    completion's Q, then with Q computed from P); if the best candidate
    still exceeds that residual, polish it once by least squares (from
    zeros when no stripping produced angles). The candidate with the smallest residual is returned.

    A degree above ``MAX_DEGREE`` raises DegreeOverflowError, with the
    degree in ``needed``, before any grid is built. Raises
    PhaseFindingError with the residual when no route reaches ``TOL``.
    """
    d = p.degree
    if d > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {d} exceeds max {MAX_DEGREE}", needed=d)
    _check_qsp_conditions(p)
    if d == 0:
        val = complex(p.coefficients[0])
        if not abs(val - 1.0) <= 1e-8:
            raise ConditionError("only the constant 1 is realizable with zero angles")
        return PhaseSequence(np.zeros(0))
    c = p.coefficients[: d + 1].copy()
    xs = _nodes(max(4 * d, 32))
    target = np.asarray(evaluate(p, xs), dtype=complex)

    # recomputing Q from P alone is possible but maximally ill-conditioned
    # (all roots double)
    q_comp = _completion_q(c)

    good = 1e-9
    candidates: list[tuple[np.ndarray, float]] = []  # (angles, residual)
    try:
        q = q_comp if q_comp is not None else _factor.complementary_q(c)
        phis, drop = _strip(c, q)
        candidates.append(_align(phis, xs, target))
        res = candidates[-1][1]
        # more than ~6 digits lost in truncation: distrust the result
        degraded = not (res <= good and drop <= 1e-10)
        trigger = f"residual {res:.3e}, dropped mass {drop:.3e}"
    except (PhaseFindingError, CompletionError) as exc:
        degraded, trigger = True, f"{type(exc).__name__}: {exc}"
    if degraded:
        found = _strip_extended(c, q_comp, xs, target, trigger)
        if found is not None:
            candidates.append(found)

    best, best_res = None, np.inf
    for phis, r in candidates:
        if r < best_res:
            best, best_res = phis, r

    if best_res > good:
        log.debug("degree %d: least-squares polish of the best candidate, after residual %.3e",
                  d, best_res)
        phis = _polish(best if best is not None else np.zeros(d), xs, target)
        r = _residual(phis, xs, target)
        if r < best_res:
            best, best_res = phis, r

    if best is None or best_res > TOL:
        raise PhaseFindingError(
            f"phase finding did not converge (residual {best_res:.3e} > {TOL})",
            residual=best_res,
        )
    return PhaseSequence(best)


def real_target_phases(c: np.ndarray) -> PhaseSequence:
    """Angles whose ansatz has Re a = the odd real series c; c[k] multiplies T_k.

    The fixed-point iteration of Dong, Lin, Ni & Wang (arXiv:2209.10162) on
    their symmetric W-form angles r, here phi_1 = 2 r_0 and phi_{j+1} =
    phi_{d-j+1} = r_j - pi/2: r <- r - (F(r) - c) / 2 from r = 0, F(r) the
    T_d, T_{d-2}, .., T_1 coefficients of Re a (one ``_real_part``). It
    converges for sum |c| <= 0.861 (arcsin targets: at most 1/2); Re a is
    even in r, so the opposite step only negates the iterates. It runs while
    the l1 miss sum |F - c| falls, to the rounding floor of the angles
    (doubles near +-pi/2), and returns those of the least miss; a least miss
    above max(1e-14, d 2^-52), the floor's growth past d ~ 150, raises
    PhaseFindingError.
    """
    d = c.size - 1
    target, r, phis, least = c[d::-2], np.zeros((d + 1) // 2), np.empty(d), np.inf
    for step in range(1, _MAX_STEPS + 1):
        phis[0] = 2 * r[0]
        phis[1 : (d + 1) // 2] = r[1:] - np.pi / 2
        phis[(d + 1) // 2 :] = phis[(d - 1) // 2 : 0 : -1]
        angles = _normalize_angles(phis)
        miss = _real_part(angles)[0][d::-2] - target
        l1 = float(np.abs(miss).sum())
        if not l1 < least:
            break
        least, best = l1, angles
        r -= miss / 2
    if least <= max(1e-14, d * 2.0**-52):
        return PhaseSequence._from_normalized(best)
    raise PhaseFindingError(f"no convergence: l1 miss {least:.3e} after {step} steps", residual=least)
