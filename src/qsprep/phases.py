"""Phase sequences for the reflection-convention signal-processing ansatz.

The ansatz is the 2x2 product

    M(Phi, x) = e^{i phi_1 Z} R(x) * e^{i phi_2 Z} R(x) * ... * e^{i phi_d Z} R(x)

with R(x) = [[x, s], [s, -x]], s = sqrt(1 - x^2). Its top-left entry is a
degree-d polynomial of parity d mod 2. Every factor is unitary with
determinant -1, so the top row (a, b) of a k-factor prefix fixes the whole
prefix as [[a, b], [-D conj(b), D conj(a)]] with D = (-1)^k. One top-row
recurrence therefore gives the reconstruction, the full matrix, the
Jacobian of the least-squares polish and the engine's per-index blocks
(``blockenc._index_blocks``).

``find_phases`` inverts the map by layer stripping (peel phi_d off the
leading coefficients, reduce the degree, repeat) in double precision. Each
level is a few slice operations on raw Chebyshev coefficient arrays
(``_factor.mulx`` and ``_factor.mul_one_minus_x2``), the same code for
complex arrays and for the mpmath.mpc object arrays of extended precision.
A candidate is scored once: one reconstruction on the max(4d, 32)
Chebyshev-node grid yields both its global-phase correction and its max
residual. Only when stripping raises, or its residual or truncated
coefficient mass shows lost digits, is it repeated in extended precision;
if the best candidate still misses, one Levenberg-Marquardt least-squares
run on the same nodes polishes it. The start is fixed, as in the
optimization-based phase finding of Dong, Lin, Ni & Wang (arXiv:2002.11649),
so nothing is random; scipy's solver can still end in different last digits
from one process to the next (its result follows the Python hash seed and
the BLAS thread count). Each escalation is logged at DEBUG level on the
``qsprep.phases`` logger.

Note on conventions: other codebases often parameterize the ansatz with the
x-rotation W(x) instead of the reflection R(x); the two differ by a pi/2
shift of the interior phases and fixed boundary offsets. Everything here is
native to the reflection form, so no shift is ever applied.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
import mpmath as mp
from scipy.optimize import least_squares

from . import _factor
from ._factor import mul_one_minus_x2, mulx
from .errors import CompletionError, ConditionError, InputError, PhaseFindingError
from .polyapprox import (
    Polynomial,
    _check_qsp_conditions,
    evaluate,
    to_chebyshev,
)

log = logging.getLogger(__name__)


def _normalize_angles(phis: np.ndarray) -> np.ndarray:
    out = np.mod(np.asarray(phis, dtype=float) + np.pi, 2 * np.pi) - np.pi
    out[out == -np.pi] = np.pi  # exact ties at -pi map to +pi
    return out


@dataclass(frozen=True)
class PhaseSequence:
    """Angles (phi_1 .. phi_d), each normalized into (-pi, pi]."""

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", _normalize_angles(np.atleast_1d(self.phases)))

    def __len__(self) -> int:
        return self.phases.size

    def __iter__(self):
        return iter(self.phases)


@dataclass(frozen=True)
class VerificationReport:
    max_error: float
    grid_size: int
    tolerance: float
    passed: bool


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


def _prefix_rows(phases: np.ndarray, xs: np.ndarray):
    """Yield the top rows (a_k, b_k) of the prefix products F_1 ... F_k, k = 0 .. d."""
    ss = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    a = np.ones(xs.size, dtype=complex)
    b = np.zeros_like(a)
    yield a, b
    for p in phases:
        e = np.exp(1j * p)
        ec = np.conj(e)
        a, b = a * (e * xs) + b * (ec * ss), a * (e * ss) - b * (ec * xs)
        yield a, b


def _top_row(phases: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top row (a, b) of the whole product, keeping only the running prefix."""
    for a, b in _prefix_rows(phases, xs):
        pass
    return a, b


def reconstruct_matrix(phi: PhaseSequence, x: float) -> np.ndarray:
    """The exact 2x2 ansatz product at a point, rebuilt from its top row."""
    a, b = _top_row(phi.phases, np.array([float(x)]))
    a, b, det = a[0], b[0], (-1.0) ** len(phi)
    return np.array([[a, b], [-det * np.conj(b), det * np.conj(a)]])


def reconstruct(phi: PhaseSequence, x):
    """Top-left entry of the ansatz product; vectorized over x."""
    top = _top_row(phi.phases, np.atleast_1d(np.asarray(x, dtype=float)))[0]
    return top if np.ndim(x) else complex(top[0])


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
    return Polynomial(out, basis="chebyshev", parity=parity)


def verify_phases(phi: PhaseSequence, p: Polynomial, grid_size: int, tolerance: float = 1e-7) -> VerificationReport:
    """Max reconstruction error over a Chebyshev-node grid."""
    d = max(len(phi), p.degree)
    if grid_size < d + 1:
        raise ValueError(f"grid_size {grid_size} < degree + 1 = {d + 1}")
    xs = _nodes(grid_size)
    err = float(np.abs(reconstruct(phi, xs) - evaluate(p, xs)).max())
    return VerificationReport(err, grid_size, tolerance, err <= tolerance)


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


def _strip_extended(c: np.ndarray, q_hint, xs: np.ndarray, target: np.ndarray,
                    tol: float, trigger: str):
    """Up to three extended-precision stripping attempts at growing precision.

    Returns (angles, residual) of the last attempt that did not raise (None
    when every attempt raised); stops early once the residual meets ``tol``.
    """
    d = len(c) - 1
    dps, found = _factor.strip_dps(d), None
    for attempt in range(3):
        log.debug("degree %d: extended precision, attempt %d at %d digits, after %s",
                  d, attempt + 1, dps, trigger)
        try:
            with mp.workdps(dps):
                p = _factor.to_mp(c)
                # completions produce the stable (inside-disk) factor, for
                # which double-precision consistency suffices
                if q_hint is not None and attempt == 0:
                    q = _factor.to_mp(q_hint)
                else:
                    q = _factor.complementary_q(p)
                phis = _strip(p, q)[0]
        except (PhaseFindingError, CompletionError) as exc:
            trigger = f"{type(exc).__name__}: {exc}"
        else:
            found = _align(phis, xs, target)
            if found[1] <= tol:
                break
            trigger = f"residual {found[1]:.3e}"
        dps = int(dps * 1.7)
    return found


def find_phases(p: Polynomial, tol: float = 1e-7) -> PhaseSequence:
    """Angles whose ansatz product realizes the polynomial.

    Parameters
    ----------
    p : Polynomial
        Complex polynomial meeting the realizability conditions (checked at
        tolerance 1e-8 before solving; violations raise ConditionError).
    tol : float
        Acceptance threshold for the reconstruction residual on a Chebyshev
        grid of max(4 * degree, 32) points.

    The route is fixed. Strip in double precision; if that raises, drops
    coefficient mass above 1e-10 or leaves a residual above
    max(1e-9, 0.01 * tol), strip in extended precision; if the best
    candidate still exceeds that residual, polish it once by least squares
    (from zeros when no stripping produced angles). The candidate with the
    smallest residual is returned.

    Raises PhaseFindingError with the residual when no route reaches ``tol``.
    """
    _check_qsp_conditions(p, tol=1e-8)
    pc = to_chebyshev(p)
    d = pc.degree
    if d == 0:
        val = complex(pc.coefficients[0])
        if not abs(val - 1.0) <= 1e-8:
            raise ConditionError("only the constant 1 is realizable with zero angles")
        return PhaseSequence(np.zeros(0))
    c = pc.coefficients[: d + 1].copy()
    xs = _nodes(max(4 * d, 32))
    target = np.asarray(evaluate(pc, xs), dtype=complex)

    # a completion attaches its complementary series; recomputing it from P
    # alone is possible but maximally ill-conditioned (all roots double)
    q_hint = None
    hint = pc.meta.get("q_cheb") if pc.meta else None
    if hint is not None and len(np.atleast_1d(hint)) == d:
        q_hint = np.asarray(hint, dtype=complex)

    good = max(1e-9, 0.01 * tol)
    candidates: list[tuple[np.ndarray, float]] = []  # (angles, residual)
    try:
        q = q_hint if q_hint is not None else _factor.complementary_q(c)
        phis, drop = _strip(c, q)
        candidates.append(_align(phis, xs, target))
        res = candidates[-1][1]
        # more than ~6 digits lost in truncation: distrust the result
        degraded = not (res <= good and drop <= 1e-10)
        trigger = f"residual {res:.3e}, dropped mass {drop:.3e}"
    except (PhaseFindingError, CompletionError) as exc:
        degraded, trigger = True, f"{type(exc).__name__}: {exc}"
    if degraded:
        found = _strip_extended(c, q_hint, xs, target, tol, trigger)
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

    if best is None or best_res > tol:
        raise PhaseFindingError(
            f"phase finding did not converge (residual {best_res:.3e} > {tol})",
            residual=best_res,
        )
    return PhaseSequence(best)
