"""Phase sequences for the reflection-convention signal-processing ansatz.

The ansatz is the 2x2 product

    M(Phi, x) = e^{i phi_1 Z} R(x) * e^{i phi_2 Z} R(x) * ... * e^{i phi_d Z} R(x)

with R(x) = [[x, s], [s, -x]], s = sqrt(1 - x^2). Its top-left entry is a
degree-d polynomial of parity d mod 2. Every factor is unitary with
determinant -1, so the top row (a, b) of a k-factor prefix fixes the whole
prefix as [[a, b], [-D conj(b), D conj(a)]] with D = (-1)^k. One top-row
recurrence therefore gives the reconstruction, the full matrix and the
Jacobian of the least-squares polish.

``find_phases`` inverts the map by layer stripping (peel phi_d off the
leading coefficients, reduce the degree, repeat) in double precision. Only
when stripping raises, or its residual or truncated coefficient mass shows
lost digits, is it repeated in extended precision; if the best candidate
still misses, one Levenberg-Marquardt least-squares run on Chebyshev nodes
polishes it. The start is fixed, as in the optimization-based phase finding
of Dong, Lin, Ni & Wang (arXiv:2002.11649), so nothing is random; scipy's
solver can still end in different last digits from one process to the next
(its result follows the Python hash seed and the BLAS thread count). Each
escalation is logged at DEBUG level on the ``qsprep.phases`` logger.

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
from .errors import CompletionError, ConditionError, PhaseFindingError
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
    vals = [float(ln) for ln in text.strip().splitlines() if ln.strip()]
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

    The pair is either complex arrays (double precision) or object arrays of
    mpmath.mpc (the current ``mp.dps``); Q is first aligned with P by a
    unimodular factor. Returns (angles, worst relative coefficient mass
    dropped by truncation); the latter is the degradation monitor for the
    fallback decision.
    """
    exact = p.dtype == object
    arg, expj = (mp.arg, mp.expj) if exact else (np.angle, lambda t: np.exp(1j * t))
    d = len(p) - 1
    q = q * _leading_phase_factor(p[d], q[d - 1], d)
    one_minus_x2 = np.array([0.5, 0.0, -0.5])
    phis = np.zeros(d)
    worst_drop = 0.0
    for k in range(d, 1, -1):
        a_full = cheb.chebadd(cheb.chebmulx(p), cheb.chebmul(one_minus_x2, q))
        b_full = cheb.chebsub(p, cheb.chebmulx(q))
        a_full = np.concatenate([a_full, np.zeros(max(0, k + 2 - len(a_full)), a_full.dtype)])
        b_full = np.concatenate([b_full, np.zeros(max(0, k + 1 - len(b_full)), b_full.dtype)])
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


def _fix_global_phase(phis: np.ndarray, p: Polynomial) -> np.ndarray:
    """Absorb a global phase of the realized polynomial into phi_1.

    Prepending e^{i a Z} multiplies the top-left entry by e^{i a}, so a
    uniform phase mismatch (including a sign flip, and the ill-conditioned
    rotation mode a completion can carry) is corrected exactly.
    """
    xs = _nodes(max(2 * len(phis), 16))
    target = np.asarray(evaluate(p, xs), dtype=complex)
    got = reconstruct(PhaseSequence(phis), xs)
    overlap = np.vdot(got, target)
    if abs(overlap) > 1e-12:
        phis = phis.copy()
        phis[0] += np.angle(overlap)
    return phis


def _residual(phis: np.ndarray, p: Polynomial, grid: int) -> float:
    return verify_phases(PhaseSequence(phis), p, grid).max_error


def _polish(phi0: np.ndarray, p: Polynomial) -> np.ndarray:
    """One Levenberg-Marquardt least-squares run from phi0 on Chebyshev nodes.

    With (a_j, b_j) the top row and D_j = (-1)^j the determinant of the
    j-factor prefix, the derivative of the top-left entry P in phi_{j+1} is
    i (|a_j|^2 - |b_j|^2) P - 2i D_j a_j b_j M_10, M_10 = -(-1)^d conj(M_01).
    """
    d = len(phi0)
    xs = _nodes(max(4 * d, 32))
    target = np.asarray(evaluate(p, xs), dtype=complex)
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


def _strip_extended(c: np.ndarray, q_hint, pc: Polynomial, tol: float, trigger: str):
    """Up to three extended-precision stripping attempts at growing precision.

    Returns the angles of the last attempt that did not raise (None when
    every attempt raised); stops early once the residual meets ``tol``.
    """
    d = len(c) - 1
    grid = max(4 * d, 32)
    dps, phis = _factor.strip_dps(d), None
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
                phis = _fix_global_phase(_strip(p, q)[0], pc)
        except (PhaseFindingError, CompletionError) as exc:
            trigger = f"{type(exc).__name__}: {exc}"
        else:
            res = _residual(phis, pc, grid)
            if res <= tol:
                break
            trigger = f"residual {res:.3e}"
        dps = int(dps * 1.7)
    return phis


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
        if abs(val - 1.0) > 1e-8:
            raise ConditionError("only the constant 1 is realizable with zero angles")
        return PhaseSequence(np.zeros(0))
    c = pc.coefficients[: d + 1].copy()
    grid = max(4 * d, 32)

    # a completion attaches its complementary series; recomputing it from P
    # alone is possible but maximally ill-conditioned (all roots double)
    q_hint = None
    hint = pc.meta.get("q_cheb") if pc.meta else None
    if hint is not None and len(np.atleast_1d(hint)) == d:
        q_hint = np.asarray(hint, dtype=complex)

    good = max(1e-9, 0.01 * tol)
    candidates: list[np.ndarray] = []
    try:
        q = q_hint if q_hint is not None else _factor.complementary_q(c)
        phis, drop = _strip(c, q)
        candidates.append(_fix_global_phase(phis, pc))
        res = _residual(candidates[-1], pc, grid)
        # more than ~6 digits lost in truncation: distrust the result
        degraded = res > good or drop > 1e-10
        trigger = f"residual {res:.3e}, dropped mass {drop:.3e}"
    except (PhaseFindingError, CompletionError) as exc:
        degraded, trigger = True, f"{type(exc).__name__}: {exc}"
    if degraded:
        phis = _strip_extended(c, q_hint, pc, tol, trigger)
        if phis is not None:
            candidates.append(phis)

    best, best_res = None, np.inf
    for phis in candidates:
        r = _residual(phis, pc, grid)
        if r < best_res:
            best, best_res = phis, r

    if best_res > good:
        log.debug("degree %d: least-squares polish of the best candidate, after residual %.3e",
                  d, best_res)
        phis = _polish(best if best is not None else np.zeros(d), pc)
        r = _residual(phis, pc, grid)
        if r < best_res:
            best, best_res = phis, r

    if best is None or best_res > tol:
        raise PhaseFindingError(
            f"phase finding did not converge (residual {best_res:.3e} > {tol})",
            residual=best_res,
        )
    return PhaseSequence(best)
