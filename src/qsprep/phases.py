"""Phase sequences for the reflection-convention signal-processing ansatz.

The ansatz is the 2x2 product

    M(Phi, x) = e^{i phi_1 Z} R(x) * e^{i phi_2 Z} R(x) * ... * e^{i phi_d Z} R(x)

with R(x) = [[x, s], [s, -x]], s = sqrt(1 - x^2). Its top-left entry is a
degree-d polynomial of parity d mod 2; ``find_phases`` inverts that map by
layer stripping (peel phi_d off the leading coefficients, reduce the degree,
repeat). Stripping runs in double precision at every degree. Only when it
raises, or its residual or truncated coefficient mass shows lost digits, is
it repeated in extended precision, and after that a quasi-Newton
least-squares fallback on Chebyshev nodes takes over. Each such escalation
is logged at DEBUG level on the ``qsprep.phases`` logger.

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
    out[np.isclose(out, -np.pi)] = np.pi  # ties at -pi map to +pi
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


def reconstruct_matrix(phi: PhaseSequence, x: float) -> np.ndarray:
    """The exact 2x2 ansatz product at a point."""
    s = np.sqrt(max(0.0, 1.0 - x * x))
    m = np.eye(2, dtype=complex)
    for p in phi.phases:
        e = np.exp(1j * p)
        f = np.array([[e * x, e * s], [s / e, -x / e]])
        m = m @ f
    return m


def reconstruct(phi: PhaseSequence, x):
    """Top-left entry of the ansatz product; vectorized over x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ss = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    m00 = np.ones_like(xs, dtype=complex)
    m01 = np.zeros_like(xs, dtype=complex)
    for p in phi.phases:
        e = np.exp(1j * p)
        ec = np.conj(e)
        n00 = m00 * (e * xs) + m01 * (ec * ss)
        n01 = m00 * (e * ss) - m01 * (ec * xs)
        m00, m01 = n00, n01
    return m00 if np.ndim(x) else complex(m00[0])


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
    xs = np.cos(np.pi * (np.arange(grid_size) + 0.5) / grid_size)
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
    grid = max(2 * len(phis), 16)
    xs = np.cos(np.pi * (np.arange(grid) + 0.5) / grid)
    target = np.asarray(evaluate(p, xs), dtype=complex)
    got = reconstruct(PhaseSequence(phis), xs)
    overlap = np.vdot(got, target)
    if abs(overlap) > 1e-12:
        phis = phis.copy()
        phis[0] += np.angle(overlap)
    return phis


def _residual(phis: np.ndarray, p: Polynomial, grid: int) -> float:
    xs = np.cos(np.pi * (np.arange(grid) + 0.5) / grid)
    return float(np.abs(reconstruct(PhaseSequence(phis), xs) - evaluate(p, xs)).max())


def _optimize(phi0: np.ndarray, p: Polynomial, seed: int, restarts: int = 4) -> np.ndarray:
    """Quasi-Newton least-squares polish with seeded random restarts."""
    d = len(phi0)
    grid = max(4 * d, 32)
    xs = np.cos(np.pi * (np.arange(grid) + 0.5) / grid)
    ss = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    target = np.asarray(evaluate(p, xs), dtype=complex)

    def matrices(phis):
        factors = []
        for ang in phis:
            e = np.exp(1j * ang)
            f = np.empty((2, 2, grid), dtype=complex)
            f[0, 0], f[0, 1] = e * xs, e * ss
            f[1, 0], f[1, 1] = ss / e, -xs / e
            factors.append(f)
        return factors

    def top_left(factors):
        pre = [np.broadcast_to(np.eye(2, dtype=complex)[..., None], (2, 2, grid)).copy()]
        for f in factors:
            pre.append(np.einsum("ikg,kjg->ijg", pre[-1], f))
        return pre

    def resid(phis):
        m = top_left(matrices(phis))[-1][0, 0]
        r = m - target
        return np.concatenate([r.real, r.imag])

    def jac(phis):
        factors = matrices(phis)
        pre = top_left(factors)
        suf = [np.broadcast_to(np.eye(2, dtype=complex)[..., None], (2, 2, grid)).copy()]
        for f in reversed(factors):
            suf.append(np.einsum("ikg,kjg->ijg", f, suf[-1]))
        suf.reverse()
        cols = np.empty((2 * grid, len(phis)))
        z = np.diag([1j, -1j]).astype(complex)
        for j in range(len(phis)):
            dfj = np.einsum("ik,kjg->ijg", z, factors[j])
            dm = np.einsum("ikg,kjg->ijg", pre[j], np.einsum("ikg,kjg->ijg", dfj, suf[j + 1]))[0, 0]
            cols[:grid, j] = dm.real
            cols[grid:, j] = dm.imag
        return cols

    rng = np.random.default_rng(seed)
    best, best_res = phi0, _residual(phi0, p, grid)
    starts = [phi0]
    starts += [phi0 + rng.normal(scale=0.05, size=d) for _ in range(restarts // 2)]
    starts += [rng.uniform(-np.pi, np.pi, size=d) for _ in range(restarts - restarts // 2)]
    for start in starts:
        try:
            sol = least_squares(resid, start, jac=jac, method="lm", max_nfev=400)
        except Exception:
            continue
        r = _residual(sol.x, p, grid)
        if r < best_res:
            best, best_res = sol.x, r
        if best_res < 1e-11:
            break
    return best


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


def find_phases(
    p: Polynomial,
    tol: float = 1e-7,
    method: str = "auto",
    seed: int = 11,
) -> PhaseSequence:
    """Angles whose ansatz product realizes the polynomial.

    Parameters
    ----------
    p : Polynomial
        Complex polynomial meeting the realizability conditions (checked at
        tolerance 1e-8 before solving; violations raise ConditionError).
    tol : float
        Acceptance threshold for the reconstruction residual on a Chebyshev
        grid of 4*degree points.
    method : str
        "auto" (strip in double precision, escalate to extended precision
        and then to the optimizer while the residual exceeds
        max(1e-9, 0.01 * tol)), "strip" (no optimizer), or "optimize".

    Raises PhaseFindingError with the residual when no route converges.
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

    if method in ("auto", "strip"):
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

    if method == "optimize" or (method == "auto" and best_res > good):
        restarts = 0 if best_res < 1e-5 else 4
        if method == "auto":
            log.debug("degree %d: optimizer with %d restarts, after residual %.3e",
                      d, restarts, best_res)
        phis = _optimize(best if best is not None else np.zeros(d), pc, seed, restarts=restarts)
        r = _residual(phis, pc, grid)
        if r < best_res:
            best, best_res = phis, r

    if best is None or best_res > tol:
        raise PhaseFindingError(
            f"phase finding did not converge (residual {best_res:.3e} > {tol})",
            residual=best_res,
        )
    return PhaseSequence(best)
