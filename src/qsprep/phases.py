"""Phase sequences for the reflection-convention signal-processing ansatz.

The ansatz is the 2x2 product

    M(Phi, x) = e^{i phi_1 Z} R(x) * e^{i phi_2 Z} R(x) * ... * e^{i phi_d Z} R(x)

with R(x) = [[x, s], [s, -x]], s = sqrt(1 - x^2). Its top-left entry is a
degree-d polynomial of parity d mod 2. Every factor is unitary with
determinant -1, so the top row (a, b) of a k-factor prefix fixes the whole
prefix as [[a, b], [-D conj(b), D conj(a)]] with D = (-1)^k. One top-row
recurrence, ``_prefix_rows``, therefore gives the reconstruction and the
derivatives in the angles (``_top_left_derivatives``) that the
least-squares polish and the real-target Newton steps take. Both products
the pipeline applies are palindromes past their first factor: the
symmetric angles of ``real_target_phases`` and the fixed-point
amplification's. One evaluator, ``palindrome_top_left``, runs their top
row over the first half of the factors and closes the product from it: it
samples Re a on an array of points, in long double, at each step of
``real_target_phases``, and
``amplifier.amplify_state`` evaluates the amplification with it at the one
point x = sigma in Python complex arithmetic. ``_top_row`` of the whole
product stays the tests' reference for both. ``real_target_phases``
returns the series of the long-double angles it found with their doubles,
and ``blockenc._level_diagonal`` sums the engine's encoded generator at
each distinct oracle entry from that series.

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

The pipeline's real targets get their angles from ``real_target_phases``,
Newton's method on Re a alone, in ``np.longdouble``; completion,
stripping, mpmath's extended precision and the polish serve ``qsprep
phases`` and complex targets.

Note on conventions: other codebases often parameterize the ansatz with the
x-rotation W(x) instead of the reflection R(x); the two differ by a pi/2
shift of the interior phases and fixed boundary offsets. Everything here but
``real_target_phases`` (a W-form iteration) is native to the reflection form.
"""
from __future__ import annotations

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
    PI_LD,
    Polynomial,
    _check_qsp_conditions,
    evaluate,
    lobatto_coefficients,
)

log = logging.getLogger(__name__)

TOL = 1e-7  # largest reconstruction residual find_phases accepts
# most samplings of each of real_target_phases' two passes; the pipeline's
# scaled arcsin targets reach their floor after 5-9 Newton steps in double
# and 1-4 more in long double, 7-11 and 3-6 samplings with the one that ends
# each pass
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

    def __len__(self) -> int:
        return self.phases.size

    def __iter__(self):
        return iter(self.phases)


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
    """Yield the top rows (a_k, b_k) of the prefix products F_1 ... F_k, k = 0 .. d.

    F_j = e^{i phi_j Z} R(x), and each row is a pair of arrays over the
    points ``xs``. The factors e^{i phi_j} are computed once for all angles,
    in the precision of ``phases`` (``real_target_phases`` passes long
    doubles).
    """
    es = np.exp(1j * phases)
    es = es.tolist() if es.dtype == complex else es  # Python complex multiplies faster
    ss = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    a = np.ones(xs.size, dtype=complex)
    b = np.zeros_like(a)
    yield a, b
    for e in es:
        ec = e.conjugate()
        a, b = a * (e * xs) + b * (ec * ss), a * (e * ss) - b * (ec * xs)
        yield a, b


def _top_row(phases: np.ndarray, xs: np.ndarray):
    """Top row (a, b) of the whole product and its number of layers, keeping only the running prefix."""
    for layers, (a, b) in enumerate(_prefix_rows(phases, xs)):
        pass
    return a, b, layers


def palindrome_top_left(half, x):
    """M_00(x) of a palindromic product R F_1 ... F_{L-1} from its first half, and its layers L.

    F_k = D_k R with D_k = e^{i phi_k Z} and R = R(x), and the angles are a
    palindrome, phi_k = phi_{L-k} for k = 1 .. L - 1, L odd. ``half``
    yields the first half's factors e^{i phi_k}, k = 1 .. h = (L - 1) / 2,
    in order: Python complex numbers at a Python float x, or numpy scalars
    of the precision of x, a numpy scalar or an array of points.

    Let C = R F_1 ... F_h = R D_1 R ... D_h R. D_k and R are symmetric, so
    C^T = R D_h R ... D_1 R; R^2 = I; and by the palindrome the second half
    is

        F_{h+1} ... F_{L-1} = D_h R ... D_1 R = R (R D_h R ... D_1 R) = R C^T.

    The whole product is M = C R C^T, and M_00 = a (a x + b s) + b (a s -
    b x) needs only C's top row (a, b), s = sqrt(1 - x^2). The row starts
    at R's, (x, s), and each factor takes it to (a e x + b conj(e) s, a e s
    - b conj(e) x); x and s are real, so the conjugate factor's products
    are the conjugates of e x and e s. Only the running row is kept, so a
    generator of factors costs O(1) memory. C is unitary, so (a, b) has
    unit norm, and M_00 is divided by the computed |a|^2 + |b|^2: the
    rounding's radial part, which the factors pile up, drops out. Each
    factor of the half stands for two layers, one in C and its mirror in
    R C^T, so the count is L.
    """
    if isinstance(x, float):  # on Python complex numbers the loop runs several times faster
        s = math.sqrt(max(1.0 - x * x, 0.0))
    else:
        s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    a, b = x + 0j, s + 0j
    layers = 1
    for e in half:
        ex, es = e * x, e * s
        a, b = a * ex + b * es.conjugate(), a * es - b * ex.conjugate()
        layers += 2
    # M_00 is quadratic in the row, whose norm is 1 but for rounding
    norm = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
    return (a * (a * x + b * s) + b * (a * s - b * x)) / norm, layers


def reconstruct(phi: PhaseSequence, x):
    """Top-left entry of the ansatz product; vectorized over x, a Python complex at one point."""
    if np.ndim(x):
        return _top_row(phi.phases, np.asarray(x, dtype=float))[0]
    return complex(_top_row(phi.phases, np.array([float(x)]))[0][0])


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


def _top_left_derivatives(phis: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The derivatives of the top-left entry P in phi_1 .. phi_d, one row of points each.

    With (a_j, b_j) the top row and D_j = (-1)^j the determinant of the
    j-factor prefix, the derivative in phi_{j+1} is i (|a_j|^2 - |b_j|^2) P
    - 2i D_j a_j b_j M_10, M_10 = -(-1)^d conj(M_01): one pass of
    ``_prefix_rows``, kept whole.
    """
    a, b = map(np.array, zip(*_prefix_rows(phis, xs)))
    det = (-1.0) ** np.arange(a.shape[0])[:, None]
    top, m10 = a[-1], -det[-1] * np.conj(b[-1])
    a, b = a[:-1], b[:-1]
    return 1j * (np.abs(a) ** 2 - np.abs(b) ** 2) * top - 2j * det[:-1] * a * b * m10


def _polish(phi0: np.ndarray, xs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """One Levenberg-Marquardt least-squares run from phi0 on Chebyshev nodes."""
    from scipy.optimize import least_squares  # 0.3-0.4 s to import, and rarely reached

    def resid(phis):
        r = _top_row(phis, xs)[0] - target
        return np.concatenate([r.real, r.imag])

    def jac(phis):
        cols = _top_left_derivatives(phis, xs)
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


def real_target_phases(c: np.ndarray) -> tuple[PhaseSequence, np.ndarray, int]:
    """Angles whose ansatz has Re a = the odd real series c; c[k] multiplies T_k.

    Newton's method for F(r) = c on the symmetric W-form angles r of Dong,
    Lin, Ni & Wang, here phi_1 = 2 r_0 and phi_{j+1} = phi_{d-j+1} = r_j -
    pi/2, F(r) the T_d, T_{d-2}, .., T_1 coefficients of Re a. phi_2 ..
    phi_d are a palindrome, so one ``palindrome_top_left`` pass over the (d
    - 1) / 2 factors e^{i (r_j - pi/2)}, turned by e^{2 i r_0}, samples Re a
    on the d + 2 Lobatto points, where a degree-d series is exact, and
    ``lobatto_coefficients`` turns the samples into F. It starts at r_0 =
    (-1)^h pi / 4 and r_j = 0, h = (d + 1) / 2 angles, where F = 0 and the
    Jacobian is twice the identity, so its first step is one of their
    fixed-point iteration r <- r - (F(r) - c) / 2 (arXiv:2209.10162), which
    converges only for sum |c| <= 0.861; Newton's method (arXiv:2307.12468)
    converges up to sup |Re a| < 1, and the arcsin targets, whose
    coefficients are non-negative, take sum |c| up to 0.95. Re a is even in
    r, so its Jacobian vanishes at r = 0, and negated angles realize the
    same Re a. A step takes the miss's values at the h positive Lobatto
    points, where an odd degree-d series is fixed by its values, and their
    Jacobian in double (``_real_target_jacobian``). It runs while the l1
    miss sum |F - c| falls: in double to its floor near 1e-15, where a step
    costs less, then on from there in ``np.longdouble`` (a 64-bit mantissa
    on x86-64), angles and samples alike, to ~1e-19.

    Returns the doubles nearest the angles of the least miss, that F
    rounded to doubles (read-only; the series the encoding sums), and the
    layers of the pass that sampled it, d. Rounding an angle near
    +-pi/2 to a double moves Re a by up to ~1e-15, so the doubles
    themselves miss c by about as much as the least miss of an iteration in
    double did. A least miss above max(1e-14, d 2^-52) raises
    PhaseFindingError.
    """
    d = c.size - 1
    xs = np.sin(PI_LD * np.arange(d + 1, -d - 2, -2) / (2 * (d + 1)))  # the d + 2 Lobatto points
    # Newton's method starts where F = 0 and its Jacobian is twice the identity
    start = np.zeros((d + 1) // 2)
    start[0] = (-1) ** start.size * np.pi / 4
    # to its floor in double, where a step costs less, then on in long double
    r = _real_target_steps(c, start, xs.astype(float))[0]
    best, (series, layers), least, step = _real_target_steps(c, r.astype(np.longdouble), xs)
    if not least <= max(1e-14, d * 2.0**-52):
        raise PhaseFindingError(f"no convergence: l1 miss {least:.3e} after {step} steps", residual=least)
    series = series.astype(float)
    series.flags.writeable = False
    return PhaseSequence(_w_form_angles(best).astype(float)), series, layers


def _w_form_angles(r: np.ndarray) -> np.ndarray:
    """phi_1 = 2 r_0 and phi_{j+1} = phi_{d-j+1} = r_j - pi/2, in the precision of r."""
    phis = np.empty(2 * r.size - 1, r.dtype)
    phis[0] = 2 * r[0]
    phis[1 : r.size] = r[1:] - r.dtype.type(PI_LD) / 2
    phis[r.size :] = phis[r.size - 1 : 0 : -1]
    return phis


def _real_target_steps(c: np.ndarray, r: np.ndarray, xs: np.ndarray):
    """Newton's method from r while the l1 miss falls.

    Returns the least-miss r, (its series, the layers that sampled it), the
    miss and the steps taken.
    """
    d, h = c.size - 1, r.size
    target, least = c[d::-2].astype(r.dtype), np.inf
    quarter_turn = r.dtype.type(PI_LD) / 2
    # T_d, T_{d-2}, .., T_1 at the h positive Lobatto points, cos(pi i / (d +
    # 1)), where an odd degree-d series is fixed by its values
    basis = np.cos(np.pi / (d + 1) * np.outer(np.arange(h), np.arange(d, 0, -2)))
    for step in range(1, _MAX_STEPS + 1):
        # phi_1 = 2 r_0 turns M_00 by e^{2 i r_0}, and phi_2 .. phi_d, r_j
        # - pi/2 and their mirror, are a palindrome of d layers
        m00, layers = palindrome_top_left(np.exp(1j * (r[1:] - quarter_turn)), xs)
        series = lobatto_coefficients((np.exp(2j * r[0]) * m00).real)
        miss = series[d::-2] - target
        l1 = float(np.abs(miss).sum())
        if not l1 < least:
            break
        least, best, kept = l1, r, (series, layers)
        # Newton's step on the miss's values there, in double
        r = r - np.linalg.solve(_real_target_jacobian(r, xs[:h]), basis @ miss.astype(float))
    return best, kept, least, step


def _real_target_jacobian(r: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The derivatives of Re a in r_0 .. r_{h-1} at the points, in double; a row per point."""
    cols = _top_left_derivatives(_w_form_angles(r.astype(float)), xs.astype(float)).real
    h = r.size
    # r_0 enters as phi_1 = 2 r_0, and r_j as phi_{j+1} and its mirror phi_{d-j+1}
    jac = cols[:h]
    jac[0] *= 2
    jac[1:] += cols[:h - 1:-1]
    return jac.T
