"""Polynomial approximants and the real-to-complex completion.

Every polynomial is a Chebyshev series with a parity (``Polynomial``), and
files hold the same coefficients. The arcsin Taylor series is converted
to Chebyshev coefficients in t = y / (1 - delta) once per degree and
delta, by numpy's ``poly2cheb``, when it is first built; at delta 0 that
is the series in y that ``arcsin_taylor`` returns.

Provides the truncated arcsin Taylor series, the pipeline's arcsin target
economized on [-(1 - delta), 1 - delta] (``arcsin_target``), an erf-based
approximant of the sign function with closed-form Chebyshev coefficients,
and the spectral factorization that equips a bounded real polynomial with
the imaginary part required by the reflection ansatz, read off the
cepstrum of 1 - P_R^2 by FFT in O(d log d) (``_factor.complete_real``).

Checks on a grid use Chebyshev-Lobatto points cos(pi j / (N - 1)), where a
series' N values are one DCT-I of its coefficients, a real FFT of their
even extension (``lobatto_values``; ``lobatto_coefficients`` inverts it):
the completion's sup, identity-residual and drift checks (N = max(4001,
4d + 1)) and the on-interval bound of ``_check_qsp_conditions`` (N =
max(2001, 4d + 1)), next to the exact endpoint values P(1) = sum c_k and
P(-1) = sum (-1)^k c_k. The grids grow with the degree d because a fixed
one is blind: (1 - x^2) U_{n-1} vanishes on every point of the n + 1-point
grid. The off-interval and imaginary-axis samples of
``_check_qsp_conditions`` are evaluated in scaled form, e^{-dt} P(x) for
|x + sqrt(x^2 - 1)| = e^t, which cannot overflow at any degree, and
compared in logarithms.

scipy is imported only inside ``sign_approx``, for erfinv and the Bessel
weights, so importing this module loads no scipy.

Every guard is written so that a NaN or infinite value fails it.

All operations are pure functions over immutable values.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import _factor
from .errors import CompletionError, ConditionError, DegreeOverflowError, InfeasibleError, InputError

COEFF_TOL = 1e-12
MAX_DEGREE = 10_000  # largest degree any approximant or completion may reach


@dataclass(frozen=True)
class Polynomial:
    """Chebyshev series with a parity.

    ``coefficients[k]`` multiplies T_k. A declared parity requires the
    cross-parity coefficients to vanish to 1e-12.
    """

    coefficients: np.ndarray
    parity: str = "none"

    def __post_init__(self):
        c = np.ascontiguousarray(np.atleast_1d(np.asarray(self.coefficients, dtype=complex)))
        object.__setattr__(self, "coefficients", c)
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.parity != "none":
            off = 1 if self.parity == "even" else 0
            bad = np.abs(c[off::2]).max() if c[off::2].size else 0.0
            if bad > COEFF_TOL:
                raise ValueError(
                    f"{self.parity} polynomial has cross-parity coefficient mass {bad:.2e}"
                )

    @property
    def degree(self) -> int:
        """Index of the last coefficient above 1e-12; a non-finite one counts."""
        idx = np.nonzero(~(np.abs(self.coefficients) <= COEFF_TOL))[0]
        return int(idx[-1]) if idx.size else 0

    def is_real(self, tol: float = COEFF_TOL) -> bool:
        return float(np.abs(self.coefficients.imag).max()) <= tol


def detect_parity(coeffs: np.ndarray, tol: float = COEFF_TOL) -> str:
    c = np.asarray(coeffs)
    even_mass = np.abs(c[0::2]).max() if c[0::2].size else 0.0
    odd_mass = np.abs(c[1::2]).max() if c[1::2].size else 0.0
    if odd_mass <= tol:
        return "even"
    if even_mass <= tol:
        return "odd"
    return "none"


def evaluate(p: Polynomial, x):
    """Values by Clenshaw's recurrence; accepts scalars or arrays, real or complex."""
    return cheb.chebval(x, p.coefficients)


def lobatto_values(c: np.ndarray, n: int) -> np.ndarray:
    """Values of the Chebyshev series c on the n-point Lobatto grid.

    The grid is cos(pi j / (n - 1)), j = 0 .. n - 1, i.e.
    ``cos(linspace(0, pi, n))`` in that order. There T_k(x_j) =
    cos(pi k j / (n - 1)), so all n values are one DCT-I of the
    coefficients, computed as the real FFT of their even extension (real
    and imaginary parts separately): O(n log n) instead of Clenshaw's
    O(n d). Coefficients of index >= n - 1 are folded first: on the grid
    T_k repeats with period 2(n - 1) in k and equals T_{2(n - 1) - k}. The
    values are those at the exact grid points; ``chebval`` on the rounded
    ``cos`` grid can differ from them by up to ~d^2 * 1e-16 * sum|c| near
    the ends.
    """
    c = np.asarray(c)
    period = 2 * (n - 1)
    k = np.arange(c.size) % period
    a = np.zeros(n, dtype=np.result_type(c.dtype, float))
    np.add.at(a, np.minimum(k, period - k), c)
    a[1:-1] /= 2
    ext = np.concatenate([a, a[-2:0:-1]])
    out = np.empty(n, dtype=a.dtype)
    # the FFT warns on an infinite coefficient; the callers' guards see the
    # non-finite values it returns
    with np.errstate(invalid="ignore"):
        out.real = np.fft.rfft(ext.real).real
        if np.iscomplexobj(a):
            out.imag = np.fft.rfft(ext.imag).real
    return out


def lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """The degree-(n - 1) Chebyshev series with these n values on the n-point Lobatto grid.

    The inverse of ``lobatto_values``, one DCT-I: ``lobatto_values`` of the
    values with the two end values halved, times 2 / (n - 1), with the two
    end coefficients halved. Returns a new array.
    """
    n = values.size
    ends_halved = values.copy()
    ends_halved[[0, -1]] /= 2
    coefficients = lobatto_values(ends_halved, n) * (2.0 / (n - 1))
    coefficients[[0, -1]] /= 2
    return coefficients


def chebyshev_economize(p: Polynomial, budget: float) -> Polynomial:
    """Truncate the Chebyshev tail, spending at most ``budget`` in sup norm; zero cross-parity terms."""
    c = p.coefficients[: _economized_length(p.coefficients, budget)].copy()
    if p.parity != "none":
        c[(1 if p.parity == "even" else 0)::2] = 0.0
    return Polynomial(c, p.parity)


def _economized_length(c: np.ndarray, budget: float) -> int:
    """How many leading coefficients of c ``chebyshev_economize`` keeps."""
    mags = np.abs(c).tolist()
    spent, keep = 0.0, len(mags)
    while keep > 1 and spent + mags[keep - 1] <= budget:
        spent += mags[keep - 1]
        keep -= 1
    return keep


def poly_to_text(p: Polynomial) -> str:
    """Serialize: header `chebyshev parity degree`, then one `re im` per coefficient."""
    lines = [f"chebyshev {p.parity} {p.degree}"]
    for c in p.coefficients[: p.degree + 1]:
        lines.append(f"{c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> Polynomial:
    """Parse ``poly_to_text`` output; a malformed file raises InputError.

    The header must be `chebyshev`, a parity and a degree d >= 0, and
    exactly d + 1 lines of two finite numbers must follow.
    """
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 3:
        raise InputError("polynomial file needs a header `chebyshev parity degree`")
    kind, parity, deg = lines[0]
    if kind != "chebyshev":
        raise InputError(f"polynomial files hold Chebyshev coefficients, not {kind!r} ones")
    if not deg.isdecimal():
        raise InputError(f"polynomial degree must be an integer >= 0, got {deg!r}")
    deg = int(deg)
    if len(lines) - 1 != deg + 1:
        raise InputError(
            f"a degree-{deg} polynomial needs {deg + 1} coefficient lines, got {len(lines) - 1}"
        )
    coeffs = np.zeros(deg + 1, dtype=complex)
    for k, parts in enumerate(lines[1:]):
        try:
            re, im = map(float, parts)
        except ValueError:
            re = im = np.nan
        if not np.isfinite([re, im]).all():
            raise InputError(f"coefficient {k} is not two finite numbers: {' '.join(parts)!r}")
        coeffs[k] = re + 1j * im
    try:
        return Polynomial(coeffs, parity)
    except ValueError as exc:
        raise InputError(f"malformed polynomial file: {exc}") from exc


def arcsin_taylor(epsilon: float, delta: float) -> Polynomial:
    """Truncated Taylor series of arcsin(x)/pi, accurate on [-1+delta, 1-delta].

    Coefficient of x^(2k+1) is binom(2k, k) / (pi * 4^k * (2k+1)); terms are
    kept until the geometric tail bound at |x| = 1 - delta drops below
    epsilon. The resulting degree grows like (1/delta) * log(1/epsilon).
    The series is the pipeline's t-series at delta 0, where t = x, so a
    warm call only finds the degree (``_arcsin_degree``); its coefficients
    are a new complex copy of that read-only series.
    """
    # the terms are positive and sum to at most arcsin(1)/pi = 1/2 at x = 1,
    # so |P| < 1 on [-1, 1] and no rescale is needed
    return Polynomial(_arcsin_t_series(_arcsin_degree(epsilon, delta), 0.0), "odd")


def _arcsin_degree(epsilon: float, delta: float) -> int:
    """The degree ``arcsin_taylor`` cuts the series at, by a scalar loop."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise InputError("epsilon and delta must lie in (0, 1)")
    y = 1.0 - delta
    geom = 1.0 / (1.0 - y * y)
    term, k = 1.0 / np.pi, 0  # the last kept term, of x^(2k+1)
    while True:
        a_next = _next_arcsin_term(term, k)
        tail = a_next * y ** (2 * k + 3) * geom
        if tail <= epsilon:
            break
        term, k = a_next, k + 1
        if 2 * k + 1 > MAX_DEGREE:
            raise DegreeOverflowError(
                f"arcsin truncation needs degree > {MAX_DEGREE} "
                f"(roughly {2 * k + 1}) for epsilon={epsilon}, delta={delta}",
                needed=2 * k + 1,
            )
    return 2 * k + 1


def _next_arcsin_term(term: float, k: int) -> float:
    """The Taylor coefficient of x^(2k+3) from that of x^(2k+1)."""
    return term * (2 * k + 1) ** 2 / (2.0 * (k + 1) * (2 * k + 3))


def _arcsin_monomials(degree: int) -> np.ndarray:
    """The monomial coefficients of the series cut at ``degree``, a new array."""
    terms = [1.0 / np.pi]
    for k in range((degree - 1) // 2):
        terms.append(_next_arcsin_term(terms[-1], k))
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = terms  # of x^(2k+1)
    return coeffs


# pi to the 64-bit mantissa of x86-64's long double
PI_LD = 4 * np.arctan(np.longdouble(1))

# Chebyshev l1 norm an arcsin target may reach: it bounds |p| on [-1, 1],
# and it is the convergence condition of the real-target iteration
# (``phases.real_target_phases``)
REAL_TARGET_L1 = 0.861


def arcsin_target(epsilon: float, delta: float) -> Polynomial:
    """The odd polynomial within epsilon of arcsin(y)/pi on [-(1 - delta), 1 - delta].

    ``ARCSIN_ROUNDING`` of epsilon is left to the rounding of the target's
    and the transform's doubles, and the rest is the share the two tails
    spend (``_arcsin_cut``). The Taylor series is cut where its tail at |y|
    = 1 - delta fits in 0.05 of the share (``arcsin_taylor``). The cut
    series is rewritten in t = y / (1 - delta), where the interval is [-1,
    1], as a Chebyshev series; its monomials are positive and map to
    positive combinations, so nothing cancels. The t-tail that the other
    0.95 of the share pays for is dropped, exactly, since |T_k(t)| <= 1
    there; it sets the degree. Outside the interval the transform only
    needs |p| <= 1, which the coefficients' l1 norm bounds: a target above
    ``REAL_TARGET_L1`` raises ConditionError. The degree is about half that
    of the series cut alike and economized on all of [-1, 1] (19 against 39
    at epsilon 1e-10 and delta 0.29, 25 against 47 at 1e-12). An epsilon
    under twice the rounding floor raises InfeasibleError.
    """
    return Polynomial(_arcsin_target(*_arcsin_cut(epsilon, delta), delta)[0], "odd")


# what the realized arcsin transform may miss by past its polynomial's error,
# in generator units: the rounding of the target's doubles, of the angles'
# series and of its sum at the sines. In 40-digit checks at generator errors
# 2^-8 .. 2^-51 and delta 0.01 .. 0.5 the encoding missed the target by at
# most 1.2e-16, and arcsin / pi by at most 0.92 of the generator error. A
# generator error under twice it is refused
ARCSIN_ROUNDING = 2.0**-52


# cuts kept found: every encoding call finds its cut before its memo lookup,
# and a run's delta rows ask for one generator error in a row
@functools.lru_cache(maxsize=64)
def _arcsin_cut(epsilon: float, delta: float) -> tuple[int, int]:
    """The target's cut (Taylor degree, kept length in t), by scalar loops over cached series.

    The rounding gets ``ARCSIN_ROUNDING`` and the share, epsilon less that,
    is split where it buys degree: the Taylor tail gets 0.05 of it, since
    the economization drops those terms again, and the t-tail, which sets
    the degree, gets the other 0.95.
    """
    if 0 < epsilon < 2 * ARCSIN_ROUNDING:
        raise InfeasibleError(
            f"a generator error of {epsilon:.3e} is under 2^-51, twice the {ARCSIN_ROUNDING:.2e} "
            "the arcsin transform may miss by in double precision"
        )
    share = epsilon - ARCSIN_ROUNDING
    degree = _arcsin_degree(0.05 * share, delta)
    return degree, max(_economized_length(_arcsin_t_series(degree, delta), 0.95 * share), 2)


# t-series kept built, each one (degree, delta)'s O(d) coefficients
@functools.lru_cache(maxsize=64)
def _arcsin_t_series(degree: int, delta: float) -> np.ndarray:
    """Read-only real Chebyshev coefficients in t = y / (1 - delta) of the series cut at ``degree``."""
    coeffs = _arcsin_monomials(degree)
    coeffs[1::2] *= (1.0 - delta) ** np.arange(1, degree + 1, 2)  # of t^(2k+1)
    chebyshev = cheb.poly2cheb(coeffs)
    chebyshev.flags.writeable = False
    return chebyshev


def _arcsin_target(degree: int, keep: int, delta: float) -> tuple[np.ndarray, float]:
    """The target of a cut as real Chebyshev coefficients in y, a new array, and their l1 norm.

    The kept t-series, of degree d = keep - 1, is sampled at the d + 1
    Lobatto points of y in [-1, 1], t = y / (1 - delta), and turned into its
    y-series by one DCT-I, both in ``np.longdouble`` (in double they lost up
    to 4e-16 at delta 0.01, d = 201); the even coefficients, rounding only,
    are zeroed.
    """
    d = keep - 1
    t = np.cos(PI_LD * np.arange(d + 1) / d) / (1 - np.longdouble(delta))
    c = lobatto_coefficients(cheb.chebval(t, _arcsin_t_series(degree, delta)[:keep])).astype(float)
    c[0::2] = 0.0
    l1 = float(np.abs(c).sum())
    if not l1 <= REAL_TARGET_L1:
        raise ConditionError(
            f"the arcsin target of degree {d} has Chebyshev l1 norm {l1:.4f} > "
            f"{REAL_TARGET_L1}, where the real-target iteration may not converge"
        )
    return c, l1


def sign_approx(Delta: float, delta: float) -> Polynomial:
    """Odd polynomial close to sign(x) for |x| >= Delta.

    Approximates erf(k*x) with k chosen so erf(k*Delta) >= 1 - delta/8, using
    the closed-form Chebyshev expansion of the Gaussian integrand (modified
    Bessel coefficients), then rescales by 1/(1 + delta/4) so the sup norm
    stays strictly below 1. Guarantees P(x) >= 1 - delta/2 on [Delta, 1].
    A degree above ``MAX_DEGREE`` raises DegreeOverflowError with the degree
    in ``needed`` (a lower bound when it exceeds 4 * MAX_DEGREE).
    """
    from scipy.special import erfinv, ive  # 0.3-0.4 s to import; no pipeline path calls this

    if not 0 < Delta < 1 or not 0 < delta < 1:
        raise ValueError("Delta and delta must lie in (0, 1)")
    k = float(erfinv(1.0 - delta / 8.0)) / Delta
    z = k * k / 2.0
    pref = 2.0 * k / np.sqrt(np.pi)
    tail_budget = delta / 16.0

    # Bessel weights decay like exp(-j^2 / (2z)); size the table accordingly,
    # but never past degree 4 * MAX_DEGREE
    j_scale = np.sqrt(2.0 * z * np.log(max(4.0 * pref * np.sqrt(z + 1.0) / tail_budget, 2.0)))
    j_est = min(int(1.3 * j_scale + z / max(j_scale, 1.0) + 20), 2 * MAX_DEGREE)
    js = np.arange(j_est + 1)
    bess = ive(js, z)
    weights = pref * bess[1:] * (2.0 / np.maximum(2 * js[1:] - 1, 1))

    # smallest cut such that dropping Bessel terms j > cut costs <= the budget
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    big_j = 0
    while suffix[big_j] > tail_budget:
        big_j += 1
    degree = 2 * big_j + 1
    if degree > MAX_DEGREE:
        raise DegreeOverflowError(
            f"sign approximant needs degree {degree} (> max {MAX_DEGREE}) "
            f"for Delta={Delta}, delta={delta}",
            needed=degree,
        )

    # T_{2j+1} gains term_j / (2j + 1), then loses term_{j+1} / (2j + 1)
    terms = pref * (-1.0) ** js[: big_j + 1] * bess[: big_j + 1]
    odd = 2 * js[: big_j + 1] + 1
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] += terms / odd
    coeffs[1:-2:2] -= terms[1:] / odd[:-1]
    scale = 1.0 / (1.0 + delta / 4.0)
    coeffs *= scale
    return Polynomial(coeffs, "odd")


def _scaled_values(c: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{-dt} P(x) and the log-scale d t, for the length-(d + 1) series c.

    With x = (zeta + 1/zeta)/2 and |zeta| = e^t >= 1, T_k(x) = (zeta^k +
    zeta^-k)/2, so e^{-dt} T_k(x) = (w^k e^{(k-d)t} + w^-k e^{-(k+d)t})/2
    with w = zeta/|zeta|: no term exceeds 1 in modulus, where Clenshaw's
    values overflow once d t > 709. The columns of c are separate series.
    """
    xs = np.asarray(xs, dtype=complex)
    r = np.sqrt((xs - 1) * (xs + 1))
    zeta = np.where(np.abs(xs + r) >= np.abs(xs - r), xs + r, xs - r)
    t, w = np.log(np.abs(zeta)), zeta / np.abs(zeta)
    d = len(c) - 1
    k = np.arange(d + 1)[:, None]
    scaled_t = (w**k * np.exp((k - d) * t) + w**-k * np.exp(-(k + d) * t)) / 2
    return scaled_t.T @ c, d * t


def _check_qsp_conditions(p: Polynomial) -> None:
    """Conditions the reflection ansatz requires, checked to 1e-8 at x = +-1 and at samples."""
    tol = 1e-8
    c = p.coefficients
    if not np.isfinite(c).all():
        raise ConditionError("polynomial has a non-finite coefficient")
    d = p.degree
    want = "even" if d % 2 == 0 else "odd"
    if detect_parity(c[: d + 1], max(COEFF_TOL, tol)) != want:
        raise ConditionError(f"polynomial of degree {d} lacks parity {d % 2}")
    vals = np.abs(lobatto_values(c, max(2001, 4 * d + 1)))
    if not vals.max() <= 1.0 + tol:
        raise ConditionError(f"|P| reaches {vals.max():.12f} > 1 on [-1, 1]")
    # R(+-1) is diagonal, so the ansatz has |P(+-1)| = 1: P(1) = sum c_k and
    # P(-1) = sum (-1)^k c_k
    for x, v in ((1, c.sum()), (-1, c[0::2].sum() - c[1::2].sum())):
        if not abs(abs(v) - 1.0) <= tol:
            raise ConditionError(f"|P({x})| = {abs(v):.12f}, not 1")
    outside = np.array([s for x in (1.0 + 1e-6, 1.05, 1.25, 1.5, 2.0) for s in (x, -x)])
    scaled, log_scale = _scaled_values(c, outside)
    # log 0 = -inf where P vanishes, which fails as it should
    with np.errstate(divide="ignore"):
        low = np.flatnonzero(~(np.log(np.abs(scaled)) + log_scale >= np.log1p(-tol)))
    if low.size:
        raise ConditionError(f"|P({outside[low[0]]})| < 1 outside [-1, 1]")
    if d % 2 == 0:
        ys = np.array([0.0, 0.1, 0.35, 0.7, 1.0, 1.5, 2.0])
        both, log_scale = _scaled_values(np.stack([c, c.conj()], axis=1), 1j * ys)
        v = both[:, 0] * both[:, 1]  # e^{-2 log_scale} P(ix) P*(ix)
        # |Im PP*| <= tol max(1, |PP*|) and Re PP* >= 1 - tol, in logarithms
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pp = np.log(np.abs(v)) + 2 * log_scale
            flat = np.log(np.abs(v.imag)) + 2 * log_scale <= np.log(tol) + np.maximum(0.0, log_pp)
            high = np.log(v.real) + 2 * log_scale >= np.log1p(-tol)
        bad = np.flatnonzero(~(flat & high))
        if bad.size:
            raise ConditionError(f"P(ix)P*(ix) is not real and >= 1 at x = {ys[bad[0]]}")


def complete_to_complex(p_r: Polynomial) -> Polynomial:
    """Attach an imaginary part making a bounded real polynomial realizable.

    The returned P = P_R + i P_I keeps the parity and degree of P_R and
    satisfies the reflection-ansatz conditions. The complementary series Q
    found along the way is not kept: ``find_phases`` recomputes it
    (``phases._completion_q``), which gives the same Q.

    P_I and Q come from the outer factor of 1 - P_R^2 on the unit circle,
    which is unique, computed in double precision from its cepstrum; a P_R
    that touches 1 inside the interval has none. The identity residual
    P_R^2 + P_I^2 + (1-x^2) Q^2 - 1 on the max(4001, 4d + 1)-point Lobatto
    grid must stay below 5e-9 and the real part may drift by at most 1e-9;
    any failure, a non-finite completion included, raises CompletionError.
    """
    if not p_r.is_real(1e-10):
        raise ConditionError("completion requires a real polynomial")
    d = p_r.degree
    if d > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {d} exceeds max {MAX_DEGREE}", needed=d)
    pr = p_r.coefficients[: d + 1].real.copy()
    parity = detect_parity(pr, 1e-10)
    if parity == "none":
        if d == 0:
            parity = "even"
        else:
            raise ConditionError("completion requires definite parity")
    grid = max(4001, 4 * d + 1)
    pr_vals = lobatto_values(pr, grid)
    sup = float(np.abs(pr_vals).max())
    if not sup <= 1.0 + 1e-9:
        raise ConditionError(f"|P_R| reaches {sup:.12f} > 1 on [-1, 1]")

    try:
        pi_c, q_c = _factor.complete_real(pr)
    except CompletionError as exc:
        raise CompletionError(
            f"spectral factorization failed at degree {d}: {exc}; "
            "consider reducing the degree"
        ) from exc
    if not (np.isfinite(pi_c).all() and np.isfinite(q_c).all()):
        raise CompletionError(f"spectral factorization at degree {d} is not finite")
    total = cheb.chebmul(pr, pr)
    total = cheb.chebadd(total, cheb.chebmul(pi_c, pi_c))
    total = cheb.chebadd(total, cheb.chebmul(np.array([0.5, 0.0, -0.5]), cheb.chebmul(q_c, q_c)))
    total[0] -= 1.0
    residual = float(np.abs(lobatto_values(total, grid)).max())
    # even-parity realizability pins |P(0)| = 1 to within this residual, so
    # stay well under the 1e-8 condition tolerance
    if not residual <= 5e-9:
        raise CompletionError(
            f"completion residual {residual:.2e} at degree {d}; "
            "consider reducing the degree"
        )
    n = d + 1
    coeffs = np.zeros(n, dtype=complex)
    coeffs[: len(pr)] += pr
    coeffs[: len(pi_c)] += 1j * pi_c[:n]
    if parity != "none":
        off = 1 if parity == "even" else 0
        coeffs[off::2] = 0.0
    out = Polynomial(coeffs, parity)
    _check_qsp_conditions(out)
    drift = np.abs(lobatto_values(out.coefficients, grid).real - pr_vals).max()
    if not drift <= 1e-9:
        raise CompletionError(f"real part drifted by {drift:.2e} during completion")
    return out
