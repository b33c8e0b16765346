"""Polynomial approximants and the real-to-complex completion.

Provides the truncated arcsin Taylor series, an erf-based approximant of the
sign function with closed-form Chebyshev coefficients, and the spectral
factorization that equips a bounded real polynomial with the imaginary part
required by the reflection ansatz.

Checks on a grid use Chebyshev-Lobatto points cos(pi j / (N - 1)), where a
series' N values are one DCT-I of its coefficients (``lobatto_values``):
the completion's sup, identity-residual and drift checks (N = 4001) and the
on-interval bound of ``_check_qsp_conditions`` (N = 2001). The latter's
off-interval and imaginary-axis samples are evaluated in scaled form,
e^{-dt} P(x) for |x + sqrt(x^2 - 1)| = e^t, which cannot overflow at any
degree, and compared in logarithms.

Every guard is written so that a NaN or infinite value fails it.

All operations are pure functions over immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as mono
from scipy.fft import dct
from scipy.special import erfinv, ive

from . import _factor
from .errors import CompletionError, ConditionError, DegreeOverflowError, InputError

COEFF_TOL = 1e-12
MAX_DEGREE = 10_000  # largest degree any approximant or completion may reach


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector with basis and parity.

    ``coefficients[k]`` multiplies x^k (monomial basis) or T_k (chebyshev
    basis). A declared parity requires the cross-parity coefficients to
    vanish to 1e-12.
    """

    coefficients: np.ndarray
    basis: str = "monomial"
    parity: str = "none"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        c = np.ascontiguousarray(np.atleast_1d(np.asarray(self.coefficients, dtype=complex)))
        object.__setattr__(self, "coefficients", c)
        if self.basis not in ("monomial", "chebyshev"):
            raise ValueError(f"unknown basis {self.basis!r}")
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
    """Numerically stable evaluation: Clenshaw for Chebyshev, Horner otherwise.

    Accepts scalars or arrays, real or complex.
    """
    if p.basis == "chebyshev":
        return cheb.chebval(x, p.coefficients)
    return mono.polyval(x, p.coefficients)


def lobatto_values(c: np.ndarray, n: int) -> np.ndarray:
    """Values of the Chebyshev series c on the n-point Lobatto grid.

    The grid is cos(pi j / (n - 1)), j = 0 .. n - 1, i.e.
    ``cos(linspace(0, pi, n))`` in that order. There T_k(x_j) =
    cos(pi k j / (n - 1)), so all n values are one DCT-I of the
    coefficients: O(n log n) instead of Clenshaw's O(n d). Coefficients of
    index >= n - 1 are folded first: on the grid T_k repeats with period
    2(n - 1) in k and equals T_{2(n - 1) - k}. The values are those at the
    exact grid points; ``chebval`` on the rounded ``cos`` grid can differ
    from them by up to ~d^2 * 1e-16 * sum|c| near the ends.
    """
    c = np.asarray(c)
    period = 2 * (n - 1)
    k = np.arange(c.size) % period
    a = np.zeros(n, dtype=np.result_type(c.dtype, float))
    np.add.at(a, np.minimum(k, period - k), c)
    a[1:-1] /= 2
    return dct(a, type=1)


def to_chebyshev(p: Polynomial) -> Polynomial:
    if p.basis == "chebyshev":
        return p
    return Polynomial(mono2cheb(p.coefficients), "chebyshev", p.parity, dict(p.meta))


def to_monomial(p: Polynomial) -> Polynomial:
    if p.basis == "monomial":
        return p
    return Polynomial(cheb.cheb2poly(p.coefficients), "monomial", p.parity, dict(p.meta))


def mono2cheb(c: np.ndarray) -> np.ndarray:
    return cheb.poly2cheb(np.asarray(c, dtype=complex))


def chebyshev_economize(p: Polynomial, budget: float) -> Polynomial:
    """Truncate the Chebyshev tail, spending at most ``budget`` in sup norm."""
    pc = to_chebyshev(p)
    c = pc.coefficients.copy()
    mags = np.abs(c)
    spent, keep = 0.0, len(c)
    while keep > 1 and spent + mags[keep - 1] <= budget:
        spent += mags[keep - 1]
        keep -= 1
    c = c[:keep]
    if pc.parity != "none":
        off = 1 if pc.parity == "even" else 0
        c[off::2] = 0.0
    return Polynomial(c, "chebyshev", pc.parity, dict(pc.meta))


def poly_to_text(p: Polynomial) -> str:
    """Serialize: header `basis parity degree`, then one `re im` per coefficient."""
    lines = [f"{p.basis} {p.parity} {p.degree}"]
    for c in p.coefficients[: p.degree + 1]:
        lines.append(f"{c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> Polynomial:
    """Parse ``poly_to_text`` output; a malformed file raises InputError.

    The header must name a basis, a parity and a degree d >= 0, and exactly
    d + 1 lines of two finite numbers must follow.
    """
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 3:
        raise InputError("polynomial file needs a header `basis parity degree`")
    basis, parity, deg = lines[0]
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
        return Polynomial(coeffs, basis, parity)
    except ValueError as exc:
        raise InputError(f"malformed polynomial file: {exc}") from exc


def arcsin_taylor(
    epsilon: float, delta: float, max_degree: int = MAX_DEGREE
) -> Polynomial:
    """Truncated Taylor series of arcsin(x)/pi, accurate on [-1+delta, 1-delta].

    Coefficient of x^(2k+1) is binom(2k, k) / (pi * 4^k * (2k+1)); terms are
    kept until the geometric tail bound at |x| = 1 - delta drops below
    epsilon. The resulting degree grows like (1/delta) * log(1/epsilon).
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    y = 1.0 - delta
    geom = 1.0 / (1.0 - y * y)
    terms = [1.0 / np.pi]
    while True:
        k = len(terms) - 1  # index of the last kept term
        a_next = terms[-1] * (2 * k + 1) ** 2 / (2.0 * (k + 1) * (2 * k + 3))
        tail = a_next * y ** (2 * k + 3) * geom
        if tail <= epsilon:
            break
        terms.append(a_next)
        if 2 * len(terms) - 1 > max_degree:
            needed = 2 * len(terms) - 1
            raise DegreeOverflowError(
                f"arcsin truncation needs degree > {max_degree} "
                f"(roughly {needed}) for epsilon={epsilon}, delta={delta}",
                needed=needed,
            )
    degree = 2 * len(terms) - 1
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = terms
    # the terms are positive and sum to at most arcsin(1)/pi = 1/2 at x = 1,
    # so |P| < 1 on [-1, 1] and no rescale is needed
    return Polynomial(coeffs, basis="monomial", parity="odd")


def sign_approx(Delta: float, delta: float, max_degree: int = MAX_DEGREE) -> Polynomial:
    """Odd polynomial close to sign(x) for |x| >= Delta.

    Approximates erf(k*x) with k chosen so erf(k*Delta) >= 1 - delta/8, using
    the closed-form Chebyshev expansion of the Gaussian integrand (modified
    Bessel coefficients), then rescales by 1/(1 + delta/4) so the sup norm
    stays strictly below 1. Guarantees P(x) >= 1 - delta/2 on [Delta, 1].
    """
    if not 0 < Delta < 1 or not 0 < delta < 1:
        raise ValueError("Delta and delta must lie in (0, 1)")
    k = float(erfinv(1.0 - delta / 8.0)) / Delta
    z = k * k / 2.0
    pref = 2.0 * k / np.sqrt(np.pi)
    tail_budget = delta / 16.0

    # Bessel weights decay like exp(-j^2 / (2z)); size the table accordingly
    j_scale = np.sqrt(2.0 * z * np.log(max(4.0 * pref * np.sqrt(z + 1.0) / tail_budget, 2.0)))
    j_est = int(1.3 * j_scale + z / max(j_scale, 1.0) + 20)
    if 2 * j_est + 1 > 4 * max_degree:
        raise DegreeOverflowError(
            f"sign approximant needs roughly degree {2 * j_est + 1} "
            f"(> max {max_degree}) for Delta={Delta}, delta={delta}",
            needed=2 * j_est + 1,
        )
    js = np.arange(j_est + 1)
    bess = ive(js, z)
    weights = pref * bess[1:] * (2.0 / np.maximum(2 * js[1:] - 1, 1))

    # smallest cut such that dropping Bessel terms j > cut costs <= the budget
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    big_j = 0
    while suffix[big_j] > tail_budget:
        big_j += 1
    degree = 2 * big_j + 1
    if degree > max_degree:
        raise DegreeOverflowError(
            f"sign approximant degree {degree} exceeds max {max_degree}", needed=degree
        )

    coeffs = np.zeros(degree + 1)
    coeffs[1] += pref * bess[0]
    for jj in range(1, big_j + 1):
        term = pref * ((-1) ** jj) * bess[jj]
        coeffs[2 * jj + 1] += term / (2 * jj + 1)
        coeffs[2 * jj - 1] -= term / (2 * jj - 1)
    scale = 1.0 / (1.0 + delta / 4.0)
    coeffs *= scale
    return Polynomial(coeffs, basis="chebyshev", parity="odd")


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
    basis = (w**k * np.exp((k - d) * t) + w**-k * np.exp(-(k + d) * t)) / 2
    return basis.T @ c, d * t


def _check_qsp_conditions(p: Polynomial, tol: float = 1e-8) -> None:
    """Conditions the reflection ansatz requires, checked at sample points."""
    pc = to_chebyshev(p)
    c = pc.coefficients
    if not np.isfinite(c).all():
        raise ConditionError("polynomial has a non-finite coefficient")
    d = pc.degree
    want = "even" if d % 2 == 0 else "odd"
    if detect_parity(c[: d + 1], max(COEFF_TOL, tol)) != want:
        raise ConditionError(f"polynomial of degree {d} lacks parity {d % 2}")
    vals = np.abs(lobatto_values(c, 2001))
    if not vals.max() <= 1.0 + tol:
        raise ConditionError(f"|P| reaches {vals.max():.12f} > 1 on [-1, 1]")
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
    satisfies the reflection-ansatz conditions; the complementary series Q
    found along the way is stored in ``meta["q_cheb"]``.

    The spectral factorization runs in double precision; its identity
    residual P_R^2 + P_I^2 + (1-x^2) Q^2 - 1 on the 4001-point Lobatto grid
    must stay below 5e-9, and any failure, a non-finite completion included,
    raises CompletionError.
    """
    pc = to_chebyshev(p_r)
    if not pc.is_real(1e-10):
        raise ConditionError("completion requires a real polynomial")
    d = pc.degree
    if d > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {d} exceeds max {MAX_DEGREE}", needed=d)
    pr = pc.coefficients[: d + 1].real.copy()
    parity = detect_parity(pr, 1e-10)
    if parity == "none":
        if d == 0:
            parity = "even"
        else:
            raise ConditionError("completion requires definite parity")
    grid = 4001
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
    out = Polynomial(
        coeffs,
        basis="chebyshev",
        parity=parity,
        meta={"q_cheb": np.asarray(q_c), "completion_residual": residual},
    )
    _check_qsp_conditions(out)
    drift = np.abs(lobatto_values(out.coefficients, grid).real - pr_vals).max()
    if not drift <= 1e-9:
        raise CompletionError(f"real part drifted by {drift:.2e} during completion")
    return out
