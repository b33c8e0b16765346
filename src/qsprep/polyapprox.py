"""Polynomial approximants and the real-to-complex completion.

Provides the truncated arcsin Taylor series, an erf-based approximant of the
sign function with closed-form Chebyshev coefficients, and the spectral
factorization that equips a bounded real polynomial with the imaginary part
required by the reflection ansatz.

All operations are pure functions over immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as mono
from scipy.special import erfinv, ive

from . import _factor
from .errors import CompletionError, ConditionError, DegreeOverflowError

COEFF_TOL = 1e-12
DEFAULT_MAX_DEGREE = 10_000


@dataclass(frozen=True)
class ApproximationSpec:
    """Resolved parameters of a constructed approximant."""

    target: str  # "arcsin_over_pi" | "sign"
    epsilon: float
    delta_margin: float
    degree: int

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.delta_margin < 1:
            raise ValueError("delta_margin must lie in (0, 1)")


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector with basis, parity and domain metadata.

    ``coefficients[k]`` multiplies x^k (monomial basis) or T_k (chebyshev
    basis). A declared parity requires the cross-parity coefficients to
    vanish to 1e-12.
    """

    coefficients: np.ndarray
    basis: str = "monomial"
    parity: str = "none"
    domain: tuple[float, float] = (-1.0, 1.0)
    approx: ApproximationSpec | None = None
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
        idx = np.nonzero(np.abs(self.coefficients) > COEFF_TOL)[0]
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


def conjugate_coefficients(p: Polynomial) -> Polynomial:
    """P*: the polynomial with conjugated coefficients."""
    return Polynomial(p.coefficients.conj(), p.basis, p.parity, p.domain)


def to_chebyshev(p: Polynomial) -> Polynomial:
    if p.basis == "chebyshev":
        return p
    return Polynomial(mono2cheb(p.coefficients), "chebyshev", p.parity, p.domain, p.approx, dict(p.meta))


def to_monomial(p: Polynomial) -> Polynomial:
    if p.basis == "monomial":
        return p
    return Polynomial(cheb.cheb2poly(p.coefficients), "monomial", p.parity, p.domain, p.approx, dict(p.meta))


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
    meta = dict(pc.meta)
    meta["economized_from"] = p.degree
    meta["economize_budget"] = budget
    return Polynomial(c, "chebyshev", pc.parity, pc.domain, pc.approx, meta)


def poly_to_text(p: Polynomial) -> str:
    """Serialize: header `basis parity degree`, then one `re im` per coefficient."""
    lines = [f"{p.basis} {p.parity} {p.degree}"]
    for c in p.coefficients[: p.degree + 1]:
        lines.append(f"{c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> Polynomial:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    basis, parity, deg = lines[0].split()
    deg = int(deg)
    coeffs = np.zeros(deg + 1, dtype=complex)
    for k, ln in enumerate(lines[1 : deg + 2]):
        re, im = (float(t) for t in ln.split())
        coeffs[k] = re + 1j * im
    return Polynomial(coeffs, basis, parity)


def arcsin_taylor(
    epsilon: float, delta: float, max_degree: int = DEFAULT_MAX_DEGREE
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
    p = Polynomial(
        coeffs,
        basis="monomial",
        parity="odd",
        domain=(-1.0 + delta, 1.0 - delta),
        approx=ApproximationSpec("arcsin_over_pi", epsilon, delta, degree),
    )
    # the partial sums at x = 1 stay below arcsin(1)/pi = 1/2, so no rescale
    sup = float(np.sum(coeffs[1::2]))
    if sup > 1.0:
        scale = 1.0 / (1.0 + epsilon)
        p = Polynomial(coeffs * scale, "monomial", "odd", p.domain, p.approx, {"rescaled": scale})
    return p


def sign_approx(Delta: float, delta: float, max_degree: int = DEFAULT_MAX_DEGREE) -> Polynomial:
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
    return Polynomial(
        coeffs,
        basis="chebyshev",
        parity="odd",
        approx=ApproximationSpec("sign", delta, Delta, degree),
        meta={"erf_slope": k, "rescaled": scale},
    )


def _check_qsp_conditions(p: Polynomial, tol: float = 1e-8) -> None:
    """Conditions the reflection ansatz requires, checked at sample points."""
    pc = to_chebyshev(p)
    d = pc.degree
    want = "even" if d % 2 == 0 else "odd"
    if detect_parity(pc.coefficients[: d + 1], max(COEFF_TOL, tol)) != want:
        raise ConditionError(f"polynomial of degree {d} lacks parity {d % 2}")
    xs = np.cos(np.linspace(0.0, np.pi, 2001))
    vals = np.abs(evaluate(pc, xs))
    if vals.max() > 1.0 + tol:
        raise ConditionError(f"|P| reaches {vals.max():.12f} > 1 on [-1, 1]")
    for x in (1.0 + 1e-6, 1.05, 1.25, 1.5, 2.0):
        for s in (x, -x):
            if abs(evaluate(pc, s)) < 1.0 - tol:
                raise ConditionError(f"|P({s})| < 1 outside [-1, 1]")
    if d % 2 == 0:
        pstar = conjugate_coefficients(pc)
        for x in (0.0, 0.1, 0.35, 0.7, 1.0, 1.5, 2.0):
            val = evaluate(pc, 1j * x) * evaluate(pstar, 1j * x)
            if abs(val.imag) > tol * max(1.0, abs(val)) or val.real < 1.0 - tol:
                raise ConditionError(f"P(ix)P*(ix) = {val} < 1 at x = {x}")


def complete_to_complex(
    p_r: Polynomial, max_degree: int = DEFAULT_MAX_DEGREE
) -> Polynomial:
    """Attach an imaginary part making a bounded real polynomial realizable.

    The returned P = P_R + i P_I keeps the parity and degree of P_R and
    satisfies the reflection-ansatz conditions; the complementary series Q
    found along the way is stored in ``meta["q_cheb"]``.

    The spectral factorization runs in double precision; its identity
    residual P_R^2 + P_I^2 + (1-x^2) Q^2 - 1 on a 4001-point grid must stay
    below 5e-9, and any failure raises CompletionError.
    """
    pc = to_chebyshev(p_r)
    if not pc.is_real(1e-10):
        raise ConditionError("completion requires a real polynomial")
    d = pc.degree
    if d > max_degree:
        raise DegreeOverflowError(f"degree {d} exceeds max {max_degree}", needed=d)
    pr = pc.coefficients[: d + 1].real.copy()
    parity = detect_parity(pr, 1e-10)
    if parity == "none":
        if d == 0:
            parity = "even"
        else:
            raise ConditionError("completion requires definite parity")
    xs = np.cos(np.linspace(0.0, np.pi, 4001))
    sup = float(np.abs(cheb.chebval(xs, pr)).max())
    if sup > 1.0 + 1e-9:
        raise ConditionError(f"|P_R| reaches {sup:.12f} > 1 on [-1, 1]")

    try:
        pi_c, q_c = _factor.complete_real(pr)
    except CompletionError as exc:
        raise CompletionError(
            f"spectral factorization failed at degree {d}: {exc}; "
            "consider reducing the degree"
        ) from exc
    total = cheb.chebmul(pr, pr)
    total = cheb.chebadd(total, cheb.chebmul(pi_c, pi_c))
    total = cheb.chebadd(total, cheb.chebmul(np.array([0.5, 0.0, -0.5]), cheb.chebmul(q_c, q_c)))
    total[0] -= 1.0
    residual = float(np.abs(cheb.chebval(xs, total)).max())
    # even-parity realizability pins |P(0)| = 1 to within this residual, so
    # stay well under the 1e-8 condition tolerance
    if residual > 5e-9:
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
        domain=pc.domain,
        meta={"q_cheb": np.asarray(q_c), "completion_residual": residual},
    )
    _check_qsp_conditions(out)
    drift = np.abs(cheb.chebval(xs, out.coefficients).real - cheb.chebval(xs, pr)).max()
    if drift > 1e-9:
        raise CompletionError(f"real part drifted by {drift:.2e} during completion")
    return out
