"""Spectral factorization helpers for polynomial completion and phase finding.

All polynomial arithmetic is in the Chebyshev basis, where bounded
polynomials keep O(1) coefficients, through ``numpy.polynomial.chebyshev``;
multiplication by x and by (1 - x^2), the steps of layer stripping, are
plain slice arithmetic on raw arrays (``mulx``, ``mul_one_minus_x2``).
Every polynomial factored here is even, so the work happens in u = 2x^2 - 1.
A real P_R is completed from the cepstrum of 1 - P_R^2 by FFT, with no root
finding (``complete_real``). The complementary series of a complex P
(``complementary_q``) comes from colleague-matrix roots, in double or, for
an object array of mpmath.mpc, in extended precision at the current
``mp.dps`` with an Aberth polish. Downstream verification decides whether
a result is accepted.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as cheb
import mpmath as mp

from .errors import CompletionError

MAX_CEPSTRUM_GRID = 1 << 21


def strip_dps(degree: int) -> int:
    """Digits for extended-precision layer stripping; grows with the degree."""
    return max(50, 30 + int(1.2 * degree))


def trim_tail(c: np.ndarray, rel: float = 1e-15) -> np.ndarray:
    """Drop trailing coefficients below rel * max|c|."""
    c = np.asarray(c)
    scale = np.abs(c).max() if c.size else 0.0
    if scale == 0.0:
        return c[:1]
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= rel * scale:
        keep -= 1
    return c[:keep]


def mulx(c: np.ndarray) -> np.ndarray:
    """x times a Chebyshev series, one term longer.

    x T_0 = T_1 and x T_j = (T_{j+1} + T_{j-1}) / 2. Only slices and
    arithmetic, so complex arrays and object arrays of mpmath.mpc both work.
    """
    out = np.empty(len(c) + 1, dtype=c.dtype)
    out[0] = c[0] * 0
    out[1] = c[0]
    half = c[1:] / 2
    out[2:] = half
    out[:-2] += half
    return out


def mul_one_minus_x2(c: np.ndarray) -> np.ndarray:
    """(1 - x^2) times a Chebyshev series, two terms longer."""
    out = -mulx(mulx(c))
    out[: len(c)] += c
    return out


def cheb_div_linear(b, u0):
    """Divide a Chebyshev series by (x - u0); returns (quotient, remainder).

    Works for any scalar type supporting arithmetic (floats, complex, mp).
    """
    n = len(b) - 1
    zero = b[0] * 0
    if n < 1:
        return [zero], b[0]
    if n == 1:
        q0 = b[1]
        return [q0], b[0] + u0 * q0
    q = [zero] * n
    q[n - 1] = 2 * b[n]
    for j in range(n - 1, 1, -1):
        nxt = q[j + 1] if j + 1 < n else zero
        q[j - 1] = 2 * b[j] + 2 * u0 * q[j] - nxt
    q2 = q[2] if n >= 3 else zero
    q[0] = b[1] + u0 * q[1] - q2 / 2
    r = b[0] - q[1] / 2 + u0 * q[0]
    return q, r


def divide_one_minus_x2(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide by (1 - x^2) in the Chebyshev basis; returns (quotient, |remainder|)."""
    g, r = cheb.chebdiv(v, np.array([0.5, 0.0, -0.5]))
    rem = float(np.abs(r).max()) if np.asarray(r).size else 0.0
    return g, rem


def even_part_to_u(c: np.ndarray) -> np.ndarray:
    """Map an even Chebyshev series in x to a series in u = 2x^2 - 1.

    T_{2j}(x) = T_j(2x^2 - 1), so the u-coefficients are the even-index ones.
    """
    return np.asarray(c)[::2].copy()


def u_series_to_t(ub: np.ndarray) -> np.ndarray:
    """Convert sum_j ub[j] U_j(x) into a Chebyshev-T series.

    U_j = 2 (T_j + T_{j-2} + ...), with T_0 counted once, so each
    T-coefficient is twice the sum of the U-coefficients of its index and
    parity and above: one reversed cumulative sum per parity.
    """
    ub = np.asarray(ub)
    out = np.empty(ub.shape, dtype=np.result_type(ub.dtype, float))
    out[0::2] = 2 * np.cumsum(ub[0::2][::-1])[::-1]
    out[1::2] = 2 * np.cumsum(ub[1::2][::-1])[::-1]
    out[:1] /= 2
    return out


def pick_conjugate_half(roots: np.ndarray):
    """One representative per conjugate pair; real roots are paired up.

    A root counts as real when its imaginary part is at most 1e-7 (1 + |r|).

    Returns a list S such that S together with its conjugates reproduces the
    whole multiset. Real roots must occur an even number of times, which is
    guaranteed for polynomials that are nonnegative on the real line.
    """
    upper, lower, real = [], [], []
    for r in np.atleast_1d(roots):
        t = 1e-7 * (1.0 + abs(r))
        if r.imag > t:
            upper.append(r)
        elif r.imag < -t:
            lower.append(r)
        else:
            real.append(r.real)
    if len(upper) != len(lower):
        raise CompletionError(
            f"conjugate pairing failed: {len(upper)} upper vs {len(lower)} lower roots"
        )
    real.sort()
    if len(real) % 2:
        raise CompletionError(
            "odd number of real roots; the factored polynomial is not sign-definite"
        )
    reps = list(upper)
    for i in range(0, len(real), 2):
        reps.append((real[i] + real[i + 1]) / 2)
    return reps


def _interleave_by_magnitude(values):
    """Mild Leja-style ordering to keep partial products tame."""
    vals = sorted(values, key=abs)
    out = []
    lo, hi = 0, len(vals) - 1
    while lo <= hi:
        out.append(vals[lo])
        lo += 1
        if lo <= hi:
            out.append(vals[hi])
            hi -= 1
    return out


def _real_and_dust(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Real part of a coefficient vector and the largest imaginary part dropped."""
    if v.dtype != object:
        return v.real, float(np.abs(v.imag).max())
    return np.array([z.real for z in v]), float(max(abs(z.imag) for z in v))


def complementary_q(p_cheb: np.ndarray) -> np.ndarray:
    """Complementary series Q with P P* + (1-x^2) Q Q* = 1.

    P is a complex Chebyshev series of exact degree d; the returned Q has
    degree d-1. P may be a complex array (double precision) or an object
    array of mpmath.mpc, in which case the whole assembly runs at the current
    ``mp.dps``, the colleague roots are Aberth-polished to that precision,
    and Q comes back as mpc too. Raises CompletionError when the
    factorization cannot be carried out.
    """
    exact = np.asarray(p_cheb).dtype == object
    p = np.asarray(p_cheb, dtype=object if exact else complex)
    if not np.isfinite(p.astype(complex)).all():
        raise CompletionError("P has a non-finite coefficient")
    d = len(p) - 1
    v = -cheb.chebmul(p, p.conj())
    v[0] += 1
    v, dust = _real_and_dust(v)
    if not dust <= 1e-10:
        raise CompletionError("1 - P P* has a non-real coefficient")
    g, rem = divide_one_minus_x2(v)
    if not rem <= 1e-8 * max(1.0, np.abs(v).max()):
        raise CompletionError(f"(1 - x^2) does not divide 1 - P P* (remainder {rem:.2e})")
    # drop only what lies below the working precision's rounding noise
    g = trim_tail(g, mp.eps if exact else 1e-15)
    odd_mass = np.abs(g[1::2]).max() if g.size > 1 else 0.0
    if not odd_mass <= 1e-9 * max(1.0, np.abs(g).max()):
        raise CompletionError("1 - P P* is not even")
    gu = even_part_to_u(g)

    # structural root at u = -1 (x = 0) for even-degree P
    mu = 0
    scale = np.abs(gu).max()
    while len(gu) > 1 and abs(cheb.chebval(-1.0, gu)) < 1e-8 * scale:
        q_, _ = cheb_div_linear(list(gu), -1.0)
        gu = np.asarray(q_, dtype=gu.dtype)
        mu += 1
        if mu > d:
            raise CompletionError("runaway deflation at u = -1")

    reps = []
    if len(gu) > 1:
        gu = gu / np.abs(gu).max()
        roots_u = aberth_roots(gu) if exact else cheb.chebroots(gu)
        reps = pick_conjugate_half((roots_u + 1) / 2)

    q = np.array([1], dtype=p.dtype)
    for x2 in _interleave_by_magnitude(reps):
        q = cheb.chebmul(q, np.array([0.5 - x2, 0.0, 0.5]))
    for _ in range(mu):
        q = mulx(q)

    if len(q) - 1 != d - 1:
        raise CompletionError(
            f"complementary degree {len(q) - 1} != {d - 1}; root pairing inconsistent"
        )

    # overall positive scale from a real sample point away from the roots,
    # taken at the working precision
    x0 = (mp.mpf if exact else float)("1.37")
    gval = cheb.chebval(x0, g)
    qval = cheb.chebval(x0, q)
    denom = abs(qval) ** 2
    if not (denom >= 1e-280 and gval > 0):
        raise CompletionError("degenerate sample while scaling the complementary series")
    return q * (gval / denom) ** 0.5


def complete_real(pr_cheb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Imaginary part and complementary series for a real bounded P_R.

    Solves P_R^2 + P_I^2 + (1-x^2) Q^2 = 1 with real Chebyshev series P_I, Q
    by factoring F = 1 - P_R^2 on the unit circle, where x = (z + 1/z)/2 and
    u = (zeta + 1/zeta)/2, zeta = z^2. The outer factor h of F in zeta
    (|h|^2 = F on the circle, h(0) > 0, no zero inside the disk) is unique;
    g(z) = z^d h(1/z^2) gives P_I from its symmetric and Q from its
    antisymmetric coefficients. Exact zeros of F at u = +/-1 (x = +/-1 and
    x = 0) are divided out as (1 -/+ u)/2 and multiplied back into h as
    (1 -/+ zeta)/2; the rest of h comes from ``_outer_factor``.
    """
    pr = np.asarray(pr_cheb, dtype=float)
    if not np.isfinite(pr).all():
        raise CompletionError("P_R has a non-finite coefficient")
    d = len(pr) - 1
    f = -cheb.chebmul(pr, pr)
    f[0] += 1.0
    odd_mass = np.abs(f[1::2]).max() if f.size > 1 else 0.0
    if not odd_mass <= 1e-10 * max(1.0, np.abs(f).max()):
        raise CompletionError("1 - P_R^2 is not even; P_R lacks definite parity")
    fu = even_part_to_u(f)

    if len(fu) == 1:
        val = float(fu[0])
        if not val >= -1e-12:
            raise CompletionError("1 - P_R^2 is negative")
        return np.array([np.sqrt(max(val, 0.0))]), np.array([0.0])

    # F as zeta^d times a palindromic polynomial in zeta
    lau = np.concatenate([fu[:0:-1] / 2, fu[:1], fu[1:] / 2])
    zeros = []
    for s in (1.0, -1.0):
        while lau.size > 1 and abs(np.polyval(lau, s)) <= 1e-9:
            # zero the value at u = s (moving F by at most 1e-9), then divide
            # by (1 - s u)/2 = -s (zeta - s)^2 / (4 zeta)
            lau[lau.size // 2] -= s ** (lau.size // 2) * np.polyval(lau, s)
            lau = -4 * s * _divide_root(_divide_root(lau, s), s)
            zeros.append(s)
    h = _outer_factor(lau)
    for s in zeros:
        h = np.convolve(h, [0.5, -0.5 * s])

    # g(z) = z^d h(1/z^2): its Laurent coefficients for z^-d .. z^d
    g = np.zeros(2 * d + 1, dtype=h.dtype)
    g[::2] = h[::-1]
    # symmetric part -> P_I (T-series), antisymmetric part -> Q (U-series)
    pos, neg = g[d + 1:], g[d - 1::-1]
    sym, asym = pos + neg, pos - neg
    dust = max(abs(g[d].imag), np.abs(sym.imag).max(), np.abs(asym.imag).max())
    if not dust <= 1e-7:
        raise CompletionError(f"factor is not real (imaginary dust {dust:.2e})")
    return np.concatenate([[g[d].real], sym.real]), u_series_to_t(asym.real)


def _divide_root(p: np.ndarray, s: float) -> np.ndarray:
    """p(zeta) / (zeta - s), s = +/-1, remainder dropped: p_i = q_{i-1} - s q_i."""
    powers = s ** np.arange(p.size)
    return -(s * powers * np.cumsum(powers * p))[:-1]


def _outer_factor(lau: np.ndarray) -> np.ndarray:
    """Outer factor of G = zeta^-D lau(zeta), lau palindromic of length 2D + 1.

    h = exp(causal half of the cepstrum of log G) has |h|^2 = G, h(0) > 0
    and no zero inside the disk: three FFTs on an m-point circle grid. m
    starts at the power of two >= 4D + 4 and doubles until the aliased
    coefficients above degree D hold below 1e-14 of h's 2-norm. A G that
    vanishes or is negative on the circle (P_R touches or exceeds 1 inside
    the interval) raises CompletionError, at a grid point or at the cap.
    """
    deg = lau.size // 2
    m = 1 << (4 * deg + 3).bit_length()
    while m <= MAX_CEPSTRUM_GRID:
        vals = np.fft.irfft(lau[deg:], m) * m
        if not vals.min() > 0:
            raise CompletionError("1 - P_R^2 vanishes or is negative inside the interval")
        cep = np.fft.rfft(np.log(vals)) / m
        cep[[0, -1]] /= 2
        h = np.fft.fft(np.exp(m * np.fft.ifft(cep, m))) / m
        if np.linalg.norm(h[deg + 1:]) <= 1e-12 * np.linalg.norm(h):
            return h[:deg + 1]
        m *= 2
    raise CompletionError(
        f"cepstrum of 1 - P_R^2 unresolved on {MAX_CEPSTRUM_GRID} points; "
        "|P_R| touches or nearly touches 1 on [-1, 1]"
    )


def to_mp(c) -> np.ndarray:
    """Object array of mpmath.mpc holding the given coefficients."""
    return np.array([mp.mpc(z) for z in np.atleast_1d(c)], dtype=object)


def aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a real mpc T-series, refined simultaneously in mp precision.

    The start is the colleague-matrix roots from the complex eigensolver: a
    conjugate-symmetric start (the real solver's) would keep the iterates of
    a close real pair on the real line for good. Stops after 25 sweeps, at
    the working precision less 6 digits, or once the steps stall at the
    rounding floor (near-multiple roots cannot do better than ~sqrt of the
    precision).
    """
    der = cheb.chebder(coeffs)
    zs = [mp.mpc(complex(r)) for r in cheb.chebroots(coeffs.astype(complex))]
    n = len(zs)
    tol = mp.mpf(10) ** (-(mp.mp.dps - 6))
    prev = None
    for it in range(25):
        moved = mp.mpf(0)
        vals = [cheb.chebval(z, coeffs) for z in zs]
        ders = [cheb.chebval(z, der) for z in zs]
        for i in range(n):
            if ders[i] == 0:
                zs[i] += mp.mpf(10) ** (-mp.mp.dps // 2)
                continue
            w = vals[i] / ders[i]
            s = mp.mpc(0)
            for j in range(n):
                if j != i:
                    dz = zs[i] - zs[j]
                    if dz != 0:
                        s += 1 / dz
            denom = 1 - w * s
            step = w / denom if denom != 0 else w
            zs[i] -= step
            moved = max(moved, abs(step) / (1 + abs(zs[i])))
        if moved < tol:
            break
        # allow slow linear phases on clusters; only stop once genuinely
        # stalled at the attainable floor
        if it >= 6 and prev is not None and moved > prev / 2:
            break
        prev = moved
    return np.array(zs, dtype=object)
