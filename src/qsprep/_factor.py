"""Spectral factorization helpers for polynomial completion and phase finding.

All polynomial arithmetic is in the Chebyshev basis, where bounded
polynomials keep O(1) coefficients, through ``numpy.polynomial.chebyshev``;
multiplication by x and by (1 - x^2), the steps of layer stripping, are
plain slice arithmetic on raw arrays (``mulx``, ``mul_one_minus_x2``).
Root work happens in the variable u = 2x^2 - 1 (every polynomial factored
here is even), via colleague matrices in double precision. Downstream
verification decides whether a result is accepted.

The complementary series used by layer stripping can also be assembled in
extended precision: the same routine takes an object array of mpmath.mpc
coefficients, works at the current ``mp.dps`` and polishes the colleague
roots with an Aberth iteration.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as cheb
import mpmath as mp

from .errors import CompletionError


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


def pick_conjugate_half(roots: np.ndarray, im_tol: float = 1e-7):
    """One representative per conjugate pair; real roots are paired up.

    Returns a list S such that S together with its conjugates reproduces the
    whole multiset. Real roots must occur an even number of times, which is
    guaranteed for polynomials that are nonnegative on the real line.
    """
    upper, lower, real = [], [], []
    for r in np.atleast_1d(roots):
        t = im_tol * (1.0 + abs(r))
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


def _real_part(v: np.ndarray) -> tuple[np.ndarray, float]:
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
    v, dust = _real_part(v)
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
    by factoring F = 1 - P_R^2 on the unit circle: with x = (z + 1/z)/2 the
    lifted polynomial in z^2 has one inside-disk root per root of F written
    in u = 2x^2 - 1, namely w = u -/+ 2 sqrt(x^2 (x^2 - 1)). The factor
    g(z) = sqrt(K) z^{-d} prod (z^2 - w_j) satisfies |g|^2 = F <= 1 on the
    circle, but its partial products grow like 2^j and overflow from degree
    ~2000, so K and g are assembled from sums of logarithms.
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

    ws = _paired_factor_roots(cheb.chebroots(fu / np.abs(fu).max()))
    ts = np.array([0.41, 1.13, 1.87, 2.63])
    m = 1 << (4 * d + 7).bit_length()  # FFT size, the power of two >= 4d + 8
    theta = 2 * np.pi * np.arange(m) / m
    z2 = np.exp(2j * theta)
    # log 0 = -inf only where a sample lands exactly on a root
    with np.errstate(divide="ignore"):
        # positive scale so that |g|^2 = F at four sample points
        log_mag2 = 2 * np.log(np.abs(np.exp(2j * ts)[:, None] - ws)).sum(axis=1)
        keep = log_mag2 >= np.log(1e-280)
        if not keep.any():
            raise CompletionError("all scaling samples fell on roots")
        ks = cheb.chebval(np.cos(ts[keep]), f) * np.exp(-log_mag2[keep])
        k = float(np.median(ks))
        # a wrong branch or half gives O(1) disagreement; root noise stays
        # tiny, and the reconstruction check downstream is the accuracy authority
        if not (k > 0 and ks.max() - ks.min() <= 1e-3 * k + 1e-12):
            raise CompletionError(f"inconsistent circle factorization scale {ks}")
        # Laurent coefficients of g by FFT; each chunk's product stays below 2^64
        log_g = 0.5 * np.log(k) - 1j * d * theta
        for j in range(0, ws.size, 64):
            log_g += np.log(np.prod(z2 - ws[j:j + 64, None], axis=0))
    gl = np.fft.fft(np.exp(log_g)) / m

    # symmetric part -> P_I (T-series), antisymmetric part -> Q (U-series)
    pos, neg = gl[1:d + 1], gl[m - 1:m - d - 1:-1]
    sym, asym = pos + neg, pos - neg
    dust = max(abs(gl[0].imag), np.abs(sym.imag).max(), np.abs(asym.imag).max())
    if not dust <= 1e-7:
        raise CompletionError(f"factor is not real (imaginary dust {dust:.2e})")
    return np.concatenate([[gl[0].real], sym.real]), u_series_to_t(asym.real)


def _paired_factor_roots(roots_u: np.ndarray, im_tol: float = 1e-8) -> np.ndarray:
    """Inside-disk factor roots with conjugate closure enforced structurally.

    Each upper-half u-root emits exactly (w, conj(w)); that keeps the
    spectral factor real even when both branch magnitudes sit on the unit
    circle and an independent per-root pick could break the symmetry. Real
    u-roots have a real inside branch (interior tangencies are excluded
    upstream). The branch is w = u -/+ 2 sqrt(x^2 (x^2 - 1)), x^2 = (u+1)/2,
    whichever has the smaller modulus.
    """
    u = np.atleast_1d(roots_u).astype(complex)
    t = im_tol * (1.0 + np.abs(u))
    upper, lower = u.imag > t, u.imag < -t
    n_up = int(upper.sum())
    if n_up != lower.sum():
        raise CompletionError(
            f"conjugate pairing failed: {n_up} upper vs {lower.sum()} lower roots"
        )
    u = np.concatenate([u[upper], u[~(upper | lower)].real + 0j])
    x2 = (u + 1.0) / 2.0
    s = 2 * np.sqrt(x2 * x2 - x2)
    w = np.where(np.abs(u + s) <= np.abs(u - s), u + s, u - s)
    w_up, w_real = w[:n_up], w[n_up:]
    if not (np.abs(w_real.imag) <= 1e-6 * (1.0 + np.abs(w_real))).all():
        raise CompletionError(
            "real factor root fell on the unit circle; the polynomial "
            "touches 1 inside the interval"
        )
    return np.concatenate([np.stack([w_up, w_up.conj()], axis=1).ravel(), w_real.real + 0j])


def to_mp(c) -> np.ndarray:
    """Object array of mpmath.mpc holding the given coefficients."""
    return np.array([mp.mpc(z) for z in np.atleast_1d(c)], dtype=object)


def aberth_roots(coeffs: np.ndarray, max_iter: int = 25) -> np.ndarray:
    """All roots of a real mpc T-series, refined simultaneously in mp precision.

    The start is the colleague-matrix roots from the complex eigensolver: a
    conjugate-symmetric start (the real solver's) would keep the iterates of
    a close real pair on the real line for good. Stops at the configured
    tolerance or once the steps stall at the rounding floor (near-multiple
    roots cannot do better than ~sqrt of the precision).
    """
    der = cheb.chebder(coeffs)
    zs = [mp.mpc(complex(r)) for r in cheb.chebroots(coeffs.astype(complex))]
    n = len(zs)
    tol = mp.mpf(10) ** (-(mp.mp.dps - 6))
    prev = None
    for it in range(max_iter):
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
