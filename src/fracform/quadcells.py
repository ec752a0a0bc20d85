"""Exact evaluation of the fractional quadratic form on piecewise-linear data.

For a piecewise-linear u with grid step h and node increments
d_i = u_(i+1) - u_i, the double integral of (u(x) - u(y))^2 / |x-y|^(1+alpha)
integrates in closed form over every pair of grid cells:

    E(u) = C h^(1-alpha) sum_(i,j) d_i d_j (-delta^2 W)(i - j),
    C = 2 / (alpha (2-alpha) (3-alpha)),

with delta^2 the central second difference of the regularised power
W(k) = k^2 expm1((1-alpha) ln|k|) / (1-alpha) = (|k|^(3-alpha) - k^2)/(1-alpha),
which is k^2 ln|k| at alpha = 1.  The k^2 removes the pole at alpha = 1 and
drops a term proportional to (sum_i d_i)^2, so the samples must taper to 0
at both ends.  The double sum runs over the increment autocorrelation; in
terms of rho(tau) = int (u(y+tau) - u(y))^2 dy,
int_0^inf tau^(-1-alpha) rho(tau) dtau = E(u) / 2.

The autocorrelation of the unit hat of width 2h is h B(tau/h), B the centred
cubic B-spline (de Boor, A Practical Guide to Splines, ch. IX).  So with
a_m = sum_i u_i u_(i+m), A(tau) = int u(y+tau) u(y) dy = h sum_m a_m
B(tau/h - m) exactly, four terms per lag: rho = 2 (A(0) - A(tau)) (see
rho_profile), and h B(0), h B(1) are the capacity operator's Gram row.

The form splits in two.  increment_autocorr gives c_k = sum_i d_i d_(i+k),
which does not depend on alpha (one zero-padded real FFT at every size,
its power spectrum squared in place); _increment_form dots c with one
alpha's lag weights.  GridFunction.increment_autocorr keeps c, so a
function evaluated at several exponents correlates once.  The lag weights
depend only on the lag count, alpha and the order, not on the data: the
read-only tables of up to 2^13 lags are kept in one least-recently-used
cache of 128 tables, so a repeated (lag count, alpha, order) skips the
table and the cache holds at most 128 * 2^13 * 8 bytes = 8 MiB.  A longer
table is never kept: the form takes it in blocks of 2^13 lags (64 KiB),
each computed and dotted with its slice of c while it sits in cache, so
an energy at a new alpha allocates a few blocks beyond c.  A first energy
of n support nodes peaks at about 40 bytes per node above the samples
(the increments, the 2n-point FFT buffer and its spectrum), and c keeps 8.
Only hat_energy_row, whose capacity solve needs the whole row, builds a
long table whole.

The stiffness row of the hat basis is the fourth difference instead:
k(m) = C h^(1-alpha) delta^4 W(m).  Small lags difference W directly; larger
lags sum the binomial series of the difference of k^(3-alpha) in powers of
1/k^2, free of the cancellation of direct differencing.  Term t of that
series falls below 2^-53 of the first term from lag 2^(1 + 27/t) on, so
from lag 2^14.5 on only the first two terms are summed: at 2^20 lags three
whole-array passes remain of thirty.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["rho_profile", "increment_autocorr", "gagliardo_of_values",
           "hat_energy_row"]

# The series is used from lag 2*order on, where each term shrinks the
# previous by at least 1/16, so 16 terms reach far below double rounding.
_SERIES_TERMS = 16

# Term t's coefficient is within 2^(2t+1) of the first term's, so from lag
# 2^(1 + 27/t) on, where k^(-2t) <= 2^(-2t-54), term t is below 2^-53 of
# the first.  From t = 2's lag, 2^14.5, on only terms 0 and 1 count.
_TWO_TERM_LAG = 23171                   # ceil(2^14.5)

# Lag-weight tables of up to _KEPT_LAGS lags are kept, at most _KEPT_TABLES
# of them: 8 MiB of float64 in the worst case.  The form takes longer tables
# in blocks of _KEPT_LAGS lags.
_KEPT_LAGS = 1 << 13
_KEPT_TABLES = 128


def _slope_autocorr(s: np.ndarray) -> np.ndarray:
    """c_k = sum_i s_i s_{i+k} for k = 0 .. len(s)-1."""
    if s.size == 0:
        return np.zeros(1)
    # the zero padding is written here, so numpy makes no padded copy; the
    # power spectrum is formed in place and transformed back into the buffer
    nfft = 1 << (2 * s.size - 2).bit_length()
    buf = np.zeros(nfft)
    buf[:s.size] = s
    spec = np.fft.rfft(buf)
    re, im = spec.real, spec.imag
    re *= re
    im *= im
    re += im
    im[:] = 0.0
    np.fft.irfft(spec, nfft, out=buf)
    # the spectrum goes before the copy, so the copy does not raise the peak
    # of buffer and spectrum; the copy does not keep the buffer alive
    del spec, re, im
    return buf[:s.size].copy()


def _expm1_ratio(a: float, x):
    """expm1(a x) / a, continued to x at a = 0."""
    return x if a == 0.0 else np.expm1(a * x) / a


def _lag_weights(n: int, alpha: float, order: int = 2) -> np.ndarray:
    """_lag_weight_table(n, alpha, order), kept and read-only for up to
    _KEPT_LAGS lags, computed afresh beyond."""
    if n > _KEPT_LAGS:
        return _lag_weight_table(n, alpha, order)
    return _kept_lag_weights(n, alpha, order)


@functools.lru_cache(maxsize=_KEPT_TABLES)
def _kept_lag_weights(n: int, alpha: float, order: int) -> np.ndarray:
    w = _lag_weight_table(n, alpha, order)
    w.flags.writeable = False
    return w


def _series(start: int, stop: int, alpha: float, order: int):
    """(ln k, k^(1-alpha), tail) at the lags k = start .. stop-1, all at
    least 2 order, where tail is the part of delta^order k^(3-alpha) beyond
    its first two series terms (below).

    delta^(order) k^p = sum over even j of C(p, j) M_j k^(p-j), with the
    stencil moments M_j = sum_i c_i i^j: M_j = 2 for delta^2, and
    2^(j+1) - 8 for delta^4 (M_2 = 0).  From j = 4 on, C(p, j) carries the
    factor p - 2 = 1 - alpha, divided out in b, and each p - i is formed as
    (3 - i) - alpha, exact for small alpha; the sum runs by Horner's rule
    in 1/k^2.  Every lag is computed on its own, so a block of lags equals
    the same lags of a longer run bit for bit.
    """
    k = np.arange(start, stop, dtype=float)
    lnk = np.log(k)
    x = 1.0 / (k * k)
    b = (3.0 - alpha) * (2.0 - alpha) * -alpha / 24.0      # C(p, 4) / q
    coefs = []
    for j in range(4, 2 * _SERIES_TERMS + 4, 2):
        coefs.append(b * (2.0 if order == 2 else 2.0 ** (j + 1) - 8.0))
        b *= ((3.0 - j) - alpha) * ((2.0 - j) - alpha) / ((j + 1.0) * (j + 2.0))
    m = min(max(_TWO_TERM_LAG - start, 0), k.size)   # lags below it
    tail = np.empty(k.size)
    head, x_head = tail[:m], x[:m]
    head.fill(coefs[-1])
    for c in reversed(coefs[1:-1]):
        head *= x_head
        head += c
    tail[m:] = coefs[1]
    tail *= x
    tail += coefs[0]
    kq = np.exp((1.0 - alpha) * lnk)
    tail *= x * kq
    return lnk, kq, tail


def _reference_terms(n: int, alpha: float) -> tuple[float, float]:
    """(ln K, tail(K)) at the last lag K = n-1 of an n-lag table."""
    ln_ks, _, t_ks = _series(n - 1, n, alpha, 2)
    return ln_ks[0], t_ks[0]


def _lag_weight_table(n: int, alpha: float, order: int, lo: int = 0,
                      hi: int | None = None,
                      ref: tuple[float, float] | None = None) -> np.ndarray:
    """Central difference delta^order W(k) of the regularised power W at the
    lags k = lo .. hi-1 (by default all n lags) of the n-lag table, for
    order 2 or 4.  Blocks of lags concatenate to the whole table bit for
    bit.

    For alpha > 1 the second differences tend to the constant 2/(alpha-1);
    they are returned minus their value at the last lag n-1, which leaves
    the form of tapered samples unchanged (it is blind to constant weights)
    and keeps the rounding of that constant out of long sums.  ``ref``, if
    given, is ``_reference_terms(n, alpha)``, so blocks of one table need
    not recompute it.
    """
    hi = n if hi is None else hi
    q = 1.0 - alpha                     # p - 2 for the power p = 3 - alpha
    near = min(n, 2 * order)
    cut = min(max(lo, near), hi)        # the block's first series lag
    out = np.empty(hi - lo)
    if lo < near:
        if order == 4:
            # delta^4 = delta^2 delta^2 keeps the small lags accurate where
            # differencing W itself would cancel badly.
            f = _lag_weight_table(near + 1, alpha, 2)
        else:
            ks = np.arange(1.0, near + 1.0)
            f = np.concatenate([[0.0], ks * ks * _expm1_ratio(q, np.log(ks))])
        f = np.concatenate([f[1:2], f])  # f is even: lag -1 mirrors lag 1
        d = f[2:] - 2.0 * f[1:-1] + f[:-2]
        if n == near and order == 2:
            return (d - d[-1] if alpha > 1.0 else d)[lo:hi]
        out[:cut - lo] = d[lo:cut]
    lnk, kq, tail = _series(cut, hi, alpha, order)
    if order == 4:
        out[cut - lo:] = tail
        return out

    # The j = 2 term and the k^2 of W combine to
    # p (p-1) (k^q - 1) / q + p + 1, regular at alpha = 1.  For alpha > 1
    # the reference lag 1 becomes the last lag K = n-1, and the constant
    # p + 1 and tail(K) drop out: p (p-1) (k^q - K^q) / q + tail(k) - tail(K).
    head = (3.0 - alpha) * (2.0 - alpha)
    const, ln_ref, t_ref = 4.0 - alpha, 0.0, 0.0
    if alpha > 1.0:
        ln_ref, t_ref = ref or _reference_terms(n, alpha)
        out[:cut - lo] -= head * _expm1_ratio(q, ln_ref) + const + t_ref
        const = 0.0
    out[cut - lo:] = (-head * kq * _expm1_ratio(q, ln_ref - lnk)
                      + const + tail - t_ref)
    return out


def _form_scale(h: float, alpha: float) -> float:
    """C h^(1-alpha) with C = 2 / (alpha (2-alpha) (3-alpha))."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"kernel exponent alpha must lie in (0, 2), got {alpha}")
    return 2.0 * h ** (1.0 - alpha) / (alpha * (2.0 - alpha) * (3.0 - alpha))


def _increment_form(c: np.ndarray, h: float, alpha: float) -> float:
    """E = C h^(1-alpha) sum_(i,j) d_i d_j (-delta^2 W)(i - j) from the
    increment autocorrelation c_k, k >= 0, which counts each lag k > 0
    once for each sign.

    The lag weights come in blocks of _KEPT_LAGS lags, each dotted with its
    slice of c: a table of up to _KEPT_LAGS lags is the kept one, and no
    longer table is built whole."""
    scale = _form_scale(h, alpha)
    n = c.size
    ref = (_reference_terms(n, alpha) if n > _KEPT_LAGS and alpha > 1.0
           else None)
    dot = -0.0                          # x + -0.0 is x, so one block is its dot
    for lo in range(0, n, _KEPT_LAGS):
        hi = min(lo + _KEPT_LAGS, n)
        w = (_kept_lag_weights(n, alpha, 2) if n <= _KEPT_LAGS
             else _lag_weight_table(n, alpha, 2, lo, hi, ref))
        if lo == 0:
            w0 = w[0]
        dot += float(np.dot(c[lo:hi], w))
    return -scale * (2.0 * dot - c[0] * w0)


def _cubic_bspline(t: np.ndarray) -> np.ndarray:
    """Centred cubic B-spline, supported on |t| < 2: B(0) = 2/3, B(1) = 1/6."""
    t = np.abs(t)
    return np.where(t < 1.0, 2.0 / 3.0 - t * t * (1.0 - 0.5 * t),
                    np.maximum(2.0 - t, 0.0) ** 3 / 6.0)


def _require_tapered(v: np.ndarray):
    if v.size and (v[0] != 0.0 or v[-1] != 0.0):
        raise ValueError("samples must taper to exact 0 at both ends")


def rho_profile(values: np.ndarray, h: float, tau) -> np.ndarray:
    """rho(tau) = int (u(y + tau) - u(y))^2 dy at the lags ``tau`` for the
    interpolant u of ``values``, which must taper to exact 0 at both ends.

    rho(tau) = 2 (A(0) - A(tau)) for the hat correlation A; as the B(s - m)
    sum to 1, that is h sum_m D_m (B(tau/h - m) - B(-m)) with
    D_m = 2 (a_0 - a_m) = sum_i (u_(i+m) - u_i)^2 over the zero-extended
    samples, a sum of squares that does not cancel at short lags.
    """
    v = np.asarray(values, dtype=float)
    _require_tapered(v)
    t = np.concatenate([[0.0], np.atleast_1d(np.asarray(tau, dtype=float))
                        / h])
    m = np.floor(t)[:, None] + np.arange(-1.0, 3.0)
    # every lag at or beyond the last node has D_m = 2 sum_i u_i^2
    lags, where = np.unique(np.minimum(np.abs(m), v.size).astype(int),
                            return_inverse=True)
    # the squares of the first and of the last k samples, summed from the ends
    sq = v * v
    d = (np.concatenate([[0.0], np.cumsum(sq)])[lags]
         + np.concatenate([[0.0], np.cumsum(sq[::-1])])[lags])
    for j, k in enumerate(lags):
        w = v[k:] - v[:v.size - k]
        d[j] += w @ w
    s = h * np.sum(d[where.reshape(m.shape)] * _cubic_bspline(t[:, None] - m),
                   axis=1)
    return s[1:] - s[0]


def increment_autocorr(values: np.ndarray) -> np.ndarray:
    """c_k = sum_i d_i d_(i+k), k >= 0, of the increments d = diff(values),
    which must taper to exact 0 at both array ends; the same for every
    alpha."""
    v = np.asarray(values, dtype=float)
    _require_tapered(v)
    return _slope_autocorr(np.diff(v))


def gagliardo_of_values(values: np.ndarray, h: float, alpha: float) -> float:
    """Exact fractional seminorm (no prefactor) of the interpolant of
    ``values``; the samples must taper to exact 0 at both array ends."""
    return _increment_form(increment_autocorr(values), h, alpha)


def hat_energy_row(n: int, h: float, alpha: float) -> np.ndarray:
    """Row k(m) of the fractional stiffness matrix for unit hat functions on
    a uniform grid: k(m) is the form applied to the hat pair at distance m*h.

    The full matrix is symmetric Toeplitz: K[i, j] = row[|i - j|].
    """
    if n < 1:
        raise ValueError("need at least one node")
    return _form_scale(h, alpha) * _lag_weights(n, alpha, order=4)
