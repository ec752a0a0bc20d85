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
which does not depend on alpha; _increment_form dots c with one alpha's
lag weights.  The increments are written once, by one subtraction of
the samples straight into the zero-padded FFT buffer.  Up to 2^13
increments c is one real FFT of the m increments padded to the least
power of two N >= 2m - 2, its power spectrum squared in place; at
N = 2m - 2 lag m - 1 meets its mirror image, so c_(m-1) is written
directly as d_0 d_(m-1).  Beyond, it is correlated by
halves (Stockham's sectioned correlation, AFIPS 1966): the two halves'
FFTs of half the size run side by side, one on a helper thread started
and joined within the call (numpy's FFT releases the GIL), or both on the
caller's thread when no thread can be started; from 2^16 + 1 frequency
bins on, so does the elementwise combine of their spectra, in two parts
of the bins.  The bits are the same either way.
GridFunction.increment_autocorr keeps c, so a function evaluated at
several exponents correlates once, and up to 2^13 lags a later exponent's
form is one dot of c with a view of the kept table (a warm grid energy at
2049 nodes: ~5 us in process on a quiet core).  Every dot is np.vdot,
which leaves the floating-point flags alone, so a form too large for
float64 comes back inf or NaN without np.errstate.  The lag weights
depend only on alpha and the order, not on the data, and a table of n lags
is the first n lags of any longer one.  One read-only table of 2^13 lags is
kept per (alpha, order), in a least-recently-used cache of 128 tables (at
most 128 * 2^13 * 8 bytes = 8 MiB), and up to 2^13 lags are read as a view
of it, so functions of any size at one alpha share it.  Lags beyond are
never kept: the form writes them in blocks of 2^15 lags, in place in three
rows reused from block to block, and dots each block with c in slices of
2^13 lags.  From four blocks on a helper thread takes blocks too, into
its own rows, and the slice dots are added in lag order afterwards, so
the bits are the same whichever thread took a block and whether or not a
thread started.  An energy at a new alpha allocates 7 * 2^15 floats
(1.75 MiB) of blocks beyond c.  A first energy
of n support nodes peaks at about 32 bytes per node above the samples
(the FFT buffers and their spectra: one buffer of the least power of two
>= 2n - 4 points, or two of >= n - 2 points for the halves; 56 bytes
just above a power of two), and c keeps 8.
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

import contextvars
import functools
import math
import threading

import numpy as np

from . import grids  # imports quadcells: its rules are read at call time

__all__ = ["rho_profile", "increment_autocorr", "gagliardo_of_values",
           "hat_energy_row"]

# The series is used from lag 2*order on, where each term shrinks the
# previous by at least 1/16, so 16 terms reach far below double rounding.
_SERIES_TERMS = 16

# Term t's coefficient is within 2^(2t+1) of the first term's, so from lag
# 2^(1 + 27/t) on, where k^(-2t) <= 2^(-2t-54), term t is below 2^-53 of
# the first.  From t = 2's lag, 2^14.5, on only terms 0 and 1 count.
_TWO_TERM_LAG = 23171                   # ceil(2^14.5)

# One table of the first _KEPT_LAGS lags is kept per (alpha, order), at most
# _KEPT_TABLES of them: 8 MiB of float64 in the worst case.  The form takes
# the lags beyond in blocks of _KEPT_LAGS lags.
_KEPT_LAGS = 1 << 13
_KEPT_TABLES = 128

# The form writes the lags beyond the kept table in blocks of _BLOCK_LAGS,
# a multiple of _KEPT_LAGS, and shares them with a helper thread from
# _HELPER_BLOCKS blocks on; see _tail_dots.  Shorter blocks make more,
# shorter numpy calls, and the two threads then wait on each other for the
# interpreter lock: at 2^20 lags two threads took 1.6x the serial time with
# blocks of 2^13 lags, 1.1x with 2^14, 0.8x with 2^15.  Longer blocks would
# take a second exponent at 2^18 nodes past 2 MiB.  Up to 3 blocks the
# helper did not pay for its start (2-core x86-64, in process, medians).
_BLOCK_LAGS = 1 << 15
_HELPER_BLOCKS = 4

# For alpha > 1 the second differences are shifted by the regular part of
# their value at this lag, the kept table's last; see _write_lag_weights.
_REF_LAG = _KEPT_LAGS - 1

# More slopes than this are correlated by halves (_split_autocorr).  The
# split was measured faster only at 2^18 - 2^20 slopes; the switch stays
# above every sweep-size energy, capacity sweep value and verify output, so
# those keep the single transform's bits.
_SPLIT_SLOPES = 1 << 13

# From this many frequency bins on, _split_autocorr combines the halves'
# spectra in two parts side by side.  Below, the thread's start and join
# (~0.15 ms) ate the gain: 2^15 bins whole took 0.36 ms, in two parts 0.52
# ms; 2^16 bins took 0.87 and 0.76 ms, 2^19 13.8 and 7.2 ms (2-core x86-64,
# in process, medians).
_COMBINE_SPLIT_BINS = 1 << 16


def _slope_autocorr(v: np.ndarray) -> np.ndarray:
    """c_k = sum_i d_i d_(i+k), k = 0 .. m-1, of the m = len(v) - 1
    slopes (node increments) d_i = v_(i+1) - v_i of the samples v, written
    once, straight into the zero-padded transform buffer."""
    m = v.size - 1
    if m > _SPLIT_SLOPES:
        return _split_autocorr(v)
    if m < 1:
        return np.zeros(1)
    # the zero padding is written here, so numpy makes no padded copy; the
    # power spectrum is formed in place and transformed back into the buffer
    nfft = _circular_size(2 * m - 2)
    buf = np.zeros(nfft)
    np.subtract(v[1:], v[:-1], out=buf[:m])
    first, last = buf[0], buf[m - 1]    # the inverse overwrites them
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
    if nfft == 2 * m - 2:               # lag m - 1 wrapped onto itself
        buf[m - 1] = first * last
    return buf[:m].copy()


def _circular_size(least: int) -> int:
    """The least power of two >= least that a circular correlation or
    Toeplitz product is embedded in.  Lags 0 .. m-1 of m samples need
    N >= 2m - 2: at N = 2m - 2 only lag m - 1 meets its mirror image,
    lag -(m-1), at one index, and a symmetric Toeplitz row's last entry
    belongs there once (the minimal circulant embedding; Dietrich and
    Newsam, SIAM J. Sci. Comput. 18, 1997)."""
    return 1 << max(least - 1, 0).bit_length()


def _split_autocorr(v: np.ndarray) -> np.ndarray:
    """_slope_autocorr from the halves s1 = s[:h] and s2 = s[h:] of the
    m = len(v) - 1 increments s, h = ceil(m/2), each written into its own
    pad, zero-padded to the least power of two N >= m - 1, which is
    >= 2h - 2, half the size of one whole transform (Stockham's sectioned
    correlation).  With S1, S2 their spectra,
    irfft(|S1|^2 + |S2|^2) is the halves' autocorrelations summed, a_k at
    lags 0 .. h-1, and irfft(conj(S1) S2) holds x_j = sum_i s1_i s2_(i+j)
    at index j mod N for -(h-1) <= j <= m-h-1, which N >= m - 1 keeps from
    wrapping; so c_k = a_k + x_(k-h).  At N = 2h - 2 (m = 2^k + 1, when
    s2 has h - 1 slopes) the halves' lag h - 1 wraps onto itself and is
    written directly, as s1_0 s1_(h-1).  The halves' forward transforms run
    side by side, and so do their inverses; from _COMBINE_SPLIT_BINS bins
    on, the combine of the spectra between them runs as two parts of the
    bins side by side (_combine_spectra), with the bits of one whole pass.

    Every buffer is allocated on this thread.  The pads hold the power
    spectrum's scratch and then the inverses, so the peak is the two pads
    and two spectra, as large as one whole transform's buffer and spectrum:
    32 bytes per slope from m = 2^k - 1 to 2^k + 1, 64 just above.
    """
    m = v.size - 1
    h = (m + 1) // 2
    nfft = _circular_size(m - 1)
    pads = np.zeros((2, nfft))
    np.subtract(v[1:h + 1], v[:h], out=pads[0, :h])
    np.subtract(v[h + 1:], v[h:m], out=pads[1, :m - h])
    first, middle = pads[0, 0], pads[0, h - 1]  # the scratch overwrites them
    specs = np.empty((2, nfft // 2 + 1), dtype=complex)
    _side_by_side(functools.partial(np.fft.rfft, pads[0], out=specs[0]),
                  functools.partial(np.fft.rfft, pads[1], out=specs[1]))
    bins = specs.shape[1]
    if bins < _COMBINE_SPLIT_BINS:
        _combine_spectra(specs, pads, 0, bins)
    else:
        mid = bins // 2
        _side_by_side(
            functools.partial(_combine_spectra, specs, pads, 0, mid),
            functools.partial(_combine_spectra, specs, pads, mid, bins))
    s1, s2 = specs
    _side_by_side(functools.partial(np.fft.irfft, s1, nfft, out=pads[0]),
                  functools.partial(np.fft.irfft, s2, nfft, out=pads[1]))
    del specs, s1, s2                   # so c does not raise the peak
    a, x = pads
    c = np.empty(m)                     # N = m - 1 leaves no room in a pad
    c[:h] = a[:h]
    if nfft == 2 * h - 2:               # lag h - 1 wrapped onto itself
        c[h - 1] = first * middle
    c[h:] = x[:m - h]
    c[1:h] += x[nfft - h + 1:]
    return c


def _combine_spectra(specs: np.ndarray, pads: np.ndarray, lo: int, hi: int):
    """Bins lo .. hi-1 of the halves' spectra S1, S2 (the rows of specs)
    become |S1|^2 + |S2|^2 (real) and conj(S1) S2, with the same bins of the
    pads as scratch.  Each bin is computed on its own, so parts of two or
    more bins give the bits of the whole; numpy's in-place complex product
    of one element alone takes another loop, which can round otherwise."""
    s1, s2 = specs[:, lo:hi]
    sq, tmp = pads[:, lo:hi]
    np.multiply(s2.real, s2.real, out=sq)
    np.multiply(s2.imag, s2.imag, out=tmp)
    sq += tmp
    np.conjugate(s1, out=s1)
    s2 *= s1                            # conj(S1) S2
    re, im = s1.real, s1.imag
    re *= re
    im *= im
    re += im
    re += sq                            # |S1|^2 + |S2|^2
    im[:] = 0.0


def _side_by_side(first, second):
    """Run first() on a helper thread while this thread runs second().  The
    helper is joined, and an exception it raised is raised here, before this
    returns.  The helper runs in a copy of this thread's context, so the
    caller's np.errstate holds there too.  When no thread can be started (a
    process or address-space limit), both run here, with the same bits."""
    failed = []
    context = contextvars.copy_context()

    def helper():
        try:
            context.run(first)
        except BaseException as exc:    # noqa: BLE001 - raised on the caller
            failed.append(exc)

    thread = threading.Thread(target=helper)
    try:
        thread.start()
    except RuntimeError:                # "can't start new thread"
        first()
        second()
        return
    try:
        second()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _expm1_ratio(a: float, x):
    """expm1(a x) / a, continued to x at a = 0."""
    return x if a == 0.0 else np.expm1(a * x) / a


def _lag_weights(alpha: float, order: int, lo: int, hi: int) -> np.ndarray:
    """Lags lo .. hi-1 of the lag weights: a read-only view of the kept
    table when hi <= _KEPT_LAGS, a fresh block beyond."""
    if hi <= _KEPT_LAGS:
        return _kept_lag_weights(alpha, order)[lo:hi]
    return _lag_weight_table(alpha, order, lo, hi)


@functools.lru_cache(maxsize=_KEPT_TABLES)
def _kept_lag_weights(alpha: float, order: int) -> np.ndarray:
    w = _lag_weight_table(alpha, order, 0, _KEPT_LAGS)
    w.flags.writeable = False
    return w


def _lag_weight_table(alpha: float, order: int, lo: int,
                      hi: int) -> np.ndarray:
    """A fresh array of the lag weights at the lags lo .. hi-1; see
    _write_lag_weights."""
    out = np.empty(hi - lo)
    _write_lag_weights(out, np.empty((2, hi - lo)),
                       np.arange(hi - lo, dtype=float), alpha, order, lo)
    return out


def _write_lag_weights(out: np.ndarray, work: np.ndarray, index: np.ndarray,
                       alpha: float, order: int, lo: int):
    """Central difference delta^order W(k) of the regularised power W at the
    lags k = lo .. lo + out.size - 1, for order 2 or 4, written into out.
    work holds two rows of scratch and index the floats 0, 1, 2, ..., each
    at least out.size long; index is only read.  Every lag is computed on
    its own, so any block of lags equals the same lags of a longer table
    bit for bit.  The whole-array passes run in place, within out and work.

    For alpha > 1 the second differences tend to the constant 2/(alpha-1);
    they are returned minus the regular part of their value at the fixed
    lag _REF_LAG, which leaves the form of tapered samples unchanged (it is
    blind to constant weights) and keeps most of that constant's rounding
    out of long sums.  The reference lag is finite, so the shift stays
    finite as alpha falls to 1 and the form stays continuous there.
    """
    q = 1.0 - alpha                     # p - 2 for the power p = 3 - alpha
    near = 2 * order                    # lags below it are differenced
    cut = min(max(lo, near), lo + out.size)   # the block's first series lag
    if lo < near:
        if order == 4:
            # delta^4 = delta^2 delta^2 keeps the small lags accurate where
            # differencing W itself would cancel badly.
            f = _lag_weight_table(alpha, 2, 0, near + 1)
        else:
            ks = np.arange(1.0, near + 1.0)
            f = np.concatenate([[0.0], ks * ks * _expm1_ratio(q, np.log(ks))])
        f = np.concatenate([f[1:2], f])  # f is even: lag -1 mirrors lag 1
        d = f[2:] - 2.0 * f[1:-1] + f[:-2]
        out[:cut - lo] = d[lo:cut]
    # From lag 2 order on, delta^order k^p = sum over even j of C(p, j) M_j
    # k^(p-j), with the stencil moments M_j = 2 for delta^2 and 2^(j+1) - 8
    # for delta^4 (M_2 = 0).  C(p, j), j >= 4, carries p - 2 = q, divided
    # out in b; each p - i is (3 - i) - alpha, exact for small alpha.  The
    # tail, the terms from j = 4 on, is summed by Horner's rule in 1/k^2.
    # Three rows hold the series lags: the tail, k^q (ln k before it) and
    # 1/k^2 (for order 2 then the ratio below).  The row that ends as the
    # result is out's: the tail for order 4, k^q for order 2.
    series = out[cut - lo:]
    n = series.size
    x = work[1, :n]
    tail, kq = (series, work[0, :n]) if order == 4 else (work[0, :n], series)
    k = index[:n]
    np.add(k, cut, out=x)
    np.log(x, out=kq)                   # ln k, until k^q
    x *= x
    np.divide(1.0, x, out=x)            # 1 / k^2
    m = min(max(_TWO_TERM_LAG - cut, 0), n)          # lags below it
    b = (3.0 - alpha) * (2.0 - alpha) * -alpha / 24.0      # C(p, 4) / q
    coefs = []
    for j in range(4, 2 * (_SERIES_TERMS if m else 2) + 4, 2):
        coefs.append(b * (2.0 if order == 2 else 2.0 ** (j + 1) - 8.0))
        b *= ((3.0 - j) - alpha) * ((2.0 - j) - alpha) / ((j + 1.0) * (j + 2.0))
    if m:                               # every term; beyond, two
        full, x_full = tail[:m], x[:m]
        full.fill(coefs[-1])
        for c in reversed(coefs[1:-1]):
            full *= x_full
            full += c
        full *= x_full
    np.multiply(x[m:], coefs[1], out=tail[m:])
    tail += coefs[0]
    kq *= q
    np.exp(kq, out=kq)
    x *= kq
    tail *= x                           # the tail times k^q / k^2
    if order == 4:
        return

    # The j = 2 term and the k^2 of W combine to
    # p (p-1) (k^q - 1) / q + p + 1, regular at alpha = 1.  For alpha > 1
    # the reference lag 1 becomes R = _REF_LAG and the constant p + 1 drops
    # out: p (p-1) (k^q - R^q) / q + tail(k).
    head = (3.0 - alpha) * (2.0 - alpha)
    ln_ref = np.log(_REF_LAG) if alpha > 1.0 else 0.0
    if alpha > 1.0 and cut > lo:
        out[:cut - lo] -= head * _expm1_ratio(q, ln_ref) + (4.0 - alpha)
    ratio = x                           # expm1(q ln(R/k)) / q
    np.add(k, cut, out=ratio)
    np.log(ratio, out=ratio)
    np.subtract(ln_ref, ratio, out=ratio)
    if q != 0.0:
        ratio *= q
        np.expm1(ratio, out=ratio)
        ratio /= q
    kq *= -head
    kq *= ratio
    # p + 1, left out for alpha > 1: adding 0.0 could change only a -0.0,
    # and the tail added next is never 0
    if alpha <= 1.0:
        kq += 4.0 - alpha
    kq += tail


def _form_scale(h: float, alpha: float) -> float:
    """C h^(1-alpha) with C = 2 / (alpha (2-alpha) (3-alpha)); refused with
    ValueError where it overflows, as alpha falls to the subnormals."""
    alpha = grids.kernel_exponent(alpha)
    scale = 2.0 * h ** (1.0 - alpha) / (alpha * (2.0 - alpha) * (3.0 - alpha))
    if not math.isfinite(scale):
        raise ValueError(f"the form scale at alpha={alpha!r}, h={h!r} "
                         f"overflows float64")
    return scale


def _without_overflow(value: float) -> float:
    """Finite samples have a finite form, so a form that is not finite has
    overflowed float64."""
    if not math.isfinite(value):
        raise ValueError("the energy of these samples overflows float64")
    return value


def _increment_form(c: np.ndarray, h: float, alpha: float) -> float:
    """E = C h^(1-alpha) sum_(i,j) d_i d_j (-delta^2 W)(i - j) from the
    increment autocorrelation c_k, k >= 0, which counts each lag k > 0
    once for each sign.

    Up to _KEPT_LAGS lags the form is one dot of c with a view of the kept
    table.  Beyond, _tail_dots dots each further slice of _KEPT_LAGS lags
    with its weights, and the slice dots are added in lag order.  np.vdot
    runs np.dot's BLAS dot without checking the floating-point flags, and
    the result is combined in Python floats, so a form that overflows is
    returned as inf or NaN without a warning, even under a caller's
    np.errstate."""
    scale = _form_scale(h, alpha)
    kept = _kept_lag_weights(alpha, 2)
    if c.size <= _KEPT_LAGS:
        dot = float(np.vdot(c, kept[:c.size]))
    else:
        dot = float(np.vdot(c[:_KEPT_LAGS], kept))
        for d in _tail_dots(c, alpha).tolist():
            dot += d
    return -scale * (2.0 * dot - float(c[0]) * float(kept[0]))


def _tail_dots(c: np.ndarray, alpha: float) -> np.ndarray:
    """The dots of c's slices of _KEPT_LAGS lags beyond the first with their
    order-2 lag weights, in lag order.

    The weights are never kept: they are written in blocks of _BLOCK_LAGS
    lags, and each block is dotted slice by slice, so every dot is the one
    a whole table would give.  With at least _HELPER_BLOCKS blocks, they
    are shared between this thread and a helper (_side_by_side): each takes
    the next block left and writes it into its own three rows, reused from
    block to block, and both read one index row: at most 7 * _BLOCK_LAGS
    floats (1.75 MiB) per call, 4 rows when one thread takes every block.
    Every dot has its own place, so the bits do not depend on which thread
    took a block, nor on whether a thread started."""
    dots = np.empty((c.size - 1) // _KEPT_LAGS)
    todo = list(range(_KEPT_LAGS, c.size, _BLOCK_LAGS))[::-1]
    index = np.arange(min(_BLOCK_LAGS, c.size - _KEPT_LAGS), dtype=float)

    def take_blocks():
        rows = None
        while True:
            try:
                lo = todo.pop()         # atomic: one thread gets each block
            except IndexError:
                return
            if rows is None:
                rows = np.empty((3, index.size))
            w = rows[0, :min(_BLOCK_LAGS, c.size - lo)]
            _write_lag_weights(w, rows[1:], index, alpha, 2, lo)
            cw = c[lo:lo + w.size]
            for at in range(0, w.size, _KEPT_LAGS):
                dots[(lo + at) // _KEPT_LAGS - 1] = np.vdot(
                    cw[at:at + _KEPT_LAGS], w[at:at + _KEPT_LAGS])

    if len(todo) >= _HELPER_BLOCKS:
        _side_by_side(take_blocks, take_blocks)
    else:
        take_blocks()
    return dots


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
    return _slope_autocorr(v)


def gagliardo_of_values(values: np.ndarray, h: float, alpha: float) -> float:
    """Exact fractional seminorm (no prefactor) of the interpolant of
    ``values``; the samples must taper to exact 0 at both array ends.
    Raises ValueError, without a numpy warning, where the form overflows
    float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = increment_autocorr(values)
    return _without_overflow(_increment_form(c, h, alpha))


def hat_energy_row(n: int, h: float, alpha: float) -> np.ndarray:
    """Row k(m) of the fractional stiffness matrix for unit hat functions on
    a uniform grid: k(m) is the form applied to the hat pair at distance m*h.

    The full matrix is symmetric Toeplitz: K[i, j] = row[|i - j|].
    """
    if n < 1:
        raise ValueError("need at least one node")
    return _form_scale(h, alpha) * _lag_weights(alpha, 4, 0, n)
