"""Fourier transforms of grid functions.

Uses the convention fhat(xi) = (2 pi)^(-1/2) int f(x) e^(i x xi) dx.  For a
piecewise-linear function on a uniform grid the transform factors exactly as

    fhat(xi) = h / sqrt(2 pi) * sinc^2(xi h / 2) * sum_j f_j e^(i xi x_j),

(the hat-function transform times a discrete sum), so the values below are
those of the interpolant at every frequency, up to the phase sum's stated
error -- there is no binning and no error near xi = 0.

The phase sum S_k = sum_j f_j e^(i xi_k x_j) over M frequencies and N nodes
has two evaluations:

* chirp-z (Bluestein): on a uniform grid xi_k = xi_0 + k dxi, the identity
  k j = (k^2 + j^2 - (k - j)^2) / 2 turns S into one linear convolution,
  done with three power-of-two FFTs of length >= M + N - 1, in
  O((M + N) log(M + N)) time.  Both index ranges are centred, and the large
  chirp phases dxi h u^2 / 2 are formed as exact floats before the complex
  exponential reduces them, so no rounding error grows with M or N: it
  agrees with the explicit M x N sum to that sum's own rounding (below
  1e-13 of h sum |f_j| / sqrt(2 pi) in the tests) for any aspect ratio.
* Gaussian gridding (a type-2 nonuniform FFT; Dutt and Rokhlin, SIAM J.
  Sci. Comput. 14, 1993; Greengard and Lee, SIAM Review 46, 2004) at any
  frequencies.  With j' = j - N // 2 and x_c = x_(N // 2),
  S_k = e^(i xi_k x_c) F(xi_k h mod 2 pi) for F(t) = sum_j' f_j' e^(i j' t).
  The samples are divided by the Fourier coefficients
  sqrt(tau / pi) e^(-tau j'^2) of the periodic Gaussian exp(-t^2 / (4 tau)),
  one FFT samples the quotient at the K points 2 pi m / K, and convolving
  with the Gaussian, by the trapezoid sum over the ``_TAPS`` = 24 points
  nearest each t_k, gives F(t_k) back.  K is the smallest power of two
  >= max(3 N, 2 * _TAPS), so at least 3x oversampling.  With
  tau = 24 pi / (K (2K - N)) the aliased spectrum and the omitted taps,
  12 or more grid steps away, both weigh e^(-12 pi (K - N) / (K - N / 2)) <=
  e^(-9.6 pi) ~ 8e-14 of sum |f_j|; at exactly 2x (K = 2N) 24 taps reach
  only ~1e-11.  Measured against the explicit sum, max |difference| /
  sum |f_j| is ~1e-15 on the benchmark's shapes and at most ~3e-13 for
  |xi x| <= 2000, where that sum's own phase rounding (eps |xi x|)
  dominates.  It takes O(K log K + 24 M) time and O(K + M) memory.

``transform_at`` uses the chirp-z path whenever the frequencies are uniform
to within ``_UNIFORM_ULPS`` units in the last place of max |xi|, and the
gridding path otherwise; ``discrete_fourier`` builds a uniform grid, so it
always takes the chirp-z path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MAX_GRID_NODES, GridFunction, is_count

__all__ = ["FourierTable", "discrete_fourier", "transform_at"]

_TAPS = 24  # Gaussian gridding taps per frequency
_UNIFORM_ULPS = 4  # tolerated deviation of a uniform grid, in ulps of max|xi|


@dataclass(frozen=True)
class FourierTable:
    """Sampled Fourier transform: frequencies and complex amplitudes."""

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        fr = np.asarray(self.frequencies, dtype=float)
        am = np.asarray(self.amplitudes, dtype=complex)
        fr.flags.writeable = False
        am.flags.writeable = False
        object.__setattr__(self, "frequencies", fr)
        object.__setattr__(self, "amplitudes", am)


def _grid_sum(g: GridFunction, xi: np.ndarray) -> np.ndarray:
    """sum_j v_j e^(i xi_k x_j) at any frequencies by Gaussian gridding
    (module notes): deconvolve, one FFT of K >= 3 N points, then the
    ``_TAPS`` nearest of those to each xi_k h mod 2 pi."""
    n = g.values.size
    j0 = n // 2
    size = 1 << (max(3 * n, 2 * _TAPS) - 1).bit_length()
    tau = _TAPS * math.pi / (size * (2 * size - n))
    j = np.arange(-j0, n - j0)
    fine = np.zeros(size)
    fine[j % size] = g.values * np.exp(tau * j * j)
    grid = np.fft.ifft(fine) * math.sqrt(math.pi / tau)
    # xi h is reduced before the floor, so no finite xi overflows the index
    pos = np.mod(xi * g.step, 2.0 * math.pi) * (size / (2.0 * math.pi))
    cell = np.floor(pos)
    frac = pos - cell
    k = cell.astype(np.intp) - _TAPS // 2
    c = math.pi ** 2 / (size * size * tau)  # (2 pi / K)^2 / (4 tau)
    acc = np.zeros(xi.shape, dtype=complex)
    for t in range(1 - _TAPS // 2, _TAPS // 2 + 1):
        k += 1
        acc += np.exp(-c * (frac - t) ** 2) * grid.take(k, mode="wrap")
    return np.exp(1j * (xi * (g.origin + j0 * g.step))) * acc


def _chirp_sum(g: GridFunction, xi: np.ndarray) -> np.ndarray:
    """sum_j v_j e^(i xi_k x_j) on the uniform grid from xi[0] to xi[-1], by
    Bluestein's chirp-z convolution over centred indices k', j'.

    With theta = dxi h, xi_k x_j = xi_k x_c + xi_c h j' + theta k' j' and
    k' j' = (k'^2 + j'^2 - u^2) / 2, u = k' - j'.  theta is split into a
    head with few enough bits that head * u^2 / 2 is exact (u^2 is a
    quarter-integer below (M + N)^2 / 4) and a small tail, so no rounding
    error grows with the chirp phase itself."""
    m, n = xi.size, g.values.size
    theta = (xi[-1] - xi[0]) / (m - 1) * g.step
    mant, e = math.frexp(theta)
    bits = 53 - ((m + n) ** 2).bit_length()
    head = math.ldexp(round(math.ldexp(mant, bits)), e - bits)
    tail = theta - head

    def chirp(u, extra):
        """exp(i (theta u^2 / 2 + extra))"""
        q = 0.5 * u * u
        return np.exp(1j * (head * q)) * np.exp(1j * (tail * q + extra))

    k = np.arange(m) - 0.5 * (m - 1)
    j = np.arange(n) - 0.5 * (n - 1)
    u = np.arange(1 - n, m) - 0.5 * (m - n)  # k' - j' for k - j = 1-n..m-1
    size = _fft_length(m, n)
    xi_c = 0.5 * (xi[0] + xi[-1])
    x_c = g.origin + 0.5 * (n - 1) * g.step
    kernel = np.zeros(size, dtype=complex)
    w = np.conj(chirp(u, 0.0))
    kernel[:m] = w[n - 1:]
    kernel[size - (n - 1):] = w[:n - 1]
    a = g.values * chirp(j, xi_c * g.step * j)
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(kernel))[:m]
    return chirp(k, xi * x_c) * conv


def _fft_length(m: int, n: int) -> int:
    """The smallest power of two >= m + n - 1."""
    return 1 << (m + n - 2).bit_length()


def _is_uniform(xi: np.ndarray) -> bool:
    """xi_k = xi_0 + k dxi to within _UNIFORM_ULPS ulps of max |xi|."""
    if xi.ndim != 1 or xi.size < 2:
        return False
    model = np.linspace(xi[0], xi[-1], xi.size)
    dev = np.max(np.abs(xi - model))
    return bool(dev <= _UNIFORM_ULPS * np.spacing(np.max(np.abs(xi))))


def transform_at(f: GridFunction, xi) -> np.ndarray:
    """Transform of the interpolant at arbitrary frequencies; uniform grids
    take the chirp-z path, all others Gaussian gridding (module notes)."""
    if not f.finite():
        raise ValueError("samples must be finite")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    reach = max(abs(f.origin), abs(f.origin + f.step * (f.n_nodes - 1)),
                f.step)
    bad = ~np.isfinite(xi * reach)
    if np.any(bad):
        raise ValueError(f"frequencies must be finite, and so must their "
                         f"phases xi x on the grid; got {xi[bad][0]}")
    if f.is_zero:
        return np.zeros(xi.shape, dtype=complex)
    g = f.trimmed(margin=0)
    h = g.step
    hat = np.sinc(xi * h / (2.0 * math.pi)) ** 2
    phase_sum = _chirp_sum if _is_uniform(xi) else _grid_sum
    return (h / math.sqrt(2.0 * math.pi)) * hat * phase_sum(g, xi)


def discrete_fourier(f: GridFunction, xi_max: float, n_freq: int
                     ) -> FourierTable:
    """Transform sampled on the symmetric grid [-xi_max, xi_max]."""
    if not (is_count(n_freq) and 2 <= n_freq <= MAX_GRID_NODES):
        raise ValueError(f"n_freq must be an integer in 2..{MAX_GRID_NODES}, "
                         f"got {n_freq!r}")
    if not 0 < xi_max < math.inf:
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")
    xi = np.linspace(-xi_max, xi_max, n_freq)
    return FourierTable(xi, transform_at(f, xi))
