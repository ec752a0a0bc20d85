"""Fourier transforms of grid functions.

Uses the convention fhat(xi) = (2 pi)^(-1/2) int f(x) e^(i x xi) dx.  For a
piecewise-linear function on a uniform grid the transform factors exactly as

    fhat(xi) = h / sqrt(2 pi) * sinc^2(xi h / 2) * sum_j f_j e^(i xi x_j),

(the hat-function transform times a discrete sum), so the values below are
exact for the interpolant at every frequency -- there is no binning and no
error near xi = 0.

The phase sum S_k = sum_j f_j e^(i xi_k x_j) over M frequencies and N nodes
has two evaluations:

* dense: with the node index j = a B + b (B = floor(sqrt N),
  A = ceil(N / B)) each phase factors exactly, e^(i xi_k x_j) =
  E_in[k, b] E_out[k, a] with E_in = e^(i xi_k (x_0 + b h)) (M x B) and
  E_out = e^(i xi_k a B h) (M x A).  With the samples zero-padded into the
  B x A table T[b, a] = f_(aB+b), S_k = sum_a (E_in T)[k, a] E_out[k, a]:
  M (A + B) ~ 2 M sqrt(N) complex exponentials and one matrix product, in
  blocks of ``_CHUNK`` exponentials.
  It takes any frequencies; its phases round like those of the explicit
  M x N sum (eps |xi x|), which is now only the test oracle.
* chirp-z (Bluestein): on a uniform grid xi_k = xi_0 + k dxi, the identity
  k j = (k^2 + j^2 - (k - j)^2) / 2 turns S into one linear convolution,
  done with three power-of-two FFTs of length >= M + N - 1, in
  O((M + N) log(M + N)) time.  Both index ranges are centred, and the large
  chirp phases dxi h u^2 / 2 are formed as exact floats before the complex
  exponential reduces them, so no rounding error grows with M or N: the
  two paths agree to the explicit sum's own rounding (below 1e-13 of
  h sum |f_j| / sqrt(2 pi) in the tests) for any aspect ratio M / N.

``transform_at`` uses the chirp-z path whenever the frequencies are uniform
to within ``_UNIFORM_ULPS`` units in the last place of max |xi|, and the
dense path otherwise; ``discrete_fourier`` builds a uniform grid, so it
always takes the chirp-z path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MAX_GRID_NODES, GridFunction, is_count

__all__ = ["FourierTable", "discrete_fourier", "transform_at"]

_CHUNK = 1 << 21  # complex exponentials per evaluation block
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


def _dense_sum(g: GridFunction, xi: np.ndarray) -> np.ndarray:
    """sum_j v_j e^(i xi_k x_j) at any frequencies by factored phases."""
    n = g.values.size
    nb = math.isqrt(n)
    na = -(-n // nb)
    table = np.pad(g.values, (0, na * nb - n)).reshape(na, nb).T  # v[aB + b]
    inner = g.origin + g.step * np.arange(nb)       # x_0 + b h
    outer = g.step * np.arange(0, na * nb, nb)      # a B h, a B exact
    out = np.empty(xi.shape, dtype=complex)
    block = max(1, _CHUNK // (na + nb))
    for start in range(0, xi.size, block):
        s = xi[start:start + block, None]
        partial = np.exp(1j * (s * inner)) @ table
        out[start:start + block] = np.einsum("ka,ka->k", partial,
                                             np.exp(1j * (s * outer)))
    return out


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
    """Exact transform of the interpolant at arbitrary frequencies; uniform
    grids take the chirp-z path (module notes)."""
    if not f.finite():
        raise ValueError("samples must be finite")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if f.is_zero:
        return np.zeros(xi.shape, dtype=complex)
    g = f.trimmed(margin=0)
    h = g.step
    hat = np.sinc(xi * h / (2.0 * math.pi)) ** 2
    phase_sum = _chirp_sum if _is_uniform(xi) else _dense_sum
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
