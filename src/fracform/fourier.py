"""Fourier transforms of grid functions.

Uses the convention fhat(xi) = (2 pi)^(-1/2) int f(x) e^(i x xi) dx.  For a
piecewise-linear function on a uniform grid the transform factors exactly as

    fhat(xi) = h / sqrt(2 pi) * sinc^2(xi h / 2) * sum_j f_j e^(i xi x_j),

(the hat-function transform times a discrete sum), so the values below are
those of the interpolant at every frequency, up to the phase sum's stated
error -- there is no binning and no error near xi = 0.

The phase sum S_k = sum_j f_j e^(i xi_k x_j) over M frequencies and N nodes
is evaluated by Gaussian gridding (a type-2 nonuniform FFT; Dutt and
Rokhlin, SIAM J. Sci. Comput. 14, 1993; Greengard and Lee, SIAM Review 46,
2004) at any frequencies, uniform grids included.  With j' = j - N // 2 and
x_c = x_(N // 2), S_k = e^(i xi_k x_c) F(xi_k h mod 2 pi) for
F(t) = sum_j' f_j' e^(i j' t).  The samples are divided by the Fourier
coefficients sqrt(tau / pi) e^(-tau j'^2) of the periodic Gaussian
exp(-t^2 / (4 tau)), one FFT samples the quotient at the K points
2 pi m / K, and convolving with the Gaussian, by the trapezoid sum over the
``_TAPS`` = 24 points nearest each t_k, gives F(t_k) back.  K is the
smallest power of two >= max(3 N, 2 * _TAPS), so at least 3x oversampling.
With tau = 24 pi / (K (2K - N)) the aliased spectrum and the omitted taps,
12 or more grid steps away, both weigh e^(-12 pi (K - N) / (K - N / 2)) <=
e^(-9.6 pi) ~ 8e-14 of sum |f_j|; at exactly 2x (K = 2N) 24 taps reach only
~1e-11.  Measured against the explicit sum, max |difference| / sum |f_j| is
~1e-15 on the benchmark's sweep shapes and at most ~3e-13 at its 4097-node
x 32769-frequency solve and for |xi x| <= 2000, the order of one phase's
rounding, eps |xi x|.  It takes
O(K log K + 24 M) time and O(K + M) memory; the tap loop's numpy calls add a
fixed ~0.15-0.25 ms per call on a 2-core x86-64 machine.  Every frequency's
value is computed elementwise from the same K-point grid, so it does not
depend on which other frequencies are requested or in what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import MAX_GRID_NODES, GridFunction, is_count

__all__ = ["FourierTable", "discrete_fourier", "transform_at"]

_TAPS = 24  # Gaussian gridding taps per frequency


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
    # one weight and one tap buffer for the whole loop: fresh M-sized
    # temporaries per tap are returned to the system and faulted back in
    # (4097 nodes x 32769 frequencies, fresh process: ~6400 minor faults
    # and ~15 ms per call, against ~1200 and ~10 ms with the buffers)
    acc = np.zeros(xi.shape, dtype=complex)
    tap = np.empty_like(acc)
    w = np.empty(xi.shape)
    for t in range(1 - _TAPS // 2, _TAPS // 2 + 1):
        k += 1
        np.subtract(frac, t, out=w)
        w *= w
        w *= -c
        np.exp(w, out=w)
        grid.take(k, mode="wrap", out=tap)
        tap *= w
        acc += tap
    return np.exp(1j * (xi * (g.origin + j0 * g.step))) * acc


def _checked_frequencies(f: GridFunction, xi) -> np.ndarray:
    """xi as a float array, after the guards every transform shares: finite
    samples, and finite frequencies whose phases xi x on the grid are
    finite too."""
    if not f.finite():
        raise ValueError("samples must be finite")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    reach = max(abs(f.origin), abs(f.origin + f.step * (f.n_nodes - 1)),
                f.step)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(xi * reach)
    if np.any(bad):
        raise ValueError(f"frequencies must be finite, and so must their "
                         f"phases xi x on the grid; got {xi[bad][0]}")
    return xi


def transform_at(f: GridFunction, xi) -> np.ndarray:
    """Transform of the interpolant at arbitrary frequencies, by Gaussian
    gridding (module notes)."""
    xi = _checked_frequencies(f, xi)
    if f.is_zero:
        return np.zeros(xi.shape, dtype=complex)
    g = f.trimmed(margin=0)
    h = g.step
    hat = np.sinc(xi * h / (2.0 * math.pi)) ** 2
    return (h / math.sqrt(2.0 * math.pi)) * hat * _grid_sum(g, xi)


def discrete_fourier(f: GridFunction, xi_max: float, n_freq: int
                     ) -> FourierTable:
    """Transform sampled on the symmetric grid [-xi_max, xi_max].

    The table is kept with ``f`` under the key (xi_max, n_freq), one window
    per function, and a repeat call returns the same read-only table; a
    different key replaces it.  Every guard runs before the kept table is
    looked up."""
    if not (is_count(n_freq) and 2 <= n_freq <= MAX_GRID_NODES):
        raise ValueError(f"n_freq must be an integer in 2..{MAX_GRID_NODES}, "
                         f"got {n_freq!r}")
    if not 0 < xi_max < math.inf:
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")
    xi = _checked_frequencies(f, np.linspace(-xi_max, xi_max, n_freq))
    key = (xi_max, n_freq)
    kept = f.__dict__.get("_fourier_table")
    if kept is not None and kept[0] == key:
        return kept[1]
    table = FourierTable(xi, transform_at(f, xi))
    # the function is frozen; like cached_property, fill its __dict__
    f.__dict__["_fourier_table"] = (key, table)
    return table
