"""Fourier transforms of grid functions.

Uses the convention fhat(xi) = (2 pi)^(-1/2) int f(x) e^(i x xi) dx.  For a
piecewise-linear function on a uniform grid the transform factors exactly as

    fhat(xi) = h / sqrt(2 pi) * sinc^2(xi h / 2) * sum_j f_j e^(i xi x_j),

(the hat-function transform times a discrete sum), so the values below are
those of the interpolant at every frequency, up to the phase sum's stated
error -- there is no binning and no error near xi = 0.

The phase sum S_k = sum_j f_j e^(i xi_k x_j) over M frequencies and N nodes
is evaluated by gridding (a type-2 nonuniform FFT; Dutt and Rokhlin, SIAM
J. Sci. Comput. 14, 1993; Greengard and Lee, SIAM Review 46, 2004) on the
"exponential of semicircle" kernel phi(z) = exp(beta (sqrt(1 - z^2) - 1))
of Barnett, Magland and af Klinteberg (SIAM J. Sci. Comput. 41, 2019), at
any frequencies, uniform grids included.  With j' = j - N // 2 and
x_c = x_(N // 2), S_k = e^(i xi_k x_c) F(xi_k h mod 2 pi) for
F(t) = sum_j' f_j' e^(i j' t).  K is the smallest power of two
>= max(3 N, 2 * _TAPS), so at least 3x oversampling, and the kernel
psi(t) = phi(t / a), a = 14 pi / K, spans the ``_TAPS`` = 14 grid points
nearest t.  The samples are divided by its Fourier coefficients
(a / 2 pi) Phi(j' a), Phi(u) = int_-1^1 phi(z) cos(u z) dz, one FFT samples
the quotient at the K points 2 pi m / K, and the trapezoid sum of psi over
those 14 points gives F(t_k) back.  Phi has no closed form; a
Gauss-Legendre sum gives it once per top = max(K, 2^15), as a table that
K reads at stride top / K, so every K <= 2^15 reads the same one.  beta =
0.97 pi 14 (1 - 1/6) is set for 3x oversampling, and more only helps.  The
ES error is estimated, asymptotically and not as a bound, at
e^(-pi w sqrt(1 - 1/sigma)) of sum |f_j| for w = 14 taps and sigma = K / N:
~2e-16 at sigma = 3.  Measured against the explicit sum,
max |difference| / sum |f_j| is 0.6-1.8e-15 on the benchmark's geometric
2048-frequency sets at N = 257-1366 (sigma 3-6), and at most ~3e-13 at its
4097-node x 32769-frequency solve and for |xi x| <= 2000, the order of one
phase's rounding, eps |xi x|.  It takes O(K log K + 14 M) time and
O(K + M) memory.  Every frequency's value is computed elementwise from the
same K-point grid, so it does not depend on which other frequencies are
requested or in what order.

Everything but the deconvolution, the FFT and the tap loop depends on the
trimmed grid and the frequencies only, not on the samples: K, each
frequency's first tap, its phase e^(i xi x_c) and hat factor
(h / sqrt(2 pi)) sinc^2(xi h / 2), and the 14 M tap weights.  Together they
make a frequency plan.  Plans of sets of at most 2^11 frequencies are kept
in a plain least-recently-used cache of 16 plans, keyed by (trimmed node
count, step, origin, frequency shape and bytes): 152 bytes per frequency
with the weight rows, built in one pass, ~0.3 MiB per plan and 4.75 MiB at
most.  A larger set gets a plan for its one call without rows, and its tap
loop computes each tap's row by the same formula into one M-sized buffer.
A kept-plan 2048-frequency call on 257-1025 nodes takes ~0.15-0.2 ms on a
2-core x86-64 machine; the results are the same bits with or without one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import MAX_GRID_NODES, GridFunction, _frozen_array, _rebuilt, \
    count, real_number

__all__ = ["FourierTable", "discrete_fourier", "transform_at"]

_TAPS = 14  # gridding taps per frequency
# the ES kernel's shape parameter, set for 3x oversampling; more only helps
_BETA = 0.97 * math.pi * _TAPS * (1.0 - 1.0 / 6.0)
# the least table top: every K <= 2^15 reads that table at stride 2^15 / K
_TABLE_SIZE = 1 << 15
# At most this many tables are kept, the least recently read dropped first:
# the 2^15 one and one larger, at most 2^24/6 + 2^23/6 + 2 floats (about
# 32 MiB) at the grid-size limit, where K reaches 2^24.
_KEPT_TABLES = 2

# Plans of up to _PLAN_FREQS frequencies are kept, at most _KEPT_PLANS: 152
# bytes per frequency (14 weight rows, tap starts, hat factors and the key's
# frequency bytes of 8 bytes, phases of 16), so 4.75 MiB in the worst case.
_PLAN_FREQS = 1 << 11
_KEPT_PLANS = 16


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Sampled Fourier transform: frequencies and complex amplitudes."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    __reduce__ = _rebuilt

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _frozen_array(self.frequencies))
        object.__setattr__(self, "amplitudes",
                           _frozen_array(self.amplitudes, complex))


def _es_integral(u: np.ndarray) -> np.ndarray:
    """Phi(u) = int_-1^1 phi(z) cos(u z) dz of the ES kernel phi(z) =
    exp(beta (sqrt(1 - z^2) - 1)), by 16-point Gauss-Legendre rules on
    three panels of [0, 1] (the integrand is even).  Each entry is summed
    node by node, so it is the same bits whatever else is in ``u``."""
    t, w = np.polynomial.legendre.leggauss(16)
    z = np.concatenate([(t + 2 * p + 1) / 6.0 for p in range(3)])
    weight = np.tile(w / 3.0, 3) * np.exp(
        _BETA * (np.sqrt(1.0 - z * z) - 1.0))
    total = np.zeros(np.shape(u))
    for zq, wq in zip(z.tolist(), weight.tolist()):
        total += wq * np.cos(u * zq)
    return total


@functools.lru_cache(maxsize=_KEPT_TABLES)
def _es_table(top: int) -> np.ndarray:
    """Phi at u = i a for a = _TAPS pi / top and every i <= top / 6, the
    largest |j| a grid of top points reads (n <= top / 3); read-only."""
    table = _es_integral(np.arange(top // 6 + 1) * (_TAPS * math.pi / top))
    table.flags.writeable = False
    return table


def _es_coefficients(size: int, j: np.ndarray) -> np.ndarray:
    """Phi(|j| a) for a = _TAPS pi / K on a grid of K = ``size`` points:
    the table of top = max(K, 2^15) at stride top / K, the same u bits."""
    top = max(size, _TABLE_SIZE)
    return _es_table(top)[::top // size][np.abs(j)]


class _FrequencyPlan:
    """The frequency side of the gridding sum for one frequency array and
    one trimmed grid of n nodes from ``origin`` with ``step`` h (module
    notes): the FFT size K, the first tap's grid point
    floor(xi h mod 2 pi * K / 2 pi) - 6 mod K, the phase and the hat
    factor.  A kept plan also holds the ``_TAPS`` weight rows, built in one
    pass; any other computes each tap's row into one buffer when the tap
    loop reaches it.  Every array is read-only."""

    def __init__(self, n: int, step: float, origin: float, xi: np.ndarray,
                 keep: bool):
        j0 = n // 2
        self.size = 1 << (max(3 * n, 2 * _TAPS) - 1).bit_length()
        # xi h is reduced before the floor, so no finite xi overflows the index
        pos = np.mod(xi * step, 2.0 * math.pi) * (self.size
                                                   / (2.0 * math.pi))
        cell = np.floor(pos)
        self._frac = pos - cell
        self.start = (cell.astype(np.intp) - (_TAPS // 2 - 1)) % self.size
        self.phase = np.exp(1j * (xi * (origin + j0 * step)))
        self.hat = (step / math.sqrt(2.0 * math.pi)) * np.sinc(
            xi * step / (2.0 * math.pi)) ** 2
        self.rows = None
        if keep:  # one pass: all 14 offsets, as a column, at once
            taps = np.arange(1.0 - _TAPS // 2, _TAPS // 2 + 1.0)
            self.rows = self._weights(taps.reshape((-1,) + (1,) * xi.ndim))
            self._frac = None
        for a in (self.start, self.phase, self.hat, self.rows):
            if a is not None:
                a.flags.writeable = False

    def _weights(self, taps, w=None, root=None):
        """The ES weights phi(d / 7), d = frac - t, of the tap offsets
        ``taps`` (one, or a column of several, a row each), written into
        ``w`` with ``root`` as scratch when they are given.  The exponent is
        taken as -(beta / 7) d^2 / (7 + sqrt(49 - d^2)): beta (sqrt(1 - z^2)
        - 1) cancels near z = 0 and leaves ~4e-15 relative errors."""
        half = _TAPS // 2
        w = np.subtract(self._frac, taps, out=w)
        w *= w
        root = np.subtract(half * half, w, out=root)
        np.sqrt(root, out=root)
        root += half
        w /= root
        w *= -_BETA / half
        return np.exp(w, out=w)

    def tap_weights(self):
        """Each tap's weight row in turn: the kept rows, or rows computed
        into one buffer that the next tap overwrites."""
        if self.rows is not None:
            return self.rows
        w, root = np.empty((2,) + self._frac.shape)
        return (self._weights(t, w, root)
                for t in range(1 - _TAPS // 2, _TAPS // 2 + 1))


@functools.lru_cache(maxsize=_KEPT_PLANS)
def _kept_plan(n: int, step: float, origin: float, shape: tuple,
               xi_bytes: bytes) -> _FrequencyPlan:
    """The plan with weight rows of the frequencies ``xi_bytes`` (float64, of
    ``shape``) on the trimmed grid of n nodes from ``origin`` with
    ``step``."""
    xi = np.frombuffer(xi_bytes).reshape(shape)
    return _FrequencyPlan(n, step, origin, xi, keep=True)


def _grid_sum(g: GridFunction, plan: _FrequencyPlan) -> np.ndarray:
    """sum_j v_j e^(i xi_k x_j) at the plan's frequencies by ES gridding
    (module notes): deconvolve, one FFT of K >= 3 N points, then the
    ``_TAPS`` nearest of those to each xi_k h mod 2 pi."""
    n = g.values.size
    j0 = n // 2
    j = np.arange(-j0, n - j0)
    fine = np.zeros(plan.size)
    fine[j % plan.size] = g.values / _es_coefficients(plan.size, j)
    # divided by the coefficients (a / 2 pi) Phi(j a): 2 pi / a = K / 7
    grid = np.fft.ifft(fine) * (plan.size / (_TAPS // 2))
    # one tap buffer for the whole loop (and two weight buffers in a plan
    # without rows): fresh M-sized temporaries per tap are returned to the
    # system and faulted back in (4097 nodes x 32769 frequencies, fresh
    # process: ~6400 minor faults and ~15 ms per call, against ~1200 and
    # ~10 ms with the buffers)
    acc = np.zeros(plan.start.shape, dtype=complex)
    tap = np.empty_like(acc)
    # the grid continued periodically by _TAPS - 1 points, so tap i of a
    # frequency is point start + i of it, with no index arithmetic
    wrapped = np.concatenate([grid, grid[:_TAPS - 1]])
    for i, w in enumerate(plan.tap_weights()):
        wrapped[i:].take(plan.start, mode="clip", out=tap)
        tap *= w
        acc += tap
    return plan.phase * acc


def _checked_frequencies(f: GridFunction, xi) -> np.ndarray:
    """xi as a float array, after the guard every transform shares: finite
    frequencies whose phases xi x on f's grid are finite too."""
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
    """Transform of the interpolant at arbitrary frequencies, by ES
    gridding (module notes)."""
    xi = _checked_frequencies(f, xi)
    if f.is_zero:
        return np.zeros(xi.shape, dtype=complex)
    g = f.trimmed(margin=0)
    grid = (g.values.size, g.step, g.origin)
    if xi.size <= _PLAN_FREQS:
        plan = _kept_plan(*grid, xi.shape, xi.tobytes())
    else:
        plan = _FrequencyPlan(*grid, xi, keep=False)
    return plan.hat * _grid_sum(g, plan)


def discrete_fourier(f: GridFunction, xi_max: float, n_freq: int
                     ) -> FourierTable:
    """Transform sampled on the symmetric grid [-xi_max, xi_max].

    The table is kept with ``f`` under the key (xi_max, n_freq), one window
    per function, and a repeat call returns the same read-only table; a
    different key replaces it.  Every guard runs before the kept table is
    looked up."""
    n_freq = count("n_freq", n_freq, 2, MAX_GRID_NODES)
    # the grid spans 2 xi_max, which overflows from ~9e307 on
    xi_max = real_number("xi_max", xi_max)
    if not (0 < xi_max and 2.0 * xi_max < math.inf):
        raise ValueError(f"xi_max must be positive with a finite span "
                         f"2 xi_max, got {xi_max}")
    xi = _checked_frequencies(f, np.linspace(-xi_max, xi_max, n_freq))
    key = (xi_max, n_freq)
    kept = f.__dict__.get("_fourier_table")
    if kept is not None and kept[0] == key:
        return kept[1]
    table = FourierTable(xi, transform_at(f, xi))
    # the function is frozen; like cached_property, fill its __dict__
    f.__dict__["_fourier_table"] = (key, table)
    return table
