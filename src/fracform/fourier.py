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
rounding, eps |xi x|.  It takes O(K log K + 24 M) time and O(K + M) memory.
Every frequency's value is computed elementwise from the same K-point grid,
so it does not depend on which other frequencies are requested or in what
order.

Everything but the deconvolution, the FFT and the tap loop depends on the
trimmed grid and the frequencies only, not on the samples: K, tau, each
frequency's first tap, its phase e^(i xi x_c) and hat factor
(h / sqrt(2 pi)) sinc^2(xi h / 2), and the 24 M tap weights.  Together they
make a frequency plan.  A plan is kept the second time its key (trimmed node
count, step, origin, frequency bytes) is seen, for sets of at most 2^12
frequencies, at most 8 plans, the least recently used going first: 232
bytes per frequency with its weight rows, ~0.9 MiB per plan and 7.25 MiB at
most.  Any other plan is built for its one call without weight rows, and its
tap loop computes each tap's weights into one M-sized buffer.  On a 2-core
x86-64 machine a 2048-frequency call on 257-1025 nodes takes ~0.25-0.4 ms
from a kept plan and ~0.5-0.8 ms without one; the results are the same bits
either way.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .grids import MAX_GRID_NODES, GridFunction, is_count

__all__ = ["FourierTable", "discrete_fourier", "transform_at"]

_TAPS = 24  # Gaussian gridding taps per frequency

# Plans of up to _PLAN_FREQS frequencies are kept, at most _KEPT_PLANS: 232
# bytes per frequency (24 weight rows, tap starts, hat factors and the key's
# frequency bytes of 8 bytes, phases of 16), so 7.25 MiB in the worst case.
# The last _SEEN_KEYS keys seen once are remembered by hash.
_PLAN_FREQS = 1 << 12
_KEPT_PLANS = 8
_SEEN_KEYS = 64


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


class _FrequencyPlan:
    """The frequency side of the gridding sum for one trimmed grid and one
    frequency array (module notes): the FFT size K and Gaussian width tau,
    the first tap's grid point floor(xi h mod 2 pi * K / 2 pi) - 11 mod K,
    the phase and the hat factor.  A kept plan also holds the ``_TAPS``
    weight rows; any other computes each tap's row when the tap loop
    reaches it.  Every array is read-only."""

    def __init__(self, g: GridFunction, xi: np.ndarray, keep: bool):
        n = g.values.size
        j0 = n // 2
        self.size = 1 << (max(3 * n, 2 * _TAPS) - 1).bit_length()
        self.tau = _TAPS * math.pi / (self.size * (2 * self.size - n))
        # xi h is reduced before the floor, so no finite xi overflows the index
        pos = np.mod(xi * g.step, 2.0 * math.pi) * (self.size
                                                     / (2.0 * math.pi))
        cell = np.floor(pos)
        self._frac = pos - cell
        # (2 pi / K)^2 / (4 tau)
        self._c = math.pi ** 2 / (self.size * self.size * self.tau)
        self.start = (cell.astype(np.intp) - (_TAPS // 2 - 1)) % self.size
        self.phase = np.exp(1j * (xi * (g.origin + j0 * g.step)))
        h = g.step
        self.hat = (h / math.sqrt(2.0 * math.pi)) * np.sinc(
            xi * h / (2.0 * math.pi)) ** 2
        self.rows = None
        if keep:
            self.rows = np.empty((_TAPS,) + xi.shape)
            for _ in self._weights(self.rows):  # fills the rows
                pass
            self._frac = None
        for a in (self.start, self.phase, self.hat, self.rows):
            if a is not None:
                a.flags.writeable = False

    def _weights(self, rows):
        """Write the Gaussian weights e^(-c (frac - t)^2) of each tap t in
        turn into the next of ``rows``, and yield them."""
        for w, t in zip(rows, range(1 - _TAPS // 2, _TAPS // 2 + 1)):
            np.subtract(self._frac, t, out=w)
            w *= w
            w *= -self._c
            np.exp(w, out=w)
            yield w

    def tap_weights(self):
        """Each tap's weight row in turn: the kept rows, or rows computed
        into one buffer that the next tap overwrites."""
        if self.rows is not None:
            return iter(self.rows)
        return self._weights(itertools.repeat(np.empty(self._frac.shape),
                                              _TAPS))


_PlanCacheInfo = namedtuple("_PlanCacheInfo",
                            "hits misses kept kept_bytes")


class _PlanCache:
    """Frequency plans kept by (trimmed node count, step, origin, frequency
    shape and bytes): a plan of at most _PLAN_FREQS frequencies is kept the
    second time its key is seen, and at most _KEPT_PLANS are kept, the
    least recently used going first.  A plan not kept is built for its one
    call without weight rows."""

    def __init__(self):
        self._lock = threading.Lock()
        self.cache_clear()

    def plan(self, g: GridFunction, xi: np.ndarray) -> _FrequencyPlan:
        if xi.size > _PLAN_FREQS:
            with self._lock:
                self._misses += 1
            return _FrequencyPlan(g, xi, keep=False)
        key = (g.values.size, g.step, g.origin, xi.shape, xi.tobytes())
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return plan
            self._misses += 1
            seen = hash(key)
            keep = self._seen.pop(seen, False)
            if not keep:
                self._seen[seen] = True
                if len(self._seen) > _SEEN_KEYS:
                    self._seen.popitem(last=False)
        plan = _FrequencyPlan(g, xi, keep)
        if keep:
            with self._lock:
                self._plans[key] = plan
                self._plans.move_to_end(key)
                if len(self._plans) > _KEPT_PLANS:
                    self._plans.popitem(last=False)
        return plan

    def cache_info(self) -> _PlanCacheInfo:
        with self._lock:
            return _PlanCacheInfo(
                self._hits, self._misses, len(self._plans),
                sum(len(k[-1]) + p.rows.nbytes + p.start.nbytes
                    + p.phase.nbytes + p.hat.nbytes
                    for k, p in self._plans.items()))

    def cache_clear(self):
        with self._lock:
            self._plans = OrderedDict()
            self._seen = OrderedDict()
            self._hits = self._misses = 0


_plans = _PlanCache()


def _grid_sum(g: GridFunction, plan: _FrequencyPlan) -> np.ndarray:
    """sum_j v_j e^(i xi_k x_j) at the plan's frequencies by Gaussian
    gridding (module notes): deconvolve, one FFT of K >= 3 N points, then
    the ``_TAPS`` nearest of those to each xi_k h mod 2 pi."""
    n = g.values.size
    j0 = n // 2
    j = np.arange(-j0, n - j0)
    fine = np.zeros(plan.size)
    fine[j % plan.size] = g.values * np.exp(plan.tau * j * j)
    grid = np.fft.ifft(fine) * math.sqrt(math.pi / plan.tau)
    # one tap buffer for the whole loop (and one weight buffer in a plan
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
    plan = _plans.plan(g, xi)
    return plan.hat * _grid_sum(g, plan)


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
    # the grid spans 2 xi_max, which overflows from ~9e307 on
    if not (0 < xi_max and 2.0 * float(xi_max) < math.inf):
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
