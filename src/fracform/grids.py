"""Grid-based carriers for 1-D functions, step functions, and open sets.

Functions are piecewise linear between uniformly spaced nodes and identically
zero outside the sampled window; this keeps fractional energies finite and
makes total-variation bookkeeping exact.  Every object here is an immutable
value: transforms return new objects, so everything is safe to share across
threads and to map over parameter grids.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from . import quadcells

__all__ = [
    "GridFunction",
    "StepFunction",
    "IntervalSet",
    "PlateauSpec",
    "make_plateau",
    "epsilon_contraction",
    "snap_to_dyadic_step",
]

_INF = float("inf")

# Largest uniform grid, zero padding included, that a builder allocates:
# ``GridFunction.from_callable`` (so ``StepFunction.sample``),
# ``make_plateau``, ``snap_to_dyadic_step``, ``compose_scale``, the capacity
# solve, ``step_rate_experiment`` and the CLI's scale grid take their nodes
# from ``grid_nodes``, and ``discrete_fourier`` caps its frequency count here.
# The capacity solve holds about ten float64 arrays of n entries and complex
# spectra of 2n, ~0.5 GiB at 2^22.  A first grid energy peaks at ~40 bytes
# per support node above the samples (the increments, the 2n-point FFT
# buffer and its spectrum), ~0.16 GiB at 2^22, and keeps 8 bytes per node;
# a later exponent adds ~0.6 MiB of lag-weight blocks at any size.
MAX_GRID_NODES = 1 << 22


def is_count(v) -> bool:
    """True for an int or a numpy integer; a bool or a whole float is not a
    count, size or depth."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_boolean(v) -> bool:
    """True for a bool or a numpy bool, which no real parameter accepts."""
    return isinstance(v, (bool, np.bool_))


def grid_size(lo: float, hi: float, step: float) -> int:
    """The node count of ``grid_nodes(lo, hi, step)``, after the same
    refusals, without building the nodes."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"grid step must be positive and finite, got {step}")
    cells = (float(hi) - float(lo)) / step
    if not cells >= -0.5:
        raise ValueError(f"a grid on [{lo}, {hi}] has no nodes")
    if not cells < MAX_GRID_NODES - 0.5:
        raise ValueError(f"a grid of {cells + 1:.4g} nodes exceeds the limit "
                         f"of {MAX_GRID_NODES} nodes")
    return round(cells) + 1


def grid_nodes(lo: float, hi: float, step: float) -> np.ndarray:
    """The uniform grid lo + k * step, k = 0..round((hi - lo) / step),
    anchored at lo.  Refused with ValueError before anything is allocated:
    a step that is not positive and finite, ends that leave no node (NaN, or
    hi more than half a step below lo) and more than MAX_GRID_NODES nodes."""
    return lo + step * np.arange(grid_size(lo, hi, step))


def l2_norm_sq_of_samples(v: np.ndarray, step: float) -> float:
    """Squared L2 norm of the piecewise-linear interpolant of samples v."""
    seg = v[:-1] * v[:-1] + v[:-1] * v[1:] + v[1:] * v[1:]
    return float(step * np.sum(seg) / 3.0)


def _json_float(v) -> float:
    """A JSON number, or a string that parses as one ("inf", "-inf")."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError("number out of the float range") from None


def _frozen_array(data, dtype=float) -> np.ndarray:
    arr = np.array(data, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridFunction:
    """A real function sampled on a uniform grid, interpolated linearly.

    The function is 0 outside the grid window.  ``support_lo``/``support_hi``
    are the indices of the first and last nonzero sample (-1/-1 for the zero
    function); samples outside that range are exactly 0.

    ``increment_autocorr`` (8 bytes per support node), ``l2_norm_sq()`` and
    ``finite()`` are computed on first use and kept with the function for
    as long as it lives, and so is the last table of ``discrete_fourier``
    (n_freq x 24 bytes, one (xi_max, n_freq) window per function); the
    samples are a read-only copy, so they cannot go stale, and every derived
    function starts without them.
    """

    origin: float
    step: float
    values: np.ndarray
    support_lo: int = field(init=False)
    support_hi: int = field(init=False)

    def __post_init__(self):
        if is_boolean(self.origin) or is_boolean(self.step):
            raise ValueError(f"grid origin and step must be numbers, not "
                             f"booleans; got {self.origin!r}, {self.step!r}")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        if not math.isfinite(self.origin):
            raise ValueError("grid origin must be finite")
        vals = _frozen_array(self.values)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a grid function needs a 1-d array of at least 2 samples")
        object.__setattr__(self, "values", vals)
        # two argmax scans of one mask: np.nonzero builds an index array
        nz = vals != 0.0
        lo = int(nz.argmax())
        lo, hi = ((lo, vals.size - 1 - int(nz[::-1].argmax())) if nz[lo]
                  else (-1, -1))
        object.__setattr__(self, "support_lo", lo)
        object.__setattr__(self, "support_hi", hi)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray],
                      lo: float, hi: float, step: float,
                      pad: int = 2) -> "GridFunction":
        """Sample ``fn`` at ``grid_nodes(lo, hi, step)``, with ``pad`` zero
        nodes added per side; the padding counts towards the node limit."""
        if not (is_count(pad) and pad >= 0):
            raise ValueError(f"pad must be a non-negative integer, got "
                             f"{pad!r}")
        grid_size(lo - pad * step, hi + pad * step, step)
        vals = np.asarray(fn(grid_nodes(lo, hi, step)), dtype=float)
        if pad > 0:
            vals = np.concatenate([np.zeros(pad), vals, np.zeros(pad)])
            lo = lo - pad * step
        return cls(lo, step, vals)

    # -- basic queries -----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.values.size)

    @property
    def is_zero(self) -> bool:
        return self.support_lo < 0

    def __call__(self, x) -> np.ndarray:
        """Piecewise-linear evaluation; 0 outside the grid window."""
        return np.interp(np.asarray(x, dtype=float), self.x, self.values,
                         left=0.0, right=0.0)

    def support_interval(self):
        """(x_lo, x_hi) of the nonzero samples, or None for the zero function."""
        if self.is_zero:
            return None
        return (self.origin + self.step * self.support_lo,
                self.origin + self.step * self.support_hi)

    def has_compact_support(self) -> bool:
        """True when the interpolant tapers to exact 0 inside the window."""
        return self.is_zero or (self.support_lo > 0
                                and self.support_hi < self.values.size - 1)

    def finite(self) -> bool:
        return self._finite

    @cached_property
    def _finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    @cached_property
    def increment_autocorr(self) -> np.ndarray:
        """Read-only c_k = sum_i d_i d_(i+k) of the node increments of
        ``support_values(margin=1)``: the part of the fractional form that
        is the same for every exponent."""
        c = quadcells.increment_autocorr(self.support_values(margin=1))
        c.flags.writeable = False
        return c

    # -- exact integrals for the piecewise-linear interpolant --------------

    def l2_norm_sq(self) -> float:
        return self._l2_norm_sq

    @cached_property
    def _l2_norm_sq(self) -> float:
        return l2_norm_sq_of_samples(self.values, self.step)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.values))))

    def lipschitz(self) -> float:
        if self.values.size < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.values))) / self.step)

    # -- transforms ---------------------------------------------------------

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.origin, self.step, values)

    def scaled(self, c: float) -> "GridFunction":
        return self.with_values(c * self.values)

    def _support_range(self, margin: int) -> slice:
        """The samples of the support plus ``margin`` zeros per side, at
        least 2 nodes (the first two for the zero function)."""
        lo = min(max(self.support_lo - margin, 0), self.values.size - 2)
        hi = max(min(self.support_hi + margin, self.values.size - 1), lo + 1)
        return slice(lo, hi + 1)

    def support_values(self, margin: int = 2) -> np.ndarray:
        """``trimmed(margin).values`` as a read-only view of the samples,
        without building the function."""
        return self.values[self._support_range(margin)]

    def trimmed(self, margin: int = 2) -> "GridFunction":
        """Restrict to the support plus ``margin`` zeros per side (>= 2 nodes)."""
        r = self._support_range(margin)
        return GridFunction(self.origin + r.start * self.step, self.step,
                            self.values[r])

    # -- grid compatibility --------------------------------------------------

    def same_grid(self, other: "GridFunction") -> bool:
        if abs(self.step - other.step) > 1e-12 * self.step:
            return False
        off = (other.origin - self.origin) / self.step
        return abs(off - round(off)) < 1e-6

    def aligned_with(self, other: "GridFunction"):
        """Embed both functions on the smallest common grid window."""
        if not self.same_grid(other):
            raise ValueError("grid mismatch: incompatible step or origin offset")
        off = int(round((other.origin - self.origin) / self.step))
        lo = min(0, off)
        hi = max(self.values.size - 1, off + other.values.size - 1)
        n = hi - lo + 1
        a = np.zeros(n)
        b = np.zeros(n)
        a[-lo:self.values.size - lo] = self.values
        b[off - lo:off - lo + other.values.size] = other.values
        origin = self.origin + lo * self.step
        return (GridFunction(origin, self.step, a),
                GridFunction(origin, self.step, b))

    def _binary(self, other, op) -> "GridFunction":
        a, b = self.aligned_with(other)
        return GridFunction(a.origin, a.step, op(a.values, b.values))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return self._binary(other, np.add)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self._binary(other, np.subtract)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"origin": self.origin, "step": self.step,
                "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridFunction":
        if not isinstance(d, dict) or not {"origin", "step", "values"} <= d.keys():
            raise ValueError("a JSON grid function needs origin, step, values")
        if not isinstance(d["values"], list):
            raise ValueError("JSON grid values must be a list of numbers")
        return cls(_json_float(d["origin"]), _json_float(d["step"]),
                   [_json_float(v) for v in d["values"]])

    def to_csv(self) -> str:
        buf = io.StringIO()
        for xi, vi in zip(self.x, self.values):
            buf.write(f"{xi:.12g},{vi:.12g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
        if any(len(r) < 2 for r in rows):
            raise ValueError("every CSV row needs two fields x,value")
        xs = np.array([float(r[0]) for r in rows])
        vs = np.array([float(r[1]) for r in rows])
        if xs.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(xs)):
            raise ValueError("CSV x values must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            # a span beyond the float range gives an infinite step, which
            # the constructor refuses
            steps = np.diff(xs)
            step = float(np.median(steps))
            if np.any(np.abs(steps - step) > 1e-9 * max(step, 1.0)):
                raise ValueError("CSV samples are not on a uniform grid")
        return cls(float(xs[0]), step, vs)


def epsilon_contraction(h: GridFunction, eps: float) -> GridFunction:
    """Remove the band |h| <= eps: sign(h) * (|h| - eps)+ at every node."""
    if not 0 <= eps < _INF:
        raise ValueError(f"contraction level must be finite and >= 0, got "
                         f"{eps}")
    v = h.values
    return h.with_values(np.sign(v) * np.maximum(np.abs(v) - eps, 0.0))


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous-from-the-left step function: value c_i on (a_{i-1}, a_i].

    Identically zero outside (a_0, a_K].  An empty breakpoint list is the
    zero function.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = _frozen_array(self.breakpoints)
        lv = _frozen_array(self.levels)
        if bp.size != lv.size + 1 and not (bp.size == 0 and lv.size == 0):
            raise ValueError("need K+1 breakpoints for K levels")
        if bp.size and np.any(bp[1:] <= bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if bp.size and not math.isfinite(float(bp[-1]) - float(bp[0])):
            raise ValueError("breakpoints must span a finite length")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    @property
    def is_zero(self) -> bool:
        return self.levels.size == 0 or not np.any(self.levels)

    def span(self):
        if self.breakpoints.size == 0:
            return None
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.breakpoints.size == 0:
            return np.zeros_like(x)
        idx = np.searchsorted(self.breakpoints, x, side="left")
        inside = (idx >= 1) & (idx <= self.levels.size)
        out = np.zeros_like(x)
        out[inside] = self.levels[idx[inside] - 1]
        return out

    def l2_norm_sq(self) -> float:
        if self.levels.size == 0:
            return 0.0
        widths = np.diff(self.breakpoints)
        return float(np.sum(self.levels ** 2 * widths))

    def total_variation(self) -> float:
        if self.levels.size == 0:
            return 0.0
        jumps = np.concatenate([[self.levels[0]], np.diff(self.levels),
                                [-self.levels[-1]]])
        return float(np.sum(np.abs(jumps)))

    def sample(self, step: float) -> GridFunction:
        """Sample from the first breakpoint on, with four zero nodes per
        side; the jumps become one-cell ramps."""
        if self.breakpoints.size == 0:
            return GridFunction(0.0, step, np.zeros(2))
        a, b = self.span()
        return GridFunction.from_callable(self, a, b, step, pad=4)


def snap_to_dyadic_step(f: GridFunction, n: int) -> StepFunction:
    """Left-endpoint dyadic snapping: level f(i/2^n) on (i/2^n, (i+1)/2^n]."""
    if not (is_count(n) and n >= 1):
        raise ValueError(f"dyadic depth must be a positive integer, got {n!r}")
    if f.is_zero:
        return StepFunction(np.array([]), np.array([]))
    lo, hi = f.support_interval()
    step = 0.5 ** n
    # the support's own grid first: it refuses a depth past the node limit
    # (and a step that underflows to 0) before lo / step can overflow
    grid_size(lo, hi, step)
    i0 = np.floor(lo / step)
    i1 = max(np.ceil(hi / step), i0 + 1)
    bps = grid_nodes(i0 * step, i1 * step, step)
    if bps.size < 2:
        raise ValueError(f"dyadic cells of depth {n} are finer than the "
                         f"float spacing at {lo}")
    return StepFunction(bps, f(bps[:-1]))


@dataclass(frozen=True)
class IntervalSet:
    """A finite disjoint union of open intervals, sorted by left endpoint.

    Endpoints may be -inf/inf.  Overlapping inputs are merged; touching open
    intervals are kept separate (they are distinct components).
    """

    intervals: tuple

    def __post_init__(self):
        cleaned = []
        for lo, hi in self.intervals:
            lo = float(lo)
            hi = float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            if lo < hi:
                cleaned.append((lo, hi))
        cleaned.sort()
        merged: list = []
        for lo, hi in cleaned:
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def of(cls, *pairs) -> "IntervalSet":
        return cls(tuple(pairs))

    @classmethod
    def real_line(cls) -> "IntervalSet":
        return cls(((-_INF, _INF),))

    # -- queries ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __iter__(self) -> Iterator:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def endpoints(self) -> np.ndarray:
        """The pieces as a (len, 2) array of [lo, hi] rows."""
        return np.array(self.intervals, dtype=float).reshape(-1, 2)

    def measure_between(self, x, y):
        """Lebesgue measure of the set intersected with (min(x,y), max(x,y)).

        Broadcasts over arrays x, y (a float for scalar arguments).  Each
        entry adds the pieces' overlaps in order, so it equals the scalar
        call bit for bit; an overlap inf - inf (x = y = +-inf) counts 0."""
        a, b = np.minimum(x, y), np.maximum(x, y)
        total = np.zeros(np.shape(a))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in self.intervals:
                d = np.minimum(hi, b) - np.maximum(lo, a)
                total += np.where(d > 0.0, d, 0.0)
        return float(total) if total.ndim == 0 else total

    # -- set algebra --------------------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo < hi:
                    pieces.append((lo, hi))
        return IntervalSet(tuple(pieces))

    def intersect_window(self, window) -> "IntervalSet":
        return self.intersect(IntervalSet.of(tuple(window)))

    def complement_within(self, window) -> "IntervalSet":
        """Open gaps of the set inside the open window (a, b)."""
        a, b = float(window[0]), float(window[1])
        gaps = []
        cursor = a
        for lo, hi in self.intervals:
            if hi <= a or lo >= b:
                continue
            if lo > cursor:
                gaps.append((cursor, min(lo, b)))
            cursor = max(cursor, hi)
            if cursor >= b:
                break
        if cursor < b:
            gaps.append((cursor, b))
        return IntervalSet(tuple(gaps))

    # -- serialization ---------------------------------------------------------------

    def to_json_list(self) -> list:
        def enc(v):
            if v == _INF:
                return "inf"
            if v == -_INF:
                return "-inf"
            return v
        return [[enc(lo), enc(hi)] for lo, hi in self.intervals]

    @classmethod
    def from_json_list(cls, data) -> "IntervalSet":
        """Pieces [lo, hi] with lo < hi; "inf" and "-inf" stand for the
        infinite endpoints."""
        if not isinstance(data, (list, tuple)):
            raise ValueError("an interval set is a JSON list of [lo, hi] pairs")
        pieces = []
        for piece in data:
            if not (isinstance(piece, (list, tuple)) and len(piece) == 2):
                raise ValueError(f"an interval is a pair [lo, hi], got {piece!r}")
            lo, hi = (_json_float(v) for v in piece)
            if not lo < hi:
                raise ValueError(f"an interval needs lo < hi, got [{lo}, {hi}]")
            pieces.append((lo, hi))
        return cls(tuple(pieces))


_RAMP_PROFILES = {
    "linear": lambda t: t,
    "smooth": lambda t: t * t * (3.0 - 2.0 * t),
    "concave": lambda t: np.sin(0.5 * math.pi * t),
}


@dataclass(frozen=True)
class PlateauSpec:
    """Plateau 1 on [a, b], 0 outside (a - rho, b + rho), monotone ramps."""

    a: float
    b: float
    rho: float
    ramp_profile: str = "linear"

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"need finite a < b, got a={self.a}, b={self.b}")
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"ramp width must be positive and finite, got "
                             f"{self.rho}")
        if self.ramp_profile not in _RAMP_PROFILES:
            raise ValueError(f"unknown ramp profile {self.ramp_profile!r}; "
                             f"choose from {sorted(_RAMP_PROFILES)}")


def make_plateau(spec: PlateauSpec, step: float) -> GridFunction:
    """Sample a plateau function; exact 1 on [a, b], exact 0 off the ramps.

    The left ramp foot sits exactly on a grid node; the right foot is the
    last node <= b + rho (to 1e-12 steps), so the interpolant never spills
    outside (a - rho, b + rho).  Total variation of the result is exactly 2.
    """
    if spec.rho <= 2.0 * step:
        raise ValueError(f"degenerate plateau: rho={spec.rho} needs step < rho/2, "
                         f"got step={step}")
    if spec.b - spec.a < 2.0 * step:
        raise ValueError("plateau top needs at least two grid nodes")
    profile = _RAMP_PROFILES[spec.ramp_profile]
    pad = 4
    left_foot = spec.a - spec.rho
    grid_size(left_foot - pad * step, spec.b + spec.rho + pad * step, step)
    x = grid_nodes(left_foot, spec.b + spec.rho, step)
    if x[-1] > spec.b + spec.rho + 1e-12 * step:
        x = x[:-1]
    right_foot = x[-1]

    vals = np.zeros_like(x)
    on_top = (x >= spec.a) & (x <= spec.b)
    vals[on_top] = 1.0
    up = (x > left_foot) & (x < spec.a)
    vals[up] = profile((x[up] - left_foot) / (spec.a - left_foot))
    down = (x > spec.b) & (x < right_foot)
    vals[down] = profile((right_foot - x[down]) / (right_foot - spec.b))
    return GridFunction(left_foot - pad * step, step,
                        np.concatenate([np.zeros(pad), vals, np.zeros(pad)]))
