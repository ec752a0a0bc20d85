"""Excursion-erasure machinery: erased functions, running-infimum stars, the
recursive ladder decomposition tree, arm splitting, and the step-approximation
rate experiment.

All excursion bookkeeping is done with exact node comparisons: stars are
computed by running minima (pure selection, no arithmetic), excursion
components are maximal runs of strict inequality, and partial sums are formed
as min(f, base level), so erasedness and constancy checks are decidable
exactly on the grid.

The excursion tree is the component tree of f's upper level sets
(Salembier, Oliveras and Garrido, IEEE TIP 1998), found from the ranks of
f's samples alone.  Each strict local-maximum plateau starts one excursion,
peaked at its first sample.  Its run is where f stays above its col level,
the higher of the two range minima between the peak and its nearest
dominating samples; its parent's peak is the first maximum of the interval
where f stays at or above that level.  Both are read off
range-min/max sparse tables with power-of-two searches (Bender and
Farach-Colton, "The LCA problem revisited", 2000): a fixed number of
whole-array passes, with no per-node numpy call.  A child's base is f at
its col and its height f at its peak minus that base; one lexsort orders
the excursions largest first, and nodes and stars are built on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import transform_at
from .grids import (GridFunction, IntervalSet, grid_nodes, is_boolean,
                    is_count, snap_to_dyadic_step)
from .quadcells import gagliardo_of_values

__all__ = [
    "is_erased_function",
    "skorokhod_star",
    "ladder_star",
    "LadderNode",
    "LadderTree",
    "ladder_decompose",
    "arm_split",
    "StepRateResult",
    "step_rate_experiment",
    "bv_fourier_bound_check",
]


def is_erased_function(f: GridFunction, g: GridFunction):
    """Whether f <= g with f constant on each component of {f < g}.

    Components are maximal runs of nodes with strict inequality; constancy
    means exact node equality of f across the run.  Returns (ok, witness)
    where the witness holds the component intervals (the open span between
    the flanking equality nodes).
    """
    if not f.same_grid(g):
        raise ValueError("grid mismatch between candidate and source")
    fa, ga = f.aligned_with(g)
    fv, gv = fa.values, ga.values
    if np.any(fv > gv):
        return False, IntervalSet.empty()
    strict = fv < gv
    ok = not np.any(strict[1:] & strict[:-1] & (fv[1:] != fv[:-1]))
    edge = np.diff(strict.astype(np.int8), prepend=0, append=0)
    lo = np.flatnonzero(edge > 0)
    hi = np.flatnonzero(edge < 0) - 1
    x = fa.x
    xl = np.where(lo > 0, x[np.maximum(lo - 1, 0)], x[0] - fa.step)
    xr = np.where(hi + 1 < fv.size, x[np.minimum(hi + 1, fv.size - 1)],
                  x[-1] + fa.step)
    return ok, IntervalSet(tuple(zip(xl.tolist(), xr.tolist())))


def skorokhod_star(g: GridFunction, a: float, b: float, rho: float
                   ) -> GridFunction:
    """Running-infimum flattening of a plateau-type function.

    On the left ramp the result is inf of g over [x, a]; on the right ramp
    inf over [b, x]; 1 on [a, b] and 0 outside, like the input.  The output
    is an erased function of g and lies in the same plateau family.
    """
    tol = 1e-12
    v = g.values
    x = g.x
    if np.any(v < -tol) or np.any(v > 1.0 + tol):
        raise ValueError("precondition failed: need 0 <= g <= 1")
    top = (x >= a - tol) & (x <= b + tol)
    if not np.any(top):
        raise ValueError("precondition failed: no grid node on the plateau [a, b]")
    if np.any(v[top] != 1.0):
        raise ValueError("precondition failed: g must equal 1 on [a, b]")
    outside = (x <= a - rho + tol) | (x >= b + rho - tol)
    if np.any(v[outside] != 0.0):
        raise ValueError("precondition failed: g must vanish off (a-rho, b+rho)")

    ia = int(np.nonzero(top)[0][0])
    ib = int(np.nonzero(top)[0][-1])
    out = v.copy()
    out[:ia + 1] = np.minimum.accumulate(v[:ia + 1][::-1])[::-1]
    out[ib:] = np.minimum.accumulate(v[ib:])
    return g.with_values(out)


def _star_values(w: np.ndarray):
    """Two-sided running minimum around the first maximum; returns the star
    values and the index of the peak."""
    t = int(np.argmax(w))
    left = np.minimum.accumulate(w[:t + 1][::-1])[::-1]
    right = np.minimum.accumulate(w[t:])
    return np.concatenate([left, right[1:]]), t


def ladder_star(f: GridFunction):
    """The ladder-like envelope of f: running infimum toward the first point
    attaining the maximum.  Returns (star, peak_point)."""
    if not f.finite():
        raise ValueError("samples must be finite")
    if np.any(f.values < 0):
        raise ValueError("ladder star needs a non-negative function")
    if f.is_zero:
        raise ValueError("ladder star of the zero function is undefined")
    star, t = _star_values(f.values)
    return f.with_values(star), float(f.origin + t * f.step)


class LadderNode:
    """One excursion of the decomposition tree.

    ``base`` is the level below this excursion, f at its col (0 for the
    root), ``height`` its sup norm above it and ``star`` the ladder-like part
    of the excursion in its own frame, built from the source samples on
    first access.  ``pending`` marks excursions discovered but not expanded
    (budget cut); they have no star and no peak.  Immutable after the tree
    is built.
    """

    __slots__ = ("address", "lo", "hi", "base", "peak_point", "height",
                 "children", "pending", "_source", "_star")

    def __init__(self, address, lo, hi, base, peak_point, height,
                 source=None):
        self.address = address
        self.lo = lo
        self.hi = hi
        self.base = base
        self.peak_point = peak_point
        self.height = height
        self.children = []
        self.pending = source is None
        self._source = source
        self._star = None

    @property
    def star(self):
        """max(f - base, 0) on the run, flattened by running minima toward
        its first maximum and trimmed to one zero per side, with its origin
        from the absolute node index (None if pending)."""
        if self._star is None and not self.pending:
            f = self._source
            w = np.maximum(f.values[self.lo:self.hi + 1] - self.base, 0.0)
            star_vals, _ = _star_values(w)
            nz = np.flatnonzero(star_vals)
            if nz.size:
                a, b = int(nz[0]), int(nz[-1])
                self._star = GridFunction(
                    f.origin + (self.lo + a - 1) * f.step, f.step,
                    np.pad(star_vals[a:b + 1], 1))
            else:  # the zero function's root
                self._star = f.with_values(np.zeros_like(f.values))
        return self._star

    def support_interval(self, grid: GridFunction):
        return (grid.origin + self.lo * grid.step,
                grid.origin + self.hi * grid.step)

    def to_json_dict(self, grid: GridFunction) -> dict:
        lo_x, hi_x = self.support_interval(grid)
        return {
            "address": list(self.address),
            "support": [lo_x, hi_x],
            "peak": None if self.pending else self.peak_point,
            "base": self.base,
            "height": self.height,
            "pending": self.pending,
            "star": None if self.pending else self.star.to_json_dict(),
            "children": [c.to_json_dict(grid) for c in self.children],
        }


class LadderTree:
    """Excursion tree of a non-negative grid function.

    ``order`` lists the processed nodes largest first, built on access from
    per-excursion arrays; ``trace`` holds (nodes_processed, sup_gap) after
    each step.  ``edges`` holds one entry per child edge, stubs included,
    as arrays: parent rank in ``order``, child rank (K for a stub), run
    start, run length and child base.  Partial sums over root-connected
    prefixes are produced exactly as min(f, base) on the pending runs.
    """

    def __init__(self, source, excursions, rank, gaps, converged,
                 depth_built, edges):
        self.source = source
        self._excursions = excursions
        self._rank = rank
        self._gaps = gaps
        self.n_nodes = gaps.size
        self.converged = converged
        self.depth_built = depth_built
        self.edges = edges

    @cached_property
    def trace(self) -> list:
        return list(zip(range(1, self.n_nodes + 1), self._gaps.tolist()))

    @cached_property
    def order(self) -> list:
        """Processed nodes by rank; each node's children are its processed
        ones by rank, then its pending ones (stubs) in position order."""
        f, k, rank = self.source, self.n_nodes, self._rank
        peak, lo, hi, base, height, parent = self._excursions
        group = np.where(parent == np.arange(parent.size), -1, parent)
        sib = np.empty_like(parent)  # 1 + position among the siblings
        sib[np.argsort(group, kind="stable")] = np.arange(1, sib.size + 1)
        sib -= np.searchsorted(np.sort(group), group)
        ids = np.r_[np.argsort(rank)[:k],
                    np.flatnonzero((rank == k) & (rank[parent] < k))]
        peak_point = np.where(rank < k, f.origin + peak * f.step, math.nan)
        lo, hi, base, peak_point, height, parent, sib = (
            a.tolist() for a in (lo, hi, base, peak_point, height, parent,
                                 sib))
        built = {}
        for j, i in enumerate(ids.tolist()):
            up = built.get(parent[i])
            built[i] = LadderNode(() if up is None else up.address + (sib[i],),
                                  lo[i], hi[i], base[i], peak_point[i],
                                  height[i], f if j < k else None)
            if up is not None:
                up.children.append(built[i])
        return [built[i] for i in ids[:k].tolist()]

    @property
    def root(self) -> LadderNode:
        return self.order[0]

    def partial_sum(self, k: int | None = None) -> GridFunction:
        """Sum of the stars of the first k processed nodes (all by default).

        Formed exactly as min(f, base) over the runs still pending after k
        steps, the edges from a processed parent to an unprocessed child,
        whose runs are disjoint; this keeps erasedness and constancy exact
        on the grid."""
        k = self._step(k)
        parent, child, lo, length, base = self.edges
        cut = (parent < k) & (k <= child)
        lo, length = lo[cut], length[cut]
        idx = np.arange(int(length.sum())) + np.repeat(
            lo - (np.cumsum(length) - length), length)
        out = self.source.values.copy()
        out[idx] = np.minimum(out[idx], np.repeat(base[cut], length))
        return self.source.with_values(out)

    def sup_gap(self, k: int | None = None) -> float:
        """Largest height still pending after k steps (all by default)."""
        return float(self._gaps[self._step(k) - 1])

    def _step(self, k):
        n = self.n_nodes
        if k is None:
            return n
        if not (is_count(k) and 1 <= k <= n):
            raise ValueError(f"k must be an integer in 1..{n}")
        return k

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "depth_built": self.depth_built,
            "n_nodes": self.n_nodes,
            "trace": [[int(n), float(g)] for n, g in self.trace],
            "root": self.root.to_json_dict(self.source),
        }


def _sparse_table(r: np.ndarray, op) -> np.ndarray:
    """table[k, i] = op over r[i:i + 2^k], for every block that fits."""
    table = np.empty((r.size.bit_length(), r.size), dtype=r.dtype)
    table[0] = r
    for k in range(1, table.shape[0]):
        h = 1 << (k - 1)
        op(table[k - 1, :-h], table[k - 1, h:], out=table[k, :-h])
        table[k, -h:] = table[k - 1, -h:]
    return table


def _walk(table, pos, x, skip, left: bool) -> np.ndarray:
    """Move each pos over the longest run of samples that all satisfy
    skip(sample, x), tested per power-of-two block on its table entry.
    Leftward, pos is an exclusive end and the result is the run's first
    index; rightward, pos is the first index tried and the result is the
    first index not skipped (the length when all are)."""
    n = table.shape[1]
    for k in range(table.shape[0] - 1, -1, -1):
        h = 1 << k
        if left:
            cand = pos - h
            ok = (cand >= 0) & skip(table[k, np.maximum(cand, 0)], x)
        else:
            cand = pos + h
            ok = (cand <= n) & skip(table[k, np.minimum(pos, n - 1)], x)
        pos = np.where(ok, cand, pos)
    return pos


def _span(table, a, b, op) -> np.ndarray:
    """op over the samples a..b (a <= b) from two overlapping blocks."""
    k = np.frexp(b - a + 1)[1] - 1
    return op(table[k, a], table[k, b - (1 << k) + 1])


def _excursions(v: np.ndarray):
    """Excursion structure of a root run v (positive at both ends, flanked
    by zeros) from its exact ranks: one node per strict local-maximum
    plateau, peaked at its first sample.

    Returns per node, in position order, the peak, the run (lo, hi), the
    col sample (where the parent's star flattens, next to the run on the
    parent-peak side; a zero outside the run for the root) and the parent
    (the root is its own).  An all-zero v gives one node over all of v.
    """
    r = np.unique(v, return_inverse=True)[1].astype(np.int32)
    n = r.size
    starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    u = r[starts]
    peaks = starts[np.r_[True, u[1:] > u[:-1]] & np.r_[u[:-1] > u[1:], True]]
    top = _sparse_table(r, np.maximum)
    bottom = _sparse_table(r, np.minimum)
    x = r[peaks]
    # dominators under argmax's first-maximum rule: an equal sample wins
    # from the left only; the run sits above the higher of the two cols
    left = _walk(top, peaks, x, np.less, True) - 1
    right = _walk(top, peaks + 1, x, np.less_equal, False)
    level = np.maximum(
        np.where(left >= 0,
                 _span(bottom, np.maximum(left, 0), peaks, np.minimum), -1),
        np.where(right < n,
                 _span(bottom, peaks, np.minimum(right, n - 1), np.minimum),
                 -1))
    lo = _walk(bottom, peaks, level, np.greater, True)
    hi = _walk(bottom, peaks + 1, level, np.greater, False) - 1
    # the parent's peak is the first maximum of the run at or above the col
    a = _walk(bottom, peaks, level, np.greater_equal, True)
    b = _walk(bottom, peaks + 1, level, np.greater_equal, False) - 1
    parent_peak = _walk(top, a, _span(top, a, b, np.maximum), np.less, False)
    del top, bottom
    col = np.where(hi < parent_peak, hi + 1, lo - 1)
    return peaks, lo, hi, col, np.searchsorted(peaks, parent_peak)


def ladder_decompose(f: GridFunction, max_nodes: int = 256,
                     sup_tol: float = 1e-9) -> LadderTree:
    """Excursion decomposition, largest excursion first: nodes rank by
    (-height, depth, peak index), so every prefix is root-connected.

    Stops when the pending sup gap falls to ``sup_tol`` or the integer node
    budget ``max_nodes`` is spent; in the latter case the tree carries
    converged=False rather than raising (infinitely branching inputs are
    legitimate).
    """
    if not f.finite():
        raise ValueError("samples must be finite")
    if np.any(f.values < 0):
        raise ValueError("decomposition needs a non-negative function")
    if not f.has_compact_support():
        raise ValueError("decomposition needs compact support")
    if not (is_count(max_nodes) and max_nodes >= 1):
        raise ValueError(f"the node budget must be a positive integer, got "
                         f"{max_nodes!r}")
    if is_boolean(sup_tol) or not (math.isfinite(sup_tol) and sup_tol >= 0):
        raise ValueError(f"sup_tol must be a finite non-negative number, got "
                         f"{sup_tol!r}")

    fv = f.values
    lo0, hi0 = (0, fv.size - 1) if f.is_zero else (f.support_lo,
                                                    f.support_hi)
    peaks, lo, hi, col, parent = _excursions(fv[lo0:hi0 + 1])
    peaks, lo, hi, col = peaks + lo0, lo + lo0, hi + lo0, col + lo0
    base = fv[col]  # a zero sample for the root
    height = fv[peaks] - base
    child = parent != np.arange(parent.size)
    depth, up = child.astype(np.intp), parent
    while np.any(up[up] != up):  # pointer jumping toward the root
        depth, up = depth + depth[up], up[up]
    ranked = np.lexsort((peaks, depth, -height))
    # heights never grow from parent to child: the gaps do not increase
    gaps = np.append(height[ranked[1:]], 0.0)
    n_done = min(int(max_nodes), 1 + int(np.count_nonzero(gaps > sup_tol)))
    rank = np.full(peaks.size, n_done)
    rank[ranked[:n_done]] = np.arange(n_done)
    # every child of a processed node is an edge: processed, or a stub
    edge = np.flatnonzero(child & (rank[parent] < n_done))
    edges = (rank[parent[edge]], rank[edge], lo[edge], (hi - lo + 1)[edge],
             base[edge])
    return LadderTree(f, (peaks, lo, hi, base, height, parent), rank,
                      gaps[:n_done], bool(gaps[n_done - 1] <= sup_tol),
                      int(depth[ranked[:n_done]].max()), edges)


def arm_split(h: GridFunction):
    """Split a ladder-like function into its monotone arms.

    left = h or the max level beyond the peak; right = left - h (the
    reflected descending arm).  Both are non-decreasing on the grid window
    and left - right recovers h at every node (up to one ulp at nodes where
    the subtraction rounds).
    """
    if not h.finite():
        raise ValueError("samples must be finite")
    v = h.values
    if np.any(v < 0):
        raise ValueError("ladder-like input must be non-negative")
    t = int(np.argmax(v))
    if np.any(np.diff(v[:t + 1]) < 0) or np.any(np.diff(v[t:]) > 0):
        raise ValueError("input is not ladder-like")
    m = float(v[t])
    idx = np.arange(v.size)
    left = np.where(idx < t, v, m)
    right = left - v
    return h.with_values(left), h.with_values(right)


@dataclass(frozen=True)
class StepRateResult:
    """Decay table of the dyadic step approximation and its fitted slope."""

    entries: tuple
    slope: float


def step_rate_experiment(f: GridFunction, alpha: float, n_lo: int,
                         n_hi: int) -> StepRateResult:
    """Energy of f minus its dyadic left-endpoint step approximant, for
    depths n_lo..n_hi, with the least-squares slope of log2(error) vs n.
    The differences are sampled at step min(f.step, 2^-n_hi / 16) on a
    window that holds f's outer ramps and the coarsest approximant's cells
    plus four fine steps, so they taper to exact zeros inside it.

    Valid for alpha in (0, 1) only (indicator-type discontinuities carry
    finite energy there)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("the rate experiment needs alpha in (0, 1)")
    if not (is_count(n_lo) and is_count(n_hi) and 1 <= n_lo <= n_hi):
        raise ValueError(f"need integer depths 1 <= n_lo <= n_hi, got "
                         f"{n_lo!r}, {n_hi!r}")
    if f.is_zero:
        entries = tuple((n, 0.0) for n in range(n_lo, n_hi + 1))
        return StepRateResult(entries, float("nan"))

    fine_step = min(f.step, 2.0 ** (-n_hi) / 16.0)
    lo, hi = f.support_interval()
    # the coarsest approximant's cells hold every finer one's
    a, b = snap_to_dyadic_step(f, n_lo).span()
    pad = 4 * fine_step
    x = grid_nodes(min(lo - f.step, a) - pad, max(hi + f.step, b) + pad,
                   fine_step)
    f_fine = f(x)

    entries = []
    for n in range(n_lo, n_hi + 1):
        d = f_fine - snap_to_dyadic_step(f, n)(x)
        e = gagliardo_of_values(d, fine_step, alpha)
        entries.append((n, float(e)))
    ns = np.array([n for n, _ in entries], dtype=float)
    es = np.array([e for _, e in entries])
    slope = float(np.polyfit(ns, np.log2(es), 1)[0]) if np.all(es > 0) \
        else float("nan")
    return StepRateResult(tuple(entries), slope)


def bv_fourier_bound_check(f: GridFunction, xi_grid) -> float:
    """max over |xi| >= 1 of |fhat(xi)| |xi| - 2 for a plateau-family f
    (total variation 2, values in [0, 1])."""
    v = f.values
    if np.any(v < 0) or np.any(v > 1):
        raise ValueError("plateau-family input needs values in [0, 1]")
    if abs(f.total_variation() - 2.0) > 1e-9:
        raise ValueError("plateau-family input needs total variation 2")
    xi = np.asarray(xi_grid, dtype=float)
    mask = ~(np.abs(xi) < 1.0)  # keeps NaN, which transform_at refuses
    if not np.any(mask):
        raise ValueError("frequency grid has no points with |xi| >= 1")
    amps = transform_at(f, xi[mask])
    return float(np.max(np.abs(amps) * np.abs(xi[mask]) - 2.0))
