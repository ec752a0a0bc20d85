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
whole-array passes, with no per-node numpy call.  A scalar heap replay then
orders the excursions largest first and forms the float levels as
flat = max(f[col] - base, 0), height = (f[peak] - base) - flat and child
base = base + flat; stars are built from the samples on first access.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .fourier import transform_at
from .grids import GridFunction, IntervalSet, snap_to_dyadic_step
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

    ``base`` is the accumulated level below this excursion (constant on its
    support run), ``height`` its sup norm and ``star`` the ladder-like part
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
            else:
                self._star = GridFunction(f.origin, f.step, np.zeros(2))
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

    ``order`` lists nodes in processing order (largest pending excursion
    first); ``trace`` holds (nodes_processed, sup_gap) after each step.
    ``edges`` holds one entry per child edge, stubs included, as arrays:
    parent rank in ``order``, child rank (K for a stub), run start, run
    length and child base.  Partial sums over root-connected prefixes are
    produced exactly as min(f, base) on the pending runs.
    """

    def __init__(self, source, root, order, trace, converged, depth_built,
                 edges):
        self.source = source
        self.root = root
        self.order = order
        self.trace = trace
        self.converged = converged
        self.depth_built = depth_built
        self.edges = edges

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    def partial_sum(self, k: int | None = None) -> GridFunction:
        """Sum of the stars of the first k processed nodes (all by default).

        Formed exactly as min(f, base) over the runs still pending after k
        steps, the edges from a processed parent to an unprocessed child,
        whose runs are disjoint; this keeps erasedness and constancy exact
        on the grid."""
        if k is None:
            k = len(self.order)
        if not 1 <= k <= len(self.order):
            raise ValueError(f"k must lie in 1..{len(self.order)}")
        parent, child, lo, length, base = self.edges
        cut = (parent < k) & (k <= child)
        lo, length = lo[cut], length[cut]
        idx = np.arange(int(length.sum())) + np.repeat(
            lo - (np.cumsum(length) - length), length)
        out = self.source.values.copy()
        out[idx] = np.minimum(out[idx], np.repeat(base[cut], length))
        return self.source.with_values(out)

    def partial_sums(self):
        """partial_sum(1..K) in one walk: step k restores node k's run from f
        and clips it at its children's bases (children follow their parent in
        ``order`` and sibling runs are disjoint, so this is exact)."""
        f = self.source.values
        out = f.copy()
        for node in self.order:
            out[node.lo:node.hi + 1] = f[node.lo:node.hi + 1]
            for child in node.children:
                seg = out[child.lo:child.hi + 1]
                np.minimum(seg, child.base, out=seg)
            yield self.source.with_values(out)

    def sup_gap(self, k: int | None = None) -> float:
        if k is None:
            k = len(self.order)
        return self.trace[k - 1][1]

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "depth_built": self.depth_built,
            "n_nodes": self.n_nodes,
            "trace": [[int(n), float(g)] for n, g in self.trace],
            "root": self.root.to_json_dict(self.source) if self.root else None,
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
    parent-peak side) and the parent (the root is its own); then the
    children grouped by parent in position order, each parent's offset into
    them, and the root's index.
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
    parent = np.searchsorted(peaks, parent_peak)
    child = np.flatnonzero(parent != np.arange(peaks.size))
    kids = child[np.argsort(parent[child], kind="stable")]
    first_kid = np.r_[0, np.cumsum(np.bincount(parent[child],
                                               minlength=peaks.size))]
    root = int(np.searchsorted(peaks, np.argmax(r)))
    return peaks, lo, hi, col, parent, kids, first_kid, root


def ladder_decompose(f: GridFunction, max_nodes: int = 256,
                     sup_tol: float = 1e-9) -> LadderTree:
    """Breadth-first excursion decomposition, largest excursion first.

    Stops when the pending sup gap falls below ``sup_tol`` or the node budget
    is exhausted; in the latter case the tree carries converged=False rather
    than raising (infinitely branching inputs are legitimate).
    """
    if not f.finite():
        raise ValueError("samples must be finite")
    if np.any(f.values < 0):
        raise ValueError("decomposition needs a non-negative function")
    if not f.has_compact_support():
        raise ValueError("decomposition needs compact support")
    if max_nodes < 1:
        raise ValueError("need a positive node budget")
    if not (math.isfinite(sup_tol) and sup_tol >= 0):
        raise ValueError(f"sup_tol must be finite and non-negative, got "
                         f"{sup_tol}")

    fv = f.values
    if f.is_zero:
        root = LadderNode((), 0, fv.size - 1, 0.0, f.origin, 0.0, f)
        root._star = f.with_values(np.zeros_like(fv))
        none = np.zeros(0, dtype=np.intp)
        return LadderTree(f, root, [root], [(1, 0.0)], True, 0,
                          (none, none, none, none, np.zeros(0)))

    lo0 = f.support_lo
    peaks, lo, hi, col, parent, kids, first_kid, root = _excursions(
        fv[lo0:f.support_hi + 1])
    peaks, lo, hi, col = peaks + lo0, lo + lo0, hi + lo0, col + lo0
    peak_point = (f.origin + peaks * f.step).tolist()
    f_peak, f_col = fv[peaks].tolist(), fv[col].tolist()
    lo_at, hi_at = lo.tolist(), hi.tolist()
    kids, first_kid = kids.tolist(), first_kid.tolist()
    base_of = [0.0] * len(peak_point)

    # (-height, counter, node, base, address, parent node)
    heap = [(-float(fv.max()), 0, root, 0.0, (), None)]
    counter = 0
    order = []
    done = []
    trace = []
    while heap and len(order) < max_nodes:
        negh, _, i, base, address, up = heapq.heappop(heap)
        node = LadderNode(address, lo_at[i], hi_at[i], base, peak_point[i],
                          -negh, f)
        order.append(node)
        done.append(i)
        if up is not None:
            up.children.append(node)
        for j, c in enumerate(kids[first_kid[i]:first_kid[i + 1]], start=1):
            flat = max(f_col[c] - base, 0.0)
            height = (f_peak[c] - base) - flat
            base_of[c] = base + flat
            counter += 1
            heapq.heappush(heap, (-height, counter, c, base_of[c],
                                  address + (j,), node))
        gap = -heap[0][0] if heap else 0.0
        trace.append((len(order), float(gap)))
        if gap <= sup_tol:
            break

    # pending excursions become (unprocessed) child stubs for partial sums
    for negh, _, i, base, address, up in sorted(heap, key=lambda e: e[1]):
        up.children.append(
            LadderNode(address, lo_at[i], hi_at[i], base, math.nan, -negh))

    rank = np.full(len(peak_point), len(order))
    rank[done] = np.arange(len(order))
    # every child of a processed node is an edge: processed, or a stub
    edge = np.flatnonzero(rank[parent] < len(order))
    edge = edge[edge != root]
    edges = (rank[parent[edge]], rank[edge], lo[edge], (hi - lo + 1)[edge],
             np.array(base_of)[edge])
    gap = trace[-1][1]
    depth = max(len(n.address) for n in order)
    return LadderTree(f, order[0], order, trace, gap <= sup_tol, depth, edges)


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


def step_rate_experiment(f: GridFunction, alpha: float, n_lo: int, n_hi: int,
                         *, fine_step: float | None = None) -> StepRateResult:
    """Energy of f minus its dyadic left-endpoint step approximant, for
    depths n_lo..n_hi, with the least-squares slope of log2(error) vs n.

    Valid for alpha in (0, 1) only (indicator-type discontinuities carry
    finite energy there)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("the rate experiment needs alpha in (0, 1)")
    if n_hi < n_lo or n_lo < 1:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if f.is_zero:
        entries = tuple((n, 0.0) for n in range(n_lo, n_hi + 1))
        return StepRateResult(entries, float("nan"))

    if fine_step is None:
        fine_step = min(f.step, 2.0 ** (-n_hi) / 16.0)
    lo, hi = f.support_interval()
    pad = 4 * fine_step
    n_fine = int(math.ceil((hi - lo + 2 * pad) / fine_step)) + 1
    x = (lo - pad) + fine_step * np.arange(n_fine)
    f_fine = f(x)

    entries = []
    for n in range(n_lo, n_hi + 1):
        approx = snap_to_dyadic_step(f, n)
        d = f_fine - approx(x)
        d[0] = 0.0
        d[-1] = 0.0
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
    mask = np.abs(xi) >= 1.0
    if not np.any(mask):
        raise ValueError("frequency grid has no points with |xi| >= 1")
    amps = transform_at(f, xi[mask])
    return float(np.max(np.abs(amps) * np.abs(xi[mask]) - 2.0))
