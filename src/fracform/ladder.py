"""Excursion-erasure machinery: erased functions, running-infimum stars, the
recursive ladder decomposition tree, arm splitting, and the step-approximation
rate experiment.

All excursion bookkeeping is done with exact node comparisons: stars are
computed by running minima (pure selection, no arithmetic), excursion
components are maximal runs of strict inequality, and partial sums are formed
as min(f, base level), so erasedness and constancy checks are decidable
exactly on the grid.
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


def _strict_runs(mask: np.ndarray):
    """Maximal runs of consecutive True entries, as (lo, hi) index pairs."""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    splits = np.nonzero(np.diff(idx) > 1)[0]
    return [(int(run[0]), int(run[-1])) for run in np.split(idx, splits + 1)]


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
    components = []
    x = fa.x
    ok = True
    for lo, hi in _strict_runs(fv < gv):
        if np.any(fv[lo:hi + 1] != fv[lo]):
            ok = False
        xl = x[lo - 1] if lo > 0 else x[0] - fa.step
        xr = x[hi + 1] if hi + 1 < fv.size else x[-1] + fa.step
        components.append((float(xl), float(xr)))
    return ok, IntervalSet(tuple(components))


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
    support run), ``star`` the ladder-like part of the excursion in its own
    frame, ``height`` its sup norm.  Immutable after the tree is built.
    """

    __slots__ = ("address", "lo", "hi", "base", "star", "peak_point",
                 "height", "children")

    def __init__(self, address, lo, hi, base, star, peak_point, height):
        self.address = address
        self.lo = lo
        self.hi = hi
        self.base = base
        self.star = star
        self.peak_point = peak_point
        self.height = height
        self.children = []

    def support_interval(self, grid: GridFunction):
        return (grid.origin + self.lo * grid.step,
                grid.origin + self.hi * grid.step)

    @property
    def pending(self) -> bool:
        """True for excursions discovered but not expanded (budget cut)."""
        return self.star is None

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
    Partial sums over root-connected prefixes are produced exactly as
    min(f, base) on the pending runs.
    """

    def __init__(self, source, root, order, trace, converged, depth_built):
        self.source = source
        self.root = root
        self.order = order
        self.trace = trace
        self.converged = converged
        self.depth_built = depth_built

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    def partial_sum(self, k: int | None = None) -> GridFunction:
        """Sum of the stars of the first k processed nodes (all by default).

        Formed exactly as min(f, base) over the runs still pending after k
        steps, which keeps erasedness and constancy exact on the grid."""
        if k is None:
            k = len(self.order)
        if not 1 <= k <= len(self.order):
            raise ValueError(f"k must lie in 1..{len(self.order)}")
        done = {node.address for node in self.order[:k]}
        out = self.source.values.copy()
        for i in range(k):
            for child in self.order[i].children:
                if child.address in done:
                    continue
                seg = out[child.lo:child.hi + 1]
                out[child.lo:child.hi + 1] = np.minimum(seg, child.base)
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

    fv = f.values
    if f.is_zero:
        star = f.with_values(np.zeros_like(fv))
        root = LadderNode((), 0, fv.size - 1, 0.0, star, f.origin, 0.0)
        return LadderTree(f, root, [root], [(1, 0.0)], True, 0)

    heap = []  # (-height, tiebreak, lo, hi, base, address)
    counter = 0
    heapq.heappush(heap, (-float(fv.max()), counter,
                          f.support_lo, f.support_hi, 0.0, ()))
    order = []
    trace = []
    root = None
    while heap and len(order) < max_nodes:
        negh, _, lo, hi, base, address = heapq.heappop(heap)
        w = fv[lo:hi + 1] - base
        w = np.maximum(w, 0.0)
        star_vals, t_local = _star_values(w)
        # the full-length star trimmed(margin=1), origin by absolute index
        nz = np.flatnonzero(star_vals)
        if nz.size:
            a, b = int(nz[0]), int(nz[-1])
            star = GridFunction(f.origin + (lo + a - 1) * f.step, f.step,
                                np.pad(star_vals[a:b + 1], 1))
        else:
            star = GridFunction(f.origin, f.step, np.zeros(2))
        node = LadderNode(address, lo, hi, base, star,
                          float(f.origin + (lo + t_local) * f.step),
                          -negh)
        if root is None:
            root = node
        order.append(node)
        for j, (clo, chi) in enumerate(_strict_runs(w > star_vals), start=1):
            flat = float(star_vals[clo])
            child_height = float(np.max(w[clo:chi + 1]) - flat)
            counter += 1
            heapq.heappush(heap, (-child_height, counter, lo + clo, lo + chi,
                                  base + flat, address + (j,)))
        gap = -heap[0][0] if heap else 0.0
        trace.append((len(order), float(gap)))
        if gap <= sup_tol:
            break

    # Attach children links for the processed nodes (tree reporting).
    by_address = {n.address: n for n in order}
    for n in order:
        if n.address and n.address[:-1] in by_address:
            by_address[n.address[:-1]].children.append(n)
    # Pending excursions also become (unprocessed) child stubs for partial sums.
    for (negh, _, lo, hi, base, address) in sorted(heap, key=lambda e: e[1]):
        if address and address[:-1] in by_address:
            stub = LadderNode(address, lo, hi, base, None, math.nan, -negh)
            by_address[address[:-1]].children.append(stub)

    gap = trace[-1][1]
    depth = max((len(n.address) for n in order), default=0)
    return LadderTree(f, root, order, trace, gap <= sup_tol, depth)


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
