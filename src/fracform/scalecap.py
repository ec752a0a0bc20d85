"""Scale functions built from open sets, fat-Cantor generators, composition
with Lipschitz functions, the distributional pairing, and Riesz capacities by
constrained energy minimization.

The scale layer rests on one primitive, the measure of G between two points
(``IntervalSet.measure_between``, broadcast over arrays): the scale function
interpolates it at the ends of G's pieces, and the density certificate and
the pushforward measure are whole-array passes over the pieces and the grid.

Capacity of a set K inside a finite window is the minimum of the E1 form
(fractional energy at the dual exponent plus the L2 norm) over grid functions
pinned to 1 on the nodes of K, with the natural zero condition beyond the
window.  The discrete form uses the same closed-form lag weights as the
energy module plus the hat Gram row (2h/3, h/6) for the L2 part, assembled
as one symmetric Toeplitz operator over the hat basis.  The pin is a mask:
conjugate gradient runs on whole-grid vectors whose pinned entries the
operator and its preconditioner, the inverse of the circulant embedding of
that operator, hold at 0 (T. Chan, SIAM J. Sci. Stat. Comput. 1988; Chan
and Ng, SIAM Review 1996).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import grids
from .grids import (GridFunction, IntervalSet, grid_nodes, grid_size,
                    positive_number, real_number)
from .quadcells import (_KEPT_LAGS, _circular_size, gagliardo_of_values,
                        hat_energy_row)

__all__ = [
    "ScaleFunction",
    "FatCantorSpec",
    "SignedMeasure",
    "CapacityEstimate",
    "Composition",
    "CapacitySolverError",
    "build_fat_cantor",
    "scale_from_open_set",
    "compose_scale",
    "pushforward_measure",
    "duality_pairing_check",
    "capacity_estimate",
    "concentration_test",
]


# -- scale functions -----------------------------------------------------------


@dataclass(frozen=True)
class ScaleFunction:
    """s(x) = measure of G between the anchor and x, for an open set G,
    negative left of the anchor.

    s is 1-Lipschitz and non-decreasing with slope exactly 1 on G and 0 off
    G: linear between the ``breakpoints`` (the anchor and the finite ends of
    G's pieces), where ``cumulative`` holds its values, and with slope 1
    beyond them on a ray that G contains.  ``density_depth`` records the
    deepest dyadic level of the window at which every cell still meets G
    (the finite-resolution density certificate); ``strictly_increasing`` is
    the corresponding flag.
    """

    g_set: IntervalSet
    anchor: float = 0.0
    density_depth: int = -1
    strictly_increasing: bool = False
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)
    cumulative: np.ndarray = field(init=False, repr=False, compare=False)
    __reduce__ = grids._rebuilt

    def __post_init__(self):
        object.__setattr__(self, "anchor", real_number("anchor", self.anchor))
        if not math.isfinite(self.anchor):
            raise ValueError(f"anchor must be finite, got {self.anchor}")
        object.__setattr__(self, "density_depth", grids.count(
            "density_depth", self.density_depth, -1))
        ends = self.g_set.endpoints()
        bp = np.unique(np.append(ends[np.isfinite(ends)], self.anchor))
        m = self.g_set.measure_between(self.anchor, bp)
        cum = np.where(bp >= self.anchor, m, -m)
        bp.flags.writeable = False
        cum.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "cumulative", cum)

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bp = self.breakpoints
        out = np.interp(x, bp, self.cumulative)
        pieces = self.g_set.intervals
        if pieces and pieces[0][0] == -math.inf:
            out += np.minimum(x - bp[0], 0.0)
        if pieces and pieces[-1][1] == math.inf:
            out += np.maximum(x - bp[-1], 0.0)
        return out


def _density_depth(g: IntervalSet, window, max_depth: int = 12) -> int:
    """Deepest dyadic level of the window at which every cell meets G with
    positive measure; -1 when even depth 0 fails.

    The pieces are sorted and disjoint, so of those ending right of a cell's
    start the first starts leftmost: the cell meets G exactly when that
    piece starts before the cell's end."""
    a, b = window
    ends = g.endpoints()
    lo = np.append(ends[:, 0], math.inf)
    depth = -1
    for d in range(0, max_depth + 1):
        edges = np.linspace(a, b, 2 ** d + 1)
        # a cell spans its edges in either order, as in measure_between:
        # on a window a few hundred subnormals long they round out of order
        start = np.minimum(edges[:-1], edges[1:])
        end = np.maximum(edges[:-1], edges[1:])
        first = np.searchsorted(ends[:, 1], start, side="right")
        if np.all((lo[first] < end) & (start < end)):
            depth = d
        else:
            break
    return depth


def scale_from_open_set(g: IntervalSet, anchor: float = 0.0,
                        density_window: tuple[float, float] | None = None
                        ) -> ScaleFunction:
    """Exact piecewise-linear scale function with slope 1 on G and 0 off G."""
    if density_window is None:
        ends = g.endpoints()
        finite = ends[np.isfinite(ends)]
        # fewer than two distinct finite ends span no proper interval
        density_window = ((finite.min(), finite.max())
                          if finite.size and finite.min() < finite.max()
                          else (-1.0, 1.0))
    else:
        density_window = grids.window("density_window", density_window)
    depth = _density_depth(g, density_window)
    strict = depth >= 6 or g.complement_within(density_window).is_empty
    return ScaleFunction(g, anchor, density_depth=depth,
                         strictly_increasing=strict)


# -- fat-Cantor construction ------------------------------------------------------


@dataclass(frozen=True)
class FatCantorSpec:
    """Open dense-in-(-1,1) union spec: dyadic centers, summable radii.

    The i-th removed interval is centred at the i-th dyadic rational of
    (-1, 1) with radius chosen so the capacity surrogate r^(alpha-1) (or
    1/log(a_log/r) at alpha = 1) of the i-th interval is budget * 2^-i;
    the surrogate sum then stays below ``budget``, and clipping a radius
    only lowers it.
    """

    alpha: float
    budget: float
    a_log: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", real_number("alpha", self.alpha))
        object.__setattr__(self, "budget", positive_number("budget", self.budget))
        object.__setattr__(self, "a_log", real_number("a_log", self.a_log))
        if not 1.0 <= self.alpha < 2.0:
            raise ValueError(f"fat-Cantor construction needs alpha in [1, 2), "
                             f"got {self.alpha}")
        if not 1 < self.a_log < math.inf:
            raise ValueError("a_log must be finite and exceed 1")

    def radius(self, i: int) -> float:
        """The i-th radius; inf where it overflows (the build clips it)."""
        share = self.budget * 2.0 ** -grids.count("i", i, 1)
        if self.alpha > 1.0:
            try:
                return share ** (1.0 / (self.alpha - 1.0))
            except OverflowError:
                return math.inf
        # at alpha = 1 the i-th radius underflows to 0 from
        # i ~ 10 + log2(budget), before the share itself does
        return self.a_log * math.exp(-1.0 / share) if share > 0 else 0.0


# The i-th radius shrinks like budget * 2^-i and underflows to 0 past about
# 1074 + log2(budget) islands, so a larger count only costs memory.
MAX_ISLANDS = 1 << 12


def dyadic_centers(count: int):
    """0, then the odd dyadics of each level: +-1/2, +-1/4, +-3/4, ..."""
    centers = [0.0]
    q = 1
    while len(centers) < count:
        for p in range(1, 2 ** q, 2):
            for c in (p / 2.0 ** q, -p / 2.0 ** q):
                centers.append(c)
                if len(centers) >= count:
                    return centers
        q += 1
    return centers[:count]


def build_fat_cantor(spec: FatCantorSpec, n_intervals: int) -> IntervalSet:
    """The open set: everything outside [-1, 1] plus n symmetric islands at
    dyadic centers, radii shrunk to stay inside (-1, 1).

    The spec's radii keep the surrogate sum below its budget, and shrinking
    them only lowers it.  At most MAX_ISLANDS islands are built."""
    n_intervals = grids.count("n_intervals", n_intervals, 1)
    if n_intervals > MAX_ISLANDS:
        raise ValueError(f"{n_intervals} islands exceed the limit of "
                         f"{MAX_ISLANDS}")
    pieces = [(-math.inf, -1.0), (1.0, math.inf)]
    for i, c in enumerate(dyadic_centers(n_intervals), start=1):
        r = min(spec.radius(i), 0.5 * (1.0 - abs(c)))
        pieces.append((c - r, c + r))
    return IntervalSet(tuple(pieces))


# -- composition and pairing ---------------------------------------------------------


@dataclass(frozen=True)
class Composition:
    """f composed with a scale, with the recorded Lipschitz constant of f."""

    function: GridFunction
    lipschitz: float
    scale: ScaleFunction


def compose_scale(f_lip: GridFunction, s: ScaleFunction,
                  window: tuple[float, float],
                  step: float | None = None) -> Composition:
    """Sample f(s(x)) on the window; f lives on the range of s.

    The recorded constant makes |f(s(x)) - f(s(y))| <= lip |s(x) - s(y)|
    hold at every node pair."""
    lo, hi = grids.window("window", window)
    if step is None:
        step = f_lip.step
    x = grid_nodes(lo, hi, step)
    supp = f_lip.support_interval()
    if supp is not None:
        s_lo, s_hi = float(s(lo)[0]), float(s(hi)[0])
        if not (s_lo < supp[0] and supp[1] < s_hi):
            raise ValueError("support of f escapes the image of the window")
    vals = f_lip(s(x))
    vals[0] = 0.0
    vals[-1] = 0.0
    return Composition(GridFunction(lo, step, vals), f_lip.lipschitz(), s)


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """Density ``density[k]`` on the segment (lo[k], hi[k]); the segments
    are disjoint, so the measure is finite on compacts."""

    lo: np.ndarray
    hi: np.ndarray
    density: np.ndarray
    __reduce__ = grids._rebuilt

    def __post_init__(self):
        for name in ("lo", "hi", "density"):
            object.__setattr__(self, name,
                               grids._frozen_array(getattr(self, name)))

    def integrate(self, phi: GridFunction) -> float:
        """Exact integral of the interpolant of phi against the measure: the
        antiderivative of the interpolant at every segment end, from one
        cumulative-trapezoid table over phi's nodes."""
        ends = _antiderivative(phi, np.concatenate([self.lo, self.hi]))
        k = self.density.size
        return float(np.sum(self.density * (ends[k:] - ends[:k])))


def _antiderivative(phi: GridFunction, x: np.ndarray) -> np.ndarray:
    """Integral of the interpolant of phi (0 off its window) from -inf to x:
    the cumulative trapezoid table at the cell's left node plus the exact
    integral of the linear piece from that node to x."""
    v, h = phi.values, phi.step
    table = np.concatenate([[0.0], np.cumsum(0.5 * h * (v[:-1] + v[1:]))])
    t = np.clip((x - phi.origin) / h, 0.0, v.size - 1)
    j = np.minimum(t.astype(int), v.size - 2)
    u = t - j
    return table[j] + h * u * (v[j] + 0.5 * u * (v[j + 1] - v[j]))


def pushforward_measure(f_comp: GridFunction) -> SignedMeasure:
    """Lebesgue-Stieltjes measure of the composed function, as density
    segments (the per-cell slope, merged over equal-slope runs)."""
    slopes = np.diff(f_comp.values) / f_comp.step
    starts = np.flatnonzero(np.concatenate([[True], slopes[1:] != slopes[:-1]]))
    stops = np.append(starts[1:], slopes.size)
    keep = slopes[starts] != 0.0
    x = f_comp.x
    return SignedMeasure(x[starts[keep]], x[stops[keep]], slopes[starts[keep]])


def duality_pairing_check(f_comp: GridFunction, s: ScaleFunction,
                          phi: GridFunction):
    """Integration-by-parts identity for the composed function.

    lhs = -int (f o s)(x) phi'(x) dx (the distributional pairing); rhs
    integrates phi against the pushforward measure d(f o s).  Both sides
    read phi as the interpolant of its samples zero-padded onto the common
    grid, so the identity is exact up to roundoff.  The scale function s is
    not read: f_comp already carries it, and s stays in the signature for
    positional callers."""
    if not f_comp.same_grid(phi):
        raise ValueError("pairing needs phi on the grid of the composition")
    g, ph = f_comp.aligned_with(phi)
    phi_slopes = np.diff(ph.values) / g.step
    gv = g.values
    cell_int = 0.5 * (gv[:-1] + gv[1:]) * g.step
    lhs = -float(np.sum(phi_slopes * cell_int))
    rhs = pushforward_measure(f_comp).integrate(ph)
    return lhs, rhs


# -- capacity ------------------------------------------------------------------------


class CapacitySolverError(RuntimeError):
    """Conjugate gradient failed; ``residual_trace`` holds its residuals."""

    def __init__(self, message, residual_trace):
        super().__init__(message)
        self.residual_trace = residual_trace


@dataclass(frozen=True)
class CapacityEstimate:
    """Constrained E1 minimum: value, the equilibrium function, the solver
    residual, the grid step used, and the CG residual norm of each iterate."""

    value: float
    equilibrium: GridFunction
    residual: float
    resolution: float
    clamp_violation: float = 0.0
    residual_history: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "resolution": self.resolution,
            "clamp_violation": self.clamp_violation,
            "residual_history": list(self.residual_history),
            "equilibrium": self.equilibrium.to_json_dict(),
        }


def _e1_spectrum(n: int, h: float, alpha_star: float) -> np.ndarray:
    # K[i, j] = row[|i - j|] for the stiffness plus the hat Gram row
    # (2h/3, h/6), embedded in the circulant of the least power-of-two
    # length N >= 2n - 2 whose first column is row[|k|],
    # k = -(n-1) .. n-1, zero-padded; at N = 2n - 2 (the minimal embedding)
    # lags n - 1 and -(n-1) share one entry, row[n-1], once.  The column is
    # even, so the eigenvalues are real; hfft gives them, and the N // 2 + 1
    # that an rfft product reads are copied out, so a kept spectrum does not
    # hold all N.  Where the stiffness row is negative off lag 0, its
    # circulant's eigenvalues are at least its column sum, which counts
    # row[n-1] once at N = 2n - 2 and twice above, so at least the
    # truncated row sum over |k| < n, positive as the tail it leaves out is
    # negative.  The mass adds at least h/3.
    row = hat_energy_row(n, h, alpha_star)
    row[:2] += (2.0 * h / 3.0, h / 6.0)
    nfft = _circular_size(2 * n - 2)
    return np.fft.hfft(row, nfft)[:nfft // 2 + 1].copy()


def _e1_operator(n: int, h: float, alpha_star: float) -> tuple:
    """The E1 spectrum and its inverse, the preconditioner's, both
    read-only; where alpha_star is tiny the spectrum overflows, and the
    caller refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = _e1_spectrum(n, h, alpha_star)
    inverse = 1.0 / spectrum
    spectrum.flags.writeable = False
    inverse.flags.writeable = False
    return spectrum, inverse


# Grids of at most _KEPT_LAGS nodes keep their operator, N <= 2^14: a
# spectrum and an inverse of 2^13 + 1 entries, 128 KiB, and 2 MiB for all.
_KEPT_OPERATORS = 16


@functools.lru_cache(maxsize=_KEPT_OPERATORS)
def _kept_e1_operator(n: int, h: float, alpha_star: float) -> tuple:
    return _e1_operator(n, h, alpha_star)


_CG_RTOL = 1e-12               # CG stops once ||r|| < _CG_RTOL ||b||
_CG_ITERATIONS_PER_NODE = 20   # a solve needing more counts as failed


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """a . b in numpy's own loop rather than BLAS, whose ``ddot`` splits a
    long vector across its threads: the same bits on any BLAS thread
    count (the rule in ``grids``)."""
    return np.einsum("i,i", a, b)


def _cg(matvec, b: np.ndarray, maxiter: int, precond):
    """Preconditioned conjugate gradient (Hestenes and Stiefel, 1952) for
    A x = b from x = 0, with ``precond`` applying an SPD approximation of
    A^-1; returns x and the residual norm ||r|| of every iterate, ||b|| first
    (the stopping rule reads ||r||, never the preconditioned r.z).  A zero b
    is solved by x = 0 with no iterate: the history is empty.

    x, p, r and a scratch row for step * p and step * q share one block, so
    an iteration allocates only what matvec and precond return.  At 2^15
    nodes the block is 1 MiB; glibc raises its trim threshold when it
    releases a block that large, so later solves keep the FFTs' per-call
    scratch in the heap rather than fault it in afresh on every call."""
    x, p, r, scratch = np.zeros((4, b.size))
    r[:] = b
    if not r.any():
        return x, ()
    rho = math.inf                            # beta = 0: p = z on step one
    history = [math.sqrt(_dot(r, r))]
    for _ in range(maxiter):
        if history[-1] < _CG_RTOL * history[0]:
            break
        z = precond(r)
        rho_prev, rho = rho, _dot(r, z)
        p *= rho / rho_prev
        p += z
        q = matvec(p)
        step = rho / _dot(p, q)
        x += np.multiply(step, p, out=scratch)
        r -= np.multiply(step, q, out=scratch)
        history.append(math.sqrt(_dot(r, r)))
    return x, tuple(history)


def capacity_estimate(target: IntervalSet, alpha_star: float,
                      domain: tuple[float, float],
                      step: float) -> CapacityEstimate:
    """Riesz capacity of the target inside the domain window.

    Minimizes the E1 form over grid functions equal to 1 on the target nodes
    (equality constraints): u = 1_K + z, with z a whole-grid vector whose
    pinned entries the operator and the preconditioner hold at 0 (a mask).
    The minimizer need not obey 0 <= u <= 1: for small alpha_star the
    stiffness row is positive at lag 1, so the E1 matrix is not a Z-matrix
    and the discrete maximum principle fails; how far u leaves [0, 1] is
    reported as ``clamp_violation``.  The value is E1 of u clipped to
    [0, 1], which is still admissible, so the value is still an upper
    bound, though not then the Galerkin minimum."""
    alpha_star = real_number("alpha_star", alpha_star)
    if not 0.0 < alpha_star <= 1.0:
        raise ValueError(f"capacity exponent must be a number in (0, 1], "
                         f"got {alpha_star!r}")
    lo, hi = grids.window("domain", domain)
    for a, b in target:
        if a < lo - 1e-12 or b > hi + 1e-12:
            raise ValueError(f"target piece ({a}, {b}) escapes the domain "
                             f"({lo}, {hi})")
    n = grid_size(lo, hi, step)
    if n < 8:
        raise ValueError("domain too small for the requested step")
    h = (hi - lo) / (n - 1)
    x = grid_nodes(lo, hi, h)

    mask = np.zeros(n, dtype=bool)
    for a, b in target:
        mask |= (x >= a - 1e-9 * h) & (x <= b + 1e-9 * h)
    if not mask.any():
        zero = GridFunction(lo, h, np.zeros(n))
        return CapacityEstimate(0.0, zero, 0.0, h)

    def apply(u, spectrum):
        # the circulant with this spectrum (or its inverse) times u, cut to
        # the grid, with the pinned entries held at 0
        nfft = 2 * spectrum.size - 2
        v = np.fft.irfft(np.fft.rfft(u, nfft) * spectrum, nfft)[:n]
        v[mask] = 0.0
        return v

    spectrum, inverse = (_kept_e1_operator if n <= _KEPT_LAGS
                         else _e1_operator)(n, h, alpha_star)
    uc = mask.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        b_rhs = -apply(uc, spectrum)
        b_norm_sq = _dot(b_rhs, b_rhs)
    # CG's stopping rule compares against ||b||, read from ||b||^2, which
    # overflows from alpha_star ~ 1e-157 down
    if not (np.isfinite(spectrum).all() and math.isfinite(b_norm_sq)):
        raise ValueError(f"the E1 system at alpha_star={alpha_star!r} "
                         f"overflows float64")

    z, history = _cg(lambda p: apply(p, spectrum), b_rhs,
                     _CG_ITERATIONS_PER_NODE * n, lambda r: apply(r, inverse))
    r = apply(z, spectrum) - b_rhs
    residual = math.sqrt(_dot(r, r)) / max(1.0, math.sqrt(b_norm_sq))
    if history and not history[-1] < _CG_RTOL * history[0]:
        raise CapacitySolverError(
            f"conjugate gradient stopped after {len(history) - 1} "
            f"iterations, residual={residual:.3e}", history)
    u = uc + z

    clamp_violation = float(max(0.0, -u.min(), u.max() - 1.0))
    u = np.clip(u, 0.0, 1.0)
    padded = np.concatenate([[0.0], u, [0.0]])
    # finite: a non-finite iterate leaves a non-finite residual norm, and
    # the solve has failed above
    eq = GridFunction._made(lo - h, h, padded)
    value = gagliardo_of_values(padded, h, alpha_star) + eq.l2_norm_sq()
    return CapacityEstimate(value, eq, residual, h, clamp_violation, history)


def concentration_test(g: IntervalSet, alpha_star: float,
                       window: tuple[float, float], step: float):
    """Capacity of G inside the window versus capacity of the window, both
    solved on the domain four window lengths wide about the window's centre.

    A ratio strictly below 1 certifies, at this resolution, that the window
    carries capacity off G; a ratio near 1 is inconclusive and never read as
    a negative certificate."""
    a, b = grids.window("window", window)
    half = 2.0 * (b - a)
    mid = 0.5 * (a + b)
    domain = (mid - half, mid + half)
    if not all(map(math.isfinite, domain)):
        raise ValueError(f"window ({a}, {b}) gives a domain four window "
                         f"lengths wide that overflows float64")
    cap_win = capacity_estimate(IntervalSet.of((a, b)), alpha_star, domain,
                                step)
    cap_g = capacity_estimate(g.intersect_window((a, b)), alpha_star, domain,
                              step)
    ratio = cap_g.value / cap_win.value if cap_win.value > 0 else float("nan")
    return cap_g.value, cap_win.value, ratio
