"""Quadratic forms on the line: the fractional (Gagliardo) double-integral
seminorm, the Fourier-side energy, the classical Dirichlet energy, closed-form
identities for indicators, and the jump rule for step functions.

Conventions.  The fractional form is computed WITHOUT any normalizing
prefactor: for exponent alpha in (0, 2),

    E(f) = int int (f(x) - f(y))^2 / |x - y|^(1+alpha) dx dy.

The Fourier-side energy int |fhat|^2 |xi|^alpha dxi equals E(f) up to an
alpha-dependent universal constant; that constant is never assumed, only
measured (see ``EnergyParams.c_of_alpha``).

The Gagliardo form of a grid function is exact: quadcells dots the node
increments' autocorrelation with closed-form lag weights, with no quadrature
and no diagonal band.  A nonzero step function has a jump, and a jump has
finite energy exactly when alpha < 1: for alpha >= 1 the energy is DIVERGENT
by that rule, and for alpha < 1 it is an exact sum over pairs of jumps.

Floating-point overflow.  Finite samples can still have a form beyond
float64; every energy then raises ValueError, never a numpy warning.  Of a
grid energy, the work that can overflow is what a ``GridFunction`` keeps:
its increment autocorrelation, its L2 norm and (for a Levy form) rho at the
atoms, each built once under ``np.errstate``.  A call then dots the kept
values with ``np.vdot``, which checks no floating-point flag, and combines
the result in Python floats, which overflow to inf silently; so no call on
a function that keeps them enters ``np.errstate``.  Step-function energies,
which keep nothing, run their pair sums under ``np.errstate`` on every
call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fourier import discrete_fourier
from .grids import (MAX_GRID_NODES, GridFunction, StepFunction, count,
                    kernel_exponent, positive_number, real_number, window)
from .ladder import _erasure
from .quadcells import _increment_form, _without_overflow

__all__ = [
    "DIVERGENT",
    "EnergyParams",
    "EnergyReport",
    "ErasedPreconditionError",
    "gagliardo_energy",
    "indicator_energy_closed_form",
    "fourier_energy",
    "dirichlet_energy",
    "hardy_boundary_identity",
    "check_erased_bound",
    "fourier_gagliardo_ratio",
    "calibrate_c_of_alpha",
]

#: Sentinel value for a quadratic form that fails to converge.
DIVERGENT = float("inf")

#: A step function's sampled trace is opt-in: level k samples it at 4 * 2^k
#: cells, and up to this many levels the finest sample and its padding fit
#: in MAX_GRID_NODES (20).  The default, 0, samples nothing.
_MAX_REFINE_LEVELS = (MAX_GRID_NODES // 4).bit_length() - 1


@dataclass(frozen=True)
class EnergyParams:
    """Parameters of the fractional form.

    ``alpha`` is the kernel exponent in (0, 2]; at alpha = 2 the Gagliardo
    path is disabled and the classical Dirichlet energy applies.
    ``c_of_alpha`` optionally stores the measured Fourier/Gagliardo ratio.
    Whether a jump carries finite energy is decided by alpha alone (finite
    exactly for alpha < 1), so no divergence threshold is stored.
    """

    alpha: float
    c_of_alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", real_number("alpha", self.alpha))
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.c_of_alpha is not None:
            object.__setattr__(self, "c_of_alpha",
                               positive_number("c_of_alpha", self.c_of_alpha))


@dataclass(frozen=True)
class EnergyReport:
    """Result of an energy computation.

    ``refinement_trace`` holds (cells, energy) pairs: the single grid for a
    grid function, ((0, 0.0),) for the zero step function, and for a nonzero
    step function the sampled energies its caller asked for, empty by
    default."""

    value: float
    l2_norm_sq: float
    refinement_trace: tuple = ()

    @property
    def divergent(self) -> bool:
        return self.value == DIVERGENT

    @property
    def e1_value(self) -> float:
        return self.value + self.l2_norm_sq

    @property
    def e1_norm(self) -> float:
        return math.sqrt(self.e1_value)

    def to_json_dict(self) -> dict:
        return {
            "value": "divergent" if self.divergent else self.value,
            "l2": self.l2_norm_sq,
            "e1": "divergent" if self.divergent else self.e1_value,
            "trace": [[int(r), float(v)] for r, v in self.refinement_trace],
        }


class ErasedPreconditionError(ValueError):
    """The pair (f, g) is not an erased-function pair; distinct from any
    divergence of the energies themselves."""


def _require_compact(f: GridFunction):
    """Refuse f unless it tapers to exact zero inside its window; its
    samples are finite by construction."""
    if not f.has_compact_support():
        raise ValueError("function must taper to exact zero inside its window")


def _grid_energy(f: GridFunction, p: EnergyParams) -> float:
    if f.is_zero:
        return 0.0
    return _increment_form(f.increment_autocorr, f.step, p.alpha)


def gagliardo_energy(f: Union[GridFunction, StepFunction], p: EnergyParams,
                     *, refine_levels: int = 0) -> EnergyReport:
    """The fractional double integral of f (no prefactor).

    Grid functions are piecewise linear, so their energy is evaluated exactly
    in one pass.  A nonzero step function has a jump, whose energy is finite
    exactly when alpha < 1: for alpha >= 1 the report is DIVERGENT with an
    empty trace and nothing is sampled.  For alpha < 1 the value is exact:
    -(2/(alpha(1-alpha))) sum_{i != j} J_i J_j |t_i - t_j|^(1-alpha) over the
    jumps J_i at t_i.  The value samples nothing.  The trace is sampled
    evidence beside it, computed only on request: the energies of f sampled
    with 4 * 2^k cells over its span, k < ``refine_levels`` (default 0, an
    empty trace).
    """
    if p.alpha >= 2.0:
        raise ValueError("alpha = 2 has no Gagliardo form; use dirichlet_energy")
    refine_levels = count("refine_levels", refine_levels, 0,
                          _MAX_REFINE_LEVELS)

    if isinstance(f, GridFunction):
        _require_compact(f)
        value = _grid_energy(f, p)
        l2 = f.l2_norm_sq()
        _without_overflow(value + l2)
        return EnergyReport(value=value, l2_norm_sq=l2,
                            refinement_trace=((f.n_nodes, value),))

    if not isinstance(f, StepFunction):
        raise TypeError(f"unsupported function type {type(f).__name__}")
    if f.is_zero:
        return EnergyReport(value=0.0, l2_norm_sq=0.0,
                            refinement_trace=((0, 0.0),))
    if p.alpha >= 1.0:
        return EnergyReport(value=DIVERGENT, l2_norm_sq=f.l2_norm_sq())

    t, jumps = f.breakpoints, np.diff(np.concatenate(([0.0], f.levels, [0.0])))
    with np.errstate(over="ignore", invalid="ignore"):
        # the pairs i < j, one lag j - i at a time: memory linear in K
        pairs = sum(float(np.dot(jumps[:-k] * jumps[k:],
                                 (t[k:] - t[:-k]) ** (1.0 - p.alpha)))
                    for k in range(1, t.size))
        value = -4.0 / (p.alpha * (1.0 - p.alpha)) * pairs
        l2 = f.l2_norm_sq()
    _without_overflow(value + l2)
    a, b = f.span()
    cells = [4 * 2 ** k for k in range(refine_levels)]
    trace = tuple((c, _grid_energy(f.sample((b - a) / c), p)) for c in cells)
    return EnergyReport(value=value, l2_norm_sq=l2, refinement_trace=trace)


def indicator_energy_closed_form(a: float, b: float, alpha: float) -> float:
    """Fractional energy of the indicator of (a, b): 4/(alpha(1-alpha)) *
    (b-a)^(1-alpha) for alpha in (0,1); DIVERGENT (inf) for alpha >= 1."""
    a, b = real_number("a", a), real_number("b", b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    alpha = kernel_exponent(alpha)
    if alpha >= 1.0:
        return DIVERGENT
    return 4.0 / (alpha * (1.0 - alpha)) * (b - a) ** (1.0 - alpha)


def dirichlet_energy(f: Union[GridFunction, StepFunction]) -> float:
    """(1/2) int f'(x)^2 dx, exact for the piecewise-linear interpolant; a
    nonzero step function has a jump and so is DIVERGENT."""
    if isinstance(f, StepFunction):
        return 0.0 if f.is_zero else DIVERGENT
    _require_compact(f)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.diff(f.values) / f.step
        return _without_overflow(float(0.5 * np.sum(s * s) * f.step))


def fourier_energy(f: GridFunction, p: EnergyParams, xi_max: float,
                   n_freq: int) -> float:
    """int over |xi| <= xi_max of |fhat|^2 |xi|^alpha, plus an analytic bound
    on the tail.  The tail uses |fhat| <= TV(f)/(sqrt(2 pi) |xi|) where that
    integrates, and the second-order bound TV(f')/(sqrt(2 pi) xi^2) otherwise.

    Only the weight |xi|^alpha and the tail depend on alpha: the sampled
    transform is ``discrete_fourier``'s table kept with f, so calls at
    several exponents on one function (and ``fourier_gagliardo_ratio`` and
    ``calibrate_c_of_alpha``, which call this) transform it once.
    """
    xi_max = real_number("xi_max", xi_max)
    _require_compact(f)
    table = discrete_fourier(f, xi_max, n_freq)
    amp2 = np.abs(table.amplitudes) ** 2
    weight = np.abs(table.frequencies) ** p.alpha
    main = float(np.trapezoid(amp2 * weight, table.frequencies))

    tail = 0.0
    if f.support_lo >= 0:
        tv1 = f.total_variation()
        d2 = np.abs(np.diff(f.values, 2)) / f.step
        tv2 = float(np.sum(d2))
        candidates = []
        if p.alpha < 1.0 and tv1 > 0:
            candidates.append(tv1 ** 2 / math.pi * xi_max ** (p.alpha - 1.0)
                              / (1.0 - p.alpha))
        if tv2 > 0:
            candidates.append(tv2 ** 2 / math.pi * xi_max ** (p.alpha - 3.0)
                              / (3.0 - p.alpha))
        if candidates:
            tail = min(candidates)
    return main + tail


@functools.cache
def _gauss_legendre(points: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed on
    first use."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_segments(edges):
    """12-point Gauss-Legendre nodes and weights on the panels between edges."""
    nodes, weights = _gauss_legendre(12)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _hardy_rule(lo: float, hi: float, panels: int, a: float, b: float,
                alpha: float) -> tuple:
    """The data-free half of the Hardy identity on (lo, hi): read-only
    nodes xq, weights wq and the two sides' kernels at xq,
    (da + db) / alpha and k0 da + k1 db."""
    xq, wq = _gauss_segments(np.linspace(lo, hi, panels + 1))
    da, db = (xq - a) ** (-alpha), (b - xq) ** (-alpha)
    # panel ends in units of the distance to the edge, one column per edge
    nodes, weights = _gauss_legendre(6)
    t = np.geomspace(1.0, 1.0 + 8.0 * (b - a) / np.array([(xq - a).min(),
                                                          (b - xq).min()]), 48)
    half = 0.5 * (t[1:] - t[:-1])
    s = (0.5 * (t[1:] + t[:-1]))[..., None] + half[..., None] * nodes
    k = (np.sum(weights * half[..., None] * s ** (-1.0 - alpha), axis=(0, 2))
         + t[-1] ** (-alpha) / alpha)
    rule = (xq, wq, (da + db) / alpha, k[0] * da + k[1] * db)
    for array in rule:
        array.flags.writeable = False
    return rule


# Supports of at most _KEPT_PANELS panels keep their rule, 4 arrays of 12
# float64 per panel: 768 KiB each, 6 MiB for all _KEPT_RULES.
_KEPT_PANELS = 1 << 11
_KEPT_RULES = 8


@functools.lru_cache(maxsize=_KEPT_RULES)
def _kept_hardy_rule(lo: float, hi: float, panels: int, a: float, b: float,
                     alpha: float) -> tuple:
    return _hardy_rule(lo, hi, panels, a, b, alpha)


def hardy_boundary_identity(f: GridFunction, a: float, b: float, alpha: float
                            ) -> tuple:
    """Both sides of the exterior-kernel identity for f supported in (a, b).

    rhs is (1/alpha) int f^2 [(x-a)^(-alpha) + (b-x)^(-alpha)].  lhs
    integrates f^2 against the exterior integral of |x-y|^(-1-alpha),
    taken on geometrically graded Gauss panels out to 8 (b-a) past the
    nearest node plus the analytic far tail.  The panels scale with the
    distance d to the edge, so the rule is applied once per edge at unit
    distance and scaled by d^(-alpha).  Both sides share the x-quadrature of
    f^2, so the defect measures only the panel rule: it is not an
    independent route to the identity.

    The rule (the nodes, weights and both kernels at the nodes) depends on
    the support ends, the panel count, a, b and alpha alone.  Supports of
    at most 2^11 panels keep it in an LRU of 8 rules, so repeated calls on
    one grid and window pay only for f at the nodes (np.interp's search of
    the grid) and the two sums.
    """
    a, b = real_number("a", a), real_number("b", b)
    window("the window (a, b)", (a, b))
    alpha = kernel_exponent(alpha)
    far = 8.0 * (b - a)
    if not math.isfinite(far):
        raise ValueError(f"the window (a, b) must be finite, got ({a}, {b})")
    _require_compact(f)
    if f.is_zero:
        return (0.0, 0.0)
    slo, shi = f.support_interval()
    lo, hi = slo - f.step, shi + f.step     # the support, up to rounding
    if not (a <= lo + 1e-9 * f.step and hi - 1e-9 * f.step <= b):
        raise ValueError("support must lie inside (a, b)")

    panels = max(64, f.support_hi - f.support_lo + 2)
    xq, wq, rhs_kernel, lhs_kernel = (
        _kept_hardy_rule if panels <= _KEPT_PANELS else _hardy_rule)(
            float(lo), float(hi), panels, a, b, alpha)
    w2 = wq * f(xq) ** 2
    return (float(np.sum(w2 * lhs_kernel)), float(np.sum(w2 * rhs_kernel)))


def check_erased_bound(f: GridFunction, g: GridFunction, p: EnergyParams
                       ) -> tuple:
    """E1-norms of an erased pair and their ratio ||f||_E1 / ||g||_E1.

    Raises ErasedPreconditionError when f is not an erased function of g;
    that failure is reported distinctly from any divergence of the energies.
    """
    if not _erasure(f, g)[0]:  # the verdict alone, without the witness
        raise ErasedPreconditionError("f is not an erased function of g")
    rep_f = gagliardo_energy(f, p)
    rep_g = gagliardo_energy(g, p)
    e1_f = rep_f.e1_norm
    e1_g = rep_g.e1_norm
    if e1_g == 0.0:
        return (e1_f, e1_g, 0.0)
    return (e1_f, e1_g, e1_f / e1_g)


def fourier_gagliardo_ratio(f: GridFunction, p: EnergyParams,
                            xi_max: float = 512.0, n_freq: int = 8192) -> float:
    """Measured ratio fourier_energy/gagliardo_energy; constant in f at fixed
    alpha, available for calibrating EnergyParams.c_of_alpha."""
    gag = gagliardo_energy(f, p).value
    if gag == 0.0:
        raise ValueError("ratio undefined for the zero function")
    return fourier_energy(f, p, xi_max, n_freq) / gag


def calibrate_c_of_alpha(p: EnergyParams,
                         f: GridFunction) -> EnergyParams:
    """New params with the measured Fourier/Gagliardo ratio stored.

    The normalization between the two energy routes depends only on alpha;
    it is measured on the supplied function, never assumed."""
    ratio = fourier_gagliardo_ratio(f, p)
    return EnergyParams(alpha=p.alpha, c_of_alpha=ratio)
