"""Symmetric jump forms on the line: characteristic exponents, the
finite-variation classification, closed-form indicator energies, the jump-form
quadratic energy, and growth-exponent fits.

The jump measure is symmetric and stored one-sidedly: atoms live at x > 0 and
are mirrored, the optional radial density is a power law c x^(-1-alpha) on
(0, inf), mirrored.  As in the energy module, the quadratic form carries no
1/2 prefactor:

    E(f) = int int (f(x) - f(y))^2 nu(dx - y) dy = 2 int |fhat|^2 psi dxi.

Every symbol is in closed form, so this module needs no quadrature; the
verify suite compares the density part with per-frequency quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import DIVERGENT, EnergyReport, _require_compact
from .grids import (GridFunction, PlateauSpec, _frozen_array, _json_float,
                    _rebuilt, kernel_exponent, make_plateau,
                    nonnegative_number, positive_number, real_number)
from .quadcells import _increment_form, _without_overflow, rho_profile

__all__ = [
    "PowerLawDensity",
    "LevyTriplet",
    "SymbolCurve",
    "GrowthFit",
    "levy_symbol",
    "finite_variation_test",
    "levy_indicator_energy",
    "levy_gagliardo_energy",
    "plateau_energy_bound_check",
    "growth_exponent_fit",
]


@dataclass(frozen=True)
class PowerLawDensity:
    """Radial density c * x^(-1-alpha) on (0, inf), mirrored to x < 0."""

    alpha: float
    coefficient: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", kernel_exponent(self.alpha))
        object.__setattr__(self, "coefficient",
                           positive_number("coefficient", self.coefficient))


@dataclass(frozen=True)
class LevyTriplet:
    """Gaussian coefficient plus symmetric jump measure (atoms and/or a
    power-law density).  The defining integrability int (1 ^ x^2) nu < inf
    holds automatically for atoms and for power laws with alpha < 2."""

    sigma: float = 0.0
    atoms: tuple = ()
    density: PowerLawDensity | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", nonnegative_number("sigma", self.sigma))
        atoms = []
        for atom in self.atoms:
            # a string would unpack character by character
            pair = () if isinstance(atom, (str, bytes)) else atom
            try:
                x, m = pair
            except (TypeError, ValueError):
                raise ValueError(f"an atom is a pair (position, mass), got "
                                 f"{atom!r}") from None
            # stored at x > 0 and mirrored
            atoms.append((positive_number("atom position", x),
                          nonnegative_number("atom mass", m)))
        object.__setattr__(self, "atoms", tuple(atoms))

    def truncated_mass(self, lam: float) -> float:
        """int (lam ^ |x|) nu(dx) over the full two-sided measure; inf when
        the density is not integrable against |x| near 0 (alpha >= 1)."""
        lam = real_number("lam", lam)
        if not lam > 0:
            raise ValueError(f"the truncation level lam must be positive, "
                             f"got {lam}")
        total = 2.0 * sum(m * min(lam, x) for x, m in self.atoms)
        if self.density is not None:
            a = self.density.alpha
            c = self.density.coefficient
            if a >= 1.0:
                return DIVERGENT
            total += 2.0 * c * lam ** (1.0 - a) / (a * (1.0 - a))
        return total

    @classmethod
    def from_json_dict(cls, d: dict) -> "LevyTriplet":
        if not isinstance(d, dict):
            raise ValueError("a Levy triplet is a JSON object")
        dens = d.get("density")
        density = None
        if dens is not None:
            if not (isinstance(dens, dict) and dens.get("type") == "power"):
                raise ValueError(f"unknown density {dens!r}")
            density = PowerLawDensity(
                _json_float("alpha", dens.get("alpha")),
                _json_float("coefficient", dens.get("coefficient", 1.0)))
        atoms = d.get("atoms", [])
        if not (isinstance(atoms, list)
                and all(isinstance(a, list) and len(a) == 2 for a in atoms)):
            raise ValueError("atoms are a JSON list of [x, mass] pairs")
        return cls(sigma=_json_float("sigma", d.get("sigma", 0.0)),
                   atoms=tuple((_json_float("atom position", x),
                                _json_float("atom mass", m))
                               for x, m in atoms),
                   density=density)


@dataclass(frozen=True, eq=False)
class SymbolCurve:
    """Characteristic exponent sampled on a frequency grid.  Frequencies
    and symbol values must be finite: anything else raises ValueError
    naming the field."""

    xi_grid: np.ndarray
    psi_values: np.ndarray
    __reduce__ = _rebuilt

    def __post_init__(self):
        for name in ("xi_grid", "psi_values"):
            arr = _frozen_array(getattr(self, name))
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


def levy_symbol(t: LevyTriplet, xi_grid) -> SymbolCurve:
    """psi(xi) = sigma xi^2 / 2 + int (1 - cos(xi x)) nu(dx): exact sums over
    the mirrored atoms; for the density c |x|^(-1-alpha), substituting
    u = |xi| x gives 2 c |xi|^alpha I(alpha) with the stable constant

        I(alpha) = int_0^inf (1 - cos u) u^(-1-alpha) du
                 = Gamma(2 - alpha) sin(pi (1 - alpha) / 2) / (alpha (1 - alpha)),

    pi/2 at alpha = 1 (Sato, Levy Processes and Infinitely Divisible
    Distributions, 1999, section 14).  This form keeps full precision near
    alpha = 1, where Gamma(1 - alpha) cos(pi alpha / 2) / alpha cancels.
    Raises ValueError, before evaluating anything, for a frequency that is
    not finite, and where psi overflows."""
    xi = np.asarray(xi_grid, dtype=float)
    bad = ~np.isfinite(xi)
    if np.any(bad):
        raise ValueError(f"frequencies must be finite, got {xi[bad][0]}")
    psi = np.zeros_like(xi)
    with np.errstate(over="ignore"):
        if t.sigma > 0:
            psi = psi + 0.5 * t.sigma * xi ** 2
        for x, m in t.atoms:
            psi = psi + 2.0 * m * (1.0 - np.cos(xi * x))
        if t.density is not None:
            a = t.density.alpha
            c = t.density.coefficient
            u = 1.0 - a
            scale = (math.pi / 2.0 if u == 0.0 else math.gamma(2.0 - a)
                     * math.sin(0.5 * math.pi * u) / (a * u))
            psi = psi + 2.0 * c * (scale * np.abs(xi) ** a)
    if not np.all(np.isfinite(psi)):
        raise ValueError("the symbol is not finite on this frequency grid")
    psi = np.maximum(psi, 0.0)
    return SymbolCurve(xi, psi)


def finite_variation_test(t: LevyTriplet):
    """(finite, value): whether sigma = 0 and int (1 ^ |x|) nu < inf, with
    the value of that integral when finite."""
    if t.sigma > 0:
        return False, DIVERGENT
    value = t.truncated_mass(1.0)
    return value != DIVERGENT, value


def levy_indicator_energy(a: float, b: float, t: LevyTriplet) -> float:
    """Jump energy of the indicator of [a, b]: 2 int ((b-a) ^ |x|) nu(dx);
    DIVERGENT exactly when the finite-variation integral diverges."""
    a, b = real_number("a", a), real_number("b", b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if t.sigma > 0:
        raise ValueError("indicators carry no finite energy when sigma > 0")
    mass = t.truncated_mass(b - a)
    if mass == DIVERGENT:
        return DIVERGENT
    return 2.0 * mass


def _rho_at_atoms(f: GridFunction, x: np.ndarray) -> np.ndarray:
    """Read-only rho(x) of f at the atom positions x, kept with f."""
    key = x.tobytes()
    kept = f.__dict__.get("_atom_rho")  # one read: a thread may replace it
    if kept is not None and kept[0] == key:
        return kept[1]
    with np.errstate(over="ignore", invalid="ignore"):
        rho = rho_profile(f.support_values(margin=1), f.step, x)
    rho.flags.writeable = False
    # the function is frozen; like cached_property, fill its __dict__
    f.__dict__["_atom_rho"] = (key, rho)
    return rho


def levy_gagliardo_energy(f: GridFunction, t: LevyTriplet) -> EnergyReport:
    """The jump-form energy of a grid function (no 1/2 prefactor).

    Atoms contribute 2 m rho(x) through the exact increment correlation of
    the interpolant; a density c x^(-1-alpha) adds c times the exact
    fractional seminorm.  Consistent with 2 int |fhat|^2 psi dxi.

    rho at the atoms does not depend on the masses or the density: it is
    kept with ``f`` under the atom positions, one set per function, so
    triplets that share their atoms on one f compute it once; a different
    set replaces it.  As for ``gagliardo_energy``, np.errstate covers only
    the work kept with ``f`` (rho, the correlation and the L2 norm); the
    dots with it are ``np.vdot``, which stays silent where they overflow."""
    if t.sigma > 0:
        raise ValueError("the jump form needs sigma = 0")
    _require_compact(f)
    value = 0.0
    if t.atoms:
        x, m = np.array(t.atoms).T
        value += 2.0 * float(np.vdot(m, _rho_at_atoms(f, x)))
    if t.density is not None:
        value += t.density.coefficient * _increment_form(
            f.increment_autocorr, f.step, t.density.alpha)
    l2 = f.l2_norm_sq()
    _without_overflow(value + l2)
    return EnergyReport(value=value, l2_norm_sq=l2,
                        refinement_trace=((f.n_nodes, value),))


def plateau_energy_bound_check(spec: PlateauSpec, t: LevyTriplet,
                               step: float | None = None):
    """Jump energy of the plateau against the uniform finite-variation bound
    16 int (1 ^ |x|) nu; the bound does not depend on the ramp width.

    Raises when the measured energy exceeds the bound."""
    finite, mass = finite_variation_test(t)
    if not finite:
        raise ValueError("the uniform plateau bound needs a finite-variation "
                         "triplet")
    if step is None:
        step = spec.rho / 64.0
    f = make_plateau(spec, step)
    energy = levy_gagliardo_energy(f, t).value
    bound = 16.0 * mass
    if energy > bound:
        raise ArithmeticError(f"plateau energy {energy} exceeds the uniform "
                              f"bound {bound}")
    return energy, bound


@dataclass(frozen=True)
class GrowthFit:
    """Tail fit psi(xi) ~ c_hat |xi|^alpha_hat with its goodness of fit."""

    alpha_hat: float
    c_hat: float
    r_squared: float

    @property
    def reliable(self) -> bool:
        return self.r_squared >= 0.9


def growth_exponent_fit(curve: SymbolCurve, xi_min: float) -> GrowthFit:
    """Least-squares fit of log psi against log |xi| on the tail |xi| >=
    xi_min, in closed form about the means; at least 10 tail points at more
    than one |xi| are required (compared as values: a mean of equal values
    can miss them by an ulp), and psi must be positive there."""
    mask = np.abs(curve.xi_grid) >= real_number("xi_min", xi_min)
    if np.count_nonzero(mask) < 10:
        raise ValueError("need at least 10 tail points with |xi| >= xi_min")
    psi = curve.psi_values[mask]
    if np.any(psi <= 0):
        raise ValueError("tail fit needs strictly positive symbol values")
    lx = np.log(np.abs(curve.xi_grid[mask]))
    ly = np.log(psi)
    if lx.min() == lx.max():
        raise ValueError("tail fit needs more than one |xi| value")
    x_bar, y_bar = lx.sum() / lx.size, ly.sum() / ly.size
    dx, dy = lx - x_bar, ly - y_bar
    slope = np.dot(dx, dy) / np.dot(dx, dx)
    intercept = y_bar - slope * x_bar
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum(dy ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return GrowthFit(float(slope), float(math.exp(intercept)), float(r2))
