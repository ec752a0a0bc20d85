import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from fracform.energy import DIVERGENT, EnergyParams, gagliardo_energy, \
    indicator_energy_closed_form
from fracform.fourier import discrete_fourier
from fracform.grids import GridFunction, PlateauSpec, make_plateau
from fracform.levy import (LevyTriplet, PowerLawDensity, SymbolCurve,
                           finite_variation_test, growth_exponent_fit,
                           levy_gagliardo_energy, levy_indicator_energy,
                           levy_symbol, plateau_energy_bound_check)
from fracform.verify import _density_symbol_integral

from conftest import exact_rho, sample_bump

TWO_ATOM = LevyTriplet(atoms=((1.0, 1.0),))
POWER_HALF = LevyTriplet(density=PowerLawDensity(alpha=0.5))


def stable_symbol_constant(alpha: float) -> float:
    """int over R of (1 - cos u) / |u|^(1+alpha) du."""
    return math.pi / (gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # no scipy module at all, not even after a density symbol, the levy
    # subcommand and check 11: the symbol is closed form, the capacity solve
    # is numpy and check 11's per-frequency integral uses Gauss panels
    code = ("import sys, fracform\n"
            "from fracform.cli import main\n"
            "from fracform.levy import LevyTriplet, PowerLawDensity, "
            "levy_symbol\n"
            "from fracform.verify import run_check\n"
            "levy_symbol(LevyTriplet(density=PowerLawDensity(0.5)), [2.0])\n"
            "assert main(['levy', '--power-alpha', '0.5']) == 0\n"
            "print(run_check('jump-form-identities', 0).status)\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, FSL_OUT_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-2:] == ["PASS", "[]"]


def test_import_starts_no_thread():
    # the long autocorrelation starts its helper thread per call, from the
    # threading module that the import loads anyway, and keeps no pool
    code = ("import sys, threading, fracform\n"
            "print(threading.active_count(), "
            "[m for m in sys.modules if m.split('.')[0] == 'concurrent'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1 []"


class TestSymbol:
    def test_pure_gaussian(self):
        xi = np.linspace(-5.0, 5.0, 41)
        curve = levy_symbol(LevyTriplet(sigma=1.0), xi)
        assert np.allclose(curve.psi_values, 0.5 * xi ** 2, atol=1e-14)

    def test_two_atoms(self):
        xi = np.linspace(-8.0, 8.0, 33)
        curve = levy_symbol(TWO_ATOM, xi)
        assert np.allclose(curve.psi_values, 2.0 * (1.0 - np.cos(xi)),
                           atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.2, 1.5])
    def test_power_rule_matches_homogeneous_form(self, alpha):
        xi = np.geomspace(0.1, 100.0, 25)
        curve = levy_symbol(LevyTriplet(density=PowerLawDensity(alpha=alpha)),
                            xi)
        expected = stable_symbol_constant(alpha) * xi ** alpha
        assert np.allclose(curve.psi_values, expected, rtol=1e-8)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 1.0 - 1e-9, 0.999999,
                                       1.0, 1.000001, 1.0 + 1e-9, 1.2, 1.5,
                                       1.9, 1.99])
    def test_scaled_density_matches_per_frequency_integral(self, alpha):
        # psi_density(xi) = 2 c |xi|^alpha I(alpha) against the integral
        # evaluated afresh at every frequency, on unsorted signed input.
        # Below |xi| ~ 1e-2 the per-frequency route cancels (its plain and
        # oscillatory parts are O(1) while the result is O(|xi|^alpha)) and
        # drifts to 1e-11, so the comparison starts there.
        rng = np.random.default_rng(3)
        mag = np.concatenate([np.geomspace(1e-2, 1e3, 61),
                              rng.uniform(0.5, 400.0, 40)])
        xi = rng.permutation(mag * rng.choice([-1.0, 1.0], mag.size))
        coef = 1.7
        curve = levy_symbol(LevyTriplet(density=PowerLawDensity(alpha, coef)),
                            xi)
        per_freq = np.array([2.0 * coef * _density_symbol_integral(s, alpha)
                             for s in xi])
        assert np.allclose(curve.psi_values, per_freq, rtol=1e-11, atol=0.0)
        exact = coef * stable_symbol_constant(alpha) * np.abs(xi) ** alpha
        assert np.allclose(curve.psi_values, exact, rtol=1e-12, atol=0.0)
        # I(alpha) = psi(1) / 2 at c = 1, against the quadrature at xi = 1
        i_alpha = levy_symbol(LevyTriplet(density=PowerLawDensity(alpha)),
                              [1.0]).psi_values[0] / 2.0
        assert i_alpha == pytest.approx(_density_symbol_integral(1.0, alpha),
                                        rel=1e-12, abs=0.0)
        if abs(alpha - 1.0) < 1e-8:
            assert abs(i_alpha - math.pi / 2.0) <= 1e-8

    def test_symbol_invariants(self):
        xi = np.linspace(-30.0, 30.0, 121)
        for t in (TWO_ATOM, POWER_HALF,
                  LevyTriplet(sigma=0.3, atoms=((0.5, 2.0),))):
            curve = levy_symbol(t, xi)
            psi = curve.psi_values
            assert psi[60] == 0.0                       # psi(0) = 0
            assert np.allclose(psi, psi[::-1], rtol=1e-12)  # even
            assert np.all(psi >= 0.0)

    @pytest.mark.parametrize("triplet", [
        TWO_ATOM, POWER_HALF, LevyTriplet(sigma=0.3, atoms=((0.5, 2.0),))],
        ids=["two-atom", "power-half", "sigma-atom"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_frequency_refused_before_evaluating(self, triplet,
                                                           bad):
        # np.cos(inf) warned before the symbol's own ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="frequencies must be finite"):
                levy_symbol(triplet, [1.0, bad])

    def test_quadrature_against_direct_oracle(self):
        # one-off brute-force check of the density integral path; the naive
        # oracle warns about the oscillatory tail it resolves to ~1e-4
        import warnings
        from scipy.integrate import IntegrationWarning

        alpha = 0.7
        t = LevyTriplet(density=PowerLawDensity(alpha=alpha))
        xi = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            brute, _ = quad(lambda x: (1.0 - math.cos(xi * x))
                            * x ** (-1 - alpha), 0.0, np.inf, limit=500)
        curve = levy_symbol(t, np.array([xi]))
        # the plain-quad oracle resolves the oscillatory tail to ~1e-4
        assert curve.psi_values[0] == pytest.approx(2.0 * brute, rel=2e-4)


class TestFiniteVariation:
    def test_atoms_only(self):
        t = LevyTriplet(atoms=((0.25, 2.0), (3.0, 0.5)))
        finite, value = finite_variation_test(t)
        assert finite
        assert value == pytest.approx(2.0 * (2.0 * 0.25 + 0.5 * 1.0))

    def test_power_half(self):
        finite, value = finite_variation_test(POWER_HALF)
        assert finite and value == pytest.approx(8.0)
        brute, _ = quad(lambda x: min(1.0, x) * x ** -1.5, 0.0, np.inf)
        assert value == pytest.approx(2.0 * brute, rel=1e-9)

    def test_gaussian_component_excludes(self):
        finite, value = finite_variation_test(LevyTriplet(sigma=0.1))
        assert not finite and value == DIVERGENT

    def test_power_alpha_above_one_diverges(self):
        t = LevyTriplet(density=PowerLawDensity(alpha=1.5))
        finite, value = finite_variation_test(t)
        assert not finite and value == DIVERGENT


class TestIndicatorEnergy:
    def test_two_atom_length_two(self):
        assert levy_indicator_energy(0.0, 2.0, TWO_ATOM) == 4.0

    def test_power_half_matches_fractional_closed_form(self):
        got = levy_indicator_energy(0.0, 1.0, POWER_HALF)
        assert got == indicator_energy_closed_form(0.0, 1.0, 0.5) == 16.0

    def test_power_heavy_tail_divergent(self):
        t = LevyTriplet(density=PowerLawDensity(alpha=1.5))
        assert levy_indicator_energy(0.0, 1.0, t) == DIVERGENT

    def test_monotone_and_subdoubling_in_length(self):
        lengths = (0.25, 0.5, 1.0, 2.0, 4.0)
        vals = [levy_indicator_energy(0.0, ell, TWO_ATOM) for ell in lengths]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        for ell in lengths:
            assert levy_indicator_energy(0.0, 2.0 * ell, TWO_ATOM) \
                <= 2.0 * levy_indicator_energy(0.0, ell, TWO_ATOM) + 1e-12

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            levy_indicator_energy(1.0, 1.0, TWO_ATOM)

    def test_half_line_is_a_valid_indicator(self):
        # the indicator of a half-line jumps once: finite atom energy, a
        # divergent fractional one, and the truncation at lam = inf counts
        # every atom at its full position
        assert levy_indicator_energy(-math.inf, 0.0, TWO_ATOM) \
            == 2.0 * TWO_ATOM.truncated_mass(math.inf) \
            == levy_indicator_energy(0.0, 1e6, TWO_ATOM)
        assert indicator_energy_closed_form(0.0, math.inf, 0.5) == DIVERGENT

    def test_gaussian_part_rejected(self):
        with pytest.raises(ValueError):
            levy_indicator_energy(0.0, 1.0, LevyTriplet(sigma=1.0))


class TestJumpFormEnergy:
    def test_zero_function(self):
        z = GridFunction(0.0, 0.5, [0.0, 0.0, 0.0])
        assert levy_gagliardo_energy(z, TWO_ATOM).value == 0.0

    def test_two_atom_sharp_plateau_matches_shift_oracle(self):
        f = make_plateau(PlateauSpec(0.0, 1.0, 0.02), 0.02 / 64.0)
        rep = levy_gagliardo_energy(f, TWO_ATOM)
        xs = np.linspace(-1.5, 2.5, 400001)
        v = f(xs)
        shift = int(round(1.0 / (xs[1] - xs[0])))
        d = v[shift:] - v[:-shift]
        oracle = 2.0 * np.trapezoid(d * d, xs[:-shift])
        assert rep.value == pytest.approx(oracle, rel=1e-3)
        assert rep.value == pytest.approx(4.0, rel=0.05)

    def test_off_grid_atoms_match_exact_correlation(self):
        # atoms far below, between and beyond the grid step and the span
        f = sample_bump(center=0.2, width=0.7, step=1.0 / 256.0)
        t = LevyTriplet(atoms=((0.0013, 3.0), (0.3, 1.0),
                               (1.0 + 1.0 / 512.0, 0.5), (5.0, 0.25)))
        want = math.fsum(2.0 * m * exact_rho(f.values, f.step, x)
                         for x, m in t.atoms)
        assert levy_gagliardo_energy(f, t).value == pytest.approx(want,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("triplet", [TWO_ATOM, POWER_HALF],
                             ids=["two-atom", "power-half"])
    def test_overflow_is_an_error(self, triplet):
        f = sample_bump(height=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                levy_gagliardo_energy(f, triplet)

    def test_indicator_limit(self):
        # ramp width down: the jump energy approaches the closed form
        vals = []
        for rho in (0.1, 0.01, 0.001):
            f = make_plateau(PlateauSpec(0.0, 1.0, rho), rho / 32.0)
            vals.append(levy_gagliardo_energy(f, TWO_ATOM).value)
        target = levy_indicator_energy(0.0, 1.0, TWO_ATOM)
        assert vals[-1] == pytest.approx(target, rel=0.02)
        assert abs(vals[-1] - target) < abs(vals[0] - target)

    def test_power_rule_equals_fractional_form(self):
        f = sample_bump(center=0.5, width=0.5, step=1.0 / 256.0)
        for alpha in (0.5, 1.2, 1.8):
            t = LevyTriplet(density=PowerLawDensity(alpha=alpha))
            jump = levy_gagliardo_energy(f, t).value
            frac = gagliardo_energy(f, EnergyParams(alpha=alpha)).value
            assert jump == pytest.approx(frac, rel=1e-12)

    def test_fourier_side_consistency(self):
        f = sample_bump(center=0.0, width=0.8, step=1.0 / 256.0)
        triplets = (TWO_ATOM, POWER_HALF,
                    LevyTriplet(atoms=((0.3, 1.0), (2.0, 0.25)),
                                density=PowerLawDensity(alpha=0.8,
                                                        coefficient=0.5)))
        table = discrete_fourier(f, 600.0, 24001)
        for t in triplets:
            curve = levy_symbol(t, table.frequencies)
            fourier_side = 2.0 * np.trapezoid(
                np.abs(table.amplitudes) ** 2 * curve.psi_values,
                table.frequencies)
            jump = levy_gagliardo_energy(f, t).value
            assert jump == pytest.approx(fourier_side, rel=0.03)

    def test_gaussian_component_rejected(self):
        with pytest.raises(ValueError):
            levy_gagliardo_energy(sample_bump(), LevyTriplet(sigma=1.0))

    @pytest.mark.parametrize("triplet", [TWO_ATOM, POWER_HALF],
                             ids=["two-atom", "power-half"])
    def test_step_defect_energy_vanishes(self, triplet):
        # dyadic step approximants of a Lipschitz function lose their jump
        # energy for finite-variation measures
        from fracform.grids import snap_to_dyadic_step

        fine = 2.0 ** -11
        f = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs(2.0 * u - 1.0), 0.0, None),
            0.0, 1.0, fine, pad=4)
        energies = []
        for n in (2, 4, 6):
            approx = snap_to_dyadic_step(f, n)
            d = f.values - approx(f.x)
            d[0] = d[-1] = 0.0
            g = f.with_values(d)
            energies.append(levy_gagliardo_energy(g, triplet).value)
        assert energies[0] > energies[1] > energies[2]
        assert energies[2] < 0.02 * energies[0]


class TestPlateauBound:
    def test_two_atom_bound_holds_and_is_constant(self):
        bounds = []
        for rho in (1.0, 0.1, 0.01):
            energy, bound = plateau_energy_bound_check(
                PlateauSpec(0.0, 1.0, rho), TWO_ATOM)
            assert energy <= bound
            bounds.append(bound)
        assert bounds == [32.0, 32.0, 32.0]

    def test_trivial_empty_measure(self):
        empty = LevyTriplet()
        energy, bound = plateau_energy_bound_check(PlateauSpec(0.0, 1.0, 0.5),
                                                   empty)
        assert energy == 0.0 and bound == 0.0

    def test_infinite_variation_rejected(self):
        t = LevyTriplet(density=PowerLawDensity(alpha=1.5))
        with pytest.raises(ValueError):
            plateau_energy_bound_check(PlateauSpec(0.0, 1.0, 0.5), t)


class TestGrowthFit:
    def test_gaussian_dominates(self):
        t = LevyTriplet(sigma=2.0, atoms=((1.0, 1.0),))
        curve = levy_symbol(t, np.geomspace(5.0, 500.0, 40))
        fit = growth_exponent_fit(curve, 5.0)
        assert fit.alpha_hat == pytest.approx(2.0, rel=0.02)

    def test_power_rule_recovers_exponent(self):
        t = LevyTriplet(density=PowerLawDensity(alpha=1.5))
        curve = levy_symbol(t, np.geomspace(1.0, 200.0, 50))
        fit = growth_exponent_fit(curve, 1.0)
        assert fit.alpha_hat == pytest.approx(1.5, rel=0.02)
        assert fit.reliable

    def test_bounded_symbol_flagged_unreliable(self):
        curve = levy_symbol(TWO_ATOM, np.geomspace(1.0, 300.0, 120))
        fit = growth_exponent_fit(curve, 1.0)
        assert abs(fit.alpha_hat) < 0.3
        assert not fit.reliable

    def test_too_few_points_rejected(self):
        curve = levy_symbol(TWO_ATOM, np.linspace(1.0, 5.0, 5))
        with pytest.raises(ValueError):
            growth_exponent_fit(curve, 1.0)

    def test_nonpositive_tail_rejected(self):
        xi = np.linspace(1.0, 20.0, 20)
        curve = SymbolCurve(xi, np.concatenate([[0.0], np.ones(19)]))
        with pytest.raises(ValueError):
            growth_exponent_fit(curve, 1.0)

    @pytest.mark.parametrize("field", ["xi_grid", "psi_values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_curve_refused(self, field, bad):
        # a NaN symbol value once gave the fit a NaN slope and no error
        data = {"xi_grid": np.linspace(1.0, 20.0, 20),
                "psi_values": np.linspace(1.0, 20.0, 20) ** 1.5}
        data[field][3] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            SymbolCurve(**data)

    def test_one_repeated_frequency_rejected(self, recwarn):
        # twelve tail points at one |xi|: no slope to fit, and no warning
        for xi in (np.full(12, 2.0), np.full(12, -7.3), [3.0, -3.0] * 6):
            curve = levy_symbol(LevyTriplet(density=PowerLawDensity(1.5)), xi)
            with pytest.raises(ValueError, match="more than one"):
                growth_exponent_fit(curve, 1.0)
        assert [w.category for w in recwarn] == []

    def test_closed_form_matches_polyfit(self):
        # np.polyfit's least squares as the reference, with the same r^2
        curves = [(levy_symbol(LevyTriplet(
            density=PowerLawDensity(alpha, coef)),
            np.geomspace(1.0, 200.0, count)), 1.0)
            for alpha in (0.3, 0.5, 1.0, 1.5, 1.9)
            for count in (50, 60, 150, 1000, 4001) for coef in (0.7, 1.9)]
        curves += [
            (levy_symbol(LevyTriplet(sigma=2.0, atoms=((1.0, 1.0),)),
                         np.geomspace(5.0, 500.0, 40)), 5.0),
            (levy_symbol(TWO_ATOM, np.geomspace(1.0, 300.0, 120)), 1.0)]
        for curve, xi_min in curves:
            fit = growth_exponent_fit(curve, xi_min)
            lx = np.log(np.abs(curve.xi_grid))
            ly = np.log(curve.psi_values)
            slope, intercept = np.polyfit(lx, ly, 1)
            ss_res = np.sum((ly - slope * lx - intercept) ** 2)
            r2 = 1.0 - ss_res / np.sum((ly - np.mean(ly)) ** 2)
            assert fit.alpha_hat == pytest.approx(slope, rel=1e-12, abs=0)
            assert fit.c_hat == pytest.approx(math.exp(intercept),
                                              rel=1e-12, abs=0)
            assert fit.r_squared == pytest.approx(r2, rel=1e-12, abs=0)


class TestTripletValidation:
    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            LevyTriplet(atoms=((-1.0, 1.0),))
        with pytest.raises(ValueError):
            LevyTriplet(atoms=((1.0, -1.0),))

    def test_numpy_atoms_are_stored_as_floats(self):
        t = LevyTriplet(atoms=(np.array([0.5, 2.0]),
                               (np.int64(1), np.float32(0.25))))
        assert t.atoms == ((0.5, 2.0), (1.0, 0.25))
        assert all(type(v) is float for atom in t.atoms for v in atom)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            PowerLawDensity(alpha=2.5)

    def test_json_roundtrip(self):
        t = LevyTriplet(sigma=0.5, atoms=((1.0, 2.0),),
                        density=PowerLawDensity(alpha=0.7, coefficient=0.3))
        back = LevyTriplet.from_json_dict(
            {"sigma": 0.5, "atoms": [[1.0, 2.0]],
             "density": {"type": "power", "alpha": 0.7, "coefficient": 0.3}})
        assert back == t

    @pytest.mark.parametrize("make", [
        lambda: LevyTriplet(sigma=math.nan),
        lambda: LevyTriplet(sigma=math.inf),
        lambda: LevyTriplet(atoms=((math.nan, 1.0),)),
        lambda: LevyTriplet(atoms=((math.inf, 1.0),)),
        lambda: LevyTriplet(atoms=((1.0, math.nan),)),
        lambda: LevyTriplet(atoms=((1.0, math.inf),)),
        lambda: PowerLawDensity(0.5, math.nan),
        lambda: PowerLawDensity(0.5, math.inf),
    ], ids=["sigma-nan", "sigma-inf", "atom-x-nan", "atom-x-inf",
            "atom-mass-nan", "atom-mass-inf", "coefficient-nan",
            "coefficient-inf"])
    def test_non_finite_parameters_refused(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("data", [
        [1, 2], None, {"sigma": None}, {"sigma": [0.1]}, {"sigma": "nan"},
        {"atoms": [[1, None]]}, {"atoms": [1, 2]}, {"atoms": [[1, 2, 3]]},
        {"atoms": {"1": 2}}, {"density": {"type": "power", "alpha": None}},
        {"density": ["power"]}, {"density": {"type": "power", "alpha": 0.5,
                                             "coefficient": "inf"}},
    ])
    def test_malformed_json_triplet_refused(self, data):
        with pytest.raises(ValueError):
            LevyTriplet.from_json_dict(data)
