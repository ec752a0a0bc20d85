import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracform.energy import (DIVERGENT, EnergyParams, EnergyReport,
                             ErasedPreconditionError, check_erased_bound,
                             dirichlet_energy, fourier_energy,
                             fourier_gagliardo_ratio, gagliardo_energy,
                             hardy_boundary_identity,
                             indicator_energy_closed_form)
from fracform.grids import GridFunction, PlateauSpec, StepFunction, \
    make_plateau

from conftest import sample_bump


def oracle_gagliardo(f: GridFunction, alpha: float) -> float:
    """Independent quadrature oracle: brute-force increment correlation in
    the lag variable integrated adaptively against the kernel."""
    lo, hi = f.support_interval()
    width = hi - lo + 2 * f.step

    def rho_num(tau):
        xs = np.linspace(lo - tau - f.step, hi + f.step, 4001)
        d = f(xs + tau) - f(xs)
        return np.trapezoid(d * d, xs)

    main, _ = quad(lambda t: t ** (-1.0 - alpha) * rho_num(t), 0.0, width,
                   limit=300)
    l2 = f.l2_norm_sq()
    tail = 2.0 * l2 * width ** (-alpha) / alpha
    return 2.0 * (main + tail)


class TestGagliardo:
    def test_zero_function(self):
        f = GridFunction(0.0, 1.0, [0.0, 0.0, 0.0])
        rep = gagliardo_energy(f, EnergyParams(alpha=0.5))
        assert rep.value == 0.0 and not rep.divergent

    def test_quadratic_scaling(self):
        f = sample_bump(step=1.0 / 128.0)
        p = EnergyParams(alpha=0.7)
        e1 = gagliardo_energy(f, p).value
        e2 = gagliardo_energy(f.scaled(3.0), p).value
        assert e2 == pytest.approx(9.0 * e1, rel=1e-10)

    def test_translation_invariance(self):
        f = sample_bump(step=1.0 / 128.0)
        p = EnergyParams(alpha=1.3)
        e1 = gagliardo_energy(f, p).value
        g = GridFunction(f.origin + 384 * f.step, f.step, f.values)
        e2 = gagliardo_energy(g, p).value
        assert e2 == e1

    def test_matches_independent_oracle(self):
        f = sample_bump(center=0.5, width=0.5, step=1.0 / 128.0)
        for alpha in (0.5, 1.5):
            exact = gagliardo_energy(f, EnergyParams(alpha=alpha)).value
            approx = oracle_gagliardo(f, alpha)
            assert exact == pytest.approx(approx, rel=2e-4)

    def test_indicator_bridge_alpha_half(self):
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        rep = gagliardo_energy(ind, EnergyParams(alpha=0.5))
        assert rep.value == pytest.approx(16.0, rel=0.01)
        # the refinement trace approaches the limit monotonically from below
        ests = [e for _, e in rep.refinement_trace]
        assert all(a < b for a, b in zip(ests, ests[1:]))
        assert ests[-1] < rep.value <= 16.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_indicator_divergence(self, alpha):
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        rep = gagliardo_energy(ind, EnergyParams(alpha=alpha))
        assert rep.divergent
        assert rep.value == DIVERGENT
        assert len(rep.refinement_trace) - 1 <= 6

    def test_closed_form_agreement_grid(self):
        # sharpened indicators converge to the closed form from below
        for alpha in (0.3, 0.5, 0.7):
            p = EnergyParams(alpha=alpha)
            for length in (0.5, 1.0, 2.0):
                ind = StepFunction(np.array([0.0, length]), np.array([1.0]))
                rep = gagliardo_energy(ind, p)
                exact = indicator_energy_closed_form(0.0, length, alpha)
                assert rep.value == pytest.approx(exact, rel=0.01)

    def test_alpha_two_rejected(self):
        with pytest.raises(ValueError):
            gagliardo_energy(sample_bump(), EnergyParams(alpha=2.0))

    def test_noncompact_support_rejected(self):
        f = GridFunction(0.0, 1.0, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            gagliardo_energy(f, EnergyParams(alpha=0.5))

    def test_report_e1_consistency(self):
        f = sample_bump(step=1.0 / 64.0)
        rep = gagliardo_energy(f, EnergyParams(alpha=0.5))
        assert rep.e1_value == rep.value + rep.l2_norm_sq
        assert rep.e1_norm == math.sqrt(rep.e1_value)


class TestClosedForm:
    def test_unit_interval_alpha_half(self):
        assert indicator_energy_closed_form(0.0, 1.0, 0.5) == 16.0

    def test_length_scaling(self):
        val = indicator_energy_closed_form(0.0, 2.0, 0.5)
        assert val == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-12)

    def test_divergent_at_one(self):
        assert indicator_energy_closed_form(0.0, 1.0, 1.0) == DIVERGENT
        assert indicator_energy_closed_form(0.0, 1.0, 1.5) == DIVERGENT

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            indicator_energy_closed_form(1.0, 1.0, 0.5)

    def test_matches_quadrature_oracle(self):
        # direct double integral over {x in (0,1), y outside} pairs; the
        # inner integrals are numeric, the outer is adaptive (the weight is
        # singular like x^(-1/2) at both endpoints)
        def inner(x):
            left, _ = quad(lambda y: (x - y) ** -1.5, -np.inf, 0.0)
            right, _ = quad(lambda y: (y - x) ** -1.5, 1.0, np.inf)
            return left + right

        outer, _ = quad(inner, 0.0, 1.0, limit=200)
        assert 2.0 * outer == pytest.approx(16.0, rel=1e-3)


class TestDirichlet:
    def test_zero(self):
        f = GridFunction(0.0, 1.0, [0.0, 0.0])
        assert dirichlet_energy(f) == 0.0

    def test_unit_triangle(self):
        f = GridFunction(0.0, 1.0, [0.0, 1.0, 0.0])
        assert dirichlet_energy(f) == pytest.approx(1.0, rel=1e-14)

    def test_quadratic_scaling(self):
        f = sample_bump(step=1.0 / 64.0)
        assert dirichlet_energy(f.scaled(2.0)) == pytest.approx(
            4.0 * dirichlet_energy(f), rel=1e-12)


class TestFourierEnergy:
    def test_zero(self):
        f = GridFunction(0.0, 1.0, [0.0, 0.0, 0.0])
        assert fourier_energy(f, EnergyParams(alpha=0.5), 10.0, 64) == 0.0

    def test_translation_invariance(self):
        f = sample_bump(step=1.0 / 128.0)
        p = EnergyParams(alpha=0.5)
        e1 = fourier_energy(f, p, 200.0, 4001)
        g = GridFunction(f.origin + 64 * f.step, f.step, f.values)
        e2 = fourier_energy(g, p, 200.0, 4001)
        assert e2 == pytest.approx(e1, abs=1e-6 * max(e1, 1.0))

    def test_ratio_constant_across_bumps(self):
        p = EnergyParams(alpha=0.5)
        ratios = []
        for c, w, h in ((0.0, 1.0, 1.0), (0.3, 0.5, 2.0), (-1.0, 0.8, 0.7),
                        (2.0, 1.5, 1.2), (0.5, 0.35, 0.4)):
            f = sample_bump(c, w, h, step=w / 128.0)
            ratios.append(fourier_gagliardo_ratio(f, p, xi_max=600.0 / w,
                                                  n_freq=16001))
        mean = sum(ratios) / len(ratios)
        assert all(abs(r - mean) / mean < 0.02 for r in ratios)

    def test_calibration_stores_measured_ratio(self):
        from fracform.energy import calibrate_c_of_alpha
        p = calibrate_c_of_alpha(EnergyParams(alpha=0.5))
        assert p.c_of_alpha is not None and p.c_of_alpha > 0
        f = sample_bump(0.2, 0.9, 1.3, step=1.0 / 256.0)
        measured = fourier_gagliardo_ratio(f, p, xi_max=800.0, n_freq=16001)
        assert measured == pytest.approx(p.c_of_alpha, rel=0.02)


class TestHardyIdentity:
    def test_zero_function(self):
        f = GridFunction(0.3, 0.01, [0.0, 0.0, 0.0])
        assert hardy_boundary_identity(f, 0.0, 1.0, 0.5) == (0.0, 0.0)

    def test_sharp_plateau_approaches_eight(self):
        # f -> indicator of (0, 1): rhs -> (1/0.5) * (2 + 2) = 8 at alpha 1/2.
        # The boundary weight is x^(-1/2), so the deficit shrinks like the
        # square root of the shaved margin.
        deficits = []
        for ramp in (1.0 / 128.0, 1.0 / 512.0, 1.0 / 2048.0):
            f = make_plateau(
                PlateauSpec(2.5 * ramp, 1.0 - 2.5 * ramp, 2.0 * ramp),
                ramp / 8.0)
            lhs, rhs = hardy_boundary_identity(f, 0.0, 1.0, 0.5)
            assert lhs == pytest.approx(rhs, rel=1e-6)
            deficits.append(8.0 - rhs)
        assert all(d > 0 for d in deficits)
        assert deficits[-1] < deficits[0] / 2.0
        assert 8.0 - deficits[-1] == pytest.approx(8.0, rel=0.05)

    @pytest.mark.parametrize("alpha", [0.3, 1.5])
    def test_against_brute_force(self, alpha):
        f = sample_bump(center=0.5, width=0.3, step=1.0 / 256.0)
        lhs, rhs = hardy_boundary_identity(f, 0.0, 1.0, alpha)

        def inner(x):
            left, _ = quad(lambda y: (x - y) ** (-1.0 - alpha), -np.inf, 0.0)
            right, _ = quad(lambda y: (y - x) ** (-1.0 - alpha), 1.0, np.inf)
            return left + right

        xs = np.linspace(0.2, 0.8, 1501)
        brute = np.trapezoid(f(xs) ** 2 * np.array([inner(x) for x in xs]), xs)
        assert lhs == pytest.approx(brute, rel=1e-3)
        assert rhs == pytest.approx(brute, rel=1e-3)

    def test_support_leak_rejected(self):
        f = sample_bump(center=0.5, width=0.6, step=1.0 / 64.0)
        with pytest.raises(ValueError):
            hardy_boundary_identity(f, 0.0, 1.0, 0.5)

    def test_alpha_one_rejected(self):
        f = sample_bump(center=0.5, width=0.3, step=1.0 / 64.0)
        with pytest.raises(ValueError):
            hardy_boundary_identity(f, 0.0, 1.0, 1.0)


class TestErasedBound:
    def test_identity_pair(self):
        g = sample_bump(step=1.0 / 64.0)
        e1f, e1g, ratio = check_erased_bound(g, g, EnergyParams(alpha=0.5))
        assert ratio == 1.0 and e1f == e1g

    def test_zero_erases_everything(self):
        g = sample_bump(step=1.0 / 64.0)
        z = g.with_values(np.zeros_like(g.values))
        _, _, ratio = check_erased_bound(z, g, EnergyParams(alpha=0.5))
        assert ratio == 0.0

    def test_precondition_reported_distinctly(self):
        g = sample_bump(step=1.0 / 64.0)
        not_erased = g.scaled(0.5)  # below g but not component-constant
        with pytest.raises(ErasedPreconditionError):
            check_erased_bound(not_erased, g, EnergyParams(alpha=0.5))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(alpha=0.0)
        with pytest.raises(ValueError):
            EnergyParams(alpha=2.5)

    def test_alpha_star_derived(self):
        assert EnergyParams(alpha=1.5).alpha_star == 0.5

    def test_report_serialization(self):
        rep = EnergyReport(value=2.0, l2_norm_sq=1.0,
                           refinement_trace=((4, 1.5), (8, 2.0)))
        d = rep.to_json_dict()
        assert d["value"] == 2.0 and d["e1"] == 3.0
        div = EnergyReport(value=DIVERGENT, l2_norm_sq=1.0, divergent=True)
        assert div.to_json_dict()["value"] == "divergent"
