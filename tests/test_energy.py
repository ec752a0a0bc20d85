import contextlib
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracform.energy import (DIVERGENT, EnergyParams, EnergyReport,
                             ErasedPreconditionError, check_erased_bound,
                             dirichlet_energy, fourier_energy,
                             fourier_gagliardo_ratio, gagliardo_energy,
                             hardy_boundary_identity, _gauss_segments,
                             _KEPT_PANELS, _hardy_rule, _kept_hardy_rule,
                             indicator_energy_closed_form)
from fracform import energy, levy, quadcells
from fracform.grids import GridFunction, PlateauSpec, StepFunction, \
    make_plateau
from fracform.levy import LevyTriplet, PowerLawDensity, levy_gagliardo_energy

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


def jump_sum_oracle(f: StepFunction, alpha: float) -> float:
    """Exact energy of a step function for alpha < 1, summed over pairs of
    its jumps J_i at t_i: -(2/(alpha(1-alpha))) sum_{i != j} J_i J_j
    |t_i - t_j|^(1-alpha)."""
    t = f.breakpoints
    jumps = np.diff(np.concatenate([[0.0], f.levels, [0.0]]))
    # one K x K array, updated in place; its diagonal is 0^(1-alpha) = 0
    pairs = np.abs(np.subtract.outer(t, t))
    np.power(pairs, 1.0 - alpha, out=pairs)
    pairs *= jumps[:, None]
    pairs *= jumps[None, :]
    return -2.0 / (alpha * (1.0 - alpha)) * float(pairs.sum())


def aligned_extrapolation(f: StepFunction, alpha: float, step: float) -> float:
    """The energies of f sampled at steps h and h/2, extrapolated with the
    known rate: for breakpoints on the grid the sampled energy falls short of
    the limit like h^(1-alpha), so r = 2^-(1-alpha)."""
    e1, e2 = (gagliardo_energy(f.sample(h), EnergyParams(alpha=alpha)).value
              for h in (step, step / 2.0))
    r = 2.0 ** (alpha - 1.0)
    return (e2 - r * e1) / (1.0 - r)


PLATEAU = StepFunction(np.array([0.0, 0.3, 0.6, 0.9]),
                       np.array([0.5, 1.0, 0.5]))


class TestGagliardo:
    def test_zero_function(self):
        f = GridFunction(0.0, 1.0, [0.0, 0.0, 0.0])
        rep = gagliardo_energy(f, EnergyParams(alpha=0.5))
        assert rep.value == 0.0 and not rep.divergent

    def test_quadratic_scaling(self):
        f = sample_bump(step=1.0 / 128.0)
        p = EnergyParams(alpha=0.7)
        e1 = gagliardo_energy(f, p).value
        e2 = gagliardo_energy(f.with_values(3.0 * f.values), p).value
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
        rep = gagliardo_energy(ind, EnergyParams(alpha=0.5), refine_levels=10)
        assert rep.value == pytest.approx(16.0, rel=1e-14)
        # the sampled trace approaches the limit monotonically from below
        ests = [e for _, e in rep.refinement_trace]
        assert all(a < b for a, b in zip(ests, ests[1:]))
        assert ests[-1] < 16.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_indicator_divergence(self, alpha):
        # decided by the jump rule: nothing is sampled
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        rep = gagliardo_energy(ind, EnergyParams(alpha=alpha))
        assert rep.divergent
        assert rep.value == DIVERGENT
        assert rep.refinement_trace == ()
        assert rep.l2_norm_sq == 1.0

    @pytest.mark.parametrize("alpha", [1.0, 1.001])
    @pytest.mark.parametrize("bps", [[0.0, 0.3, 0.6, 0.9],
                                     [-0.2, 0.11, 0.57, 1.3]])
    def test_plateau_divergent_from_alpha_one(self, alpha, bps):
        plateau = StepFunction(np.array(bps), np.array([0.5, 1.0, 0.5]))
        rep = gagliardo_energy(plateau, EnergyParams(alpha=alpha))
        assert rep.divergent and rep.value == DIVERGENT
        assert rep.refinement_trace == ()

    @pytest.mark.parametrize("alpha", [0.98, 0.99, 0.999])
    def test_indicator_finite_below_one(self, alpha):
        # exact although the sampled energies approach the limit only like
        # h^(1 - alpha), so slowly that near 1 the trace is far below it
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        rep = gagliardo_energy(ind, EnergyParams(alpha=alpha))
        assert not rep.divergent
        assert rep.value == pytest.approx(
            indicator_energy_closed_form(0.0, 1.0, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_signed_step_matches_jump_sum(self, alpha):
        f = StepFunction(np.array([0.641, 0.694, 1.307, 1.542, 1.676]),
                         np.array([-1.018, 1.074, -1.153, 1.325]))
        rep = gagliardo_energy(f, EnergyParams(alpha=alpha))
        assert not rep.divergent
        assert rep.value == pytest.approx(jump_sum_oracle(f, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha, expected", [
        (0.3, None), (0.5, 7.80061631611), (0.7, None),
        (0.95, 42.1627920425)])
    def test_off_grid_plateau_matches_jump_sum(self, alpha, expected):
        # the dyadic refinement steps 0.9 / (4 * 2^k) never contain 0.3 or
        # 0.6, so no sampled grid is aligned with these breakpoints
        rep = gagliardo_energy(PLATEAU, EnergyParams(alpha=alpha))
        assert rep.value == pytest.approx(jump_sum_oracle(PLATEAU, alpha),
                                          rel=1e-12)
        if expected is not None:
            assert rep.value == pytest.approx(expected, rel=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(-64, 64),
           gaps=st.lists(st.integers(4, 32), min_size=1, max_size=6),
           levels=st.lists(st.floats(-2.0, 2.0).filter(
               lambda v: v == 0.0 or abs(v) >= 1e-3), min_size=6, max_size=6),
           alpha=st.floats(0.05, 0.95))
    def test_matches_aligned_sampled_route(self, start, gaps, levels, alpha):
        # breakpoints on a 1/64 grid are nodes of every sampled grid of step
        # 2^-12 and 2^-13, so the sampled energies converge at the known
        # rate.  What the extrapolation leaves is O((h / gap)^2): about 2e-5
        # at gaps of 1/64, so gaps are at least 4/64.
        t = (start + np.cumsum([0] + gaps)) / 64.0
        f = StepFunction(t, np.array(levels[:len(gaps)]))
        rep = gagliardo_energy(f, EnergyParams(alpha=alpha), refine_levels=1)
        if f.is_zero:
            assert rep.value == 0.0
            return
        oracle = aligned_extrapolation(f, alpha, 2.0 ** -12)
        assert rep.value == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_many_jumps_match_outer_product(self, alpha):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.uniform(0.5, 1.5, 5001)) / 500.0
        f = StepFunction(t, rng.normal(size=5000))
        rep = gagliardo_energy(f, EnergyParams(alpha=alpha), refine_levels=1)
        assert rep.value == pytest.approx(jump_sum_oracle(f, alpha), rel=1e-10)

    def test_overflowing_levels_refused(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([1e200]))
        with pytest.raises(ValueError, match="overflows"):
            gagliardo_energy(f, EnergyParams(alpha=0.5))

    def test_closed_form_agreement_grid(self):
        for alpha in (0.3, 0.5, 0.7):
            p = EnergyParams(alpha=alpha)
            for length in (0.5, 1.0, 2.0):
                ind = StepFunction(np.array([0.0, length]), np.array([1.0]))
                rep = gagliardo_energy(ind, p)
                exact = indicator_energy_closed_form(0.0, length, alpha)
                assert rep.value == pytest.approx(exact, rel=1e-12)

    def test_alpha_two_rejected(self):
        with pytest.raises(ValueError):
            gagliardo_energy(sample_bump(), EnergyParams(alpha=2.0))

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_bad_c_of_alpha_rejected(self, c):
        # NaN and inf were accepted
        with pytest.raises(ValueError, match="c_of_alpha"):
            EnergyParams(alpha=0.5, c_of_alpha=c)

    @pytest.mark.parametrize("value", [True, np.True_],
                             ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("name", ["alpha", "c_of_alpha"])
    def test_boolean_params_rejected(self, name, value):
        # True was accepted and stored, and used as 1
        with pytest.raises(ValueError, match=name):
            EnergyParams(**{"alpha": 0.5, name: value})

    def test_noncompact_support_rejected(self):
        f = GridFunction(0.0, 1.0, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            gagliardo_energy(f, EnergyParams(alpha=0.5))

    def test_report_e1_consistency(self):
        f = sample_bump(step=1.0 / 64.0)
        rep = gagliardo_energy(f, EnergyParams(alpha=0.5))
        assert rep.e1_value == rep.value + rep.l2_norm_sq
        assert rep.e1_norm == math.sqrt(rep.e1_value)

    # 21 levels would sample 2^22 cells, past MAX_GRID_NODES: refused
    # before anything is sampled
    @pytest.mark.parametrize("name", ["refine_levels"])
    @pytest.mark.parametrize("count", [-1, True, 2.0, "4", None, 21,
                                       10 ** 9])
    def test_bad_refinement_count_rejected(self, name, count):
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match=name):
            gagliardo_energy(ind, EnergyParams(alpha=0.5), **{name: count})

    def test_single_refinement_level(self):
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        rep = gagliardo_energy(ind, EnergyParams(alpha=0.5),
                               refine_levels=np.int64(1))
        assert len(rep.refinement_trace) == 1
        # the value does not depend on how much is sampled
        assert 0 < rep.refinement_trace[0][1] < rep.value == 16.0

    def test_zero_refinement_levels(self):
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        rep = gagliardo_energy(ind, EnergyParams(alpha=0.5), refine_levels=0)
        assert rep.refinement_trace == ()
        assert rep.value == 16.0

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("f", [StepFunction(np.array([0.0, 1.0]),
                                                np.array([1.0])), PLATEAU],
                             ids=["indicator", "plateau"])
    def test_default_samples_nothing(self, f, alpha, monkeypatch):
        def refuse(self, step):
            raise AssertionError("sampled a step function")

        monkeypatch.setattr(StepFunction, "sample", refuse)
        rep = gagliardo_energy(f, EnergyParams(alpha=alpha))
        assert rep.refinement_trace == ()
        assert rep.value == pytest.approx(jump_sum_oracle(f, alpha), rel=1e-12)

    def test_value_independent_of_refinement_levels(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            t = np.cumsum(rng.uniform(0.05, 1.0, k + 1)) + rng.uniform(-2, 2)
            f = StepFunction(t, rng.normal(size=k))
            p = EnergyParams(alpha=float(rng.uniform(0.05, 0.95)))
            reps = [gagliardo_energy(f, p, refine_levels=n)
                    for n in (0, 1, 10)]
            assert [len(r.refinement_trace) for r in reps] == [0, 1, 10]
            assert reps[0].value == reps[1].value == reps[2].value
            assert reps[0].l2_norm_sq == reps[1].l2_norm_sq \
                == reps[2].l2_norm_sq


class TestAutocorrelationMemo:
    # the exponents of the energies benchmark's sweep
    ALPHAS = (0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95)

    def test_one_autocorrelation_for_every_exponent(self, monkeypatch):
        calls = []
        slope_autocorr = quadcells._slope_autocorr

        def counted(s):
            calls.append(s.size)
            return slope_autocorr(s)

        monkeypatch.setattr(quadcells, "_slope_autocorr", counted)
        f = sample_bump(step=1.0 / 512.0)
        levy = LevyTriplet(atoms=((3.0 * f.step, 0.5),),
                           density=PowerLawDensity(0.6, 1.3))
        values = [gagliardo_energy(f, EnergyParams(a)).value
                  for a in self.ALPHAS]
        levy_value = levy_gagliardo_energy(f, levy).value
        assert len(calls) == 1

        def fresh():
            return GridFunction(f.origin, f.step, f.values)
        trimmed = f.trimmed(margin=1).values
        for a, value in zip(self.ALPHAS, values):
            assert value == gagliardo_energy(fresh(), EnergyParams(a)).value
            assert value == quadcells.gagliardo_of_values(trimmed, f.step, a)
        assert levy_value == levy_gagliardo_energy(fresh(), levy).value


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
        double = f.with_values(2.0 * f.values)
        assert dirichlet_energy(double) == pytest.approx(
            4.0 * dirichlet_energy(f), rel=1e-12)

    def test_step_function_has_a_jump(self):
        ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        assert dirichlet_energy(ind) == DIVERGENT
        zero = StepFunction(np.array([0.0, 1.0]), np.array([0.0]))
        assert dirichlet_energy(zero) == 0.0


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
        p = calibrate_c_of_alpha(EnergyParams(alpha=0.5), sample_bump())
        assert p.c_of_alpha is not None and p.c_of_alpha > 0
        f = sample_bump(0.2, 0.9, 1.3, step=1.0 / 256.0)
        measured = fourier_gagliardo_ratio(f, p, xi_max=800.0, n_freq=16001)
        assert measured == pytest.approx(p.c_of_alpha, rel=0.02)


def _reference_exterior_kernel(x, a, b, alpha):
    """The exterior integral of |x - y|^(-1-alpha) over y outside (a, b),
    by graded Gauss panels placed per node x: the rule that the library
    applies once per edge at unit distance."""
    far = 8.0 * (b - a)
    total = np.zeros_like(x)
    for edge in (a, b):
        dist0 = np.abs(x - edge)
        t = np.geomspace(1.0, 1.0 + far / dist0.min(), 48)
        for lo_f, hi_f in zip(t[:-1], t[1:]):
            ylo = dist0 * lo_f
            yhi = dist0 * hi_f
            nodes, weights = np.polynomial.legendre.leggauss(6)
            mid = 0.5 * (ylo + yhi)
            half = 0.5 * (yhi - ylo)
            for nd, wt in zip(nodes, weights):
                d = mid + half * nd
                total += wt * half * d ** (-1.0 - alpha)
        total += (dist0 * t[-1]) ** (-alpha) / alpha
    return total


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

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
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

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.3, 1.5, 1.9])
    @pytest.mark.parametrize("a, b, center, width", [
        (0.0, 1.0, 0.5, 0.3), (0.0, 1.0, 0.3, 0.2),
        (-0.3, 1.0, 0.6, 0.25), (0.1, 3.0, 0.8, 0.5), (0.1, 3.0, 2.2, 0.6)])
    def test_matches_per_node_panels(self, alpha, a, b, center, width):
        f = sample_bump(center=center, width=width, step=1.0 / 256.0)
        lhs, rhs = hardy_boundary_identity(f, a, b, alpha)
        slo, shi = f.support_interval()
        xq, wq = _gauss_segments(np.linspace(
            slo - f.step, shi + f.step,
            max(64, f.support_hi - f.support_lo + 2) + 1))
        ref = float(np.sum(wq * f(xq) ** 2
                           * _reference_exterior_kernel(xq, a, b, alpha)))
        assert lhs == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_window_off_the_unit_interval(self):
        # the kernel integral over the exterior of (a, b) is the closed form
        # (1/alpha) [(x-a)^(-alpha) + (b-x)^(-alpha)], checked by quad
        alpha, a, b = 0.7, -0.3, 2.0
        f = sample_bump(center=1.4, width=0.4, step=1.0 / 256.0)
        lhs, rhs = hardy_boundary_identity(f, a, b, alpha)

        def inner(x):
            left, _ = quad(lambda y: (x - y) ** (-1.0 - alpha), -np.inf, a)
            right, _ = quad(lambda y: (y - x) ** (-1.0 - alpha), b, np.inf)
            return left + right

        xs = np.linspace(1.0, 1.8, 1601)
        brute = np.trapezoid(f(xs) ** 2 * np.array([inner(x) for x in xs]), xs)
        assert lhs == pytest.approx(brute, rel=1e-3)
        assert rhs == pytest.approx(brute, rel=1e-3)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (0.0, np.inf),
                                      (np.nan, 1.0), (0.0, np.nan),
                                      (-1e308, 1e308)])
    def test_nonfinite_window_rejected(self, a, b):
        f = sample_bump(center=0.5, width=0.3, step=1.0 / 64.0)
        with pytest.raises(ValueError, match="finite"):
            hardy_boundary_identity(f, a, b, 0.5)
        with pytest.raises(ValueError, match="finite"):
            hardy_boundary_identity(f.with_values(np.zeros_like(f.values)),
                                    a, b, 0.5)

    def test_support_touching_the_edge(self):
        # the interpolant of these samples is nonzero on (0.1, 0.4)
        f = GridFunction(0.0, 0.1, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        lhs, rhs = hardy_boundary_identity(f, 0.1, 0.4, 0.5)
        assert math.isfinite(lhs) and lhs == pytest.approx(rhs, rel=1e-9)
        for a, b in ((0.12, 1.0), (0.0, 0.38)):
            with pytest.raises(ValueError, match="support"):
                hardy_boundary_identity(f, a, b, 0.5)


class TestKeptHalves:
    """The data-free halves that repeated calls read: the Hardy rule, kept
    per (support ends, panels, a, b, alpha), and rho at the atoms, kept
    with the function."""

    @staticmethod
    def _on_one_grid(rng, n=257):
        # nonzero at every interior node, so every draw has one support
        v = rng.uniform(0.5, 2.0, n)
        v[0] = v[-1] = 0.0
        return GridFunction(0.0, 1.0 / (n - 1), v)

    def test_twenty_sample_sets_build_one_rule(self):
        rng = np.random.default_rng(3)
        functions = [self._on_one_grid(rng) for _ in range(20)]
        _kept_hardy_rule.cache_clear()
        warm = [hardy_boundary_identity(f, 0.0, 1.0, 0.7) for f in functions]
        assert _kept_hardy_rule.cache_info()[:2] == (19, 1)   # hits, misses
        for f, pair in zip(functions, warm):
            _kept_hardy_rule.cache_clear()
            assert hardy_boundary_identity(f, 0.0, 1.0, 0.7) == pair

    def test_each_key_part_misses(self):
        # 64 panels for every support below 62 nodes, so moving one support
        # end moves only that end of the key
        base = np.zeros(40)
        base[10:20] = 1.0
        f = GridFunction(0.0, 0.025, base)
        lower = f.with_values(np.roll(base, -1) + base)   # one node further
        upper = f.with_values(np.roll(base, 1) + base)
        _kept_hardy_rule.cache_clear()
        calls = [(f, 0.0, 1.0, 0.5), (lower, 0.0, 1.0, 0.5),
                 (upper, 0.0, 1.0, 0.5), (f, -0.1, 1.0, 0.5),
                 (f, 0.0, 1.1, 0.5), (f, 0.0, 1.0, 0.6)]
        for i, call in enumerate(calls, 1):
            hardy_boundary_identity(*call)
            assert _kept_hardy_rule.cache_info()[:2] == (0, i)
        assert len({g.support_interval() for g in (f, lower, upper)}) == 3

    def test_the_grid_is_part_of_the_key(self):
        # the grid enters the key only through the support ends and the
        # panel count: the same support on a grid one node over reads f's
        # rule, a finer grid moves the upper end and builds its own
        base = np.zeros(40)
        base[10:20] = 1.0
        f = GridFunction(0.0, 0.025, base)
        shifted = GridFunction(-0.025, 0.025, np.roll(base, 1))
        finer = GridFunction(0.0, 0.0125, np.repeat(base, 2)[:-1])
        _kept_hardy_rule.cache_clear()
        pairs = [hardy_boundary_identity(g, 0.0, 1.0, 0.5)
                 for g in (f, shifted, finer)]
        assert _kept_hardy_rule.cache_info()[:2] == (1, 2)
        assert pairs[1] == pytest.approx(pairs[0], rel=1e-12)

    def test_a_support_past_the_bound_is_not_kept(self):
        f = sample_bump(center=0.5, width=0.3, step=1.0 / 8192.0)
        assert f.support_hi - f.support_lo + 2 > _KEPT_PANELS
        _kept_hardy_rule.cache_clear()
        lhs, rhs = hardy_boundary_identity(f, 0.0, 1.0, 0.5)
        assert _kept_hardy_rule.cache_info()[:2] == (0, 0)
        assert _kept_hardy_rule.cache_info().currsize == 0
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_the_kept_rule_is_read_only(self):
        rule = _kept_hardy_rule(0.2, 0.8, 64, 0.0, 1.0, 0.5)
        assert len(rule) == 4
        for array in rule:
            assert array.shape == (64 * 12,) and not array.flags.writeable
        with pytest.raises(ValueError):
            rule[0][0] = 0.0

    def test_one_rho_for_densities_sharing_their_atoms(self, monkeypatch):
        calls = []
        profile = levy.rho_profile

        def counted(values, h, tau):
            calls.append(np.asarray(tau).size)
            return profile(values, h, tau)

        monkeypatch.setattr(levy, "rho_profile", counted)
        f = sample_bump(step=1.0 / 256.0)
        atoms = ((3.0 * f.step, 0.5), (40.0 * f.step, 1.5))
        values = [levy_gagliardo_energy(f, LevyTriplet(
            atoms=atoms, density=PowerLawDensity(a, 1.3))).value
            for a in (0.6, 1.4)]
        assert calls == [2]
        assert not f.__dict__["_atom_rho"][1].flags.writeable
        # other masses on the same positions read the same rho
        levy_gagliardo_energy(f, LevyTriplet(
            atoms=((3.0 * f.step, 2.0), (40.0 * f.step, 0.1))))
        assert calls == [2]
        # a new atom set computes rho again and replaces the kept one
        moved = ((5.0 * f.step, 0.5), (40.0 * f.step, 1.5))
        levy_gagliardo_energy(f, LevyTriplet(atoms=moved))
        assert calls == [2, 2]
        levy_gagliardo_energy(f, LevyTriplet(atoms=atoms))
        assert calls == [2, 2, 2]
        # the kept rho gives the bits of a fresh function's
        for a, value in zip((0.6, 1.4), values):
            fresh = GridFunction(f.origin, f.step, f.values)
            assert value == levy_gagliardo_energy(fresh, LevyTriplet(
                atoms=atoms, density=PowerLawDensity(a, 1.3))).value

    def test_copies_drop_the_kept_rho(self):
        f = sample_bump(step=1.0 / 64.0)
        levy_gagliardo_energy(f, LevyTriplet(atoms=((0.25, 1.0),)))
        assert "_atom_rho" in f.__dict__
        for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f),
                      copy.deepcopy(f)):
            assert "_atom_rho" not in clone.__dict__


class TestWarmPath:
    """A call on a function that keeps its correlation, L2 norm and rho at
    the atoms does only the exponent's work: the same bits and type as the
    first call, no transform, no lag-weight build and no np.errstate."""

    ALPHAS = (0.05, 0.5, 1.0, 1.5, 1.95)

    @staticmethod
    def _levy(f, alpha):
        return LevyTriplet(atoms=((3.0 * f.step, 0.5), (40.0 * f.step, 1.5)),
                           density=PowerLawDensity(alpha, 1.3))

    @pytest.mark.parametrize("step", [1.0 / 64.0, 1.0 / 8192.0])
    def test_cold_and_warm_give_the_same_bits_and_type(self, step):
        # 1/8192 puts 2^14 lags beyond the kept table, the block path; the
        # last four exponents are the ends of (0, 2) and both sides of 1
        f = sample_bump(step=step)
        for a in self.ALPHAS + (1e-9, 1.0 - 1e-12, 1.0 + 1e-12, 2.0 - 1e-12):
            p = EnergyParams(a)
            grid = [gagliardo_energy(f, p) for _ in range(2)]
            fresh = gagliardo_energy(GridFunction(f.origin, f.step,
                                                  f.values), p)
            levies = [levy_gagliardo_energy(f, self._levy(f, min(a, 1.9)))
                      for _ in range(2)]
            for reps in (grid + [fresh], levies):
                assert {type(r.value) for r in reps} == {float}
                assert len({(r.value, r.l2_norm_sq) for r in reps}) == 1
        s = StepFunction([0.0, 0.3, 0.8, 1.1], [0.5, -1.0, 0.75])
        for a in (0.3, 0.7, 1.5):
            reps = [gagliardo_energy(s, EnergyParams(a), refine_levels=2)
                    for _ in range(2)]
            assert {type(r.value) for r in reps} == {float}
            assert reps[0].value == reps[1].value
            assert reps[0].refinement_trace == reps[1].refinement_trace

    def test_zero_function_gives_zero_both_ways(self):
        f = GridFunction(0.0, 0.1, np.zeros(12))
        for _ in range(2):
            rep = gagliardo_energy(f, EnergyParams(0.5))
            assert rep.value == 0.0 and type(rep.value) is float
            assert rep.l2_norm_sq == 0.0

    @pytest.mark.parametrize("n, height", [
        (300, 1e160), (300, 1.7e308), (9000, 1e160),    # c_0 overflows
        (9, 1e152),         # c_0 finite, E finite
        (300, 1e153)])      # c_0 finite, E overflows
    def test_overflow_raises_the_same_error_twice_without_warning(
            self, n, height, recwarn):
        v = np.zeros(n)
        v[2:-2] = height * np.sin(np.arange(n - 4.0))
        outcomes = []
        # a fresh function each pass, the second inside a caller's
        # np.errstate that raises on overflow
        for caller in (contextlib.nullcontext(),
                       np.errstate(over="raise", invalid="raise")):
            f = GridFunction(0.0, 1e-3, v)
            with caller:
                for _ in range(2):
                    try:
                        outcomes.append(
                            gagliardo_energy(f, EnergyParams(0.05)).value)
                    except ValueError as exc:
                        outcomes.append(str(exc))
                    with pytest.raises(ValueError, match="overflows float64"):
                        levy_gagliardo_energy(f, LevyTriplet(
                            atoms=((3e-3, 1e300),),
                            density=PowerLawDensity(0.5)))
        assert len(set(outcomes)) == 1
        if (n, height) == (9, 1e152):
            assert math.isfinite(outcomes[0])
        else:
            assert outcomes[0] == "the energy of these samples overflows float64"
        assert [w.category for w in recwarn] == []

    def test_atom_masses_that_overflow_raise_twice_without_warning(
            self, recwarn):
        # rho is modest (2 ||f||^2 at atoms past the support); the masses'
        # dot with it is not
        heavy = LevyTriplet(atoms=((2.0, 1e308), (3.0, 1e308), (4.0, 1e308)))
        for caller in (contextlib.nullcontext(),
                       np.errstate(over="raise", invalid="raise")):
            f = sample_bump(step=1.0 / 64.0)
            with caller:
                for _ in range(2):
                    with pytest.raises(ValueError, match="overflows float64"):
                        levy_gagliardo_energy(f, heavy)
        assert [w.category for w in recwarn] == []

    def test_warm_calls_transform_build_and_silence_nothing(self,
                                                            monkeypatch):
        counts = {"fft": 0, "table": 0, "errstate": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted("fft",
                                                      getattr(np.fft, name)))
        monkeypatch.setattr(quadcells, "_lag_weight_table", counted(
            "table", quadcells._lag_weight_table))
        monkeypatch.setattr(np, "errstate", counted("errstate", np.errstate))
        f = sample_bump(step=1.0 / 512.0)
        g = sample_bump(step=1.0 / 512.0)
        first = [gagliardo_energy(f, EnergyParams(a)) for a in self.ALPHAS]
        levy_gagliardo_energy(f, self._levy(f, 0.6))
        check_erased_bound(f, f, EnergyParams(0.5))
        assert counts["fft"] == 2 and counts["errstate"] == 3
        counts.update(fft=0, table=0, errstate=0)
        warm = [gagliardo_energy(f, EnergyParams(a)) for a in self.ALPHAS]
        levy_gagliardo_energy(f, self._levy(f, 1.5))
        check_erased_bound(f, f, EnergyParams(1.95))
        assert counts == {"fft": 0, "table": 0, "errstate": 0}
        assert [r.value for r in warm] == [r.value for r in first]
        # a new function correlates again, under np.errstate, and reads the
        # kept tables
        gagliardo_energy(g, EnergyParams(0.5))
        assert counts == {"fft": 2, "table": 0, "errstate": 2}


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
        # below g but not component-constant
        not_erased = g.with_values(0.5 * g.values)
        with pytest.raises(ErasedPreconditionError):
            check_erased_bound(not_erased, g, EnergyParams(alpha=0.5))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(alpha=0.0)
        with pytest.raises(ValueError):
            EnergyParams(alpha=2.5)

    def test_report_serialization(self):
        rep = EnergyReport(value=2.0, l2_norm_sq=1.0,
                           refinement_trace=((4, 1.5), (8, 2.0)))
        d = rep.to_json_dict()
        assert d["value"] == 2.0 and d["e1"] == 3.0
        div = EnergyReport(value=DIVERGENT, l2_norm_sq=1.0)
        assert div.to_json_dict()["value"] == "divergent"
        # derived from the value, so a finite report cannot claim divergence
        assert div.divergent and not rep.divergent
