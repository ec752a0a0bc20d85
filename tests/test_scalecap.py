import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracform.energy import EnergyParams, gagliardo_energy
from fracform.grids import MAX_GRID_NODES, GridFunction, IntervalSet
from fracform import scalecap
from fracform.quadcells import hat_energy_row
from fracform.scalecap import (CapacitySolverError, FatCantorSpec,
                               build_fat_cantor, capacity_estimate,
                               compose_scale, concentration_test,
                               duality_pairing_check, dyadic_centers,
                               pushforward_measure, scale_from_open_set)

from conftest import indicator


class TestFatCantor:
    def test_single_island_layout(self):
        # budget chosen so the first radius is exactly 0.1 at alpha = 1.5
        spec = FatCantorSpec(alpha=1.5, budget=2.0 * math.sqrt(0.1))
        g = build_fat_cantor(spec, 1)
        assert g.intervals == ((-math.inf, -1.0), (-0.1, 0.1),
                               (1.0, math.inf))

    @pytest.mark.parametrize("alpha, budget, n", [
        (1.0, 0.3, 31), (1.5, 0.25, 31), (1.99, 0.25, 31),
        # the first two radii overflow; the first three are clipped
        (1.001, 10.0, 31),
        (1.5, 0.5, 63), (1.0, 0.3, scalecap.MAX_ISLANDS),
        (1.5, 0.1, scalecap.MAX_ISLANDS)])
    def test_geometric_surrogate_sum_within_budget(self, alpha, budget, n):
        spec = FatCantorSpec(alpha=alpha, budget=budget)
        g = build_fat_cantor(spec, n)
        radii = [0.5 * (hi - lo) for lo, hi in g
                 if math.isfinite(lo) and math.isfinite(hi)]
        if alpha > 1.0:
            total = sum(r ** (alpha - 1.0) for r in radii)
        else:
            total = sum(1.0 / math.log(spec.a_log / r) for r in radii)
        assert 0.0 < total <= budget * (1.0 + 1e-12)

    def test_islands_inside_unit_interval(self):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.5), 63)
        for lo, hi in g:
            if math.isfinite(lo) and math.isfinite(hi):
                assert -1.0 < lo < hi < 1.0

    def test_centers_enumeration_deterministic(self):
        cs = dyadic_centers(7)
        assert cs == [0.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75]

    def test_measure_against_sweep_oracle(self, rng):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.6), 15)
        xs = np.linspace(-1.0, 1.0, 400001)
        brute = float(np.mean(indicator(g, xs))) * 2.0
        assert g.measure_between(-1.0, 1.0) == pytest.approx(brute, abs=1e-4)

    def test_island_count_limit(self):
        spec = FatCantorSpec(alpha=1.5, budget=0.1)
        g = build_fat_cantor(spec, scalecap.MAX_ISLANDS)
        # islands this deep have radius 0 and are dropped
        assert 2 < len(g) < scalecap.MAX_ISLANDS
        with pytest.raises(ValueError, match="exceed the limit"):
            build_fat_cantor(spec, scalecap.MAX_ISLANDS + 1)

    def test_alpha_one_underflowing_radii(self):
        # exp(-1/share) underflows to 0 from the seventh island on
        spec = FatCantorSpec(alpha=1.0, budget=0.1)
        g = build_fat_cantor(spec, 20)
        assert g == build_fat_cantor(spec, 6)

    @pytest.mark.parametrize("kwargs", [{"budget": math.inf},
                                        {"budget": math.nan},
                                        {"budget": 0.1, "a_log": math.inf}])
    def test_non_finite_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FatCantorSpec(alpha=1.5, **kwargs)

    def test_numpy_scalars_are_stored_as_floats(self):
        spec = FatCantorSpec(np.float64(1.5), np.int64(1), np.float32(3.0))
        assert (spec.alpha, spec.budget, spec.a_log) == (1.5, 1.0, 3.0)
        assert {type(spec.alpha), type(spec.budget), type(spec.a_log)} \
            == {float}

    def test_overflowing_radius_is_clipped(self):
        # share ** 2 overflows at alpha = 1.5 for shares above ~1e154
        spec = FatCantorSpec(alpha=1.5, budget=1e308)
        assert spec.radius(7) == math.inf
        # each island is clipped to half its centre's distance to +-1
        g = build_fat_cantor(spec, 7)
        assert g.intervals == ((-math.inf, -1.0), (-0.875, 0.875),
                               (1.0, math.inf))

    def test_alpha_one_log_radii(self):
        spec = FatCantorSpec(alpha=1.0, budget=0.3)
        g = build_fat_cantor(spec, 7)
        islands = [(lo, hi) for lo, hi in g
                   if math.isfinite(lo) and math.isfinite(hi)]
        total = sum(1.0 / math.log(spec.a_log / (0.5 * (hi - lo)))
                    for lo, hi in islands)
        assert total <= 0.3 + 1e-12


class TestScaleFunction:
    def test_full_line_gives_identity(self):
        s = scale_from_open_set(IntervalSet.real_line())
        xs = np.linspace(-3.0, 3.0, 101)
        assert np.allclose(s(xs), xs, atol=1e-14)
        assert s.strictly_increasing

    def test_one_finite_end_falls_back_to_the_default_window(self):
        # G's finite ends (0.5, 0.5) span no interval: the window they gave
        # read depth -1 beside strictly_increasing = True
        g = IntervalSet(((-math.inf, 0.5), (0.5, math.inf)))
        s = scale_from_open_set(g)
        ref = scale_from_open_set(g, density_window=(-1.0, 1.0))
        assert (s.density_depth, s.strictly_increasing) == \
            (ref.density_depth, ref.strictly_increasing) == (12, True)

    def test_flat_piece_measure(self):
        g = IntervalSet.of((-math.inf, 0.0), (0.4, 0.6), (1.0, math.inf))
        s = scale_from_open_set(g)
        assert float(s(1.0)[0] - s(0.0)[0]) == pytest.approx(0.2, abs=1e-14)

    def test_one_lipschitz_slopes(self):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.5), 15)
        s = scale_from_open_set(g)
        xs = np.linspace(-1.5, 1.5, 20001)
        slopes = np.diff(s(xs)) / np.diff(xs)
        assert np.max(slopes) <= 1.0 + 1e-9
        assert np.min(slopes) >= -1e-12

    def test_increment_equals_measure_exactly(self, rng):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.7), 15)
        s = scale_from_open_set(g)
        for _ in range(1000):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            inc = float(s(y)[0] - s(x)[0])
            signed = g.measure_between(x, y) * (1.0 if y >= x else -1.0)
            assert inc == pytest.approx(signed, abs=1e-12)


class TestCompose:
    def test_identity_scale_resamples(self):
        s = scale_from_open_set(IntervalSet.real_line())
        f = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs(4.0 * u), 0.0, None),
            -0.3, 0.3, 1.0 / 128.0, pad=4)
        comp = compose_scale(f, s, (-1.0, 1.0), step=1.0 / 256.0)
        # node values agree exactly: the identity scale adds no error
        nodes = comp.function.x[1:-1]
        assert np.allclose(comp.function.values[1:-1], f(nodes), atol=1e-14)

    def test_flat_scale_gives_constant(self):
        g = IntervalSet.of((-math.inf, 0.0), (1.0, math.inf))
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(0.5 - np.abs(u), 0.0, None),
            -0.5, 0.5, 1.0 / 128.0, pad=4)
        comp = compose_scale(f, s, (-2.0, 3.0), step=1.0 / 64.0)
        inside = comp.function(np.linspace(0.05, 0.95, 50))
        assert np.allclose(inside, inside[0], atol=1e-14)
        assert inside[0] == pytest.approx(0.5)

    def test_lipschitz_inequality_nodewise(self, rng):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.5), 15)
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(0.2 - np.abs(u), 0.0, None),
            -0.2, 0.2, 1.0 / 512.0, pad=4)
        comp = compose_scale(f, s, (-1.2, 1.2), step=1.0 / 64.0)
        xs = comp.function.x
        sv = s(xs)
        gv = comp.function.values
        for _ in range(100):
            i, j = rng.integers(0, xs.size, size=2)
            assert abs(gv[i] - gv[j]) <= comp.lipschitz * abs(sv[i] - sv[j]) \
                + 1e-12

    def test_support_escape_rejected(self):
        g = IntervalSet.of((-math.inf, 0.0), (1.0, math.inf))
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(4.0 - np.abs(u), 0.0, None),
            -4.0, 4.0, 1.0 / 16.0, pad=4)
        with pytest.raises(ValueError):
            compose_scale(f, s, (-1.0, 2.0), step=1.0 / 16.0)

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan,
                                      2.0 / MAX_GRID_NODES])
    def test_bad_step_rejected_before_allocating(self, step):
        # the last step puts one node past the limit on a window of length 2
        s = scale_from_open_set(IntervalSet.real_line())
        f = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs(4.0 * u), 0.0, None),
            -0.3, 0.3, 1.0 / 128.0, pad=4)
        with pytest.raises(ValueError, match="grid"):
            compose_scale(f, s, (-1.0, 1.0), step=step)

    def test_composition_energy_stable_under_refinement(self):
        # Lipschitz targets compose to finite-energy functions at alpha > 1,
        # stably across one grid refinement
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.5), 31)
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(0.2 - np.abs(u), 0.0, None),
            -0.2, 0.2, 1.0 / 1024.0, pad=4)
        p = EnergyParams(alpha=1.5)
        e1 = gagliardo_energy(
            compose_scale(f, s, (-1.2, 1.2), step=1.0 / 512.0).function, p).value
        e2 = gagliardo_energy(
            compose_scale(f, s, (-1.2, 1.2), step=1.0 / 1024.0).function, p).value
        assert math.isfinite(e1) and math.isfinite(e2)
        assert abs(e1 - e2) / e2 < 0.05


class TestPushforwardAndPairing:
    def test_constant_composition_has_zero_measure(self):
        const = GridFunction(0.1, 1.0 / 64.0, np.full(52, 0.37))
        mu = pushforward_measure(const)
        masses = mu.density * (mu.hi - mu.lo)
        assert np.sum(np.abs(masses)) == pytest.approx(0.0, abs=1e-12)
        assert mu.density.size == 0

    def test_identity_upslope_density(self):
        n = 257
        step = 1.0 / 128.0
        x = -0.5 + step * np.arange(n)
        vals = np.clip(np.minimum(x, 1.0 - x) * 2.0, 0.0, 1.0)
        vals = np.clip(np.where(x < 0, 0.0, np.where(x > 1, 0.0, vals)), 0, 1)
        f = GridFunction(-0.5, step, vals)
        mu = pushforward_measure(f)
        ups = mu.density[mu.density > 0]
        assert ups.size and all(d == pytest.approx(2.0) for d in ups)

    def test_positive_mass_bounded_by_lip_times_measure(self):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.5), 15)
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(0.2 - np.abs(u), 0.0, None),
            -0.2, 0.2, 1.0 / 512.0, pad=4)
        comp = compose_scale(f, s, (-1.2, 1.2), step=1.0 / 256.0)
        mu = pushforward_measure(comp.function)
        bound = comp.lipschitz * g.measure_between(-1.2, 1.2)
        masses = mu.density * (mu.hi - mu.lo)
        assert np.sum(np.maximum(masses, 0.0)) <= bound + 1e-9

    def test_pairing_vanishes_on_removed_interval(self):
        g = IntervalSet.of((-math.inf, 0.0), (1.0, math.inf))
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(0.5 - np.abs(u), 0.0, None),
            -0.5, 0.5, 1.0 / 64.0, pad=4)
        comp = compose_scale(f, s, (-2.0, 3.0), step=1.0 / 64.0)
        phi = GridFunction.from_callable(
            lambda u: np.clip(np.cos(np.pi * (u - 0.5) / 0.6), 0.0, None) ** 2
            * (np.abs(u - 0.5) < 0.3),
            -2.0, 3.0, 1.0 / 64.0, pad=0)
        lhs, rhs = duality_pairing_check(comp.function, s, phi)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert rhs == pytest.approx(0.0, abs=1e-13)

    def test_pairing_with_phi_nonzero_at_its_window_ends(self):
        # phi's window ends inside the composition's support; both sides
        # see phi ramp to 0 over the next cell
        s = scale_from_open_set(IntervalSet.real_line())
        f = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs(u), 0.0, None),
            -1.0, 1.0, 1.0 / 128.0, pad=4)
        comp = compose_scale(f, s, (-1.5, 1.5), step=1.0 / 128.0)
        phi = GridFunction.from_callable(np.exp, -0.5, 0.7, 1.0 / 128.0,
                                         pad=0)
        lhs, rhs = duality_pairing_check(comp.function, s, phi)
        assert lhs == pytest.approx(rhs, abs=1e-13 * (1.0 + abs(lhs)))

    def test_pairing_identity_scale(self):
        s = scale_from_open_set(IntervalSet.real_line())
        f = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs(u), 0.0, None),
            -1.0, 1.0, 1.0 / 128.0, pad=4)
        comp = compose_scale(f, s, (-1.5, 1.5), step=1.0 / 128.0)
        phi = GridFunction.from_callable(
            lambda u: np.exp(-4.0 * u * u)
            * np.clip(1.0 - np.abs(u / 1.4), 0.0, None),
            -1.5, 1.5, 1.0 / 128.0, pad=0)
        lhs, rhs = duality_pairing_check(comp.function, s, phi)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(lhs)))


class TestCapacity:
    def test_empty_target(self):
        est = capacity_estimate(IntervalSet.empty(), 0.5, (-1.0, 1.0), 0.01)
        assert est.value == 0.0

    def test_equilibrium_bounds_and_pin(self):
        est = capacity_estimate(IntervalSet.of((-0.1, 0.1)), 0.5,
                                (-2.0, 2.0), 1.0 / 256.0)
        u = est.equilibrium
        assert np.all(u.values >= 0.0) and np.all(u.values <= 1.0)
        pinned = u(np.linspace(-0.09, 0.09, 21))
        assert np.allclose(pinned, 1.0, atol=1e-9)
        assert est.residual < 1e-8
        assert est.clamp_violation < 1e-9

    def test_clipped_equilibrium_for_small_exponents(self):
        # the stiffness row is positive at lag 1, so the E1 matrix is not a
        # Z-matrix and the minimiser may leave [0, 1]
        assert hat_energy_row(4, 0.002, 0.1)[1] == pytest.approx(
            0.0200291, rel=1e-5)
        est = capacity_estimate(IntervalSet.of((-0.5, 0.5)), 0.05,
                                (-8.0, 8.0), 0.002)
        assert est.clamp_violation == pytest.approx(0.0657, abs=1e-4)
        # the value is E1 of the clipped u, which is still admissible
        u = est.equilibrium
        v = u.values
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert np.all(u(np.linspace(-0.5, 0.5, 101)) == 1.0)
        row = hat_energy_row(v.size, u.step, 0.05)
        kv = np.convolve(v, np.concatenate([row[:0:-1], row]))[
            v.size - 1:2 * v.size - 1]
        assert est.value == pytest.approx(v @ kv + u.l2_norm_sq(), rel=1e-12)
        assert est.value == pytest.approx(84.97252062, rel=1e-9)

    def test_monotone_in_the_target(self, rng):
        for _ in range(20):
            r1 = float(rng.uniform(0.05, 0.15))
            r2 = r1 + float(rng.uniform(0.05, 0.2))
            small = capacity_estimate(IntervalSet.of((-r1, r1)), 0.5,
                                      (-3.0, 3.0), 1.0 / 128.0)
            large = capacity_estimate(IntervalSet.of((-r2, r2)), 0.5,
                                      (-3.0, 3.0), 1.0 / 128.0)
            assert small.value <= large.value + 1e-10

    def test_subadditive_on_disjoint_pairs(self, rng):
        for _ in range(5):
            c = float(rng.uniform(0.6, 1.2))
            a = IntervalSet.of((-c - 0.1, -c + 0.1))
            b = IntervalSet.of((c - 0.1, c + 0.1))
            cap_a = capacity_estimate(a, 0.5, (-4.0, 4.0), 1.0 / 128.0).value
            cap_b = capacity_estimate(b, 0.5, (-4.0, 4.0), 1.0 / 128.0).value
            cap_ab = capacity_estimate(IntervalSet(a.intervals + b.intervals),
                                       0.5, (-4.0, 4.0), 1.0 / 128.0).value
            assert cap_ab <= cap_a + cap_b + 1e-8

    def test_window_sensitivity_below_five_percent(self):
        target = IntervalSet.of((-0.2, 0.2))
        base = capacity_estimate(target, 0.5, (-3.2, 3.2), 1.0 / 256.0).value
        wide = capacity_estimate(target, 0.5, (-6.4, 6.4), 1.0 / 256.0).value
        assert abs(base - wide) / wide < 0.05

    def test_alpha_one_log_scaling_band(self):
        # cap(I_r) * log(1/r) bounded above and below within a factor 3
        vals = []
        for r in (0.1, 0.01):
            est = capacity_estimate(IntervalSet.of((-r, r)), 1.0,
                                    (-16.0 * r, 16.0 * r), 32.0 * r / 1023.0)
            vals.append(est.value * math.log(1.0 / r))
        ratio = max(vals) / min(vals)
        assert ratio < 3.0

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            capacity_estimate(IntervalSet.of((0.0, 1.0)), 1.5, (-2.0, 2.0),
                              0.01)

    def test_oversized_grid_rejected(self):
        # 2^22 + 1 nodes, one past the limit: rejected before the grid exists
        with pytest.raises(ValueError, match="limit"):
            capacity_estimate(IntervalSet.of((0.2, 0.4)), 0.5, (0.0, 4.0),
                              4.0 / 2 ** 22)

    def test_target_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="escapes"):
            capacity_estimate(IntervalSet.of((3.0, 4.0)), 0.5, (-2.0, 2.0),
                              0.01)

    def test_solver_nonconvergence_reported_with_trace(self, monkeypatch):
        args = (IntervalSet.of((-0.1, 0.1)), 0.5, (-2.0, 2.0), 1.0 / 256.0)
        history = capacity_estimate(*args).residual_history
        real_cg = scalecap._cg
        for k in (0, 1, 5, len(history) - 2):
            # cap the solve at k iterations, short of convergence
            monkeypatch.setattr(scalecap, "_cg",
                                lambda mv, b, maxiter, precond:
                                real_cg(mv, b, k, precond))
            with pytest.raises(CapacitySolverError) as err:
                capacity_estimate(*args)
            assert err.value.residual_trace == history[:k + 1]

    def test_a_non_finite_iterate_ends_in_the_solver_error(self,
                                                            monkeypatch):
        # the equilibrium adopts its samples without the constructor's
        # finite gate: a NaN iterate cannot reach them, as its residual norm
        # is NaN and the solve fails first
        def poisoned(n, h, alpha_star):
            spectrum, inverse = scalecap._e1_operator(n, h, alpha_star)
            inverse = inverse.copy()
            inverse[3] = np.nan
            return spectrum, inverse

        monkeypatch.setattr(scalecap, "_kept_e1_operator", poisoned)
        with pytest.raises(CapacitySolverError) as err:
            capacity_estimate(IntervalSet.of((-0.1, 0.1)), 0.5, (-1.0, 1.0),
                              1.0 / 16.0)
        trace = err.value.residual_trace
        assert math.isfinite(trace[0]) and math.isnan(trace[-1])

    def test_residual_history_reaches_tolerance(self):
        est = capacity_estimate(IntervalSet.of((-0.3, 0.1), (0.5, 0.6)), 0.9,
                                (-2.0, 2.0), 1.0 / 128.0)
        hist = est.residual_history
        assert len(hist) > 2 and hist[-1] < 1e-12 * hist[0]
        assert est.to_json_dict()["residual_history"] == list(hist)

    @pytest.mark.parametrize("alpha_star", [0.5, 0.9, 1.0])
    def test_preconditioned_iterations_bounded(self, alpha_star):
        # 2047 cells; unpreconditioned CG needs 39-171 iterations on these
        # targets, the circulant-preconditioned one 7-19 (the islands most)
        centers = (0.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75)
        islands = tuple((c - 0.08 * 0.6 ** i, c + 0.08 * 0.6 ** i)
                        for i, c in enumerate(centers))
        targets = [(((-0.1, 0.1),), (-1.6, 1.6)),
                   (((-0.7, -0.5), (0.5, 0.7)), (-2.0, 2.0)),
                   (islands, (-2.0, 2.0)),
                   (((-1.0, 1.0),), (-4.0, 4.0))]
        for pieces, (lo, hi) in targets:
            est = capacity_estimate(IntervalSet(pieces), alpha_star, (lo, hi),
                                    (hi - lo) / 2047)
            assert len(est.residual_history) - 1 <= 24, pieces

    @pytest.mark.parametrize("n", [9, 257, 4001])
    @pytest.mark.parametrize("alpha_star", [0.01, 0.25, 0.5, 0.9, 1.0])
    def test_preconditioner_inverts_a_positive_circulant(self, n, alpha_star,
                                                         rng):
        # the circulant of the least power-of-two length >= 2n - 2 (2n - 2
        # itself at n = 9, 257) whose leading block is the stiffness plus
        # hat mass matrix, diagonalised by a complex FFT
        h = 4.0 / (n - 1)
        row = hat_energy_row(n, h, alpha_star)
        row[:2] += (2.0 * h / 3.0, h / 6.0)
        nfft = 1 << (2 * n - 3).bit_length()
        col = np.zeros(nfft)
        col[:n] = row
        col[nfft - n + 1:] = row[:0:-1]
        eig = np.fft.fft(col).real
        assert eig.min() > 0.0
        spectrum = scalecap._e1_spectrum(n, h, alpha_star)
        assert spectrum.size == nfft // 2 + 1
        u = rng.standard_normal(n)
        want = np.fft.ifft(np.fft.fft(u, nfft) / eig).real[:n]
        got = np.fft.irfft(np.fft.rfft(u, nfft) / spectrum, nfft)[:n]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("j", [3, 6, 10])
    @pytest.mark.parametrize("alpha_star", [0.1, 0.5, 1.0])
    def test_minimal_embedding_is_the_toeplitz_product(self, j, alpha_star,
                                                        rng):
        # n = 2^j + 1 nodes embed in N = 2n - 2 points, where lags n - 1
        # and -(n-1) share row[n-1]; the product against the dense matrix
        n = 2 ** j + 1
        h = 4.0 / (n - 1)
        row = hat_energy_row(n, h, alpha_star)
        row[:2] += (2.0 * h / 3.0, h / 6.0)
        dense = row[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        spectrum = scalecap._e1_spectrum(n, h, alpha_star)
        assert spectrum.size == n
        u = rng.standard_normal(n)
        want = dense @ u
        got = np.fft.irfft(np.fft.rfft(u, 2 * n - 2) * spectrum,
                           2 * n - 2)[:n]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("h", [1e-4, 1.0, 100.0])
    @pytest.mark.parametrize("n", [9, 17, 1025, 4001])
    @pytest.mark.parametrize("alpha_star", [1e-6, 0.1, 0.4, 1.0])
    def test_spectrum_stays_positive(self, alpha_star, n, h):
        # below alpha_star ~ 0.47 the stiffness row is positive at lag 1, so
        # the row-sum bound does not hold; the eigenvalues stay positive
        assert scalecap._e1_spectrum(n, h, alpha_star).min() > 0.0

    @pytest.mark.parametrize("alpha_star, pieces", [
        pytest.param(0.3, ((-0.25, 0.25),), id="0.3"),
        pytest.param(1.0, ((-0.25, 0.25),), id="1.0"),
        # the E1 matrix is not a Z-matrix here: u leaves [0, 1] and is
        # clipped
        pytest.param(0.1, ((-0.5, -0.3), (-0.05, 0.05), (0.2, 0.45)),
                     id="islands-0.1")])
    def test_equilibrium_matches_dense_solve(self, alpha_star, pieces):
        # 257 nodes: solve the Toeplitz stiffness plus hat mass system for
        # the free nodes directly
        lo, hi, n = -2.0, 2.0, 257
        est = capacity_estimate(IntervalSet(pieces), alpha_star, (lo, hi),
                                (hi - lo) / (n - 1))
        h = est.resolution
        x = lo + h * np.arange(n)
        row = hat_energy_row(n, h, alpha_star)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        a = row[lag] + np.where(lag == 0, 2.0 * h / 3.0,
                                np.where(lag == 1, h / 6.0, 0.0))
        pinned = np.zeros(n, dtype=bool)
        for p, q in pieces:
            pinned |= (x >= p - 1e-9 * h) & (x <= q + 1e-9 * h)
        free = ~pinned
        u = pinned.astype(float)
        u[free] = np.linalg.solve(a[np.ix_(free, free)],
                                  -a[np.ix_(free, pinned)].sum(axis=1))
        got = est.equilibrium.values[1:-1]
        assert np.all(got[pinned] == 1.0)
        assert np.max(np.abs(got - np.clip(u, 0.0, 1.0))) <= 1e-10
        violation = max(0.0, -u.min(), u.max() - 1.0)
        assert (violation > 0.0) == (alpha_star <= 0.25)
        assert est.clamp_violation == pytest.approx(violation, rel=1e-9,
                                                    abs=0.0)

    def test_all_pinned_target(self):
        # the target is the whole domain: nothing is free, so nothing is
        # solved and the equilibrium is the indicator of the grid
        est = capacity_estimate(IntervalSet.of((-1.0, 1.0)), 0.5,
                                (-1.0, 1.0), 0.01)
        assert est.value == 23.83723664203578
        assert est.residual == 0.0
        assert est.residual_history == ()
        assert est.clamp_violation == 0.0
        assert np.all(est.equilibrium.values[1:-1] == 1.0)

    def test_tiny_exponent_overflow_refused(self):
        # from alpha_star ~ 1e-157 down, ||b||^2 overflows float64 and CG's
        # stopping rule would compare against inf
        args = (IntervalSet.of((-0.1, 0.1)), (-2.0, 2.0), 0.01)
        for alpha_star in (1e-160, 1e-300):
            with pytest.raises(ValueError, match="overflows float64"):
                capacity_estimate(args[0], alpha_star, *args[1:])
        est = capacity_estimate(args[0], 1e-100, *args[1:])
        assert est.value == pytest.approx(8.26943012562e+99, rel=1e-11)


class TestConcentration:
    def test_full_line_ratio_exactly_one(self):
        _, _, ratio = concentration_test(IntervalSet.real_line(), 0.5,
                                         (-1.0, 1.0), 2.0 / 500.0)
        assert ratio == 1.0

    def test_ratio_monotone_in_budget(self):
        ratios = []
        for budget in (0.5, 0.3, 0.1):
            g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=budget), 63)
            _, _, ratio = concentration_test(g, 0.5, (-1.0, 1.0), 2.0 / 500.0)
            ratios.append(ratio)
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert ratios[2] < 0.9


# -- oracles: the per-element formulas the array code replaced ------------------


def _oracle_measure(g, x, y):
    """Per-piece overlap sum in Python floats."""
    a, b = (x, y) if x <= y else (y, x)
    total = 0.0
    for lo, hi in g:
        total += max(0.0, min(hi, b) - max(lo, a))
    return total


def _oracle_scale(g, anchor, x):
    """s from the measure at each breakpoint plus the slope read from the
    indicator at the midpoint of x and the breakpoint below it."""
    pts = sorted({anchor} | {p for iv in g for p in iv if math.isfinite(p)})
    bp = np.array(pts)
    cum = np.array([_oracle_measure(g, anchor, p) * (1.0 if p >= anchor
                                                      else -1.0)
                    for p in pts])
    idx = np.searchsorted(bp, x, side="right") - 1
    out = np.empty_like(x)
    below = idx < 0
    out[below] = cum[0] - indicator(g, 0.5 * (x[below] + bp[0])) \
        * (bp[0] - x[below])
    i = idx[~below]
    xi = x[~below]
    out[~below] = cum[i] + indicator(g, 0.5 * (xi + bp[i])) * (xi - bp[i])
    return out


def _oracle_depth(g, window, max_depth=12):
    a, b = window
    depth = -1
    for d in range(max_depth + 1):
        edges = np.linspace(a, b, 2 ** d + 1)
        if all(_oracle_measure(g, lo, hi) > 0.0
               for lo, hi in zip(edges[:-1], edges[1:])):
            depth = d
        else:
            break
    return depth


def _oracle_integral_on(phi, lo, hi):
    """Trapezoid sum of the interpolant over the nodes inside (lo, hi)."""
    xs = phi.x
    pts = np.concatenate([[lo], xs[(xs > lo) & (xs < hi)], [hi]])
    vals = phi(pts)
    return float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)))


def _oracle_segments(f_comp):
    """Equal-slope runs of the per-cell slopes, by a scan."""
    slopes = np.diff(f_comp.values) / f_comp.step
    x = f_comp.x
    segments = []
    i = 0
    while i < slopes.size:
        j = i
        while j + 1 < slopes.size and slopes[j + 1] == slopes[i]:
            j += 1
        if slopes[i] != 0.0:
            segments.append((float(x[i]), float(x[j + 1]), float(slopes[i])))
        i = j + 1
    return segments


def _random_fat_cantor(seed):
    rng = np.random.default_rng(seed)
    spec = FatCantorSpec(alpha=float(rng.uniform(1.05, 1.95)),
                         budget=float(rng.uniform(0.05, 2.0)))
    return build_fat_cantor(spec, int(rng.integers(1, 201))), rng


HAND_BUILT = {
    "empty": IntervalSet.empty(),
    "real-line": IntervalSet.real_line(),
    "left-ray": IntervalSet.of((-math.inf, 0.3)),
    "right-ray": IntervalSet.of((-0.2, math.inf)),
    "touching": IntervalSet.of((-0.6, 0.0), (0.0, 0.4), (0.4, 0.5),
                               (0.9, 1.7)),
    "touching-rays": IntervalSet.of((-math.inf, -1.0), (-1.0, 0.5),
                                    (0.5, math.inf)),
    "outside-window": IntervalSet.of((-3.0, -2.0), (0.25, 0.5),
                                     (2.0, 5.0)),
    # the gap [0.5, 0.75] is a dyadic cell of (-1, 1) at depth 3: its
    # start is a piece's right end, its end the next piece's left end
    "gap-on-dyadics": IntervalSet.of((-math.inf, 0.5), (0.75, math.inf)),
}


def _check_against_oracles(g, anchor, window, rng):
    s = scale_from_open_set(g, anchor, window)
    if window is None:
        finite = [p for iv in g for p in iv if math.isfinite(p)]
        window = (min(finite), max(finite)) if len(finite) >= 2 \
            else (-1.0, 1.0)
    assert s.density_depth == _oracle_depth(g, window)

    x = np.concatenate([rng.uniform(-3.0, 3.0, 400), s.breakpoints,
                        [-1e6, 1e6]])
    want = _oracle_scale(g, anchor, x)
    assert np.all(np.abs(s(x) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    for a, b in rng.uniform(-3.0, 3.0, (50, 2)):
        assert g.measure_between(a, b) == _oracle_measure(g, a, b)

    span = float(s(1.4)[0] - s(-1.4)[0])
    if span < 1e-3:
        return
    step = 1.0 / 512.0
    c = float(s(-1.4)[0]) + span * float(rng.uniform(0.4, 0.6))
    w = span * float(rng.uniform(0.05, 0.1))
    lip = GridFunction.from_callable(
        lambda u: np.clip(1.0 - np.abs((u - c) / w), 0.0, None),
        c - 2.0 * w, c + 2.0 * w, w / 64.0, pad=4)
    comp = compose_scale(lip, s, (-1.5, 1.5), step=step)
    cphi = float(rng.uniform(-1.0, 1.0))
    phi = GridFunction.from_callable(
        lambda u: np.exp(-6.0 * (u - cphi) ** 2) * np.cos(3.0 * u)
        * np.clip(1.0 - np.abs(u / 1.45), 0.0, None),
        -1.5, 1.5, step, pad=0)
    mu = pushforward_measure(comp.function)
    segments = _oracle_segments(comp.function)
    assert list(zip(mu.lo.tolist(), mu.hi.tolist(),
                    mu.density.tolist())) == segments
    lhs, rhs = duality_pairing_check(comp.function, s, phi)
    want_rhs = sum(d * _oracle_integral_on(phi, lo, hi)
                   for lo, hi, d in segments)
    assert abs(rhs - want_rhs) <= 1e-13 * (1.0 + abs(lhs))


class TestAgainstPerElementOracles:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_fat_cantor(self, seed):
        g, rng = _random_fat_cantor(seed)
        anchor = 0.0 if seed % 2 else float(rng.uniform(-1.5, 1.5))
        _check_against_oracles(g, anchor, (-1.0, 1.0), rng)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_fat_cantor_default_window(self, seed):
        g, rng = _random_fat_cantor(100 + seed)
        _check_against_oracles(g, float(rng.uniform(-0.5, 0.5)), None, rng)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    @pytest.mark.parametrize("anchor", [0.0, -0.45, 1.2])
    def test_hand_built(self, name, anchor):
        rng = np.random.default_rng(len(name))
        _check_against_oracles(HAND_BUILT[name], anchor, None, rng)
        _check_against_oracles(HAND_BUILT[name], anchor, (-1.0, 1.0), rng)

    def test_degenerate_window(self, rng):
        # over ~200 subnormal steps the dyadic edges repeat and fall out of
        # order from depth 7 on; an empty cell carries no measure even
        # inside G, a reversed one spans its edges in either order
        for g in (IntervalSet.real_line(), HAND_BUILT["gap-on-dyadics"]):
            _check_against_oracles(g, 0.0, (0.0, 1e-321), rng)
        assert 6 <= scale_from_open_set(IntervalSet.real_line(), 0.0,
                                        (0.0, 1e-321)).density_depth < 12

    @pytest.mark.parametrize("window", [(1.0, -1.0), (math.nan, 1.0),
                                        (0.0, math.inf), (0.5, 0.5)])
    def test_window_outside_the_rule_refused(self, window):
        # a reversed and a NaN window certified a set that is not dense
        # in (-1, 1) as strictly increasing
        with pytest.raises(ValueError, match="density_window"):
            scale_from_open_set(IntervalSet.of((0.0, 1.0)),
                                density_window=window)

    def test_integrate_off_node_segments(self, rng):
        # segment ends between phi's nodes, where the antiderivative uses
        # the quadratic part of the cell integral
        phi = GridFunction.from_callable(
            lambda u: np.sin(5.0 * u) * (1.0 - u * u), -1.0, 1.0, 0.01,
            pad=0)
        ends = np.sort(rng.uniform(-1.0, 1.0, (200, 2)), axis=1)
        dens = rng.uniform(-3.0, 3.0, 200)
        mu = scalecap.SignedMeasure(ends[:, 0], ends[:, 1], dens)
        want = sum(d * _oracle_integral_on(phi, lo, hi)
                   for (lo, hi), d in zip(ends, dens))
        assert mu.integrate(phi) == pytest.approx(want, abs=1e-13
                                                  * np.sum(np.abs(dens)))


_ENDPOINT = st.one_of(st.floats(allow_nan=False),
                      st.sampled_from([-math.inf, math.inf, 0.0, -0.0]))


@given(pieces=st.lists(st.tuples(_ENDPOINT, _ENDPOINT), max_size=8),
       xy=st.lists(st.tuples(_ENDPOINT, _ENDPOINT), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_array_measure_matches_scalar_calls(pieces, xy):
    g = IntervalSet(tuple(pieces))
    x, y = (np.array(v) for v in zip(*xy))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g.measure_between(x, y)
        scalar = [g.measure_between(a, b) for a, b in xy]
    oracle = [_oracle_measure(g, a, b) for a, b in xy]
    assert got.shape == x.shape
    # bit for bit, the sign of zero included
    assert got.view(np.uint64).tolist() \
        == np.array(scalar).view(np.uint64).tolist() \
        == np.array(oracle).view(np.uint64).tolist()
