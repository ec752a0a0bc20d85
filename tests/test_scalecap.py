import math

import numpy as np
import pytest

from fracform.energy import EnergyParams, gagliardo_energy
from fracform.grids import GridFunction, IntervalSet
from fracform import scalecap
from fracform.quadcells import hat_energy_row
from fracform.scalecap import (CapacitySolverError, FatCantorSpec,
                               build_fat_cantor, capacity_estimate,
                               compose_scale, concentration_test,
                               duality_pairing_check, dyadic_centers,
                               pushforward_measure, scale_from_open_set)


class TestFatCantor:
    def test_single_island_layout(self):
        # budget chosen so the first radius is exactly 0.1 at alpha = 1.5
        spec = FatCantorSpec(alpha=1.5, budget=2.0 * math.sqrt(0.1))
        g = build_fat_cantor(spec, 1)
        assert g.intervals == ((-math.inf, -1.0), (-0.1, 0.1),
                               (1.0, math.inf))

    def test_geometric_surrogate_sum_within_budget(self):
        spec = FatCantorSpec(alpha=1.5, budget=0.25)
        g = build_fat_cantor(spec, 31)
        islands = [(lo, hi) for lo, hi in g
                   if math.isfinite(lo) and math.isfinite(hi)]
        total = sum((0.5 * (hi - lo)) ** 0.5 for lo, hi in islands)
        assert total <= 0.25 + 1e-12

    def test_custom_radii_exceeding_budget_rejected(self):
        spec = FatCantorSpec(alpha=1.5, budget=0.1)
        with pytest.raises(ValueError, match="partial sum"):
            build_fat_cantor(spec, 4, radii=[0.25, 0.25, 0.25, 0.25])

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
        brute = float(np.mean(g.indicator(xs))) * 2.0
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
        g = IntervalSet.of((-math.inf, 0.0), (1.0, math.inf))
        s = scale_from_open_set(g)
        const = GridFunction(0.1, 1.0 / 64.0, np.full(52, 0.37))
        mu = pushforward_measure(const, s)
        assert mu.total_variation_mass() == pytest.approx(0.0, abs=1e-12)
        assert mu.density_segments == ()

    def test_identity_upslope_density(self):
        s = scale_from_open_set(IntervalSet.real_line())
        n = 257
        step = 1.0 / 128.0
        x = -0.5 + step * np.arange(n)
        vals = np.clip(np.minimum(x, 1.0 - x) * 2.0, 0.0, 1.0)
        vals = np.clip(np.where(x < 0, 0.0, np.where(x > 1, 0.0, vals)), 0, 1)
        f = GridFunction(-0.5, step, vals)
        mu = pushforward_measure(f, s)
        ups = [seg for seg in mu.density_segments if seg[1] > 0]
        assert ups and all(d == pytest.approx(2.0) for _, d in ups)

    def test_positive_mass_bounded_by_lip_times_measure(self):
        g = build_fat_cantor(FatCantorSpec(alpha=1.5, budget=0.5), 15)
        s = scale_from_open_set(g)
        f = GridFunction.from_callable(
            lambda u: np.clip(0.2 - np.abs(u), 0.0, None),
            -0.2, 0.2, 1.0 / 512.0, pad=4)
        comp = compose_scale(f, s, (-1.2, 1.2), step=1.0 / 256.0)
        mu = pushforward_measure(comp.function, s)
        bound = comp.lipschitz * g.measure_between(-1.2, 1.2)
        assert mu.positive_mass() <= bound + 1e-9

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
            cap_ab = capacity_estimate(a.union(b), 0.5, (-4.0, 4.0),
                                       1.0 / 128.0).value
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
        # the circulant of power-of-two length whose leading block is the
        # stiffness plus hat mass matrix, diagonalised by a complex FFT
        h = 4.0 / (n - 1)
        row = hat_energy_row(n, h, alpha_star)
        row[:2] += (2.0 * h / 3.0, h / 6.0)
        nfft = 1 << (2 * n - 2).bit_length()
        col = np.zeros(nfft)
        col[:n] = row
        col[nfft - n + 1:] = row[:0:-1]
        eig = np.fft.fft(col).real
        assert eig.min() > 0.0
        _, solve_circulant = scalecap._e1_operator(n, h, alpha_star)
        u = rng.standard_normal(n)
        want = np.fft.ifft(np.fft.fft(u, nfft) / eig).real[:n]
        got = solve_circulant(u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha_star", [0.3, 1.0])
    def test_equilibrium_matches_dense_solve(self, alpha_star):
        # 257 nodes, pinned on [-0.25, 0.25]: solve the Toeplitz stiffness
        # plus hat mass system for the free nodes directly
        lo, hi, n = -2.0, 2.0, 257
        est = capacity_estimate(IntervalSet.of((-0.25, 0.25)), alpha_star,
                                (lo, hi), (hi - lo) / (n - 1))
        h = est.resolution
        x = lo + h * np.arange(n)
        row = hat_energy_row(n, h, alpha_star)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        a = row[lag] + np.where(lag == 0, 2.0 * h / 3.0,
                                np.where(lag == 1, h / 6.0, 0.0))
        pinned = np.abs(x) <= 0.25 + 1e-9 * h
        free = ~pinned
        u = pinned.astype(float)
        u[free] = np.linalg.solve(a[np.ix_(free, free)],
                                  -a[np.ix_(free, pinned)].sum(axis=1))
        got = est.equilibrium.values[1:-1]
        assert np.max(np.abs(got - u)) <= 1e-10
        assert est.clamp_violation == 0.0


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
