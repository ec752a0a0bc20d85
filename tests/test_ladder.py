import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracform.energy import EnergyParams, gagliardo_energy
from fracform.grids import GridFunction, IntervalSet, PlateauSpec, \
    make_plateau
from fracform.ladder import (arm_split, bv_fourier_bound_check,
                             is_erased_function, ladder_decompose,
                             ladder_star, skorokhod_star,
                             step_rate_experiment)
from fracform.verify import sample_multibump

from conftest import sample_bump


def two_bump(step=1.0 / 64.0):
    return sample_multibump(((0.5, 0.4, 1.0), (1.6, 0.4, 0.7)), step,
                            -0.2, 2.4)


def rough_walk(n, seed):
    """Tapered random walk with exact zeros at both ends: one excursion per
    local maximum."""
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    v = (walk - walk.min() + 1.0) * np.sin(np.pi * np.arange(n) / (n - 1))
    v[0] = v[-1] = 0.0
    return GridFunction(0.0, 1.0 / (n - 1), v)


# -- the per-node reference: one numpy pass per excursion on f - base ------


def _reference_runs(mask):
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    splits = np.nonzero(np.diff(idx) > 1)[0]
    return [(int(run[0]), int(run[-1])) for run in np.split(idx, splits + 1)]


def _reference_is_erased(f, g):
    fa, ga = f.aligned_with(g)
    fv, gv = fa.values, ga.values
    if np.any(fv > gv):
        return False, IntervalSet.empty()
    components = []
    x = fa.x
    ok = True
    for lo, hi in _reference_runs(fv < gv):
        if np.any(fv[lo:hi + 1] != fv[lo]):
            ok = False
        xl = x[lo - 1] if lo > 0 else x[0] - fa.step
        xr = x[hi + 1] if hi + 1 < fv.size else x[-1] + fa.step
        components.append((float(xl), float(xr)))
    return ok, IntervalSet(tuple(components))


class _ReferenceNode:
    def __init__(self, address, lo, hi, base, star, peak_point, height):
        self.address, self.lo, self.hi, self.base = address, lo, hi, base
        self.star, self.peak_point, self.height = star, peak_point, height
        self.pending = star is None
        self.children = []


def _reference_decompose(f, max_nodes, sup_tol):
    """Each excursion's star from max(f[run] - base, 0) and its children
    from the strict runs above the star; returns (order, trace, converged,
    depth)."""
    fv = f.values
    if f.is_zero:
        root = _ReferenceNode((), 0, fv.size - 1, 0.0,
                              f.with_values(np.zeros_like(fv)), f.origin, 0.0)
        return [root], [(1, 0.0)], True, 0
    heap = [(-float(fv.max()), 0, f.support_lo, f.support_hi, 0.0, ())]
    counter = 0
    order, trace = [], []
    while heap and len(order) < max_nodes:
        negh, _, lo, hi, base, address = heapq.heappop(heap)
        w = np.maximum(fv[lo:hi + 1] - base, 0.0)
        t = int(np.argmax(w))
        star_vals = np.concatenate([
            np.minimum.accumulate(w[:t + 1][::-1])[::-1],
            np.minimum.accumulate(w[t:])[1:]])
        nz = np.flatnonzero(star_vals)
        if nz.size:
            a, b = int(nz[0]), int(nz[-1])
            star = GridFunction(f.origin + (lo + a - 1) * f.step, f.step,
                                np.pad(star_vals[a:b + 1], 1))
        else:
            star = GridFunction(f.origin, f.step, np.zeros(2))
        order.append(_ReferenceNode(address, lo, hi, base, star,
                                    float(f.origin + (lo + t) * f.step),
                                    -negh))
        for j, (clo, chi) in enumerate(_reference_runs(w > star_vals), 1):
            flat = float(star_vals[clo])
            counter += 1
            heapq.heappush(heap, (-float(np.max(w[clo:chi + 1]) - flat),
                                  counter, lo + clo, lo + chi, base + flat,
                                  address + (j,)))
        gap = -heap[0][0] if heap else 0.0
        trace.append((len(order), float(gap)))
        if gap <= sup_tol:
            break
    by_address = {n.address: n for n in order}
    for n in order:
        if n.address:
            by_address[n.address[:-1]].children.append(n)
    for negh, _, lo, hi, base, address in sorted(heap, key=lambda e: e[1]):
        by_address[address[:-1]].children.append(
            _ReferenceNode(address, lo, hi, base, None, math.nan, -negh))
    gap = trace[-1][1]
    return order, trace, gap <= sup_tol, max(len(n.address) for n in order)


def _reference_partial_sum(f, order, k):
    done = {node.address for node in order[:k]}
    out = f.values.copy()
    for node in order[:k]:
        for child in node.children:
            if child.address not in done:
                out[child.lo:child.hi + 1] = np.minimum(
                    out[child.lo:child.hi + 1], child.base)
    return out


def _assert_same_node(node, ref):
    got = (node.address, node.lo, node.hi, node.base, node.height,
           node.pending)
    assert got == (ref.address, ref.lo, ref.hi, ref.base, ref.height,
                   ref.pending)
    assert (node.peak_point == ref.peak_point
            or math.isnan(node.peak_point) and math.isnan(ref.peak_point))
    if not ref.pending:
        assert (node.star.origin, node.star.step) == (ref.star.origin,
                                                      ref.star.step)
        assert np.array_equal(node.star.values, ref.star.values)
    assert [c.address for c in node.children] == \
        [c.address for c in ref.children]
    for child, ref_child in zip(node.children, ref.children):
        if ref_child.pending:
            _assert_same_node(child, ref_child)


def assert_matches_reference(f, max_nodes, sup_tol):
    """Node by node, in order, with trace, flags and every partial sum."""
    tree = ladder_decompose(f, max_nodes=max_nodes, sup_tol=sup_tol)
    order, trace, converged, depth = _reference_decompose(f, max_nodes,
                                                          sup_tol)
    assert tree.trace == trace
    assert (tree.converged, tree.depth_built) == (converged, depth)
    assert len(tree.order) == len(order)
    for node, ref in zip(tree.order, order):
        _assert_same_node(node, ref)
    for k in range(1, len(order) + 1):
        assert np.array_equal(tree.partial_sum(k).values,
                              _reference_partial_sum(f, order, k)), k


class TestIsErased:
    def test_identity_pair(self):
        g = sample_bump(step=1.0 / 64.0)
        ok, witness = is_erased_function(g, g)
        assert ok and witness.is_empty

    def test_zero_erases_everything(self):
        g = two_bump()
        z = g.with_values(np.zeros_like(g.values))
        ok, witness = is_erased_function(z, g)
        assert ok
        # witness components cover exactly the strict-positivity runs of g
        assert len(witness) == 2

    def test_flattened_second_bump(self):
        g = two_bump()
        x = g.x
        f_vals = np.where(x > 1.0, 0.0, g.values)
        f = g.with_values(f_vals)
        ok, witness = is_erased_function(f, g)
        assert ok and len(witness) == 1

    def test_not_erased_detected(self):
        g = sample_bump(step=1.0 / 64.0)
        ok, _ = is_erased_function(g.scaled(0.5), g)
        assert not ok

    def test_above_rejected(self):
        g = sample_bump(step=1.0 / 64.0)
        ok, _ = is_erased_function(g.scaled(1.5), g)
        assert not ok

    def test_grid_mismatch_rejected(self):
        g = sample_bump(step=1.0 / 64.0)
        h = sample_bump(step=1.0 / 32.0)
        with pytest.raises(ValueError):
            is_erased_function(h, g)

    @given(g=st.lists(st.integers(0, 3), min_size=2, max_size=40),
           cut=st.lists(st.integers(0, 4), min_size=2, max_size=40),
           shift=st.integers(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, g, cut, shift):
        # min(g, cut) is erased only where it stays constant; cut values
        # above g (4) keep g, and the shift misaligns the two windows
        gv = np.array(g, dtype=float)
        fv = np.minimum(gv[:len(cut)], np.array(cut[:len(g)], dtype=float))
        gf = GridFunction(-0.7, 0.1, gv)
        ff = GridFunction(-0.7 + 0.1 * shift, 0.1, fv)
        ok, witness = is_erased_function(ff, gf)
        ref_ok, ref_witness = _reference_is_erased(ff, gf)
        assert ok == ref_ok
        assert witness.intervals == ref_witness.intervals


def admissible_plateau(rng, a=0.0, b=1.0, rho=0.5, step=1.0 / 32.0):
    """Random continuous g with g=1 on [a,b], 0 off (a-rho, b+rho), values
    in [0,1]; ramps need not be monotone."""
    f = make_plateau(PlateauSpec(a, b, rho), step)
    vals = f.values.copy()
    x = f.x
    interior = ((x > a - rho) & (x < a)) | ((x > b) & (x < b + rho))
    vals[interior] = rng.uniform(0.0, 1.0, size=int(interior.sum()))
    return f.with_values(vals)


class TestSkorokhodStar:
    def test_monotone_input_unchanged(self):
        g = make_plateau(PlateauSpec(0.0, 1.0, 0.5), 1.0 / 64.0)
        out = skorokhod_star(g, 0.0, 1.0, 0.5)
        assert np.array_equal(out.values, g.values)

    def test_hand_example(self):
        # left ramp through (-1,0), (-0.6,0.9), (-0.4,0.3), (0,1): the
        # running infimum flattens at the 0.3 dip until the ramp re-crosses
        step = 0.2
        n = 19
        x = -1.2 + step * np.arange(n)
        vals = np.zeros(n)
        for i, xi in enumerate(x):
            if -1e-9 <= xi <= 1.0 + 1e-9:
                vals[i] = 1.0
            elif -1.0 < xi < 0.0:
                vals[i] = float(np.interp(xi, [-1.0, -0.6, -0.4, 0.0],
                                          [0.0, 0.9, 0.3, 1.0]))
            elif 1.0 < xi < 2.2:
                vals[i] = max(0.0, 1.0 - (xi - 1.0) / 1.2)
        g = GridFunction(-1.2, step, vals)
        out = skorokhod_star(g, 0.0, 1.0, 1.2)
        dip = g.values[4]  # node at -0.4
        assert out.values[2] == out.values[3] == out.values[4] == dip
        assert out.values[1] == 0.0

    def test_random_outputs_are_erased(self, rng):
        for _ in range(100):
            g = admissible_plateau(rng)
            out = skorokhod_star(g, 0.0, 1.0, 0.5)
            ok, _ = is_erased_function(out, g)
            assert ok
            # output is again in the plateau family: monotone ramps
            x = out.x
            left = out.values[(x > -0.5) & (x <= 0.0 + 1e-12)]
            right = out.values[(x >= 1.0 - 1e-12) & (x < 1.5)]
            assert np.all(np.diff(left) >= 0)
            assert np.all(np.diff(right) <= 0)

    def test_idempotent(self, rng):
        g = admissible_plateau(rng)
        once = skorokhod_star(g, 0.0, 1.0, 0.5)
        twice = skorokhod_star(once, 0.0, 1.0, 0.5)
        assert np.array_equal(once.values, twice.values)

    def test_precondition_failures_named(self):
        g = make_plateau(PlateauSpec(0.0, 1.0, 0.5), 1.0 / 64.0)
        with pytest.raises(ValueError, match="0 <= g <= 1"):
            skorokhod_star(g.scaled(2.0), 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="equal 1"):
            skorokhod_star(g.scaled(0.9), 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="vanish"):
            skorokhod_star(g, 0.25, 0.75, 0.1)


class TestLadderStar:
    def test_unimodal_fixed_point(self):
        f = sample_bump(step=1.0 / 64.0)
        star, peak = ladder_star(f)
        assert np.array_equal(star.values, f.values)
        assert peak == pytest.approx(0.0, abs=f.step)

    def test_two_equal_bumps(self):
        # equal heights: the peak is the left one; the star flattens at the
        # valley level across the right bump
        step = 0.25
        vals = np.array([0.0, 1.0, 0.2, 1.0, 0.0])
        f = GridFunction(0.0, step, vals)
        star, peak = ladder_star(f)
        assert peak == 0.25
        assert list(star.values) == [0.0, 1.0, 0.2, 0.2, 0.0]

    def test_sup_norm_preserved(self, rng):
        for _ in range(20):
            params = tuple((float(rng.uniform(0, 3)), float(rng.uniform(0.2, 0.6)),
                            float(rng.uniform(0.2, 1.5))) for _ in range(3))
            f = sample_multibump(params, 1.0 / 64.0, -1.0, 4.0)
            if f.is_zero:
                continue
            star, _ = ladder_star(f)
            assert star.linf() == f.linf()

    def test_idempotent(self):
        f = two_bump()
        star, _ = ladder_star(f)
        star2, _ = ladder_star(star)
        assert np.array_equal(star.values, star2.values)

    def test_zero_rejected(self):
        z = GridFunction(0.0, 1.0, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            ladder_star(z)


class TestLadderDecompose:
    def test_unimodal_single_node(self):
        f = sample_bump(step=1.0 / 64.0)
        tree = ladder_decompose(f)
        assert tree.n_nodes == 1 and tree.converged
        assert np.array_equal(tree.partial_sum().values, f.values)

    def test_two_bumps_two_nodes(self):
        f = two_bump()
        tree = ladder_decompose(f)
        assert tree.n_nodes == 2 and tree.converged
        assert np.array_equal(tree.partial_sum().values, f.values)

    def test_partial_sums_monotone_and_erased(self):
        params = ((0.5, 0.45, 1.0), (1.5, 0.5, 0.8), (2.5, 0.4, 1.2),
                  (3.5, 0.5, 0.6))
        f = sample_multibump(params, 1.0 / 64.0, -0.5, 4.5)
        tree = ladder_decompose(f, max_nodes=64, sup_tol=1e-3)
        prev = None
        for ps in tree.partial_sums():
            ok, _ = is_erased_function(ps, f)
            assert ok
            assert np.all(ps.values <= f.values)
            if prev is not None:
                assert np.all(ps.values >= prev.values)
            prev = ps

    @pytest.mark.parametrize("max_nodes", [4096, 7])
    def test_partial_sums_walk_matches_partial_sum(self, max_nodes):
        # a rough tapered walk has one excursion per local maximum; the
        # 7-node budget leaves pending stubs under the processed nodes
        tree = ladder_decompose(rough_walk(1024, 5), max_nodes=max_nodes,
                                sup_tol=0.0)
        assert tree.converged == (max_nodes > 7)
        stubs = [c for node in tree.order for c in node.children if c.pending]
        assert bool(stubs) == (max_nodes == 7)
        walked = [ps.values for ps in tree.partial_sums()]
        direct = [tree.partial_sum(k).values
                  for k in range(1, tree.n_nodes + 1)]
        assert len(walked) == len(direct) == tree.n_nodes
        assert all(np.array_equal(a, b) for a, b in zip(walked, direct))

    def test_gap_trace_decreasing(self):
        params = ((0.5, 0.45, 1.0), (1.5, 0.5, 0.8), (2.5, 0.4, 1.2))
        f = sample_multibump(params, 1.0 / 128.0, -0.5, 3.5)
        tree = ladder_decompose(f, max_nodes=64, sup_tol=1e-3)
        gaps = [g for _, g in tree.trace]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_budget_exhaustion_flags_not_converged(self):
        # eight separated bumps: more excursions than the budget allows
        params = tuple((0.6 * k, 0.25, 1.0 - 0.08 * k) for k in range(8))
        f = sample_multibump(params, 1.0 / 256.0, -0.5, 4.7)
        tree = ladder_decompose(f, max_nodes=2, sup_tol=1e-9)
        assert not tree.converged
        assert tree.n_nodes == 2

    def test_e1_norms_uniformly_bounded(self):
        params = ((0.5, 0.45, 1.0), (1.5, 0.5, 0.8), (2.5, 0.4, 1.2),
                  (3.5, 0.5, 0.6))
        f = sample_multibump(params, 1.0 / 64.0, -0.5, 4.5)
        tree = ladder_decompose(f, max_nodes=64, sup_tol=1e-3)
        for alpha in (0.5, 1.5):
            p = EnergyParams(alpha=alpha)
            norms = [gagliardo_energy(ps, p).e1_norm
                     for ps in tree.partial_sums()]
            assert max(norms) / min(norms) < 3.0

    def test_negative_input_rejected(self):
        f = GridFunction(0.0, 1.0, [0.0, -1.0, 0.0])
        with pytest.raises(ValueError):
            ladder_decompose(f)

    @pytest.mark.parametrize("sup_tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, sup_tol):
        with pytest.raises(ValueError, match="sup_tol"):
            ladder_decompose(two_bump(), sup_tol=sup_tol)

    def test_children_sit_on_one_side_of_the_peak(self, rng):
        # every excursion lies strictly left or right of its parent's peak
        for _ in range(10):
            params = tuple((float(rng.uniform(0, 4)),
                            float(rng.uniform(0.2, 0.8)),
                            float(rng.uniform(0.2, 1.5))) for _ in range(5))
            f = sample_multibump(params, 1.0 / 128.0, -1.0, 5.0)
            if f.is_zero:
                continue
            tree = ladder_decompose(f, max_nodes=64, sup_tol=1e-9)
            by_address = {n.address: n for n in tree.order}
            for node in tree.order:
                if not node.address:
                    continue
                parent = by_address.get(node.address[:-1])
                if parent is None:
                    continue
                peak_idx = int(round((parent.peak_point - f.origin) / f.step))
                assert parent.lo <= node.lo and node.hi <= parent.hi
                assert node.hi < peak_idx or node.lo > peak_idx


class TestAgainstReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 257, 1024, 4096])
    @pytest.mark.parametrize("budget", [1, 7, None])
    @pytest.mark.parametrize("sup_tol", [0.0, 1e-3])
    def test_rough_walks(self, n, budget, sup_tol):
        f = rough_walk(n, n)
        assert_matches_reference(f, budget or n, sup_tol)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [1, 7, None])
    @pytest.mark.parametrize("sup_tol", [0.0, 1e-3])
    def test_multibumps(self, seed, budget, sup_tol):
        rng = np.random.default_rng(seed)
        params = tuple((float(rng.uniform(0, 4)),
                        float(rng.uniform(0.1, 0.8)),
                        float(rng.uniform(0.2, 1.5))) for _ in range(6))
        f = sample_multibump(params, 1.0 / 128.0, -1.0, 5.0)
        assert_matches_reference(f, budget or f.n_nodes, sup_tol)

    @given(values=st.lists(st.integers(0, 3), min_size=1, max_size=60),
           budget=st.sampled_from([1, 7, None]),
           sup_tol=st.sampled_from([0.0, 1e-3]))
    @settings(max_examples=300, deadline=None)
    def test_small_integers(self, values, budget, sup_tol):
        # ties, plateaus, equal peaks and interior zeros; all-zero too
        f = GridFunction(-0.25, 0.5, [0.0] + values + [0.0])
        assert_matches_reference(f, budget or f.n_nodes, sup_tol)


class TestArmSplit:
    def test_symmetric_triangle(self):
        h = GridFunction(-1.0, 0.5, [0.0, 0.5, 1.0, 0.5, 0.0])
        left, right = arm_split(h)
        assert list(left.values) == [0.0, 0.5, 1.0, 1.0, 1.0]
        assert list(right.values) == [0.0, 0.0, 0.0, 0.5, 1.0]

    def test_identity_and_monotone(self, rng):
        for _ in range(20):
            up = np.sort(rng.uniform(0.0, 1.0, size=6))
            down = np.sort(rng.uniform(0.0, float(up[-1]), size=5))[::-1]
            vals = np.concatenate([[0.0], up, down, [0.0]])
            vals = np.maximum.accumulate(vals[:7]).tolist() + vals[7:].tolist()
            h = GridFunction(0.0, 0.1, np.asarray(vals))
            left, right = arm_split(h)
            m = h.linf()
            assert np.all(np.diff(left.values) >= 0)
            assert np.all(np.diff(right.values) >= 0)
            recon = left.values - right.values
            assert np.allclose(recon, h.values, rtol=0.0, atol=2e-16 * max(m, 1.0))

    def test_non_ladder_rejected(self):
        h = GridFunction(0.0, 1.0, [0.0, 1.0, 0.2, 0.8, 0.0])
        with pytest.raises(ValueError):
            arm_split(h)


class TestStepRate:
    def test_zero_function(self):
        z = GridFunction(0.0, 1.0 / 8.0, np.zeros(16))
        result = step_rate_experiment(z, 0.5, 3, 5)
        assert all(e == 0.0 for _, e in result.entries)
        assert math.isnan(result.slope)

    def test_errors_decrease_and_slope_upper_bound(self):
        f = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs(2.0 * u - 1.0), 0.0, None),
            0.0, 1.0, 1.0 / 256.0, pad=4)
        result = step_rate_experiment(f, 0.5, 3, 7)
        errs = [e for _, e in result.entries]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # the decay never beats the stated upper-bound rate from below:
        # slope <= (alpha - 1) * (1 + 0.15)
        assert result.slope <= (0.5 - 1.0) * (1.0 + 0.15)

    def test_alpha_at_least_one_rejected(self):
        f = sample_bump(step=1.0 / 64.0)
        with pytest.raises(ValueError):
            step_rate_experiment(f, 1.0, 3, 5)


class TestBvFourierBound:
    def test_plateau_within_bound(self):
        f = make_plateau(PlateauSpec(0.0, 1.0, 0.3), 1.0 / 128.0)
        xi = np.linspace(1.0, 200.0, 400)
        violation = bv_fourier_bound_check(f, xi)
        assert violation <= 1e-3

    def test_indicator_limit_analytic(self):
        # |fhat| |xi| = |2 sin(xi/2)| / sqrt(2 pi) <= 2 / sqrt(2 pi) < 2
        bound = 2.0 / math.sqrt(2.0 * math.pi)
        xi = np.linspace(1.0, 60.0, 500)
        analytic = np.abs(2.0 * np.sin(xi / 2.0)) / math.sqrt(2.0 * math.pi)
        assert np.max(analytic) <= bound + 1e-12

    def test_random_profiles_pass(self, rng):
        xi = np.linspace(1.0, 120.0, 200)
        profiles = ("linear", "smooth", "concave")
        for i in range(10):
            a = float(rng.uniform(-0.5, 0.5))
            b = a + float(rng.uniform(0.4, 1.5))
            rho = float(rng.uniform(0.1, 0.8))
            f = make_plateau(PlateauSpec(a, b, rho, profiles[i % 3]), rho / 32.0)
            assert bv_fourier_bound_check(f, xi) <= 1e-3

    def test_requires_plateau_family(self):
        f = sample_bump(height=2.0, step=1.0 / 64.0)
        with pytest.raises(ValueError):
            bv_fourier_bound_check(f, np.linspace(1.0, 10.0, 20))
