import heapq
import math
import pickle
import sys
import threading
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracform import ladder
from fracform.energy import EnergyParams, gagliardo_energy
from fracform.grids import MAX_GRID_NODES, GridFunction, IntervalSet, \
    PlateauSpec, make_plateau
from fracform.ladder import (LadderTree, arm_split, bv_fourier_bound_check,
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


def _reference_star(f, lo, hi, base):
    """The star of max(f[lo..hi] - base, 0) in its own frame, with w, the
    star values and the index of the first maximum in the run."""
    w = np.maximum(f.values[lo:hi + 1] - base, 0.0)
    t = int(np.argmax(w))
    star_vals = np.concatenate([
        np.minimum.accumulate(w[:t + 1][::-1])[::-1],
        np.minimum.accumulate(w[t:])[1:]])
    nz = np.flatnonzero(star_vals)
    a, b = int(nz[0]), int(nz[-1])
    star = GridFunction(f.origin + (lo + a - 1) * f.step, f.step,
                        np.pad(star_vals[a:b + 1], 1))
    return w, star_vals, t, star


def _reference_zero(f):
    root = _ReferenceNode((), 0, f.n_nodes - 1, 0.0,
                          f.with_values(np.zeros_like(f.values)), f.origin,
                          0.0)
    return [root], [(1, 0.0)], True, 0


def _reference_decompose(f, max_nodes, sup_tol):
    """Each excursion's star from max(f[run] - base, 0) and its children
    from the strict runs above the star.  A child's base is the sample of f
    at its col, next to its run on the parent-peak side; its height is f at
    its peak minus that base; the heap pops by (-height, depth, peak index).
    Returns (order, trace, converged, depth)."""
    fv = f.values
    if f.is_zero:
        return _reference_zero(f)
    top = int(np.argmax(fv))
    heap = [(-float(fv[top]), 0, top, f.support_lo, f.support_hi, 0.0, ())]
    order, trace = [], []
    while heap and len(order) < max_nodes:
        negh, depth, _, lo, hi, base, address = heapq.heappop(heap)
        w, star_vals, t, star = _reference_star(f, lo, hi, base)
        order.append(_ReferenceNode(address, lo, hi, base, star,
                                    float(f.origin + (lo + t) * f.step),
                                    -negh))
        for j, (clo, chi) in enumerate(_reference_runs(w > star_vals), 1):
            col = lo + (chi + 1 if chi < t else clo - 1)
            peak = lo + clo + int(np.argmax(w[clo:chi + 1]))
            child_base = float(fv[col])
            heapq.heappush(heap, (-float(fv[peak] - child_base), depth + 1,
                                  peak, lo + clo, lo + chi, child_base,
                                  address + (j,)))
        gap = -heap[0][0] if heap else 0.0
        trace.append((len(order), float(gap)))
        if gap <= sup_tol:
            break
    _attach(order, [(lo, hi, base, -negh, address)
                    for negh, _, _, lo, hi, base, address in heap])
    gap = trace[-1][1]
    return order, trace, gap <= sup_tol, max(len(n.address) for n in order)


def _attach(order, pending):
    """Processed children by rank, then the pending (lo, hi, base, height,
    address) stubs by (parent rank, sibling index)."""
    by_address = {n.address: n for n in order}
    rank = {n.address: i for i, n in enumerate(order)}
    for n in order:
        if n.address:
            by_address[n.address[:-1]].children.append(n)
    for lo, hi, base, height, address in sorted(
            pending, key=lambda e: (rank[e[4][:-1]], e[4][-1])):
        by_address[address[:-1]].children.append(
            _ReferenceNode(address, lo, hi, base, None, math.nan, height))


def _chain_decompose(f, max_nodes, sup_tol):
    """The earlier float chain: a child's base is base + max(f[col] - base,
    0) read off the parent's star, its height max(f - base) over its run
    minus that flat, and the heap pops by (-height, push counter)."""
    fv = f.values
    if f.is_zero:
        return _reference_zero(f)
    heap = [(-float(fv.max()), 0, f.support_lo, f.support_hi, 0.0, ())]
    counter = 0
    order, trace = [], []
    while heap and len(order) < max_nodes:
        negh, _, lo, hi, base, address = heapq.heappop(heap)
        w, star_vals, t, star = _reference_star(f, lo, hi, base)
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
    _attach(order, [(lo, hi, base, -negh, address)
                    for negh, _, lo, hi, base, address in heap])
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
        ok, _ = is_erased_function(g.with_values(0.5 * g.values), g)
        assert not ok

    def test_above_rejected(self):
        g = sample_bump(step=1.0 / 64.0)
        ok, _ = is_erased_function(g.with_values(1.5 * g.values), g)
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
        assert ok == ref_ok == ladder._erasure(ff, gf)[0]
        assert witness.intervals == ref_witness.intervals
        assert witness.intervals == IntervalSet(witness.intervals).intervals

    def test_witness_is_what_the_constructor_builds_on_a_rough_walk(self):
        # the witness skips the constructor's gates, sort and merge; on a
        # 2048-sample walk's partial sums, with up to hundreds of
        # components, it holds the intervals the constructor makes of them
        g = rough_walk(2048, 3)
        tree = ladder_decompose(g, g.n_nodes, 0.0)
        sizes = []
        for k in (1, tree.n_nodes // 4, tree.n_nodes // 2, tree.n_nodes):
            f = tree.partial_sum(k)
            ok, witness = is_erased_function(f, g)
            assert ok and type(witness) is IntervalSet
            assert witness.intervals == IntervalSet(witness.intervals).intervals
            assert witness.intervals == _reference_is_erased(f, g)[1].intervals
            sizes.append(len(witness))
        assert max(sizes) > 100


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
            skorokhod_star(g.with_values(2.0 * g.values), 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="equal 1"):
            skorokhod_star(g.with_values(0.9 * g.values), 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="vanish"):
            skorokhod_star(g, 0.25, 0.75, 0.1)

    @pytest.mark.parametrize("rho", [0.0, -0.5, math.nan, math.inf,
                                     -math.inf])
    def test_rho_must_be_positive_and_finite(self, rho):
        g = make_plateau(PlateauSpec(0.0, 1.0, 0.5), 1.0 / 64.0)
        with pytest.raises(ValueError, match="rho must be positive"):
            skorokhod_star(g, 0.0, 1.0, rho)


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
            assert np.max(np.abs(star.values)) == np.max(np.abs(f.values))

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
        for k in range(1, tree.n_nodes + 1):
            ps = tree.partial_sum(k)
            ok, _ = is_erased_function(ps, f)
            assert ok
            assert np.all(ps.values <= f.values)
            if prev is not None:
                assert np.all(ps.values >= prev.values)
            prev = ps

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
            norms = [gagliardo_energy(tree.partial_sum(k), p).e1_norm
                     for k in range(1, tree.n_nodes + 1)]
            assert max(norms) / min(norms) < 3.0

    def test_negative_input_rejected(self):
        f = GridFunction(0.0, 1.0, [0.0, -1.0, 0.0])
        with pytest.raises(ValueError):
            ladder_decompose(f)

    @pytest.mark.parametrize("sup_tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, sup_tol):
        with pytest.raises(ValueError, match="sup_tol"):
            ladder_decompose(two_bump(), sup_tol=sup_tol)

    @pytest.mark.parametrize("max_nodes", [2.5, 2.0, True, np.float64(3)])
    def test_non_integer_budget_rejected(self, max_nodes):
        with pytest.raises(ValueError, match="integer"):
            ladder_decompose(two_bump(), max_nodes=max_nodes)

    def test_numpy_integer_budget_accepted(self):
        tree = ladder_decompose(rough_walk(257, 1), max_nodes=np.int64(5))
        assert tree.n_nodes == 5

    def test_step_checked(self):
        tree = ladder_decompose(rough_walk(257, 1), max_nodes=5, sup_tol=0.0)
        assert tree.sup_gap() == tree.sup_gap(5) == tree.trace[-1][1]
        assert tree.sup_gap(np.int64(1)) == tree.trace[0][1]
        for k in (0, -1, 6, 1.5, True):
            with pytest.raises(ValueError, match="1..5"):
                tree.sup_gap(k)
            with pytest.raises(ValueError, match="1..5"):
                tree.partial_sum(k)

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


class TestAgainstFloatChain:
    """Against the earlier float chain, whose bases and heights carry the
    rounding of one subtraction and addition per level."""

    @pytest.mark.parametrize("n", [64, 257, 1024, 4096])
    def test_rough_walks(self, n):
        self.assert_close(rough_walk(n, n))

    @pytest.mark.parametrize("seed", range(6))
    def test_multibumps(self, seed):
        rng = np.random.default_rng(seed)
        params = tuple((float(rng.uniform(0, 4)),
                        float(rng.uniform(0.1, 0.8)),
                        float(rng.uniform(0.2, 1.5))) for _ in range(6))
        self.assert_close(sample_multibump(params, 1.0 / 128.0, -1.0, 5.0))

    @staticmethod
    def assert_close(f):
        # the same excursions, with bases and heights within depth * eps *
        # max f; at most 0.43 eps * max f was seen, on rough walks of 3 to
        # 2^14 nodes and on multibumps
        tree = ladder_decompose(f, max_nodes=f.n_nodes, sup_tol=0.0)
        chain = {n.address: n
                 for n in _chain_decompose(f, f.n_nodes, 0.0)[0]}
        assert {n.address for n in tree.order} == chain.keys()
        tol = np.finfo(float).eps * np.max(np.abs(f.values))
        for node in tree.order:
            ref = chain[node.address]
            assert (node.lo, node.hi) == (ref.lo, ref.hi)
            bound = len(node.address) * tol
            assert abs(node.base - ref.base) <= bound
            assert abs(node.height - ref.height) <= bound


class TestTreeProperties:
    """Prefix connectivity, trace, bases on samples and exact partial sums,
    with and without a budget or tolerance cut."""

    @given(n=st.integers(3, 600), seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from([1, 7, None]),
           sup_tol=st.sampled_from([0.0, 1e-3, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_rough_walks(self, n, seed, budget, sup_tol):
        self.assert_properties(rough_walk(n, seed), budget, sup_tol)

    @given(values=st.lists(st.integers(0, 3), min_size=1, max_size=60),
           budget=st.sampled_from([1, 7, None]),
           sup_tol=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_small_integers(self, values, budget, sup_tol):
        f = GridFunction(-0.25, 0.5, [0.0] + values + [0.0])
        self.assert_properties(f, budget, sup_tol)

    @staticmethod
    def assert_properties(f, budget, sup_tol):
        fv = f.values
        tree = ladder_decompose(f, max_nodes=budget or f.n_nodes,
                                sup_tol=sup_tol)
        order = tree.order
        assert order[0].address == () and order[0].base == 0.0
        seen = set()
        for node in order:
            assert not node.address or node.address[:-1] in seen
            seen.add(node.address)
        stubs = [c for node in order for c in node.children if c.pending]
        heights = [n.height for n in order[1:]]
        heights.append(max((c.height for c in stubs), default=0.0))
        gaps = [g for _, g in tree.trace]
        assert [k for k, _ in tree.trace] == list(range(1, len(order) + 1))
        assert gaps == heights
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        bases = np.array([n.base for n in order + stubs])
        assert np.all(np.isin(bases, fv))
        for k in range(1, tree.n_nodes + 1):
            assert np.all(np.isin(tree.partial_sum(k).values, fv)), k


def _root_run(samples):
    """The samples _excursions reads: the support of 0, samples, 0, or all
    of it for the zero function."""
    f = GridFunction(0.0, 1.0, [0.0, *samples, 0.0])
    return f.values if f.is_zero else f.values[f.support_lo:f.support_hi + 1]


class TestFewPeakWalks:
    """The walks over the samples themselves (P peaks times n samples at
    most ``_FEW_PEAKS``) and over the sparse tables give bit-identical
    excursion arrays, on inputs from either side of the switch."""

    @staticmethod
    def assert_paths_agree(v):
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            for name, bound in (("tables", -1), ("samples", 1 << 62)):
                mp.setattr(ladder, "_FEW_PEAKS", bound)
                out[name] = ladder._excursions(v)
        for got, want in zip(out["samples"], out["tables"]):
            assert got.dtype.kind == want.dtype.kind == "i"
            assert np.array_equal(got, want)
        return out["tables"][0].size

    @given(values=st.lists(st.integers(0, 3), min_size=1, max_size=80))
    @example(values=[1, 2, 2, 2, 1])  # a flat-top plateau peak
    @example(values=[1, 3, 1, 3, 1])  # equal twin peaks, an equal col
    @example(values=[0, 0, 0])  # the zero function
    @example(values=[0, 2, 0])  # a one-sample support
    @example(values=[3, 1, 2, 1, 3])  # peaks at both support ends
    @example(values=[2, 2, 0, 0, 2, 2])  # flat ends apart, zeros between
    @settings(max_examples=300, deadline=None)
    def test_small_integers(self, values):
        self.assert_paths_agree(_root_run(values))

    @given(n=st.integers(3, 700), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rough_walks(self, n, seed):
        self.assert_paths_agree(_root_run(rough_walk(n, seed).values[1:-1]))

    def test_both_sides_of_the_switch(self):
        # rough walks whose P n lies below and above the bound, unforced,
        # give the trees of the tables alone
        sides = set()
        for n in (64, 128, 256, 512, 1024):
            f = rough_walk(n, n)
            v = _root_run(f.values[1:-1])
            sides.add(self.assert_paths_agree(v) * v.size
                      <= ladder._FEW_PEAKS)
            tree = ladder_decompose(f, n, 0.0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ladder, "_FEW_PEAKS", -1)
                tables = ladder_decompose(f, n, 0.0)
            for got, want in zip((*tree.edges, tree._gaps, tree._rank),
                                 (*tables.edges, tables._gaps, tables._rank)):
                assert got.tobytes() == want.tobytes()
        assert sides == {True, False}


def _separated_walks():
    """Two rough walks apart: the root spans the zeros between them, so the
    second walk's excursion has base 0 and early partial sums lose it."""
    v = np.concatenate([rough_walk(300, 11).values, np.zeros(5),
                        rough_walk(200, 12).values])
    return GridFunction(0.0, 1.0 / 512.0, v)


def _overlapping_bumps():
    rng = np.random.default_rng(13)
    params = tuple((float(rng.uniform(0, 4)), float(rng.uniform(0.1, 0.8)),
                    float(rng.uniform(0.2, 1.5))) for _ in range(12))
    f = sample_multibump(params, 1.0 / 128.0, -1.0, 5.0)
    # a ripple on the bumps' support gives each bump many excursions
    ripple = 1.0 + 0.05 * np.sin(np.arange(f.n_nodes) * 0.7)
    return f.with_values(f.values * ripple)


# name -> (function, max_nodes); "cut" stops at 40 nodes, leaving stubs
KEPT_SUM_INPUTS = {
    "rough": (lambda: rough_walk(512, 5), None),
    "cut": (lambda: rough_walk(512, 6), 40),
    "bumps": (_overlapping_bumps, None),
    "separated": (_separated_walks, None),
}


@pytest.fixture(scope="module")
def kept_sum_cases():
    """name -> (f, max_nodes, {k: (fresh tree's sum, reference samples)})."""
    out = {}
    for name, (make, budget) in KEPT_SUM_INPUTS.items():
        f = make()
        budget = budget or f.n_nodes
        order = ladder_decompose(f, budget, 0.0).order
        want = {k: (ladder_decompose(f, budget, 0.0).partial_sum(k),
                    _reference_partial_sum(f, order, k))
                for k in range(1, len(order) + 1)}
        out[name] = (f, budget, want)
    return out


class TestKeptPartialSum:
    """A tree steps forward from its last partial sum and rebuilds the
    others; every result must match a fresh tree's first call and the
    node-by-node reference bit for bit, in every call order."""

    @staticmethod
    def assert_same(got, want, ref):
        assert (got.origin, got.step) == (want.origin, want.step)
        assert got.values.tobytes() == want.values.tobytes() == ref.tobytes()
        assert (got.support_lo, got.support_hi) == (want.support_lo,
                                                    want.support_hi)

    @staticmethod
    def orders(n_nodes):
        rng = np.random.default_rng(n_nodes)
        ks = np.arange(1, n_nodes + 1)
        return {
            "ascending": ks,
            "descending": ks[::-1],
            "random": rng.permutation(ks),
            "repeated": np.repeat(ks, 2),
            "random-repeats": rng.integers(1, n_nodes + 1, 2 * n_nodes),
            # jumps past the step budget rebuild
            "strided": np.r_[ks[::37], ks[::5], ks[::-3]],
        }

    @pytest.mark.parametrize("name", KEPT_SUM_INPUTS)
    def test_call_orders(self, name, kept_sum_cases):
        f, budget, want = kept_sum_cases[name]
        assert len(want) >= 40
        for label, ks in self.orders(len(want)).items():
            tree = ladder_decompose(f, budget, 0.0)
            for k in ks.tolist():
                self.assert_same(tree.partial_sum(k), *want[k])
            final = tree.partial_sum()
            self.assert_same(final, *want[tree.n_nodes])
            if label == "ascending":
                assert "_step_tables" in vars(tree)  # the steps ran
                assert np.array_equal(final.values, f.values) \
                    == tree.converged

    def test_two_trees_interleaved(self, kept_sum_cases):
        (f, bf, wf), (g, bg, wg) = (kept_sum_cases[name]
                                    for name in ("rough", "separated"))
        tf, tg = ladder_decompose(f, bf, 0.0), ladder_decompose(g, bg, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(2 * max(len(wf), len(wg))):
            k = int(rng.integers(1, len(wf) + 1))
            self.assert_same(tf.partial_sum(k), *wf[k])
            j = min(len(wg), k + int(rng.integers(0, 3)))
            self.assert_same(tg.partial_sum(j), *wg[j])

    def test_pickle_drops_the_caches(self, kept_sum_cases):
        f, budget, want = kept_sum_cases["rough"]
        tree = ladder_decompose(f, budget, 0.0)
        fresh = len(pickle.dumps(tree))
        for k in (1, 2, 3):
            tree.partial_sum(k)
        assert tree.order and tree.trace and "_step_tables" in vars(tree)
        assert len(pickle.dumps(tree)) == fresh
        copy = pickle.loads(pickle.dumps(tree))
        assert copy._kept is None
        # every cached property, a new one too, is filled here and dropped
        cached = {name for name, v in vars(LadderTree).items()
                  if isinstance(v, cached_property)}
        assert {"order", "trace", "_first_edge", "_step_tables",
                "_rank_steps"} <= cached <= vars(tree).keys()
        assert not cached & vars(copy).keys()
        assert not copy.source.values.flags.writeable
        for k in (3, 4, 1, len(want)):
            self.assert_same(copy.partial_sum(k), *want[k])
        assert [n.address for n in copy.order] == [n.address
                                                   for n in tree.order]

    @pytest.mark.parametrize("name", ["rough", "cut"])
    def test_threads_walk_one_tree(self, name, kept_sum_cases):
        # ascending, descending and random walks, one thread each, so more
        # threads than a two-core machine has cores
        f, budget, want = kept_sum_cases[name]
        tree = ladder_decompose(f, budget, 0.0)
        ks = np.arange(1, len(want) + 1)
        walks = [ks.tolist() * 3, ks[::-1].tolist() * 3,
                 np.random.default_rng(1).permutation(np.tile(ks, 3))
                 .tolist()]
        got = [[] for _ in walks]
        start = threading.Barrier(len(walks))

        def walk(i):
            start.wait()
            got[i].extend((k, tree.partial_sum(k)) for k in walks[i])

        threads = [threading.Thread(target=walk, args=(i,))
                   for i in range(len(walks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the calls
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(g) for g in got] == [len(w) for w in walks]
        for k, ps in (pair for g in got for pair in g):
            self.assert_same(ps, *want[k])

    @given(n=st.integers(3, 700), seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from([5, 40, None]),
           moves=st.lists(st.tuples(st.sampled_from(["forward", "backward",
                                                     "over-budget"]),
                                    st.integers(0, 2 ** 16)),
                          min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_steps_equal_the_rebuild(self, n, seed, budget, moves):
        # forward steps within the budget, smaller k and jumps past it, in
        # any order: every sum must equal the rebuild from all the edges
        f = rough_walk(n, seed)
        tree = ladder_decompose(f, budget or n, 0.0)
        big, k = tree._STEP_BUDGET, 1
        for kind, draw in moves:
            if kind == "forward":
                k += draw % (big // 4 + 1)
            elif kind == "backward":
                k -= draw % k
            else:
                k += big + 1 + draw % big
            k = min(max(k, 1), tree.n_nodes)
            got = tree.partial_sum(k).values
            assert got.tobytes() == tree._rebuild(k).tobytes(), (kind, k)


class TestAdoptedSamples:
    """Partial sums, stars and arms adopt their fresh samples instead of
    copying them: each must equal the public constructor's function on the
    same samples, and its samples, kept ones included, must be read-only."""

    @staticmethod
    def assert_as_constructed(got):
        want = GridFunction(got.origin, got.step, got.values.copy())
        assert type(got) is GridFunction
        assert [float.hex(x) for x in (got.origin, got.step)] \
            == [float.hex(x) for x in (want.origin, want.step)]
        assert [float.hex(x) for x in got.values.tolist()] \
            == [float.hex(x) for x in want.values.tolist()]
        assert (got.support_lo, got.support_hi) == (want.support_lo,
                                                    want.support_hi)
        assert not got.values.flags.writeable
        with pytest.raises(ValueError):
            got.values[0] = 1.0

    @pytest.mark.parametrize("name", KEPT_SUM_INPUTS)
    def test_partial_sums(self, name, kept_sum_cases):
        f, budget, want = kept_sum_cases[name]
        stepped, rebuilt = (ladder_decompose(f, budget, 0.0)
                            for _ in range(2))
        for k in range(1, len(want) + 1):
            # ascending calls step forward; descending ones rebuild
            for tree, j in ((stepped, k), (rebuilt, len(want) + 1 - k)):
                got = tree.partial_sum(j)
                self.assert_as_constructed(got)
                assert got.values.tobytes() == want[j][0].values.tobytes()
                kept_k, kept = tree._kept
                assert kept_k == j and kept is got.values
                with pytest.raises(ValueError):
                    kept[0] = 1.0
        assert "_step_tables" in vars(stepped)

    @pytest.mark.parametrize("name", KEPT_SUM_INPUTS)
    def test_stars_and_arms(self, name, kept_sum_cases):
        f, budget, _ = kept_sum_cases[name]
        star, _ = ladder_star(f)
        self.assert_as_constructed(star)
        for node in ladder_decompose(f, budget, 0.0).order:
            self.assert_as_constructed(node.star)
            for arm in arm_split(node.star):
                self.assert_as_constructed(arm)
        # f scaled to a peak of exactly 1 is a plateau on its peak node
        t = int(np.argmax(f.values))
        g = f.with_values(f.values / f.values[t])
        x = float(g.x[t])
        self.assert_as_constructed(skorokhod_star(g, x, x, 2.0 * f.n_nodes
                                                  * f.step))

    def test_the_zero_root_star(self):
        z = GridFunction(0.0, 0.5, np.zeros(5))
        self.assert_as_constructed(ladder_decompose(z).root.star)

    def test_a_star_origin_past_the_float_range_is_refused(self):
        # the child's star starts at node 2, x = 2e308, which overflows
        f = GridFunction(0.0, 1e308, [0.0, 2.0, 0.5, 1.0, 0.0])
        with np.errstate(over="ignore"):
            root, child = ladder_decompose(f).order
        assert root.star.origin == 0.0
        with pytest.raises(ValueError, match="origin must be finite"):
            child.star


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
            m = float(np.max(np.abs(h.values)))
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

    def test_fine_grid_past_the_node_limit_rejected(self):
        # depth n_hi samples at step 2^-(n_hi + 4), 4 steps of padding per
        # side: a support MAX_GRID_NODES - 8 steps long is one node too many
        n_hi = int(math.log2(MAX_GRID_NODES)) - 4
        width = (MAX_GRID_NODES - 8) * 2.0 ** -(n_hi + 4)
        f = GridFunction(0.0, width, np.array([0.0, 1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="exceeds the limit"):
            step_rate_experiment(f, 0.5, n_hi, n_hi)


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
