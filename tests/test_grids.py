import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracform.grids import (GridFunction, IntervalSet, PlateauSpec,
                            StepFunction, epsilon_contraction,
                            l2_norm_sq_of_samples, make_plateau,
                            snap_to_dyadic_step)

from conftest import SINGLE_THREAD, _cap_address_space, indicator, \
    sample_bump


class TestGridFunction:
    def test_support_tracking(self):
        f = GridFunction(0.0, 0.5, [0.0, 0.0, 1.0, 2.0, 0.0])
        assert (f.support_lo, f.support_hi) == (2, 3)
        assert f.support_interval() == (1.0, 1.5)
        assert GridFunction(0.0, 1.0, [0.0, 0.0]).is_zero
        # the support is read from the samples; it cannot be passed in
        with pytest.raises(TypeError):
            GridFunction(0.0, 1.0, [0.0, 1.0, 0.0], 5, 7)

    @pytest.mark.parametrize("vals", [
        [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0], [-2.0, 0.0, 0.0, 5e-324], [0.0, math.nan, 0.0],
        [math.nan, -0.0, math.nan], [-0.0, 1.0, -0.0, 2.0, -0.0],
        [0.0, math.inf, -math.inf, 0.0]],
        ids=["all-zero", "signed-zeros", "left-end", "right-end",
             "both-ends", "nan-inside", "nan-at-the-ends",
             "negative-zero-margins", "infinities"])
    def test_support_indices_match_nonzero(self, vals):
        # NaN counts as nonzero and -0.0 as zero, as for np.nonzero
        nz = np.nonzero(np.array(vals))[0]
        want = (int(nz[0]), int(nz[-1])) if nz.size else (-1, -1)
        f = GridFunction(0.0, 0.5, vals)
        assert (f.support_lo, f.support_hi) == want

    def test_eval_interpolates_and_vanishes_outside(self):
        f = GridFunction(0.0, 1.0, [0.0, 2.0, 0.0])
        assert f(0.5) == 1.0
        assert f(-3.0) == 0.0
        assert f(7.0) == 0.0

    def test_l2_exact_for_linear_pieces(self):
        f = GridFunction(0.0, 1.0, [0.0, 1.0, 0.0])
        # int over the unit triangle of height 1: 2 * int_0^1 t^2 dt = 2/3
        assert f.l2_norm_sq() == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_aligned_binary_ops(self):
        f = GridFunction(0.0, 0.5, [0.0, 1.0, 0.0])
        g = GridFunction(1.0, 0.5, [0.0, 2.0, 0.0])
        s = f + g
        assert s(0.5) == 1.0 and s(1.5) == 2.0
        with pytest.raises(ValueError):
            f + GridFunction(0.25, 0.5, [0.0, 1.0, 0.0])

    def test_json_csv_roundtrip(self):
        f = sample_bump(step=1.0 / 16.0)
        g = GridFunction.from_json_dict(f.to_json_dict())
        assert np.array_equal(g.values, f.values)
        h = GridFunction.from_csv(f.to_csv())
        assert np.allclose(h.values, f.values, atol=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 0.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, [1.0])

    @pytest.mark.parametrize("step", [1.0 / 64.0, 1.0 / 512.0])
    def test_autocorrelation_memo_is_read_only_and_not_inherited(self, step):
        # 137 and 1033 nodes: the direct and the FFT correlation
        f = sample_bump(step=step)
        c = f.increment_autocorr
        assert f.increment_autocorr is c
        assert not c.flags.writeable and c.base is None
        with pytest.raises(ValueError):
            c[0] = 0.0
        assert f.finite() and f.l2_norm_sq() > 0.0
        zero = f.scaled(0.0)
        for g in (f.with_values(f.values), f.scaled(1.0), f.trimmed(),
                  dataclasses.replace(f), f + zero, f - zero):
            assert not {"increment_autocorr", "_l2_norm_sq",
                        "_finite"} & vars(g).keys()
            assert g.increment_autocorr is not c
            assert np.array_equal(g.increment_autocorr, c)

    @pytest.mark.parametrize("vals", [
        [0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0], [0.0, 3.0], [0.0, 1.0, 0.0]],
        ids=["inside", "at-the-left-end", "zero", "two-nodes", "one-node"])
    @pytest.mark.parametrize("margin", [0, 1, 2])
    def test_support_values_view_the_trimmed_samples(self, vals, margin):
        f = GridFunction(0.5, 0.25, vals)
        view = f.support_values(margin)
        assert np.shares_memory(view, f.values) and not view.flags.writeable
        assert np.array_equal(view, f.trimmed(margin).values)

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf])
    def test_kept_scalars_match_the_samples(self, rng, bad):
        vals = rng.normal(size=257)
        if bad is not None:
            vals[100] = bad
        f = GridFunction(0.0, 0.01, vals)
        with np.errstate(invalid="ignore"):
            want = l2_norm_sq_of_samples(vals, 0.01)
            assert f.l2_norm_sq() == want or math.isnan(want) \
                and math.isnan(f.l2_norm_sq())
        assert f.finite() is bool(np.isfinite(vals).all())
        assert {"_l2_norm_sq", "_finite"} <= vars(f).keys()


class TestEpsilonContraction:
    def test_full_contraction_gives_exact_zero(self):
        h = sample_bump(height=0.8)
        out = epsilon_contraction(h, 1.0)
        assert out.is_zero

    def test_zero_eps_is_identity(self):
        h = sample_bump()
        out = epsilon_contraction(h, 0.0)
        assert np.array_equal(out.values, h.values)

    def test_plateau_height_two(self):
        f = make_plateau(PlateauSpec(0.0, 1.0, 0.5), 1.0 / 64.0).scaled(2.0)
        out = epsilon_contraction(f, 1.0)
        assert out.linf() == pytest.approx(1.0, abs=1e-15)
        # the band |h| <= 1 is removed pointwise
        assert np.array_equal(out.values, np.maximum(f.values - 1.0, 0.0))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            epsilon_contraction(sample_bump(), -0.1)

    def test_sign_preserved(self):
        h = GridFunction(0.0, 1.0, [0.0, -2.0, 3.0, 0.0])
        out = epsilon_contraction(h, 1.0)
        assert list(out.values) == [0.0, -1.0, 2.0, 0.0]

    def test_normal_contraction_property(self, rng):
        # |h_eps(x) - h_eps(y)| <= |h(x) - h(y)| at all node pairs
        for _ in range(100):
            n = 40
            vals = np.zeros(n)
            vals[1:-1] = rng.normal(size=n - 2)
            h = GridFunction(0.0, 0.1, vals)
            out = epsilon_contraction(h, float(rng.uniform(0.0, 1.5)))
            dh = np.abs(h.values[:, None] - h.values[None, :])
            dc = np.abs(out.values[:, None] - out.values[None, :])
            assert np.all(dc <= dh + 1e-15)


class TestMakePlateau:
    def test_linear_trapezoid_knots(self):
        f = make_plateau(PlateauSpec(0.0, 1.0, 0.5), 1.0 / 64.0)
        for x, v in ((-0.5, 0.0), (-0.25, 0.5), (0.0, 1.0), (0.5, 1.0),
                     (1.0, 1.0), (1.25, 0.5), (1.5, 0.0)):
            assert f(x) == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("profile", ["linear", "smooth", "concave"])
    def test_total_variation_two(self, profile):
        # monotone ramps hit exact 0 and exact 1, so the interpolant's total
        # variation is 2; the float sum of increments rounds at ~1e-16
        f = make_plateau(PlateauSpec(-0.3, 0.9, 0.37, profile), 1.0 / 128.0)
        assert f.total_variation() == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("profile", ["linear", "smooth", "concave"])
    def test_membership(self, profile):
        spec = PlateauSpec(0.0, 1.0, 0.25, profile)
        f = make_plateau(spec, 1.0 / 128.0)
        x = f.x
        assert np.all(f.values[(x >= 0.0) & (x <= 1.0)] == 1.0)
        assert np.all(f.values[(x <= -0.25) | (x >= 1.25)] == 0.0)
        up = f.values[(x > -0.25) & (x <= 0.0 + 1e-12)]
        assert np.all(np.diff(up) >= 0)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            make_plateau(PlateauSpec(0.0, 1.0, 0.01), 0.01)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            PlateauSpec(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            PlateauSpec(0.0, 1.0, 0.5, "cubic")

    # NaN or inf rho and infinite ends were accepted, and make_plateau then
    # failed with a misleading grid message
    @pytest.mark.parametrize("a, b, rho", [
        (0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (-math.inf, 1.0, 0.5),
        (0.0, math.inf, 0.5), (-math.inf, math.inf, 0.5),
        (math.nan, 1.0, 0.5), (0.0, math.nan, 0.5)])
    def test_nonfinite_spec_rejected(self, a, b, rho):
        with pytest.raises(ValueError, match="finite"):
            PlateauSpec(a, b, rho)


class TestSnapToDyadic:
    def test_zero_function_empty(self):
        f = GridFunction(0.0, 1.0, [0.0, 0.0, 0.0])
        st_fn = snap_to_dyadic_step(f, 3)
        assert st_fn.is_zero and st_fn.breakpoints.size == 0

    def test_triangle_depth_one(self):
        f = GridFunction.from_callable(
            lambda x: np.clip(1.0 - np.abs(2.0 * x - 1.0), 0.0, None),
            0.0, 1.0, 1.0 / 64.0, pad=2)
        st_fn = snap_to_dyadic_step(f, 1)
        assert np.allclose(st_fn.breakpoints, [0.0, 0.5, 1.0])
        assert np.allclose(st_fn.levels, [f(0.0), f(0.5)])

    def test_sup_error_bound_and_halving(self, rng):
        for _ in range(10):
            c = float(rng.uniform(0.2, 0.8))
            w = float(rng.uniform(0.25, 0.45))
            f = sample_bump(c, w, height=float(rng.uniform(0.5, 2.0)),
                            step=1.0 / 1024.0)
            lip = f.lipschitz()
            xs = np.linspace(c - w - 0.05, c + w + 0.05, 16001)
            errors = []
            for n in (6, 7, 8):
                approx = snap_to_dyadic_step(f, n)
                err = float(np.max(np.abs(f(xs) - approx(xs))))
                assert err <= lip / 2.0 ** n + 1e-12
                errors.append(err)
            for e1, e2 in zip(errors[:-1], errors[1:]):
                assert 0.45 * e1 <= e2 <= 0.55 * e1

    # the support (0.25, 0.5) has 2^(n-2) dyadic cells at depth n: 2^22 + 1
    # breakpoints at depth 24, one past MAX_GRID_NODES, and 64 GiB of them
    # at depth 35
    TENT = GridFunction(0.0, 0.25, [0.0, 1.0, 1.0, 0.0])

    def test_depth_past_the_node_limit_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            snap_to_dyadic_step(self.TENT, 24)

    def test_deep_snap_rejected_before_allocating(self):
        # under a 1 GiB address-space cap a missing guard is a MemoryError
        code = ("from fracform.grids import GridFunction, "
                "snap_to_dyadic_step\n"
                "try:\n"
                "    snap_to_dyadic_step(GridFunction(0.0, 0.25, "
                "[0.0, 1.0, 1.0, 0.0]), 35)\n"
                "except ValueError as e:\n"
                "    print(f'ValueError: {e}')\n")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={**os.environ, **SINGLE_THREAD},
                             preexec_fn=_cap_address_space)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("ValueError: a grid of"), out.stdout


class TestStepFunction:
    def test_left_open_right_closed(self):
        s = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        assert s(0.0) == 0.0
        assert s(0.5) == 1.0
        assert s(1.0) == 1.0
        assert s(1.0 + 1e-12) == 0.0

    def test_l2_and_tv(self):
        s = StepFunction(np.array([0.0, 1.0, 3.0]), np.array([2.0, -1.0]))
        assert s.l2_norm_sq() == pytest.approx(4.0 + 2.0)
        assert s.total_variation() == pytest.approx(2.0 + 3.0 + 1.0)

    def test_sample_ramps_over_one_cell(self):
        s = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        f = s.sample(1.0 / 8.0)
        assert f(0.5) == 1.0
        assert f(-0.5) == 0.0
        assert f.total_variation() == pytest.approx(2.0)

    @pytest.mark.parametrize("step", [1e-9, 2.0 ** -22, 0.0, -1.0, math.nan])
    def test_sample_past_the_node_limit_rejected(self, step):
        # 2^22 cells plus padding, or 1e9 cells (7.45 GiB), or no grid at all
        s = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="grid"):
            s.sample(step)


class TestIntervalSet:
    def test_normalization_merges_overlaps_only(self):
        s = IntervalSet.of((0.0, 2.0), (1.0, 3.0), (4.0, 5.0), (5.0, 6.0))
        assert s.intervals == ((0.0, 3.0), (4.0, 5.0), (5.0, 6.0))

    def test_measure_between_matches_brute_force(self, rng):
        s = IntervalSet.of((-math.inf, -1.0), (-0.3, 0.1), (0.5, 0.8),
                           (2.0, math.inf))
        xs = np.linspace(-3.0, 3.0, 200001)
        ind = indicator(s, xs)
        for _ in range(50):
            a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
            brute = float(np.sum(ind[(xs >= a) & (xs <= b)])) * (xs[1] - xs[0])
            assert s.measure_between(a, b) == pytest.approx(brute, abs=2e-4)

    def test_complement_within(self):
        s = IntervalSet.of((0.2, 0.4), (0.6, 0.7))
        gaps = s.complement_within((0.0, 1.0))
        assert gaps.intervals == ((0.0, 0.2), (0.4, 0.6), (0.7, 1.0))

    def test_intersect(self):
        a = IntervalSet.of((0.0, 2.0), (3.0, 4.0))
        b = IntervalSet.of((1.0, 3.5))
        assert a.intersect(b).intervals == ((1.0, 2.0), (3.0, 3.5))

    def test_json_sentinels(self):
        s = IntervalSet.of((-math.inf, -1.0), (0.0, 1.0), (2.0, math.inf))
        data = s.to_json_list()
        assert data[0][0] == "-inf" and data[-1][1] == "inf"
        assert IntervalSet.from_json_list(data) == s

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_normalization_invariants(self, pairs):
        s = IntervalSet(tuple(pairs))
        for (lo, hi) in s.intervals:
            assert lo < hi
        for (a, b), (c, d) in zip(s.intervals, s.intervals[1:]):
            assert b <= c


# -- loader fuzz: random text and random JSON trees ---------------------------

NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.sampled_from(["", " ", "x", "1e400", "-1e400", "5e-324", "1_0",
                     "infinity", "0x10"]))
CSV_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.lists(NUMBER_TEXT, max_size=3).map(",".join),
             max_size=6).map("\n".join),
    # uniform grids with extreme origins and steps
    st.builds(lambda o, h, vs: "\n".join(f"{o + h * i!r},{v!r}"
                                         for i, v in enumerate(vs)),
              st.floats(-1e308, 1e308), st.floats(-1e308, 1e308),
              st.lists(st.floats(), min_size=2, max_size=5)))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400), st.floats(),
    st.text(max_size=6), st.sampled_from(["inf", "-inf", "nan", "1e400"]))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=16)
GRID_JSON = st.one_of(
    JSON_TREES,
    st.fixed_dictionaries({"origin": JSON_LEAVES, "step": JSON_LEAVES,
                           "values": st.one_of(JSON_TREES,
                                               st.lists(JSON_LEAVES,
                                                        max_size=6))}))
INTERVAL_JSON = st.one_of(
    JSON_TREES, st.lists(st.lists(JSON_LEAVES, max_size=3), max_size=5))


def _value_or_value_error(load, data, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = load(data)
        except ValueError:
            return
    assert isinstance(out, kind), data


@given(text=CSV_TEXT)
@settings(max_examples=300, deadline=None)
def test_csv_loader_fuzz_returns_function_or_value_error(text):
    _value_or_value_error(GridFunction.from_csv, text, GridFunction)


@given(data=GRID_JSON)
@settings(max_examples=300, deadline=None)
def test_json_grid_loader_fuzz_returns_function_or_value_error(data):
    _value_or_value_error(GridFunction.from_json_dict, data, GridFunction)


@given(data=INTERVAL_JSON)
@settings(max_examples=300, deadline=None)
def test_json_interval_loader_fuzz_returns_set_or_value_error(data):
    _value_or_value_error(IntervalSet.from_json_list, data, IntervalSet)
