"""The library's bad-input contract and the node grid of every builder.

Every exported callable that takes a step, size, count or depth refuses a
bad value with ValueError before it allocates; the transforms refuse a
frequency that is not finite, or whose phase xi x on the grid is not; a real
parameter refuses a boolean, and the scale anchor and the contraction level
refuse NaN and infinities.  The
table runs in one subprocess under a 1 GiB address-space cap with one BLAS
thread, so a missing guard fails fast with MemoryError (or shows as another
error) instead of allocating tens of GiB; each case is reported as its own
test.

Every builder takes its nodes from ``grids.grid_nodes``; the pins below fix
each one's node count and first and last node on fixed inputs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracform.energy
import fracform.ladder
from fracform import (FatCantorSpec, GridFunction, IntervalSet, PlateauSpec,
                      StepFunction, build_fat_cantor, bv_fourier_bound_check,
                      calibrate_c_of_alpha, capacity_estimate, compose_scale,
                      concentration_test, discrete_fourier,
                      epsilon_contraction, fourier_energy,
                      fourier_gagliardo_ratio, ladder_decompose, make_plateau,
                      scale_from_open_set, snap_to_dyadic_step,
                      step_rate_experiment, transform_at)
from fracform.cli import main
from fracform.energy import EnergyParams
from fracform.grids import MAX_GRID_NODES, grid_nodes, grid_size
from fracform.verify import sample_multibump

from conftest import SINGLE_THREAD, _cap_address_space, sample_bump

# the support (0.25, 0.5): 2^(n-2) dyadic cells at depth n
TENT = GridFunction(0.0, 0.25, [0.0, 1.0, 1.0, 0.0])

STEPS = {"zero": 0.0, "negative": -0.25, "nan": math.nan, "inf": math.inf,
         "tiny": 1e-12}
# 10^10 frequencies, pad nodes or tree steps; 2^-(10^9) underflows to 0
COUNTS = {"zero": 0, "negative": -3, "nan": math.nan, "inf": math.inf,
          "bool": True, "fraction": 2.5, "whole-float": 4.0,
          "huge": 10 ** 10}
DEPTHS = {**COUNTS, "huge": 10 ** 9, "past-float-range": 1100}
# NaN and inf gave NaN amplitudes with RuntimeWarnings
FREQUENCIES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# a real parameter refuses booleans, as EnergyParams does: True was read as 1
BOOLEANS = {"bool": True, "numpy-bool": np.bool_(True)}


def _scale():
    return scale_from_open_set(IntervalSet.real_line())


def _bump():
    return sample_bump(0.0, 0.25, step=1.0 / 64.0)


def _tree():
    return ladder_decompose(sample_bump(0.0, 1.0, step=1.0 / 64.0))


# name -> (bad values, call taking one)
CALLS = {
    "from_callable-step": (STEPS, lambda v: GridFunction.from_callable(
        np.cos, 0.0, 1.0, v)),
    # pad=0 is valid: no zero nodes added
    "from_callable-pad": ({k: v for k, v in COUNTS.items() if k != "zero"},
                          lambda v: GridFunction.from_callable(
                              np.cos, 0.0, 1.0, 0.25, pad=v)),
    "StepFunction.sample-step": (STEPS, lambda v: StepFunction(
        np.array([0.0, 1.0]), np.array([1.0])).sample(v)),
    "snap_to_dyadic_step-depth": (DEPTHS,
                                  lambda v: snap_to_dyadic_step(TENT, v)),
    # one support node: its one dyadic cell passes the node limit at any
    # depth, but 2^-60 is below the float spacing at 0.25 and 0.25 * 2^1030
    # overflows
    "snap_to_dyadic_step-depth-one-node": (
        {"below-float-spacing": 60, "past-float-range": 1030},
        lambda v: snap_to_dyadic_step(GridFunction(0.0, 0.25, [0, 1, 0]), v)),
    "make_plateau-step": (STEPS, lambda v: make_plateau(
        PlateauSpec(0.0, 1.0, 0.5), v)),
    "compose_scale-step": (STEPS, lambda v: compose_scale(
        _bump(), _scale(), (-1.0, 1.0), step=v)),
    "capacity_estimate-step": (STEPS, lambda v: capacity_estimate(
        IntervalSet.of((-0.1, 0.1)), 0.5, (-2.0, 2.0), v)),
    "concentration_test-step": (STEPS, lambda v: concentration_test(
        IntervalSet.of((-0.1, 0.1)), 0.5, (-0.5, 0.5), v)),
    "capacity_estimate-alpha_star": (BOOLEANS, lambda v: capacity_estimate(
        IntervalSet.of((-0.1, 0.1)), v, (-2.0, 2.0), 0.125)),
    "concentration_test-alpha_star": (BOOLEANS, lambda v: concentration_test(
        IntervalSet.of((-0.1, 0.1)), v, (-0.5, 0.5), 0.125)),
    # NaN gave NaN values and inf gave -inf
    "scale_from_open_set-anchor": (FREQUENCIES, lambda v: scale_from_open_set(
        IntervalSet.real_line(), v)),
    # NaN gave NaN samples and inf the zero function
    "epsilon_contraction-eps": (FREQUENCIES,
                                lambda v: epsilon_contraction(TENT, v)),
    "step_rate_experiment-n_lo": (DEPTHS, lambda v: step_rate_experiment(
        TENT, 0.5, v, 4)),
    "step_rate_experiment-n_hi": (DEPTHS, lambda v: step_rate_experiment(
        TENT, 0.5, 2, v)),
    "discrete_fourier-n_freq": (COUNTS, lambda v: discrete_fourier(
        TENT, 64.0, v)),
    "fourier_energy-n_freq": (COUNTS, lambda v: fourier_energy(
        _bump(), EnergyParams(alpha=0.5), 64.0, v)),
    "fourier_gagliardo_ratio-n_freq": (COUNTS,
                                       lambda v: fourier_gagliardo_ratio(
                                           _bump(), EnergyParams(alpha=0.5),
                                           64.0, v)),
    # a node budget allocates nothing: any positive integer is valid
    # (test_huge_node_budget_is_valid)
    "ladder_decompose-max_nodes": (
        {k: v for k, v in COUNTS.items() if k != "huge"},
        lambda v: ladder_decompose(_bump(), max_nodes=v)),
    "ladder_decompose-sup_tol": (BOOLEANS,
                                 lambda v: ladder_decompose(_bump(), 8, v)),
    "build_fat_cantor-n_intervals": (COUNTS, lambda v: build_fat_cantor(
        FatCantorSpec(alpha=1.5, budget=0.1), v)),
    "LadderTree.partial_sum-k": (COUNTS, lambda v: _tree().partial_sum(v)),
    "transform_at-xi": (FREQUENCIES, lambda v: transform_at(TENT, [1.0, v])),
    # a finite frequency whose phase xi x overflows at the grid's end x = 6
    "transform_at-xi-phase": ({"overflow": 1e308}, lambda v: transform_at(
        GridFunction(0.0, 2.0, [0.0, 1.0, 1.0, 0.0]), [1.0, v])),
    # the tent has values in [0, 1] and total variation 2
    "bv_fourier_bound_check-xi": (
        FREQUENCIES, lambda v: bv_fourier_bound_check(TENT, [-2.0, 1.0, v])),
}

CASES = sorted(f"{name}[{label}]" for name, (values, _) in CALLS.items()
               for label in values)


def outcomes() -> dict:
    """Case id -> the name of the exception it raised, or "returned"."""
    out = {}
    for name, (values, call) in CALLS.items():
        for label, value in values.items():
            try:
                call(value)
                out[f"{name}[{label}]"] = "returned"
            except Exception as exc:                   # noqa: BLE001
                out[f"{name}[{label}]"] = f"{type(exc).__name__}: {exc}"
    return out


@pytest.fixture(scope="module")
def capped_outcomes():
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    code = ("import json, test_bad_inputs\n"
            "print(json.dumps(test_bad_inputs.outcomes()))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env={**os.environ, **SINGLE_THREAD,
                               "PYTHONPATH": path},
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("case", CASES)
def test_bad_value_raises_value_error(case, capped_outcomes):
    assert capped_outcomes[case].startswith("ValueError: "), \
        capped_outcomes[case]


def test_huge_node_budget_is_valid():
    tree = ladder_decompose(_bump(), max_nodes=10 ** 10)
    assert tree.converged and tree.n_nodes == 1


class TestGridNodes:
    def test_anchored_at_lo_rounding_the_count(self):
        x = grid_nodes(-1.5, 1.5, 0.003)
        assert x.size == 1001 and x[0] == -1.5
        assert np.array_equal(x, -1.5 + 0.003 * np.arange(1001))
        # (hi - lo) / step = 7.5 rounds to the even 8: a node past hi
        assert grid_nodes(-1.5, 1.5, 0.4)[-1] == pytest.approx(1.7)
        assert grid_nodes(0.0, 1.0, 0.3).size == 4
        assert grid_size(0.0, 1.0, 0.3) == 4

    def test_limit_is_inclusive(self):
        step = 1.0 / (MAX_GRID_NODES - 1)
        assert grid_size(0.0, 1.0, step) == MAX_GRID_NODES
        with pytest.raises(ValueError, match="exceeds the limit"):
            grid_size(0.0, 1.0, 1.0 / MAX_GRID_NODES)

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (math.nan, 1.0),
                                        (0.0, math.nan), (math.inf, math.inf)])
    def test_ends_without_nodes_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="no nodes"):
            grid_nodes(lo, hi, 0.25)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, 1e308),
                                        (-1e308, 1e308)])
    def test_unbounded_grids_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="exceeds the limit"):
            grid_nodes(lo, hi, 0.25)


def _spy(monkeypatch, module):
    """Record every grid that ``module`` builds through grid_nodes."""
    grids = []

    def recording(lo, hi, step):
        grids.append(grid_nodes(lo, hi, step))
        return grids[-1]
    monkeypatch.setattr(module, "grid_nodes", recording)
    return grids


def _ends(x) -> tuple:
    return x.size, float(x[0]), float(x[-1])


class TestNodesPerSite:
    def test_from_callable(self):
        seen = []
        f = GridFunction.from_callable(
            lambda x: (seen.append(x), np.ones_like(x))[1], 0.0, 1.0, 0.1,
            pad=2)
        assert _ends(seen[0]) == (11, 0.0, 1.0)
        assert (f.n_nodes, f.origin) == (15, -0.2)

    @pytest.mark.parametrize("step, n, last", [
        # 1/0.3 cells: the old count, ceil + 10, gave 14 nodes to 2.7
        (0.3, 12, 2.0999999999999996),
        # 4 cells: the old count gave 14 nodes to 2.25
        (0.25, 13, 2.0)])
    def test_step_function_sample(self, step, n, last):
        f = StepFunction(np.array([0.0, 1.0]), np.array([1.0])).sample(step)
        assert _ends(f.x) == (n, -4.0 * step, last)
        # the trailing nodes the count dropped were zero padding
        assert f.values[-4:].tolist() == [0.0] * 4

    def test_make_plateau(self):
        # the 71st node of [-0.6, 0.1] lands 1e-16 past b + rho = 0.1; it
        # stays the right foot, as it did before
        f = make_plateau(PlateauSpec(-0.5, 0.0, 0.1), 0.01)
        assert _ends(f.x) == (79, -0.64, 0.14)
        assert f.values[-5] == 0.0 and f.values[-6] > 0.0

    def test_snap_to_dyadic_step(self):
        assert _ends(snap_to_dyadic_step(TENT, 3).breakpoints) == \
            (3, 0.25, 0.5)

    def test_compose_scale(self):
        f = sample_bump(0.0, 0.25, step=1.0 / 128.0)
        comp = compose_scale(f, _scale(), (-1.0, 1.0))
        assert _ends(comp.function.x) == (257, -1.0, 1.0)

    def test_capacity_estimate(self):
        # round(4 / 0.0123) = 325 cells of the fitted step 4/325
        est = capacity_estimate(IntervalSet.of((-0.1, 0.1)), 0.5,
                                (-2.0, 2.0), 0.0123)
        assert est.resolution == 4.0 / 325.0
        assert _ends(est.equilibrium.x) == (328, -2.0123076923076924,
                                            2.0123076923076924)

    @pytest.mark.parametrize("width, n", [
        # f's ramps span [0, 0.75], past the depth-2 cells [0.25, 0.5]: 96
        # fine steps plus the pad; the window cut at the nonzero nodes,
        # [0.25 - pad, 0.5 + pad], had 41 nodes
        (0.25, 105),
        # the ramps end at 0.9: 123.2 fine steps (the cut window had 47)
        (0.3, 124),
        # the depth-2 cells [0, 0.25] reach past the ramps' end 3/16
        (1 / 16, 41)])
    def test_step_rate_fine_grid(self, monkeypatch, width, n):
        grids = _spy(monkeypatch, fracform.ladder)
        f = GridFunction(0.0, width, [0.0, 1.0, 1.0, 0.0])
        step_rate_experiment(f, 0.5, 2, 3)
        fine = 2.0 ** -7
        assert _ends(grids[0]) == (n, -4 * fine, -4 * fine + (n - 1) * fine)

    def test_calibration_reference_bump(self, monkeypatch):
        # the bump is built once per process: rebuild it under the spy
        fracform.energy._reference_bump.cache_clear()
        grids = _spy(monkeypatch, fracform.energy)
        calibrate_c_of_alpha(EnergyParams(alpha=0.5))
        assert _ends(grids[0]) == (513, -1.0, 1.0)

    def test_sample_multibump(self):
        f = sample_multibump([(0.5, 0.1, 1.0)], 1.0 / 512.0, 0.05, 0.95)
        assert _ends(f.x) == (462, 0.05, 0.05 + 461.0 / 512.0)

    @pytest.mark.parametrize("step, n, last", [
        ("0.00390625", 769, "1.5"),
        # numpy's arange to half a step past 1.5 gave 8 nodes to 1.3
        ("0.4", 9, "1.7")])
    def test_cli_scale(self, tmp_path, capsys, step, n, last):
        assert main(["scale", "--step", step, "--out-dir",
                     str(tmp_path)]) == 0
        rows = (tmp_path / "scale.csv").read_text().splitlines()
        assert len(rows) == n
        assert rows[0].split(",")[0] == "-1.5"
        assert rows[-1].split(",")[0] == last
