"""The library's bad-input contract and the node grid of every builder.

Every exported callable that takes a step, size, count or depth refuses a
bad value with ValueError before it allocates; the transforms refuse a
frequency that is not finite, or whose phase xi x on the grid is not; the
scale anchor and the contraction level refuse NaN and infinities.  Each
kind of parameter has one gate in ``grids``, which names the parameter in
its ValueError:

- a real parameter (each one annotated ``float`` of an exported callable,
  the ends of an interval and the position and mass of a Levy atom) goes
  through ``grids.real_number``, which refuses a bool, a numpy bool and a
  numpy array of any shape, 0-d included;
- a count, size, depth or index (each parameter annotated ``int``) goes
  through ``grids.count``, which refuses a bool, a float (a whole one too)
  and a value out of its range;
- a window or domain (each parameter annotated ``tuple[float, float]``)
  goes through ``grids.window``: exactly two real numbers, both finite,
  with lo < hi.  The set algebra's windows (``IntervalSet.complement_within``
  and ``intersect_window``) take infinite ends but refuse NaN and reversed
  ones.

The ``test_every_*_is_gated`` sweeps walk the exported signatures and keep
a case here for each such parameter.  The table runs in one subprocess
under a 1 GiB address-space cap with one BLAS thread, so a missing guard
fails fast with MemoryError (or shows as another error) instead of
allocating tens of GiB; each case is reported as its own test.

Every builder takes its nodes from ``grids.grid_nodes``; the pins below fix
each one's node count and first and last node on fixed inputs.
"""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracform
import fracform.ladder
from fracform import (FatCantorSpec, GridFunction, IntervalSet, LevyTriplet,
                      PlateauSpec, PowerLawDensity, ScaleFunction,
                      StepFunction, build_fat_cantor, bv_fourier_bound_check,
                      capacity_estimate, compose_scale,
                      concentration_test, discrete_fourier,
                      epsilon_contraction, fourier_energy,
                      fourier_gagliardo_ratio, gagliardo_energy,
                      growth_exponent_fit, hardy_boundary_identity,
                      indicator_energy_closed_form, ladder_decompose,
                      levy_indicator_energy, levy_symbol, make_plateau,
                      plateau_energy_bound_check,
                      scale_from_open_set, skorokhod_star,
                      snap_to_dyadic_step, step_rate_experiment, transform_at)
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
# the COUNTS labels that the count gate refuses by type, naming the parameter
COUNT_TYPES = ("nan", "inf", "bool", "fraction", "whole-float")
# per parameter, the COUNTS labels that are valid values there, and why
VALID_COUNTS = {
    "from_callable-pad": {"zero": "no zero nodes added"},
    "gagliardo_energy-refine_levels": {"zero": "an empty trace"},
    "GridFunction.trimmed-margin": {
        "zero": "the support alone",
        "huge": "a margin past the grid keeps the whole window"},
    "GridFunction.support_values-margin": {
        "zero": "the support alone",
        "huge": "a margin past the grid keeps the whole window"},
    # test_huge_node_budget_is_valid
    "ladder_decompose-max_nodes": {"huge": "a node budget allocates nothing"},
    "FatCantorSpec.radius-i": {"huge": "the radius underflows to 0"},
    "ScaleFunction-density_depth": {
        "zero": "a certificate at depth 0",
        "huge": "a recorded depth allocates nothing"},
}


def counts(key) -> dict:
    """COUNTS without the labels that are valid for the parameter ``key``."""
    return {k: v for k, v in COUNTS.items()
            if k not in VALID_COUNTS.get(key, {})}


DEPTHS = {**COUNTS, "huge": 10 ** 9, "past-float-range": 1100}
# NaN and inf gave NaN amplitudes with RuntimeWarnings
FREQUENCIES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# every real parameter refuses these: True was read as 1, and an array
# passed the range checks and was stored or computed with as the array
NON_SCALARS = {"bool": True, "numpy-bool": np.bool_(True),
               "one-element-array": np.array([1.5]),
               "zero-d-array": np.array(0.5)}
# a string atom was unpacked digit by digit, a string coordinate went
# through float() and bytes unpacked to character codes
ATOMS = {"string": "12", "bytes": b"12", "string-mass": (0.5, "2"),
         "string-position": ("1", 2.0),
         "array-position": (np.array([1.0]), 1.0),
         "boolean-position": (True, 1.0), "three-numbers": (1.0, 2.0, 3.0)}
# every window or domain refuses these: True was read as 1.0, an array end
# raised TypeError, and NaN or reversed ends ran on a wrong window or
# certified a set that is not dense as strictly increasing
WINDOWS = {"bool-end": (-0.5, True), "numpy-bool-end": (-0.5, np.True_),
           "one-element-array-end": (-0.5, np.array([0.5])),
           "nan-end": (math.nan, 0.5), "reversed": (0.5, -0.5),
           "three-tuple": (-0.5, 0.0, 0.5)}


def _scale():
    return scale_from_open_set(IntervalSet.real_line())


def _bump():
    return sample_bump(0.0, 0.25, step=1.0 / 64.0)


def _tree():
    return ladder_decompose(sample_bump(0.0, 1.0, step=1.0 / 64.0))


def _plateau():
    return make_plateau(PlateauSpec(0.0, 1.0, 0.5), 0.125)


# one atom of mass 1 at x = 1: finite variation, no Gaussian part
ATOM = LevyTriplet(atoms=((1.0, 1.0),))


def _symbol():
    return levy_symbol(LevyTriplet(density=PowerLawDensity(1.5)),
                       np.linspace(0.1, 100.0, 64))


# result records: the library fills their fields from what it computed
RESULT_RECORDS = {name: "a result record, built from computed values"
                  for name in ("CapacityEstimate", "Composition",
                               "EnergyReport", "GrowthFit")}


# name -> (bad values, call taking one)
CALLS = {
    "from_callable-step": ({**STEPS, **NON_SCALARS},
                           lambda v: GridFunction.from_callable(
                               np.cos, 0.0, 1.0, v)),
    "from_callable-lo": (NON_SCALARS, lambda v: GridFunction.from_callable(
        np.cos, v, 2.0, 0.25)),
    "from_callable-hi": (NON_SCALARS, lambda v: GridFunction.from_callable(
        np.cos, 0.0, v, 0.25)),
    "from_callable-pad": (counts("from_callable-pad"),
                          lambda v: GridFunction.from_callable(
                              np.cos, 0.0, 1.0, 0.25, pad=v)),
    "GridFunction.trimmed-margin": (counts("GridFunction.trimmed-margin"),
                                    lambda v: TENT.trimmed(v)),
    "GridFunction.support_values-margin": (
        counts("GridFunction.support_values-margin"),
        lambda v: TENT.support_values(v)),
    "StepFunction.sample-step": ({**STEPS, **NON_SCALARS},
                                 lambda v: StepFunction(
                                     np.array([0.0, 1.0]),
                                     np.array([1.0])).sample(v)),
    "snap_to_dyadic_step-depth": (DEPTHS,
                                  lambda v: snap_to_dyadic_step(TENT, v)),
    # one support node: its one dyadic cell passes the node limit at any
    # depth, but 2^-60 is below the float spacing at 0.25 and 0.25 * 2^1030
    # overflows
    "snap_to_dyadic_step-depth-one-node": (
        {"below-float-spacing": 60, "past-float-range": 1030},
        lambda v: snap_to_dyadic_step(GridFunction(0.0, 0.25, [0, 1, 0]), v)),
    "make_plateau-step": ({**STEPS, **NON_SCALARS}, lambda v: make_plateau(
        PlateauSpec(0.0, 1.0, 0.5), v)),
    "plateau_energy_bound_check-step": (
        NON_SCALARS, lambda v: plateau_energy_bound_check(
            PlateauSpec(0.0, 1.0, 0.5), ATOM, v)),
    "compose_scale-step": ({**STEPS, **NON_SCALARS}, lambda v: compose_scale(
        _bump(), _scale(), (-1.0, 1.0), step=v)),
    "capacity_estimate-step": ({**STEPS, **NON_SCALARS},
                               lambda v: capacity_estimate(
                                   IntervalSet.of((-0.1, 0.1)), 0.5,
                                   (-2.0, 2.0), v)),
    "concentration_test-step": ({**STEPS, **NON_SCALARS},
                                lambda v: concentration_test(
                                    IntervalSet.of((-0.1, 0.1)), 0.5,
                                    (-0.5, 0.5), v)),
    "GridFunction-origin": (NON_SCALARS, lambda v: GridFunction(
        v, 0.25, [0.0, 1.0, 0.0])),
    "GridFunction-step": (NON_SCALARS, lambda v: GridFunction(
        0.0, v, [0.0, 1.0, 0.0])),
    # NaN gave NaN samples and inf NaN at the zero samples, with warnings
    "GridFunction.scaled-c": ({**FREQUENCIES, **NON_SCALARS},
                              lambda v: TENT.scaled(v)),
    "IntervalSet-end": (NON_SCALARS, lambda v: IntervalSet.of((v, 2.0))),
    "PlateauSpec-a": (NON_SCALARS, lambda v: PlateauSpec(v, 2.0, 0.5)),
    "PlateauSpec-b": (NON_SCALARS, lambda v: PlateauSpec(0.0, v, 0.5)),
    "PlateauSpec-rho": (NON_SCALARS, lambda v: PlateauSpec(0.0, 1.0, v)),
    "skorokhod_star-a": (NON_SCALARS, lambda v: skorokhod_star(
        _plateau(), v, 1.0, 0.5)),
    "skorokhod_star-b": (NON_SCALARS, lambda v: skorokhod_star(
        _plateau(), 0.0, v, 0.5)),
    # NaN and inf returned a function; 0 and below failed a precondition
    # that did not name rho
    "skorokhod_star-rho": ({**FREQUENCIES, **NON_SCALARS},
                           lambda v: skorokhod_star(_plateau(), 0.0, 1.0, v)),
    "capacity_estimate-alpha_star": (NON_SCALARS, lambda v: capacity_estimate(
        IntervalSet.of((-0.1, 0.1)), v, (-2.0, 2.0), 0.125)),
    "concentration_test-alpha_star": (NON_SCALARS,
                                      lambda v: concentration_test(
                                          IntervalSet.of((-0.1, 0.1)), v,
                                          (-0.5, 0.5), 0.125)),
    # NaN gave NaN values and inf gave -inf
    "scale_from_open_set-anchor": ({**FREQUENCIES, **NON_SCALARS},
                                   lambda v: scale_from_open_set(
                                       IntervalSet.real_line(), v)),
    "ScaleFunction-anchor": (NON_SCALARS, lambda v: ScaleFunction(
        IntervalSet.real_line(), v)),
    # NaN gave NaN samples and inf the zero function
    "epsilon_contraction-eps": ({**FREQUENCIES, **NON_SCALARS},
                                lambda v: epsilon_contraction(TENT, v)),
    "EnergyParams-alpha": (NON_SCALARS, lambda v: EnergyParams(v)),
    "EnergyParams-c_of_alpha": (NON_SCALARS,
                                lambda v: EnergyParams(0.5, v)),
    # True was read as alpha = 1: a divergent indicator
    "indicator_energy_closed_form-a": (
        NON_SCALARS, lambda v: indicator_energy_closed_form(v, 2.0, 0.5)),
    "indicator_energy_closed_form-b": (
        NON_SCALARS, lambda v: indicator_energy_closed_form(0.0, v, 0.5)),
    "indicator_energy_closed_form-alpha": (
        NON_SCALARS, lambda v: indicator_energy_closed_form(0.0, 1.0, v)),
    "hardy_boundary_identity-a": (
        NON_SCALARS, lambda v: hardy_boundary_identity(TENT, v, 1.0, 0.5)),
    "hardy_boundary_identity-b": (
        NON_SCALARS, lambda v: hardy_boundary_identity(TENT, 0.0, v, 0.5)),
    "hardy_boundary_identity-alpha": (
        NON_SCALARS, lambda v: hardy_boundary_identity(TENT, 0.0, 1.0, v)),
    "step_rate_experiment-alpha": (NON_SCALARS, lambda v: step_rate_experiment(
        TENT, v, 2, 3)),
    "discrete_fourier-xi_max": (NON_SCALARS,
                                lambda v: discrete_fourier(TENT, v, 64)),
    "fourier_energy-xi_max": (NON_SCALARS, lambda v: fourier_energy(
        _bump(), EnergyParams(alpha=0.5), v, 64)),
    "fourier_gagliardo_ratio-xi_max": (
        NON_SCALARS, lambda v: fourier_gagliardo_ratio(
            _bump(), EnergyParams(alpha=0.5), v, 64)),
    # NaN gave a NaN mass
    "LevyTriplet.truncated_mass-lam": ({**NON_SCALARS, "nan": math.nan},
                                       lambda v: ATOM.truncated_mass(v)),
    "levy_indicator_energy-a": (NON_SCALARS, lambda v: levy_indicator_energy(
        v, 2.0, ATOM)),
    "levy_indicator_energy-b": (NON_SCALARS, lambda v: levy_indicator_energy(
        0.0, v, ATOM)),
    "growth_exponent_fit-xi_min": (NON_SCALARS, lambda v: growth_exponent_fit(
        _symbol(), v)),
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
    "ladder_decompose-max_nodes": (
        counts("ladder_decompose-max_nodes"),
        lambda v: ladder_decompose(_bump(), max_nodes=v)),
    "gagliardo_energy-refine_levels": (
        counts("gagliardo_energy-refine_levels"),
        lambda v: gagliardo_energy(StepFunction([0.0, 1.0], [1.0]),
                                   EnergyParams(alpha=0.5),
                                   refine_levels=v)),
    "ladder_decompose-sup_tol": (NON_SCALARS,
                                 lambda v: ladder_decompose(_bump(), 8, v)),
    # True was read as 1, a valid alpha, budget, coefficient, sigma, atom
    # position and mass (a_log = 1 was refused only by its range)
    "FatCantorSpec-alpha": (NON_SCALARS, lambda v: FatCantorSpec(v, 0.1)),
    "FatCantorSpec-budget": (NON_SCALARS, lambda v: FatCantorSpec(1.5, v)),
    "FatCantorSpec-a_log": (NON_SCALARS,
                            lambda v: FatCantorSpec(1.0, 0.1, v)),
    "PowerLawDensity-alpha": (NON_SCALARS, lambda v: PowerLawDensity(v)),
    "PowerLawDensity-coefficient": (NON_SCALARS,
                                    lambda v: PowerLawDensity(0.5, v)),
    "LevyTriplet-sigma": (NON_SCALARS, lambda v: LevyTriplet(sigma=v)),
    "LevyTriplet-atom-position": (NON_SCALARS,
                                  lambda v: LevyTriplet(atoms=((v, 1.0),))),
    "LevyTriplet-atom-mass": (NON_SCALARS,
                              lambda v: LevyTriplet(atoms=((1.0, v),))),
    "LevyTriplet-atom": (ATOMS, lambda v: LevyTriplet(atoms=(v,))),
    "build_fat_cantor-n_intervals": (COUNTS, lambda v: build_fat_cantor(
        FatCantorSpec(alpha=1.5, budget=0.1), v)),
    "FatCantorSpec.radius-i": (counts("FatCantorSpec.radius-i"),
                               lambda v: FatCantorSpec(1.5, 0.1).radius(v)),
    "ScaleFunction-density_depth": (
        counts("ScaleFunction-density_depth"),
        lambda v: ScaleFunction(IntervalSet.real_line(), 0.0, v)),
    "LadderTree.partial_sum-k": (COUNTS, lambda v: _tree().partial_sum(v)),
    "LadderTree.sup_gap-k": (COUNTS, lambda v: _tree().sup_gap(v)),
    # the target (-0.1, 0.1) lies inside every valid window here
    "capacity_estimate-domain": (WINDOWS, lambda v: capacity_estimate(
        IntervalSet.of((-0.1, 0.1)), 0.5, v, 0.125)),
    # the domain four window lengths wide overflowed to (-inf, inf) and was
    # refused under the name "domain"
    "concentration_test-window": (
        {**WINDOWS, "overflowing-span": (-1e308, 1e308)},
        lambda v: concentration_test(IntervalSet.of((-0.1, 0.1)), 0.5, v,
                                     0.125)),
    "compose_scale-window": (WINDOWS, lambda v: compose_scale(
        _bump(), _scale(), v)),
    "scale_from_open_set-density_window": (
        WINDOWS, lambda v: scale_from_open_set(IntervalSet.of((0.0, 1.0)),
                                               0.0, v)),
    "IntervalSet.complement_within-window": (
        WINDOWS, lambda v: IntervalSet.real_line().complement_within(v)),
    "IntervalSet.intersect_window-window": (
        WINDOWS, lambda v: IntervalSet.real_line().intersect_window(v)),
    "transform_at-xi": (FREQUENCIES, lambda v: transform_at(TENT, [1.0, v])),
    # a finite frequency whose phase xi x overflows at the grid's end x = 6
    "transform_at-xi-phase": ({"overflow": 1e308}, lambda v: transform_at(
        GridFunction(0.0, 2.0, [0.0, 1.0, 1.0, 0.0]), [1.0, v])),
    # the tent has values in [0, 1] and total variation 2
    "bv_fourier_bound_check-xi": (
        FREQUENCIES, lambda v: bv_fourier_bound_check(TENT, [-2.0, 1.0, v])),
}

# cases named after what the parameter is rather than its name
CASE_NAMES = {"snap_to_dyadic_step-n": "snap_to_dyadic_step-depth"}

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
    outcome = capped_outcomes[case]
    assert outcome.startswith("ValueError: "), outcome
    name, label = case[:-1].split("[")
    values = CALLS[name][0]
    param = name.split("-", 1)[1].replace("-", " ")
    if label in NON_SCALARS and NON_SCALARS.keys() <= values.keys():
        # a real parameter: refused by the type gate, which names it
        assert f"{param} must be a real number" in outcome, outcome
    if label in COUNT_TYPES and counts(name).keys() <= values.keys():
        assert f"{param} must be an integer" in outcome, outcome
    if WINDOWS.keys() <= values.keys():
        assert f"ValueError: {param} " in outcome, outcome


def _annotations(obj) -> list:
    """(name, annotation) of a dataclass's init fields, or of a callable's
    parameters."""
    if dataclasses.is_dataclass(obj):
        return [(f.name, f.type) for f in dataclasses.fields(obj) if f.init]
    return [(p.name, p.annotation)
            for p in inspect.signature(obj).parameters.values()]


def _parameters():
    """(callable, parameter, annotation as a list of its ``|`` parts) of the
    package's exported functions and classes: dataclass fields, an __init__
    of the class's own, and public methods."""
    for name, obj in vars(fracform).items():
        if name.startswith("_") or not (inspect.isclass(obj)
                                        or inspect.isfunction(obj)):
            continue
        members = {name: obj}
        if inspect.isclass(obj):
            members = {f"{name}.{attr}": getattr(obj, attr)
                       for attr, v in vars(obj).items()
                       if not attr.startswith("_") and (
                           inspect.isfunction(v)
                           or isinstance(v, (classmethod, staticmethod)))}
            if dataclasses.is_dataclass(obj) or "__init__" in vars(obj):
                members[name] = obj
        for qual, fn in members.items():
            for param, annotation in _annotations(fn):
                yield qual, param, str(annotation).split(" | ")


def _ungated(annotated: str, labels) -> tuple:
    """The parameters annotated ``annotated`` or ``annotated | None`` whose
    case in CALLS lacks one of ``labels(key)``, and the result records met
    on the way."""
    missing, records = [], set()
    for qual, param, kinds in _parameters():
        if annotated not in kinds:
            continue
        if qual in RESULT_RECORDS:
            records.add(qual)
            continue
        keys = [CASE_NAMES.get(k, k)
                for k in (f"{qual}-{param}",
                          f"{qual.rsplit('.', 1)[-1]}-{param}")
                if CASE_NAMES.get(k, k) in CALLS]
        if not (keys and labels(keys[0]) <= CALLS[keys[0]][0].keys()):
            missing.append(f"{qual}({param})")
    return missing, records


def test_every_real_parameter_is_gated():
    missing, records = _ungated("float", lambda key: NON_SCALARS.keys())
    assert missing == []
    assert records == set(RESULT_RECORDS)


def test_every_count_parameter_is_gated():
    missing, _ = _ungated("int", lambda key: counts(key).keys())
    assert missing == []
    # a valid label names a parameter and a label that exist
    assert {k for k in VALID_COUNTS if k not in CALLS} == set()
    assert set().union(*VALID_COUNTS.values()) <= COUNTS.keys()


def test_every_window_parameter_is_gated():
    # a window or domain says so in its annotation, which the walk reads
    unannotated = [f"{qual}({param})" for qual, param, kinds in _parameters()
                   if (param in ("window", "domain")
                       or param.endswith("_window"))
                   and "tuple[float, float]" not in kinds]
    assert unannotated == []
    missing, _ = _ungated("tuple[float, float]", lambda key: WINDOWS.keys())
    assert missing == []


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
