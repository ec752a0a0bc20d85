"""The value rule of the library's types, and the inputs of its calls.

Every type that holds arrays holds read-only copies of them, a pickle
rebuilds it through its constructor, and no array field takes part in
``==``: a type with an array field compares and hashes by identity
(``eq=False``), or leaves the field out of ``==``.  No public call writes to
an array it is given or freezes it.  The sweeps walk the package's exported
names and the public functions of ``quadcells`` and fail when a type or an
array parameter is missing from the tables here.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fracform
from fracform import (FourierTable, GridFunction, IntervalSet, LevyTriplet,
                      PowerLawDensity, ScaleFunction, SignedMeasure,
                      StepFunction, SymbolCurve, bv_fourier_bound_check,
                      compose_scale, discrete_fourier, duality_pairing_check,
                      ladder_decompose, levy_gagliardo_energy, levy_symbol,
                      make_plateau, pushforward_measure, scale_from_open_set,
                      transform_at)
from fracform import energy, fourier, quadcells, scalecap
from fracform.grids import PlateauSpec

# the names of the unannotated parameters that take an array
ARRAY_NAMES = {"x", "y", "xi", "xi_grid", "tau", "values"}

TENT = GridFunction(0.0, 0.25, [0.0, 1.0, 1.0, 0.0])
STEP = StepFunction([0.0, 0.5, 1.0], [1.0, -2.0])
SCALE = scale_from_open_set(IntervalSet.of((0.0, 1.0), (2.0, 3.0)))
DENSITY = LevyTriplet(density=PowerLawDensity(1.5))


def _plateau():
    return make_plateau(PlateauSpec(0.0, 1.0, 0.5), 0.125)


def _tapered():
    return np.array([0.0, 0.25, 1.0, 0.5, 0.0])


def _increasing():
    return np.array([-0.5, 0.0, 0.75, 1.5])


def _frequencies():
    return np.linspace(-3.0, 3.0, 7)


# "callable(parameter)" -> (a fresh array for the parameter, a call on it)
CALLS = {
    "GridFunction(values)": (_tapered, lambda a: GridFunction(0.0, 0.25, a)),
    "GridFunction.__call__(x)": (_increasing, lambda a: TENT(a)),
    "GridFunction.with_values(values)": (_tapered,
                                         lambda a: TENT.with_values(a[:4])),
    "StepFunction(breakpoints)": (_increasing, lambda a: StepFunction(
        a, [1.0, 2.0, 3.0])),
    "StepFunction(levels)": (_increasing, lambda a: StepFunction(
        [0.0, 1.0, 2.0, 3.0, 4.0], a)),
    "StepFunction.__call__(x)": (_increasing, lambda a: STEP(a)),
    "IntervalSet.measure_between(x)": (
        _increasing, lambda a: SCALE.g_set.measure_between(a, 2.5)),
    "IntervalSet.measure_between(y)": (
        _increasing, lambda a: SCALE.g_set.measure_between(0.5, a)),
    "ScaleFunction.__call__(x)": (_increasing, lambda a: SCALE(a)),
    "FourierTable(frequencies)": (_frequencies, lambda a: FourierTable(
        a, np.ones(a.size, dtype=complex))),
    "FourierTable(amplitudes)": (
        lambda: np.linspace(1.0, 2.0, 7) + 0.5j,
        lambda a: FourierTable(_frequencies(), a)),
    "transform_at(xi)": (_frequencies, lambda a: transform_at(TENT, a)),
    "bv_fourier_bound_check(xi_grid)": (
        _frequencies, lambda a: bv_fourier_bound_check(_plateau(), a)),
    "levy_symbol(xi_grid)": (_frequencies, lambda a: levy_symbol(DENSITY, a)),
    "SymbolCurve(xi_grid)": (_frequencies, lambda a: SymbolCurve(
        a, np.ones(a.size))),
    "SymbolCurve(psi_values)": (_frequencies, lambda a: SymbolCurve(
        np.arange(7.0), a)),
    "SignedMeasure(lo)": (_increasing, lambda a: SignedMeasure(
        a, a + 0.25, np.ones(a.size))),
    "SignedMeasure(hi)": (_increasing, lambda a: SignedMeasure(
        a - 0.25, a, np.ones(a.size))),
    "SignedMeasure(density)": (_increasing, lambda a: SignedMeasure(
        np.arange(4.0), np.arange(4.0) + 0.5, a)),
    "rho_profile(values)": (_tapered, lambda a: quadcells.rho_profile(
        a, 0.25, [0.1, 0.7])),
    "rho_profile(tau)": (_increasing, lambda a: quadcells.rho_profile(
        _tapered(), 0.25, a)),
    "increment_autocorr(values)": (_tapered,
                                   quadcells.increment_autocorr),
    "gagliardo_of_values(values)": (
        _tapered, lambda a: quadcells.gagliardo_of_values(a, 0.25, 0.5)),
}


def _members(name, obj):
    """qualified name -> callable: a function, or a class's public methods,
    its ``__call__`` and the class itself (its dataclass fields or its own
    ``__init__``)."""
    if not inspect.isclass(obj):
        return {name: obj}
    members = {f"{name}.{attr}": getattr(obj, attr)
               for attr, v in vars(obj).items()
               if (not attr.startswith("_") or attr == "__call__")
               and (inspect.isfunction(v)
                    or isinstance(v, (classmethod, staticmethod)))}
    if dataclasses.is_dataclass(obj) or "__init__" in vars(obj):
        members[name] = obj
    return members


def _array_parameters() -> set:
    """"callable(parameter)" of every parameter of the exported names and of
    ``quadcells.__all__`` that is annotated ``np.ndarray`` or is named in
    ARRAY_NAMES."""
    exported = [(n, v) for n, v in vars(fracform).items()
                if not n.startswith("_")
                and (inspect.isclass(v) or inspect.isfunction(v))]
    exported += [(n, getattr(quadcells, n)) for n in quadcells.__all__]
    found = set()
    for name, obj in exported:
        for qual, fn in _members(name, obj).items():
            if dataclasses.is_dataclass(fn):
                params = [(f.name, f.type) for f in dataclasses.fields(fn)
                          if f.init]
            else:
                params = [(p.name, p.annotation) for p in
                          inspect.signature(fn).parameters.values()]
            for param, annotation in params:
                if (param in ARRAY_NAMES
                        or "np.ndarray" in str(annotation).split(" | ")):
                    found.add(f"{qual}({param})")
    return found


def test_every_array_parameter_is_swept():
    assert _array_parameters() == CALLS.keys()


@pytest.mark.parametrize("case", sorted(CALLS))
def test_no_input_mutation(case):
    make, call = CALLS[case]
    a = make()
    before = a.tobytes()
    call(a)
    assert a.tobytes() == before and a.flags.writeable


def _dataclasses():
    """Every dataclass defined in a module of the package."""
    for info in pkgutil.iter_modules(fracform.__path__):
        module = importlib.import_module(f"fracform.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def _array_fields(cls) -> list:
    return [f for f in dataclasses.fields(cls)
            if "np.ndarray" in str(f.type).split(" | ")]


def test_no_dataclass_compares_arrays_by_value():
    by_value = [f"{cls.__name__}.{f.name}" for cls in _dataclasses()
                if cls.__dataclass_params__.eq
                for f in _array_fields(cls) if f.compare]
    assert by_value == []


# every type with an array field -> (a fresh value, the outputs a copy of it
# must repeat; the first call fills the value's caches)
VALUES = {
    GridFunction: (
        lambda: GridFunction(0.0, 0.25, _tapered()),
        lambda f: (f.increment_autocorr, f.l2_norm_sq(), f.support_interval(),
                   f.total_variation(), f.trimmed().values,
                   discrete_fourier(f, 4.0, 9).amplitudes,
                   transform_at(f, _frequencies()))),
    StepFunction: (
        lambda: StepFunction([0.0, 0.5, 1.0], [1.0, -2.0]),
        lambda s: (s(_increasing()), s.l2_norm_sq(), s.span(),
                   s.sample(0.25).values)),
    FourierTable: (
        lambda: discrete_fourier(GridFunction(0.0, 0.25, _tapered()), 4.0, 9),
        lambda t: (t.frequencies, t.amplitudes)),
    SymbolCurve: (
        lambda: levy_symbol(DENSITY, _frequencies()),
        lambda c: (c.xi_grid, c.psi_values)),
    ScaleFunction: (
        lambda: scale_from_open_set(IntervalSet.of((0.0, 1.0), (2.0, 3.0))),
        lambda s: (s(_increasing()), s.breakpoints, s.cumulative)),
    SignedMeasure: (
        lambda: pushforward_measure(GridFunction(0.0, 0.25, _tapered())),
        lambda m: (m.integrate(TENT), m.lo, m.hi, m.density)),
}


def test_every_array_holder_is_pickled():
    assert {cls for cls in _dataclasses() if _array_fields(cls)} == \
        VALUES.keys()


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_pickle_returns_read_only_copies(cls):
    value = VALUES[cls][0]()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls
    for f in _array_fields(cls):
        got, want = getattr(copy, f.name), getattr(value, f.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_do_not_read_arrays(cls):
    value = VALUES[cls][0]()
    copy = pickle.loads(pickle.dumps(value))
    assert value == value and len({value, value}) == 1
    # by identity, or by the fields that hold no array
    assert (value == copy) is cls.__dataclass_params__.eq
    assert len({value, copy}) == (1 if cls.__dataclass_params__.eq else 2)


def _same_outputs(a, b) -> bool:
    """Equal outputs, arrays by dtype, shape and bytes."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(_same_outputs, a, b)))
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_warm_pickle_is_no_larger_and_repeats_the_outputs(cls):
    make, outputs = VALUES[cls]
    cold = pickle.dumps(make())
    value = make()
    want = outputs(value)
    assert _same_outputs(outputs(value), want)      # the warm calls agree
    warm = pickle.dumps(value)
    assert len(warm) <= len(cold)
    assert _same_outputs(outputs(pickle.loads(warm)), want)


def _capacity_outputs(est) -> tuple:
    return (est.value, est.residual_history, est.clamp_violation,
            est.residual, est.equilibrium.values)


def test_capacity_cold_equals_warm():
    # the capacity layer's module caches, cleared, give the bits of the
    # same calls served from them
    solve = (IntervalSet.of((-0.3, 0.1), (0.5, 0.6)), 0.5, (-2.0, 2.0),
             4.0 / 256)
    test = (IntervalSet.of((-0.9, -0.5), (0.2, 0.3)), 0.25, (-1.0, 1.0),
            8.0 / 256)
    kept = scalecap._kept_e1_operator
    for cache in (kept, quadcells._kept_lag_weights, fourier._es_table):
        cache.cache_clear()
    cold = (_capacity_outputs(scalecap.capacity_estimate(*solve)),
            scalecap.concentration_test(*test))
    assert kept.cache_info()[:2] == (1, 2)      # hits, misses
    warm = (_capacity_outputs(scalecap.capacity_estimate(*solve)),
            scalecap.concentration_test(*test))
    assert kept.cache_info()[:2] == (4, 2)
    assert _same_outputs(cold, warm)
    # read-only, and no view of the 512-point transform: 257 = N // 2 + 1
    for array in kept(257, 4.0 / 256, 0.5) + kept(257, 8.0 / 256, 0.25):
        assert not array.flags.writeable
        assert array.base is None and array.shape == (257,)
    assert kept.cache_info()[:2] == (6, 2)


def _energy_inputs() -> tuple:
    """Fresh inputs of the energy and Levy layers: a 257-node grid bump
    and a step function."""
    x = np.linspace(0.0, 1.0, 257)
    values = np.sin(np.pi * x) ** 2 * (1.0 + 0.5 * np.cos(7.0 * x))
    values[[0, 1, -2, -1]] = 0.0
    return (GridFunction(-0.5, 1.0 / 128.0, values),
            StepFunction([0.0, 0.3, 0.8, 1.1], [0.5, -1.0, 0.75]))


def _report(rep) -> tuple:
    return (rep.value, rep.l2_norm_sq, rep.refinement_trace)


_ATOMS = ((3.0 / 128.0, 0.5), (40.0 / 128.0, 1.5))
# one call per (layer, parameter), each on the inputs of _energy_inputs
ENERGY_CALLS = (
    *(lambda g, s, a=a: _report(energy.gagliardo_energy(
        g, energy.EnergyParams(a))) for a in (0.3, 1.5)),
    lambda g, s: _report(energy.gagliardo_energy(
        s, energy.EnergyParams(0.4), refine_levels=3)),
    *(lambda g, s, a=a: energy.hardy_boundary_identity(g, -0.6, 1.6, a)
      for a in (0.3, 1.5)),
    *(lambda g, s, a=a: _report(levy_gagliardo_energy(g, LevyTriplet(
        atoms=_ATOMS, density=PowerLawDensity(a, 1.3)))) for a in (0.6, 1.4)),
    # another atom set, which replaces the kept rho of the function
    lambda g, s: _report(levy_gagliardo_energy(g, LevyTriplet(
        atoms=_ATOMS[1:]))),
)
ENERGY_CACHES = (energy._kept_hardy_rule, energy._gauss_legendre,
                 quadcells._kept_lag_weights)


def _types(a) -> list:
    return ([t for x in a for t in _types(x)] if isinstance(a, tuple)
            else [type(a)])


def test_energy_and_levy_cold_equals_warm():
    # the energy and Levy layers' module caches cleared and the functions
    # fresh give the bits of the same calls served from both, and the
    # same types
    for cache in ENERGY_CACHES:
        cache.cache_clear()
    inputs = _energy_inputs()
    cold = tuple(call(*inputs) for call in ENERGY_CALLS)
    assert energy._kept_hardy_rule.cache_info()[:2] == (0, 2)
    warm = tuple(call(*inputs) for call in ENERGY_CALLS)
    assert energy._kept_hardy_rule.cache_info()[:2] == (2, 2)
    assert _same_outputs(cold, warm)
    assert _types(cold) == _types(warm)
    assert {type(rep[0]) for rep in cold if len(rep) == 3} == {float}


def test_energy_and_levy_in_threads_equal_serial():
    serial = tuple(call(*_energy_inputs()) for call in ENERGY_CALLS)
    for cache in ENERGY_CACHES:
        cache.cache_clear()
    # four threads race on the cold caches and on one set of inputs, whose
    # kept rho two atom sets keep replacing
    inputs = _energy_inputs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda call: call(*inputs),
                                     ENERGY_CALLS * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert _same_outputs(tuple(threaded), serial * 8)


def _bump(n=257, origin=-0.5, span=1.0):
    x = np.linspace(0.0, 1.0, n)
    values = np.sin(np.pi * x) ** 2 * (1.0 + 0.5 * np.cos(7.0 * x))
    values[[0, 1, -2, -1]] = 0.0
    return GridFunction(origin, span / (n - 1), values)


_UNIFORM = np.linspace(-60.0, 60.0, 241)
_SCATTERED = np.random.default_rng(5).uniform(-90.0, 90.0, 333)


def test_transform_kept_plan_equals_a_fresh_one():
    f = _bump()
    for cache in (fourier._kept_plan, fourier._es_table):
        cache.cache_clear()
    cold = (transform_at(f, _UNIFORM), transform_at(f, _SCATTERED))
    assert fourier._kept_plan.cache_info()[:2] == (0, 2)
    warm = (transform_at(f, _UNIFORM), transform_at(f, _SCATTERED))
    assert fourier._kept_plan.cache_info()[:2] == (2, 2)
    assert _same_outputs(cold, warm)


def _walk(n=2049, seed=8):
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    v = (walk - walk.min() + 1.0) * np.sin(np.pi * np.arange(n) / (n - 1))
    v[0] = v[-1] = 0.0
    return GridFunction(0.0, 1.0 / (n - 1), v)


def test_ladder_stepped_sums_equal_rebuilt_ones():
    tree = ladder_decompose(_walk(), max_nodes=200, sup_tol=0.0)
    ks = range(1, tree.n_nodes + 1)
    stepped = tuple(tree.partial_sum(k).values for k in ks)
    rebuilt = []
    for k in ks:
        tree._kept = None
        rebuilt.append(tree.partial_sum(k).values)
    assert tree.n_nodes > 100
    assert _same_outputs(stepped, tuple(rebuilt))


_G = IntervalSet.of((-0.9, -0.5), (-0.2, 0.3), (0.6, 0.7))


def _scale_outputs() -> tuple:
    s = scale_from_open_set(_G, anchor=0.1, density_window=(-1.0, 1.0))
    # s maps (-2, 2) onto (-0.7, 0.3)
    comp = compose_scale(_bump(origin=-0.4, span=0.5), s, (-2.0, 2.0),
                         step=1.0 / 128)
    phi = _bump(n=129, origin=-1.0)
    return (s.breakpoints, s.cumulative, s(_UNIFORM / 30.0),
            (s.density_depth, s.strictly_increasing), comp.function.values,
            comp.lipschitz, duality_pairing_check(comp.function, s, phi))


def test_scale_layer_cold_equals_warm():
    assert _same_outputs(_scale_outputs(), _scale_outputs())


# one call per layer and input, each served from a kept value after its
# first run: plans, partial sums stepped from the kept one, scale functions
def _layer_calls(tree):
    f = _bump()
    return (lambda: transform_at(f, _UNIFORM),
            lambda: transform_at(f, _SCATTERED),
            *(lambda k=k: tree.partial_sum(k).values
              for k in (3, 9, 10, 40, 41, 120)),
            _scale_outputs)


def test_transform_ladder_and_scale_in_threads_equal_serial():
    serial = tuple(call() for call in _layer_calls(
        ladder_decompose(_walk(), max_nodes=200, sup_tol=0.0)))
    for cache in (fourier._kept_plan, fourier._es_table):
        cache.cache_clear()
    # four threads race on the cold plans and on one tree, whose kept sum
    # every partial_sum replaces
    calls = _layer_calls(ladder_decompose(_walk(), max_nodes=200,
                                          sup_tol=0.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda call: call(), calls * 8,
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert _same_outputs(tuple(threaded), serial * 8)
