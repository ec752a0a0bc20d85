"""The traced benchmark wraps fracform functions by name; a renamed or
removed function would make ``perfbench/run.py --trace`` fail or drop a
layer.  The recorder is compiled from its source, so nothing is written
under ``perfbench/``."""

from pathlib import Path

import numpy as np

import fracform

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    ns = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         ns)
    return ns


def test_every_traced_name_resolves():
    layers = _tracing_namespace()["_layer_functions"](fracform)
    assert layers
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in layers
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_calls_record_their_layers():
    # the grid energy, the two paths that reach the hat correlation (atoms
    # and capacity), the density symbol, and the ladder calls whose work is
    # the node count
    tracer = _tracing_namespace()["Tracer"]()
    tracer.install(fracform)
    try:
        f = fracform.GridFunction(0.0, 0.25, np.array([0.0, 1.0, 2.0, 0.0]))
        fracform.gagliardo_energy(f, fracform.EnergyParams(0.5))
        fracform.levy_gagliardo_energy(
            f, fracform.LevyTriplet(atoms=((0.3, 1.0),)))
        fracform.levy_symbol(fracform.LevyTriplet(
            density=fracform.PowerLawDensity(0.5)), np.array([1.0, 2.0]))
        fracform.capacity_estimate(fracform.IntervalSet.of((-0.2, 0.2)), 0.5,
                                   (-1.0, 1.0), 1.0 / 16.0)
        walk = fracform.GridFunction(
            0.0, 0.125, np.array([0.0, 2.0, 1.0, 3.0, 0.5, 1.5, 0.0]))
        tree = fracform.ladder_decompose(walk, 8, 0.0)
        fracform.is_erased_function(tree.partial_sum(1), walk)
        # the second calibration reads the table kept by the first
        for a in (0.5, 1.5):
            fracform.calibrate_c_of_alpha(fracform.EnergyParams(a), f)
        # the second transform reads the kept plan, still through the
        # public function
        xi = np.geomspace(0.5, 5.0, 16)
        twice = [fracform.transform_at(f, xi) for _ in range(2)]
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"energy.gagliardo_energy.grid",
            "levy.levy_gagliardo_energy", "levy.levy_symbol.density",
            "quadcells.rho_profile",
            "scalecap.capacity_estimate", "quadcells.hat_energy_row",
            "ladder.ladder_decompose", "ladder.partial_sum",
            "ladder.is_erased_function", "energy.calibrate_c_of_alpha",
            "energy.fourier_energy", "fourier.discrete_fourier",
            "fourier.transform_at.uniform"} <= names
    calls = [span[0] for span in tracer.spans]
    assert calls.count("fourier.discrete_fourier") == 2
    assert calls.count("fourier.transform_at.uniform") == 1
    assert calls.count("fourier.transform_at.scattered") == 2
    assert np.array_equal(twice[0], twice[1])
    assert tree.n_nodes == 3
    assert [span[5] for span in tracer.spans
            if span[0] == "ladder.ladder_decompose"] == [tree.n_nodes]
