"""Span recorder for the traced benchmark run.

The benchmark measures each layer from outside the program: it replaces the
public functions of the fracform modules with timing wrappers, in every
module namespace that holds them, so a call from one layer into another is
recorded as a child span of the caller.  Spans are kept in memory as
``[name, start, end, parent, op_id, work]`` and written out at the end.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np


def _is_uniform(xi) -> bool:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size < 3:
        return True
    d = np.diff(xi)
    return bool(np.allclose(d, d[0], rtol=1e-6, atol=0.0))


def _n_nodes(domain, step) -> int:
    return int(round((float(domain[1]) - float(domain[0])) / step)) + 1


def _layer_functions(ff):
    """(owner, attribute, span name or namer, work counter) per traced
    public function; the work counter maps (result, *args) to a number."""
    grid_or_step = (lambda f, *a, **k: "energy.gagliardo_energy."
                    + ("grid" if isinstance(f, ff.grids.GridFunction)
                       else "step"))

    def refinement_levels(rep, f, *a, **k):
        return 0 if isinstance(f, ff.grids.GridFunction) \
            else len(rep.refinement_trace)

    return [
        (ff.quadcells, "rho_profile", "quadcells.rho_profile", None),
        (ff.quadcells, "gagliardo_of_values", "quadcells.gagliardo_of_values",
         lambda r, values, *a, **k: len(values)),
        (ff.quadcells, "hat_energy_row", "quadcells.hat_energy_row",
         lambda r, n, *a, **k: n),
        (ff.energy, "gagliardo_energy", grid_or_step, refinement_levels),
        (ff.energy, "hardy_boundary_identity",
         "energy.hardy_boundary_identity", None),
        (ff.energy, "fourier_energy", "energy.fourier_energy", None),
        (ff.energy, "calibrate_c_of_alpha", "energy.calibrate_c_of_alpha",
         None),
        (ff.energy, "check_erased_bound", "energy.check_erased_bound", None),
        (ff.fourier, "transform_at",
         lambda f, xi, *a, **k: "fourier.transform_at."
         + ("uniform" if _is_uniform(xi) else "scattered"),
         lambda r, f, xi, *a, **k: f.n_nodes * np.size(xi)),
        (ff.fourier, "discrete_fourier", "fourier.discrete_fourier", None),
        (ff.levy, "levy_symbol",
         lambda t, *a, **k: "levy.levy_symbol."
         + ("atoms" if t.density is None else "density"),
         lambda r, t, xi, *a, **k: np.size(xi)),
        (ff.levy, "levy_gagliardo_energy", "levy.levy_gagliardo_energy", None),
        (ff.levy, "growth_exponent_fit", "levy.growth_exponent_fit", None),
        (ff.scalecap, "capacity_estimate", "scalecap.capacity_estimate",
         lambda r, target, a, domain, step, **k: _n_nodes(domain, step)),
        (ff.scalecap, "concentration_test", "scalecap.concentration_test",
         None),
        (ff.scalecap, "build_fat_cantor", "scalecap.build_fat_cantor", None),
        (ff.scalecap, "scale_from_open_set", "scalecap.scale_from_open_set",
         None),
        (ff.scalecap, "compose_scale", "scalecap.compose_scale", None),
        (ff.scalecap, "duality_pairing_check",
         "scalecap.duality_pairing_check", None),
        (ff.ladder, "ladder_decompose", "ladder.ladder_decompose",
         lambda tree, *a, **k: tree.n_nodes),
        (ff.ladder.LadderTree, "partial_sum", "ladder.partial_sum", None),
        (ff.ladder, "is_erased_function", "ladder.is_erased_function", None),
        (ff.ladder, "arm_split", "ladder.arm_split", None),
        (ff.grids.StepFunction, "sample", "grids.StepFunction.sample", None),
        (ff.grids, "make_plateau", "grids.make_plateau", None),
        (ff.grids.GridFunction, "trimmed", "grids.GridFunction.trimmed",
         None),
    ]


#: Rate metrics: (metric, span-name prefix).  A rate is the summed work
#: over the summed inclusive duration of the matching spans.
RATES = [
    ("quadcells.gagliardo_of_values.nodes_per_s",
     "quadcells.gagliardo_of_values"),
    ("quadcells.hat_energy_row.entries_per_s", "quadcells.hat_energy_row"),
    ("fourier.transform_at.products_per_s", "fourier.transform_at."),
    ("levy.levy_symbol.freqs_per_s", "levy.levy_symbol."),
    ("scalecap.capacity_estimate.nodes_per_s", "scalecap.capacity_estimate"),
    ("ladder.ladder_decompose.nodes_per_s", "ladder.ladder_decompose"),
]

#: Count metrics: summed work of the matching spans.
COUNTS = [
    ("energy.refinement_levels", "energy.gagliardo_energy.step"),
    ("ladder.ladder_decompose.nodes", "ladder.ladder_decompose"),
]


class Tracer:
    """Records spans around the wrapped functions and the benchmark's own
    operations; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self._op_id, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, name):
        """Open the root span of one benchmark operation."""
        self._op_id += 1
        return self._open("op." + name)

    def end_op(self, idx):
        self._close(idx)

    def _wrap(self, fn, namer, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(*args, **kwargs) if callable(namer) else namer
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                tracer.spans[idx][5] = work(result, *args, **kwargs)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, ff):
        """Wrap every traced function wherever a fracform module holds a
        reference to it; methods are wrapped on their class."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fracform" or name.startswith("fracform.")]
        for owner, attr, namer, work in _layer_functions(ff):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, namer, work)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, first_span: int = 0) -> dict:
        """Per-layer self times, rates and counts over spans[first_span:]."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += t1 - t0
        self_s, incl_s, work = {}, {}, {}
        for (name, t0, t1, _, _, w), c in zip(spans, child):
            if name.startswith("op."):
                continue
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - c
            incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
            work[name] = work.get(name, 0) + w
        out = {f"{name}.s": v for name, v in self_s.items()}
        for metric, prefix in RATES:
            names = [n for n in incl_s if n.startswith(prefix)]
            t = sum(incl_s[n] for n in names)
            if t > 0:
                out[metric] = sum(work[n] for n in names) / t
        for metric, prefix in COUNTS:
            names = [n for n in work if n.startswith(prefix)]
            if names:
                out[metric] = sum(work[n] for n in names)
        return out

    def dump(self, path):
        """Write the spans as one JSON object per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, w in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "work": w}) + "\n")
