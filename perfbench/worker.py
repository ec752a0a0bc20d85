"""Runs one workload in a fresh interpreter.

Imports fracform from the checkout's ``src``, makes the workload's warm-up
calls and prints ``ready``; ``run.py`` times set-up up to that line.  Then it
runs the timed pass, the correctness checks, and prints one JSON line with
the measurements.

The timed pass is SOLVE_REPS blocks, each a share of the sweep rounds
followed by one repetition of the solve phase.  Times are scaled to the
reference machine's quiet-core speed with the probe in speed.py, which runs
between consecutive calls.  A sweep call, a few milliseconds long, is scaled
by the probes on either side of it and counts with the median scaled latency
of the calls of its kind (same name, so same sizes and exponents) over all
rounds.  A solve call lasts seconds, over which the core changes state many
times, so the solve phase (mean over the repetitions) is scaled by the mean
of all probes of the pass.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--no-checks] [--setup-only]

The sweep makes ceil(S / round_s) rounds (see workloads.py), so the work a
run does depends on S alone and not on how fast the program is.
``--trace`` wraps the layer functions (see tracing.py), reports per-layer
metrics and writes the spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_PROBE_S, probe

ROOT = Path(__file__).resolve().parent.parent
SOLVE_REPS = 2


class Recorder:
    """Times each call made through it, with the speed probe run between
    consecutive calls, and counts the calls that raise."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []   # (name, seconds, mean of the adjacent probes)
        self.probes = []      # every probe time
        self.failed = 0
        self.errors = []
        self.kept = None

    def _probe(self):
        self.probes.append(probe())
        return self.probes[-1]

    def __call__(self, name, fn, *args):
        before = self.probes[-1] if self.probes else self._probe()
        span = self.tracer.begin_op(name) if self.tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            result = None
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
        seconds = perf_counter() - t0
        if span is not None:
            self.tracer.end_op(span)
        after = self._probe()
        self.latencies.append((name, seconds, 0.5 * (before + after)))
        if self.kept is not None:
            self.kept[name] = result
        return result

    def note(self, name, value):
        if self.kept is not None:
            self.kept[name] = value

    def phase(self, body, rng):
        """Run one round or the solve phase.  A benchmark-side error after a
        failed call (say, using its missing result) counts as one more
        failed operation."""
        try:
            body(self, rng)
        except Exception as exc:
            self.latencies.append((body.__name__, 0.0, 1.0))
            self.failed += 1
            self.errors.append(f"{body.__name__}: {exc!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--no-checks", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import fracform as ff
    from workloads import WORKLOADS

    if not Path(ff.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: fracform imported from {ff.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](ff)
    wl.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(ff)
    rec = Recorder(tracer)
    kept = {}

    rounds = SOLVE_REPS * max(1, math.ceil(args.seconds / wl.round_s
                                           / SOLVE_REPS))
    sweep = []   # (name, seconds, adjacent probe) of every sweep call
    solve = []   # seconds of each solve call, per repetition
    t_start = perf_counter()
    for block in range(SOLVE_REPS):
        rec.latencies = []
        for i in range(block * rounds // SOLVE_REPS,
                       (block + 1) * rounds // SOLVE_REPS):
            rec.kept = kept if i == 0 else None
            rec.phase(wl.sweep_round, np.random.default_rng([args.seed, 1, i]))
        sweep += rec.latencies
        rec.latencies = []
        rec.kept = kept if block == 0 else None
        rec.phase(wl.solve, np.random.default_rng([args.seed, 2]))
        solve.append([t for _, t, _ in rec.latencies])
    pass_s = perf_counter() - t_start

    by_kind = {}
    for name, t, p in sweep:
        by_kind.setdefault(name, []).append(t * REFERENCE_PROBE_S / p)
    typical = {name: float(np.median(ts)) for name, ts in by_kind.items()}
    lat = np.array([typical[name] for name, _, _ in sweep])
    speed = REFERENCE_PROBE_S / float(np.mean(rec.probes))
    result = {
        "rounds": rounds,
        "sweep_ops": lat.size,
        "sweep_ops_per_s": lat.size / float(lat.sum()),
        "sweep_op_ms": 1e3 * float(np.median(lat)),
        "sweep_op_ms_p90": 1e3 * float(np.percentile(lat, 90)),
        "solve_s": float(np.mean([sum(r) for r in solve])) * speed,
        "speed": speed,
        "pass_s": pass_s * speed,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(ff, tracer, speed)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    checks = []
    checked = True
    if not args.no_checks:
        try:
            checks = wl.checks(kept, np.random.default_rng([args.seed, 3]))
        except Exception as exc:
            checks = [("checks", False, repr(exc))]
            checked = False
    bad = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    result.update(
        attempted=result["sweep_ops"] + sum(map(len, solve)) + len(checks),
        failed=rec.failed + len(bad),
        checked=checked,
        errors=rec.errors + bad,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(ff, tracer, speed) -> dict:
    """Per-layer metrics of the traced pass, times and rates scaled by the
    pass's speed factor.  A metric the workload's own calls never reach
    comes from a traced run of every workload's warm-up, so each traced run
    reports every name."""
    from workloads import WORKLOADS

    metrics = tracer.layer_metrics()
    mark = len(tracer.spans)
    tracer.install(ff)
    try:
        for cls in WORKLOADS.values():
            cls(ff).warmup()
    finally:
        tracer.uninstall()
    for name, value in tracer.layer_metrics(mark).items():
        metrics.setdefault(name, value)
    for name in metrics:
        if name.endswith("_per_s"):
            metrics[name] /= speed
        elif name.endswith(".s"):
            metrics[name] *= speed
    return metrics


if __name__ == "__main__":
    sys.exit(main())
