"""fracform benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fracform is imported from its ``src``.
Every workload runs in fresh worker processes (worker.py) with numpy/scipy
threads capped at the number of usable cores.

``--trace 0`` measures set-up in three set-up-only processes and reports the
median, then the end-to-end metrics of the sweep (a number of rounds fixed
by ``--seconds``, about that many seconds on the reference machine) and the
fixed solve phase.  All times are scaled to the reference machine's
quiet-core speed (see speed.py).  ``--trace 1`` runs the same
pass twice, untraced and traced, and reports the per-layer metrics and the
tracing overhead.

``correct`` is false only when the correctness checks could not run; a
wrong output counts as a failed operation.

Before the result it prints one ``info:`` line with the machine description
and the ``src/`` line count.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

# Set before the local import below, so no __pycache__ lands in the checkout.
sys.dont_write_bytecode = True

from speed import REFERENCE_PROBE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 160
SETUP_SAMPLES = 3
SETUP_PROBES = 100


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list) -> tuple:
    """Start a worker; return (seconds until its ``ready`` line, its JSON
    result or None for a set-up-only worker)."""
    cmd = [sys.executable, "-B", "-s", str(WORKER), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker failed (exit {proc.returncode}): "
                           f"{' '.join(args)}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def machine_info() -> dict:
    src = ROOT / "src"
    loc = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "cores": len(os.sched_getaffinity(0)),
        "memory_mib": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_loc": loc,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracform" / "__init__.py").is_file():
        return fail(f"no fracform sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("info: " + json.dumps(machine_info()), flush=True)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    try:
        if args.trace:
            _, plain = run_worker(base + ["--no-checks"])
            _, res = run_worker(base + ["--trace"])
            values = dict(res["layers"])
            values["trace.overhead_s"] = res["pass_s"] - plain["pass_s"]
        else:
            setups, probes = [], []
            for _ in range(SETUP_SAMPLES):
                probes += [probe() for _ in range(SETUP_PROBES)]
                setups.append(run_worker(base + ["--setup-only"])[0])
                probes += [probe() for _ in range(SETUP_PROBES)]
            _, res = run_worker(base)
            values = {key: res[key] for key in
                      ("sweep_ops_per_s", "sweep_op_ms", "sweep_op_ms_p90",
                       "solve_s", "peak_rss_mib")}
            values["setup_s"] = (statistics.median(setups) * REFERENCE_PROBE_S
                                 / statistics.mean(probes))
    except RuntimeError as exc:
        return fail(str(exc))

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    for line in res["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {res['rounds']} sweep rounds, "
          f"{res['sweep_ops']} sweep calls, speed {res['speed']:.3f} of a "
          "quiet reference core", file=sys.stderr)
    print(json.dumps({
        "correct": res["checked"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
