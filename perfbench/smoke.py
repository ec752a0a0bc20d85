"""Smoke test of the benchmark: every workload at minimal length, untraced
and traced, must print a result whose keys and metric names match
BENCHMARK.json exactly.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not any(line.startswith("info: ") for line in lines[:-1]):
                problems.append(f"{label}: no info line")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics differ from {group}: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}")
            if not result["attempted"] >= 1 or not result["correct"]:
                problems.append(f"{label}: {result['attempted']} attempted, "
                                f"correct={result['correct']}")
            print(f"{label}: {result['attempted']} attempted, "
                  f"{result['failed']} failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
