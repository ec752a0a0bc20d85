"""Paired benchmark runs of two commits, written to BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REF --number N --first-seed S

Run from the root of the repository.  The parent REF and the change, HEAD,
are exported with ``git archive`` into fresh directories outside the
repository, so each side runs on its committed files only.  For every
workload in BENCHMARK.json the script runs ``perfbench/run.py --trace 0``
for its ``run_seconds`` in ten alternating pairs, the parent first on odd
pairs and the change first on even ones; pair i uses seed S + i - 1 on both
sides.  Choose seeds that were not used while writing the change.  It
writes ``BENCH_<n>.json`` at the repository root with, per side and
workload, the median and quartiles of every end-to-end metric, the failed
share of the operations, the ``info:`` machine line and the ``src/`` line
count, and per workload the number of pairs each metric won for the
change.  Each side also records the git tree ids of its ``src`` and
``perfbench`` directories, which stay the same when only documents change,
so a record can be checked against a later commit.  Standard library only;
nothing under ``perfbench/`` is touched.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# A gain is claimed only when the change wins at least nine of ten pairs.
PAIRS = 10
MEASURED = ("src", "perfbench")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(ref: str, dest: Path) -> str:
    """Extract the committed tree of ``ref`` into ``dest``; return the
    commit id."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} "
                         f"exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[len("info: "):]) for line in lines
                if line.startswith("info: "))
    return {"info": info, "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of the runs, in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--number", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    refs = {"parent": args.parent, "change": "HEAD"}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        dirs = {side: work / side for side in SIDES}
        commits = {side: export(refs[side], dirs[side]) for side in SIDES}
        runs = {side: {w: [] for w in workloads} for side in SIDES}
        for i in range(1, PAIRS + 1):
            order = SIDES if i % 2 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    runs[side][w].append(run_once(
                        dirs[side], w, args.first_seed + i - 1,
                        spec["run_seconds"]))
                print(f"pair {i}/{PAIRS} {w} done", file=sys.stderr,
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def side_record(side):
        out = {"ref": refs[side], "commit": commits[side],
               "trees": {d: git("rev-parse", f"{commits[side]}:{d}")
                         .decode().strip() for d in MEASURED},
               "info": runs[side][workloads[0]][0]["info"], "workloads": {}}
        out["src_loc"] = out["info"]["src_loc"]
        for w in workloads:
            res = [r["result"] for r in runs[side][w]]
            out["workloads"][w] = {
                "metrics": {
                    name: dict(summary([r["metrics"][name]["value"]
                                        for r in res]),
                               unit=metrics[name]["unit"])
                    for name in metrics},
                "failed_share": sum(r["failed"] for r in res)
                / sum(r["attempted"] for r in res),
                "all_correct": all(r["correct"] for r in res),
            }
        return out

    record = {"pairs": PAIRS, "seconds": spec["run_seconds"],
              "seeds": [args.first_seed + i for i in range(PAIRS)],
              **{side: side_record(side) for side in SIDES}, "wins": {}}
    for w in workloads:
        record["wins"][w] = {}
        for name, m in metrics.items():
            p, c = (record[side]["workloads"][w]["metrics"][name]["runs"]
                    for side in SIDES)
            sign = 1.0 if m["better"] == "lower" else -1.0
            record["wins"][w][name] = sum(sign * (a - b) > 0.0
                                          for a, b in zip(p, c))
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
