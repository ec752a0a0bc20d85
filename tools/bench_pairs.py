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
share of the operations, under ``faults`` the median and quartiles of the
runs' minor page faults (reported, never gated), the ``info:`` machine
line and the ``src/`` line count, and per workload the number of pairs each metric won for the
change.  Beside the wins, ``ratios`` holds per workload and metric the
median of the ten paired log ratios log(change / parent) and a
distribution-free ~90% interval for it from their order statistics (a
sign-test interval), with its exact coverage; it is reported, never
gated.  After the ten pairs the parent runs AA_PAIRS = 4 more alternating
pairs per workload against a second export of itself, at seeds S .. S + 3,
and ``ratios_aa`` holds per workload and metric the same paired-ratio
summary of those runs, copy against parent: an interval a code change
cannot have moved, which at n = 4 is [x_(1), x_(4)] with 87.5% coverage,
to read each change ratio against.  It too is reported, never gated.
Each side also records the git tree ids of its ``src`` and
``perfbench`` directories, which stay the same when only documents change,
so a record can be checked against a later commit.  After the pairs, each
side runs the tier-1 test suite once in its checkout, and its ``info``
records that run's wall time and its passed, failed and xfailed counts:
one run per side is too noisy for a bound, so this is reported and never
compared.  Each side then runs ``fracform verify --suite all`` five times
at seed 0, the sides alternating, and once at seed 7; its ``info.verify``
records the median wall time of the seed-0 runs, each check's median
in-process ``runtime_ms`` over those runs and their range (least and
greatest), read from each run's verdict CSV in a temporary output
directory, so a check's median can be read against the spread of its own
runs; all of it is reported, never gated.  It also records whether each
seed's stdout is byte-identical between the sides and, for a seed where it
is not, the pairs of lines that differ, so a record shows which printed
value moved.
Each side then runs every ``fracform`` line of the ``sh`` block under the
change's README heading "Command line" as ``python -m fracform.cli``
three times, the sides alternating, each run a fresh process in a fresh
temporary working directory; its ``info.cli`` records, per line, the
median wall time of the three runs, and from the first run the exit code,
whether the exit code, stdout, stderr and every written file are
byte-identical between the sides (the ``runtime_ms`` column of verdict
CSVs masked) and the differing line pairs of each output that is not.
Each side then runs a cold
``python -c "import fracform"`` five times, the sides alternating, and its
``info.import`` records the median wall time.  Last, each side runs
``tools/census.py --json`` in its checkout once, and its ``info.census``
records the exit code and the ``src/`` functions that no README command
line or ``verify`` run reaches (None where the census did not run).  All
four are reported, never gated.  Every run leaves ``FSL_OUT_DIR`` unset.
Standard library only; nothing under ``perfbench/`` is touched.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import itertools
import json
import math
import os
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# A gain is claimed only when the change wins at least nine of ten pairs.
PAIRS = 10
MEASURED = ("src", "perfbench")
RATIO_LEVEL = 0.9  # the coverage sought for the paired-ratio interval
AA_PAIRS = 4  # parent against a second export of itself, per workload
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
CLI = ["-m", "fracform.cli"]
VERIFY = [*CLI, "verify", "--suite", "all", "--seed"]
VERIFY_SEEDS = (0, 7)
VERIFY_TIMED_RUNS = 5  # at the first seed
CLI_TIMED_RUNS = 3    # per README command line
IMPORT = ["-c", "import fracform"]
IMPORT_RUNS = 5
CENSUS = ["tools/census.py", "--json"]


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
    """The ``info`` line and the result of one ``perfbench/run.py`` run,
    and its minor page faults: the growth of this process's
    ``RUSAGE_CHILDREN`` count over the run, which takes in the run and
    every process it waited for."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} "
                         f"exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[len("info: "):]) for line in lines
                if line.startswith("info: "))
    return {"info": info, "result": json.loads(lines[-1]), "faults": faults}


def alternating_pairs(dirs: dict, workloads: list, pairs: int,
                      first_seed: int, seconds: int) -> dict:
    """Per side of ``dirs`` (two sides, in order) and workload, the
    ``run_once`` results of ``pairs`` alternating pairs: the first side
    runs first on odd pairs and the second on even ones, and pair i uses
    seed first_seed + i - 1 on both sides."""
    sides = list(dirs)
    runs = {side: {w: [] for w in workloads} for side in sides}
    for i in range(1, pairs + 1):
        order = sides if i % 2 else sides[::-1]
        for w in workloads:
            for side in order:
                runs[side][w].append(run_once(dirs[side], w,
                                              first_seed + i - 1, seconds))
            print(f"{' / '.join(sides)} pair {i}/{pairs} {w} done",
                  file=sys.stderr, flush=True)
    return runs


def metric_values(runs: list, name: str) -> list:
    """The value of end-to-end metric ``name`` in each ``run_once`` result,
    in run order."""
    return [r["result"]["metrics"][name]["value"] for r in runs]


def aa_ratios(parent: Path, copy: Path, workloads: list, metrics,
              first_seed: int, seconds: int) -> dict:
    """Per workload and metric, ``paired_ratios`` of AA_PAIRS alternating
    pairs of two checkouts of one commit, ``copy`` against ``parent``."""
    runs = alternating_pairs({"parent": parent, "copy": copy}, workloads,
                             AA_PAIRS, first_seed, seconds)
    return {w: {name: paired_ratios(metric_values(runs["parent"][w], name),
                                    metric_values(runs["copy"][w], name))
                for name in metrics}
            for w in workloads}


def run_python(checkout: Path, args: list, text: bool = True, cwd=None):
    """Run ``python args`` on ``checkout``'s own ``src``, in ``cwd`` (by
    default ``checkout``), without ``FSL_OUT_DIR``; return the finished
    process and its wall time in seconds."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "FSL_OUT_DIR"}
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], cwd=cwd or checkout,
                          capture_output=True, text=text,
                          env={**env, "PYTHONPATH": path})
    return proc, time.monotonic() - start


def tier1(checkout: Path) -> dict:
    """Wall time, exit code and outcome counts of one tier-1 run of the
    test suite in ``checkout``, read from pytest's closing summary line."""
    proc, wall = run_python(checkout, TIER1)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    counts = {word: 0 for word in ("passed", "failed", "xfailed")}
    for n, word in re.findall(r"(\d+) (passed|failed|xfailed)\b", last):
        counts[word] = int(n)
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            **counts, "summary": last}


def differing_lines(parent: bytes, change: bytes) -> list:
    """The [parent line, change line] pairs where two outputs differ, in
    order, decoded as UTF-8.  Lines are matched by difflib; a line present
    on one side only is paired with None."""
    a = parent.decode("utf-8", "replace").splitlines()
    b = change.decode("utf-8", "replace").splitlines()
    pairs = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            pairs.extend([x, y] for x, y in
                         itertools.zip_longest(a[i1:i2], b[j1:j2]))
    return pairs


def check_runtimes(data: bytes) -> dict:
    """Check id -> ``runtime_ms`` of a verdict CSV, as written by
    ``verify``: a header naming ``check_id`` and ``runtime_ms``, then one
    row per check."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    return {row["check_id"]: float(row["runtime_ms"]) for row in rows}


def verify_runs(dirs: dict) -> dict:
    """Per side, the wall times and exit codes of ``verify --suite all``:
    VERIFY_TIMED_RUNS runs at the first seed, the sides alternating, then
    one at each other seed, with each check's median ``runtime_ms`` over
    the timed runs and its [least, greatest] range, whether each seed's
    stdout is byte-identical between the sides and the differing line
    pairs of each seed whose stdout is not."""
    runs = {side: [] for side in SIDES}
    stdout = {side: {} for side in SIDES}
    checks = {side: {} for side in SIDES}  # check id -> timed runtimes
    seeds = [VERIFY_SEEDS[0]] * VERIFY_TIMED_RUNS + list(VERIFY_SEEDS[1:])
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            with tempfile.TemporaryDirectory(prefix="verify-") as out:
                proc, wall = run_python(
                    dirs[side], [*VERIFY, str(seed), "--out-dir", out],
                    text=False)
                table = Path(out, "verdicts.csv")
                if i < VERIFY_TIMED_RUNS and table.is_file():
                    for cid, ms in check_runtimes(table.read_bytes()).items():
                        checks[side].setdefault(cid, []).append(ms)
            runs[side].append((seed, round(wall, 3), proc.returncode))
            stdout[side].setdefault(seed, proc.stdout)
    same = {str(seed): stdout["parent"][seed] == stdout["change"][seed]
            for seed in VERIFY_SEEDS}
    moved = {str(seed): differing_lines(stdout["parent"][seed],
                                        stdout["change"][seed])
             for seed in VERIFY_SEEDS if not same[str(seed)]}
    return {side: {"wall_s": statistics.median(
                       w for _, w, _ in runs[side][:VERIFY_TIMED_RUNS]),
                   "check_runtime_ms": {
                       cid: statistics.median(ms)
                       for cid, ms in checks[side].items()},
                   "check_runtime_range_ms": {
                       cid: [min(ms), max(ms)]
                       for cid, ms in checks[side].items()},
                   "stdout_identical": same,
                   "differing_lines": moved,
                   "runs": [{"seed": seed, "wall_s": w, "exit_code": code}
                            for seed, w, code in runs[side]]}
            for side in SIDES}


def readme_examples(text: str) -> list:
    """The ``fracform`` command lines of the ``sh`` block under the README
    heading "Command line", as argument lists: a line that ends in a
    backslash goes on in the next, and a trailing ``# ...`` comment is
    dropped."""
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text,
                      re.M | re.S).group(1)
    lines = re.sub(r"\\\n", " ", block).splitlines()
    return [argv for argv in (shlex.split(line, comments=True)
                              for line in lines) if argv[:1] == ["fracform"]]


def mask_runtimes(data: bytes) -> bytes:
    """A CSV whose header names a ``runtime_ms`` column, with that column
    read as ``*`` in every row of the header's width; other bytes as
    they are."""
    lines = data.split(b"\n")
    header = lines[0].split(b",")
    if b"runtime_ms" not in header:
        return data
    col = header.index(b"runtime_ms")
    for i, line in enumerate(lines[1:], 1):
        fields = line.split(b",")
        if len(fields) == len(header):
            fields[col] = b"*"
            lines[i] = b",".join(fields)
    return b"\n".join(lines)


def cli_outputs(checkout: Path, args: list) -> dict:
    """Exit code, stdout, stderr, written files (relative path -> bytes,
    runtimes masked) and wall time in seconds of ``python -m fracform.cli
    args`` on ``checkout``'s ``src``, in a fresh temporary working
    directory."""
    with tempfile.TemporaryDirectory(prefix="cli-") as cwd:
        proc, wall = run_python(checkout, [*CLI, *args], text=False, cwd=cwd)
        files = {str(p.relative_to(cwd)): mask_runtimes(p.read_bytes())
                 for p in sorted(Path(cwd).rglob("*")) if p.is_file()}
    return {"exit_code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files, "wall_s": wall}


def cli_runs(dirs: dict) -> dict:
    """Per side and README example line, the median wall time of
    CLI_TIMED_RUNS runs, the sides alternating, and from the first run the
    exit code, the files written, whether each output is byte-identical
    between the sides and the differing line pairs of each output that is
    not."""
    readme = (dirs["change"] / "README.md").read_text(encoding="utf-8")
    out = {side: {} for side in SIDES}
    for argv in readme_examples(readme):
        runs = {side: [] for side in SIDES}
        for i in range(CLI_TIMED_RUNS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(cli_outputs(dirs[side], argv[1:]))
        p, c = runs["parent"][0], runs["change"][0]
        names = sorted(set(p["files"]) | set(c["files"]))
        outputs = {"stdout": (p["stdout"], c["stdout"]),
                   "stderr": (p["stderr"], c["stderr"]),
                   **{name: (p["files"].get(name), c["files"].get(name))
                      for name in names}}
        # a file written on one side only is compared with an empty one
        moved = {name: differing_lines(x or b"", y or b"")
                 for name, (x, y) in outputs.items() if x != y}
        identical = {"exit_code": p["exit_code"] == c["exit_code"],
                     "stdout": "stdout" not in moved,
                     "stderr": "stderr" not in moved,
                     "files": not set(moved) - {"stdout", "stderr"}}
        for side in SIDES:
            out[side][shlex.join(argv)] = {
                "wall_s": round(statistics.median(
                    r["wall_s"] for r in runs[side]), 3),
                "exit_code": runs[side][0]["exit_code"],
                "files": sorted(runs[side][0]["files"]),
                "identical": identical, "differing_lines": moved}
    return out


def import_runs(dirs: dict) -> dict:
    """Per side, the median wall time of IMPORT_RUNS cold ``import
    fracform`` runs, each in a fresh interpreter, the sides alternating,
    with every run's wall time and exit code."""
    runs = {side: [] for side in SIDES}
    for i in range(IMPORT_RUNS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            proc, wall = run_python(dirs[side], IMPORT)
            runs[side].append({"wall_s": round(wall, 4),
                               "exit_code": proc.returncode})
    return {side: {"wall_s": statistics.median(r["wall_s"]
                                               for r in runs[side]),
                   "runs": runs[side]}
            for side in SIDES}


def census_runs(dirs: dict) -> dict:
    """Per side, the exit code of one ``tools/census.py --json`` run in its
    checkout and the sorted names of the functions it found unreached, or
    None where it exited with an error."""
    out = {}
    for side in SIDES:
        proc, _ = run_python(dirs[side], CENSUS)
        unreached = None
        if proc.returncode == 0:
            unreached = sorted(name for name, entries
                               in json.loads(proc.stdout).items()
                               if not entries)
        out[side] = {"exit_code": proc.returncode, "unreached": unreached}
    return out


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of the runs, in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def paired_ratios(parent: list, change: list) -> dict | None:
    """Median of the paired log ratios log(change / parent) and the
    interval [x_(k), x_(n+1-k)] of their order statistics whose coverage
    1 - 2 P(B < k), B ~ Binomial(n, 1/2), is nearest to RATIO_LEVEL: the
    sign-test interval for the median ratio, which assumes nothing of the
    ratios' distribution.  None where a pair holds a value that is not
    positive, whose log ratio does not exist."""
    if not all(a > 0.0 and b > 0.0 for a, b in zip(parent, change)):
        return None
    x = sorted(math.log(b / a) for a, b in zip(parent, change))
    n = len(x)

    def coverage(k):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2.0 ** n

    k = min(range(1, (n + 1) // 2 + 1),
            key=lambda k: abs(coverage(k) - RATIO_LEVEL))
    return {"median_log": statistics.median(x), "lo_log": x[k - 1],
            "hi_log": x[n - k], "coverage": coverage(k)}


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
        runs = alternating_pairs(dirs, workloads, PAIRS, args.first_seed,
                                 spec["run_seconds"])
        export(refs["parent"], work / "parent-copy")
        ratios_aa = aa_ratios(dirs["parent"], work / "parent-copy",
                              workloads, metrics, args.first_seed,
                              spec["run_seconds"])
        tier1_runs = {side: tier1(dirs[side]) for side in SIDES}
        verify_info = verify_runs(dirs)
        cli_info = cli_runs(dirs)
        import_info = import_runs(dirs)
        census_info = census_runs(dirs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def side_record(side):
        out = {"ref": refs[side], "commit": commits[side],
               "trees": {d: git("rev-parse", f"{commits[side]}:{d}")
                         .decode().strip() for d in MEASURED},
               "info": {**runs[side][workloads[0]][0]["info"],
                        "tier1": tier1_runs[side],
                        "verify": verify_info[side],
                        "cli": cli_info[side],
                        "import": import_info[side],
                        "census": census_info[side]},
               "workloads": {}}
        out["src_loc"] = out["info"]["src_loc"]
        for w in workloads:
            res = [r["result"] for r in runs[side][w]]
            out["workloads"][w] = {
                "metrics": {
                    name: dict(summary(metric_values(runs[side][w], name)),
                               unit=metrics[name]["unit"])
                    for name in metrics},
                "failed_share": sum(r["failed"] for r in res)
                / sum(r["attempted"] for r in res),
                "faults": summary([r["faults"] for r in runs[side][w]]),
                "all_correct": all(r["correct"] for r in res),
            }
        return out

    record = {"pairs": PAIRS, "seconds": spec["run_seconds"],
              "seeds": [args.first_seed + i for i in range(PAIRS)],
              **{side: side_record(side) for side in SIDES}, "wins": {},
              "ratios": {}, "ratios_aa": ratios_aa}
    for w in workloads:
        record["wins"][w], record["ratios"][w] = {}, {}
        for name, m in metrics.items():
            p, c = (record[side]["workloads"][w]["metrics"][name]["runs"]
                    for side in SIDES)
            sign = 1.0 if m["better"] == "lower" else -1.0
            record["wins"][w][name] = sum(sign * (a - b) > 0.0
                                          for a, b in zip(p, c))
            record["ratios"][w][name] = paired_ratios(p, c)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
