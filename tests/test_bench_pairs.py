"""The parts of ``tools/bench_pairs.py`` that a record's comparisons rest
on: the line pairing recorded when the two sides' outputs differ, the
README command lines both sides run and their timed runs, the runtime mask
of verdict CSVs, the per-check runtimes read from them over alternating
``verify`` runs, the census of unreached functions, the paired-ratio
interval, the minor page faults of a benchmark run and the A/A pairs of
the parent against itself."""

import math
import resource
from pathlib import Path

import pytest

from conftest import load_tool
from fracform.cli import emit_table
from fracform.verify import VerdictRecord

bench_pairs = load_tool("bench_pairs")
aa_ratios = bench_pairs.aa_ratios
census_runs = bench_pairs.census_runs
check_runtimes = bench_pairs.check_runtimes
cli_runs = bench_pairs.cli_runs
differing_lines = bench_pairs.differing_lines
mask_runtimes = bench_pairs.mask_runtimes
paired_ratios = bench_pairs.paired_ratios
readme_examples = bench_pairs.readme_examples
run_once = bench_pairs.run_once
verify_runs = bench_pairs.verify_runs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_identical_outputs_have_no_pairs():
    out = b"[PASS] a 1.0\n[FAIL] b 2.0\n11/12\n"
    assert differing_lines(out, out) == []


def test_a_moved_value_is_paired_with_its_old_line():
    parent = b"[PASS] a 1.0\n[PASS] drift 2.51031170096e-07\n11/12\n"
    change = b"[PASS] a 1.0\n[PASS] drift 2.51031169652e-07\n11/12\n"
    assert differing_lines(parent, change) == [
        ["[PASS] drift 2.51031170096e-07", "[PASS] drift 2.51031169652e-07"]]


def test_lines_on_one_side_only_pair_with_none():
    parent = b"a\nb\nc\nd\n"
    change = b"a\nx\nc\nd\ne\n"
    assert differing_lines(parent, change) == [["b", "x"], [None, "e"]]
    assert differing_lines(b"a\nb\n", b"a\n") == [["b", None]]


_DOC = """# Title

```sh
fracform not-this-block
```

## Command line

Some text.

```sh
fracform energy --alpha 0.5 \\
    --function "indicator:0,1"   # a comment with --flags
  fracform verify --list
pip install nothing
# fracform commented-out
```

```sh
fracform a-later-block
```
"""


def test_extractor_joins_continuations_and_drops_comments():
    assert readme_examples(_DOC) == [
        ["fracform", "energy", "--alpha", "0.5", "--function",
         "indicator:0,1"],
        ["fracform", "verify", "--list"]]


def test_extractor_reads_the_readmes_thirteen_lines_as_twelve_commands():
    # the capacity example is continued on a second line
    lines = readme_examples(README.read_text(encoding="utf-8"))
    assert [argv[1] for argv in lines] == [
        "energy", "energy", "ladder", "scale", "capacity", "levy", "verify",
        "verify", "verify", "energy", "levy", "energy"]
    assert lines[4] == ["fracform", "capacity", "--target", "[[-0.1, 0.1]]",
                        "--alpha-star", "0.5", "--domain=-2,2", "--step",
                        "0.002", "--out", "cap.json"]
    assert all("#" not in arg for argv in lines for arg in argv)


def test_mask_blanks_only_the_runtime_column():
    table = (b"check_id,status,measured,tolerance,runtime_ms\n"
             b"a,PASS,1;2,0.1,3.25\n"
             b"b,FAIL,,1e-06,0.5\n")
    assert mask_runtimes(table) == (
        b"check_id,status,measured,tolerance,runtime_ms\n"
        b"a,PASS,1;2,0.1,*\n"
        b"b,FAIL,,1e-06,*\n")
    other = b"part,nodes,sup_gap\npositive,1,0.5\n"
    assert mask_runtimes(other) == other
    assert mask_runtimes(b"") == b""


def test_check_runtimes_read_the_verdict_table(tmp_path):
    records = [VerdictRecord("indicator-closed-form", "PASS", (4.9e-08,),
                             0.01, 18),
               VerdictRecord("erased-bound-family", "PASS",
                             (1.0004, 5.46e-07), 0.1, 169),
               VerdictRecord("step-approximation-rate", "FAIL", (), 0.1, 0)]
    emit_table(records, tmp_path / "verdicts.csv")
    assert check_runtimes((tmp_path / "verdicts.csv").read_bytes()) == {
        "indicator-closed-form": 18, "erased-bound-family": 169,
        "step-approximation-rate": 0}
    assert check_runtimes(b"check_id,status,measured,tolerance,runtime_ms\n"
                          b"a,PASS,1;2,0.1,3.25\n") == {"a": 3.25}


# a stand-in ``fracform.cli`` for ``verify``: it logs its side and seed in
# one log for both checkouts, then writes a verdict table whose runtimes
# are the run's place in that log (check b's ten times it) and prints the
# seed, and at seed 7 its side too
_FAKE_VERIFY = """import sys
from pathlib import Path
args = sys.argv[1:]
seed = args[args.index("--seed") + 1]
log = Path(__file__).resolve().parents[3] / "runs.log"
with open(log, "a") as f:
    f.write("{tag} " + seed + "\\n")
n = len(log.read_text().splitlines())
Path(args[args.index("--out-dir") + 1], "verdicts.csv").write_text(
    "check_id,status,measured,tolerance,runtime_ms\\n"
    f"a,PASS,1,0.1,{{n}}\\nb,PASS,2,0.1,{{10 * n}}\\n")
print("seed", seed, *(["{tag}"] if seed == "7" else []))
"""


def test_verify_checks_are_timed_in_five_alternating_runs(tmp_path):
    dirs = {}
    for tag in ("parent", "change"):
        pkg = tmp_path / tag / "src" / "fracform"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "cli.py").write_text(_FAKE_VERIFY.format(tag=tag))
        dirs[tag] = tmp_path / tag
    record = verify_runs(dirs)
    # five seed-0 runs and one at seed 7, the side that goes first
    # alternating
    assert (tmp_path / "runs.log").read_text().splitlines() == [
        f"{side} {seed}" for i, seed in enumerate([0] * 5 + [7])
        for side in (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))]
    # the parent's timed runs are the 1st, 4th, 5th, 8th and 9th in the
    # log, the change's the 2nd, 3rd, 6th, 7th and 10th
    parent, change = record["parent"], record["change"]
    assert parent["check_runtime_ms"] == {"a": 5.0, "b": 50.0}
    assert parent["check_runtime_range_ms"] == {"a": [1.0, 9.0],
                                                "b": [10.0, 90.0]}
    assert change["check_runtime_ms"] == {"a": 6.0, "b": 60.0}
    assert change["check_runtime_range_ms"] == {"a": [2.0, 10.0],
                                                "b": [20.0, 100.0]}
    for side in record.values():
        assert [r["seed"] for r in side["runs"]] == [0] * 5 + [7]
        assert all(r["exit_code"] == 0 for r in side["runs"])
        assert side["stdout_identical"] == {"0": True, "7": False}
        assert side["differing_lines"] == {
            "7": [["seed 7 parent", "seed 7 change"]]}


# a stand-in ``fracform.cli`` that logs each run's working directory in its
# checkout, then prints what it found there and writes one file
_FAKE_CLI = """import os, sys
from pathlib import Path
with open(Path(__file__).resolve().parents[2] / "runs.log", "a") as log:
    log.write(os.getcwd() + "\\n")
print(sorted(os.listdir()), sys.argv[1:], {tag!r})
Path("out.txt").write_text("written")
"""


def _fake_checkout(root, tag):
    pkg = root / "src" / "fracform"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(_FAKE_CLI.format(tag=tag))
    (root / "README.md").write_text(_DOC)
    return root


def test_cli_lines_are_timed_in_three_fresh_processes(tmp_path):
    dirs = {"parent": _fake_checkout(tmp_path / "parent", "old"),
            "change": _fake_checkout(tmp_path / "change", "new")}
    record = cli_runs(dirs)
    lines = ["fracform energy --alpha 0.5 --function indicator:0,1",
             "fracform verify --list"]
    for side, root in dirs.items():
        assert list(record[side]) == lines
        for line in lines:
            entry = record[side][line]
            assert isinstance(entry["wall_s"], float) and entry["wall_s"] > 0
            assert entry["exit_code"] == 0 and entry["files"] == ["out.txt"]
            assert entry["identical"] == {"exit_code": True, "stdout": False,
                                          "stderr": True, "files": True}
        # three runs per line, each in a working directory of its own
        cwds = (root / "runs.log").read_text().splitlines()
        assert len(cwds) == 3 * len(lines) == len(set(cwds))
    moved = record["change"][lines[1]]["differing_lines"]
    assert moved == {"stdout": [["[] ['verify', '--list'] old",
                                 "[] ['verify', '--list'] new"]]}


# a stand-in ``tools/census.py`` that prints a fixed reachability map
_FAKE_CENSUS = """import json, sys
print(json.dumps({reached!r}))
sys.exit({code})
"""


def _census_checkout(root, reached, code=0):
    (root / "tools").mkdir(parents=True)
    (root / "tools" / "census.py").write_text(
        _FAKE_CENSUS.format(reached=reached, code=code))
    return root


def test_census_records_each_sides_unreached_functions(tmp_path):
    dirs = {"parent": _census_checkout(
                tmp_path / "parent",
                {"m.b": [], "m.a": [], "m.c": ["fracform verify --list"]}),
            "change": _census_checkout(
                tmp_path / "change", {"m.a": ["fracform verify --list"]})}
    assert census_runs(dirs) == {
        "parent": {"exit_code": 0, "unreached": ["m.a", "m.b"]},
        "change": {"exit_code": 0, "unreached": []}}


def test_a_failed_census_is_recorded_not_raised(tmp_path):
    dirs = {"parent": _census_checkout(tmp_path / "parent", {}, code=1),
            "change": tmp_path / "change"}       # no census at all
    (tmp_path / "change").mkdir()
    assert census_runs(dirs) == {
        "parent": {"exit_code": 1, "unreached": None},
        "change": {"exit_code": 2, "unreached": None}}


def test_ten_pairs_give_the_third_and_eighth_ratios():
    # change/parent = 2^(i - 5) for i = 0..9, given out of order: the log
    # ratios sorted are (i - 5) log 2
    parent = [1.0, 2.0, 4.0, 0.5, 3.0, 1.5, 8.0, 1.0, 2.0, 0.25]
    order = [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]
    change = [p * 2.0 ** (i - 5) for p, i in zip(parent, order)]
    out = paired_ratios(parent, change)
    log2 = math.log(2.0)
    assert out["median_log"] == pytest.approx(-0.5 * log2)
    assert out["lo_log"] == pytest.approx(-3.0 * log2)
    assert out["hi_log"] == pytest.approx(2.0 * log2)
    # 1 - 2 (1 + 10 + 45) / 2^10, the sign test's coverage at k = 3
    assert out["coverage"] == 1.0 - 112.0 / 1024.0


def test_equal_runs_give_a_point_interval_and_no_log_of_zero():
    out = paired_ratios([3.0] * 10, [3.0] * 10)
    assert (out["median_log"], out["lo_log"], out["hi_log"]) == (0.0,) * 3
    assert paired_ratios([1.0, 0.0], [1.0, 1.0]) is None
    assert paired_ratios([1.0, 2.0], [1.0, -1.0]) is None


# a stand-in ``perfbench/run.py`` that writes {mib} MiB, then prints an info
# line and a result
_FAKE_RUN = """import json
data = b"x" * ({mib} << 20)
print("info: " + json.dumps({{"machine": "stand-in"}}))
print(json.dumps({{"failed": 0, "attempted": 1, "correct": True}}))
"""


def _run_checkout(root, mib):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_FAKE_RUN.format(mib=mib))
    return root


def test_a_run_counts_the_minor_faults_of_its_process(tmp_path):
    runs = [run_once(_run_checkout(tmp_path / str(mib), mib), "energies", 1,
                     1) for mib in (0, 16)]
    assert [r["info"] for r in runs] == [{"machine": "stand-in"}] * 2
    assert runs[0]["result"] == {"failed": 0, "attempted": 1,
                                 "correct": True}
    # writing 16 MiB faults in at least most of its pages
    pages = (16 << 20) // resource.getpagesize()
    assert runs[0]["faults"] > 0
    assert runs[1]["faults"] - runs[0]["faults"] >= pages // 2


# a stand-in ``perfbench/run.py`` that logs its checkout, workload and seed,
# then reports the seed to the power {power} as its one metric
_SEEDED_RUN = """import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(Path(__file__).resolve().parents[2] / "runs.log", "a") as log:
    log.write(f"{tag} {{workload}} {{seed}}\\n")
print("info: {{}}")
print(json.dumps({{"metrics": {{"m": {{"value": seed ** {power}}}}}}}))
"""


def test_aa_pairs_alternate_and_give_the_outer_ratios(tmp_path):
    checkouts = []
    for tag, power in (("parent", 1), ("copy", 2)):
        (tmp_path / tag / "perfbench").mkdir(parents=True)
        (tmp_path / tag / "perfbench" / "run.py").write_text(
            _SEEDED_RUN.format(tag=tag, power=power))
        checkouts.append(tmp_path / tag)
    out = aa_ratios(*checkouts, ["w1", "w2"], {"m": {}}, 1, 1)
    # four pairs, each workload's runs alternating which side goes first
    assert (tmp_path / "runs.log").read_text().splitlines() == [
        f"{tag} {w} {seed}" for seed in range(1, 5) for w in ("w1", "w2")
        for tag in (("parent", "copy") if seed % 2 else ("copy", "parent"))]
    # copy / parent = seed: the log ratios are log 1 .. log 4, and four
    # pairs give the interval from the least to the greatest
    for w in ("w1", "w2"):
        ratio = out[w]["m"]
        assert ratio["lo_log"] == 0.0
        assert ratio["hi_log"] == pytest.approx(math.log(4.0))
        assert ratio["median_log"] == pytest.approx(math.log(6.0) / 2.0)
        assert ratio["coverage"] == 0.875
