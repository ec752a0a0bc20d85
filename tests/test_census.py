"""Every ``src/`` function earns a route: the README command lines and
``verify`` (``tools/census.py``) reach it, or it is listed below with the
reason it stays.  A function that loses its last route fails here until it
is deleted or listed, and so does an entry for a function that is reached
again or no longer exists.

Reasons come from a fixed vocabulary:

- ``error path``: runs only when an input is refused or a verdict is
  negative;
- ``input path``: a CLI input format or option that no README line uses,
  or the writer of such a format;
- ``pickle hook``: runs only when a value is pickled or copied;
- ``kept: paper construction``: a construction of the paper with no
  ``verify`` check yet;
- ``perfbench: <workload>``: reached only by that benchmark workload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    "cli._Parser.error": "error path",
    "cli._read_json": "input path",                     # json: and --triplet
    "energy.calibrate_c_of_alpha": "perfbench: spectral",
    "energy.fourier_energy": "perfbench: spectral",
    "energy.fourier_gagliardo_ratio": "perfbench: spectral",
    "fourier.FourierTable.__post_init__": "perfbench: spectral",
    "fourier.discrete_fourier": "perfbench: spectral",
    "grids.GridFunction.__reduce__": "pickle hook",
    "grids.GridFunction.from_csv": "input path",        # csv:
    "grids.GridFunction.from_json_dict": "input path",  # json:
    "grids.GridFunction.to_csv": "input path",          # writes csv:
    # the verdict of is_erased_function for a candidate above g
    "grids.IntervalSet.empty": "error path",
    "grids._rebuilt": "pickle hook",
    "grids.epsilon_contraction": "kept: paper construction",
    "ladder.LadderTree.__getstate__": "pickle hook",
    # the range walks of trees with many peaks (the ladder solve)
    "ladder._span": "perfbench: ladder",
    "ladder._sparse_table": "perfbench: ladder",
    "ladder._walk": "perfbench: ladder",
    "ladder.arm_split": "perfbench: ladder",
    "ladder.ladder_star": "perfbench: ladder",
    "ladder.skorokhod_star": "kept: paper construction",
    "levy.LevyTriplet.from_json_dict": "input path",    # levy --triplet
    # the split correlation of more than 2^13 slopes
    "quadcells._side_by_side": "perfbench: energies",
    "quadcells._side_by_side.<locals>.helper": "perfbench: energies",
    "quadcells._split_autocorr": "perfbench: energies",
    "scalecap.CapacitySolverError.__init__": "error path",
}

REASONS = {"error path", "input path", "pickle hook",
           "kept: paper construction"}


def _workloads() -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"] for w in spec["workloads"]}


def test_every_reason_is_from_the_vocabulary():
    perfbench = {f"perfbench: {name}" for name in _workloads()}
    assert {name: reason for name, reason in UNREACHED.items()
            if reason not in REASONS | perfbench} == {}


def test_unreached_functions_are_the_listed_ones():
    # a fresh interpreter: caches the suite has filled would hide the
    # functions that fill them
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "census.py"), "--json"],
        capture_output=True, text=True, timeout=300,
        env={k: v for k, v in os.environ.items() if k != "FSL_OUT_DIR"})
    assert proc.returncode == 0, proc.stderr
    reached = json.loads(proc.stdout)
    unreached = {name for name, entries in reached.items() if not entries}
    assert sorted(unreached - UNREACHED.keys()) == []   # lost its last route
    assert sorted(UNREACHED.keys() - unreached) == []   # stale entry
