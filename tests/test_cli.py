import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracform.cli import _pair, emit_table, main, parse_function_literal
from fracform.grids import GridFunction, StepFunction, window
from fracform.verify import VerdictRecord

from conftest import SINGLE_THREAD, _cap_address_space, load_tool

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, env=None):
    """A fresh ``python -m fracform.cli`` process.  Tests whose subject is
    the process use it: one run per subcommand, the byte-identical
    ``verify`` pair and the FSL_OUT_DIR fallback; the others call ``main``
    in this process through ``_run_main``."""
    return subprocess.run([sys.executable, "-m", "fracform.cli"] + args,
                          capture_output=True, text=True, env=env)


class TestFunctionLiterals:
    def test_indicator(self):
        f = parse_function_literal("indicator:0,1", 0.01)
        assert f.span() == (0.0, 1.0)

    def test_plateau(self):
        f = parse_function_literal("plateau:0,1,0.5", 1.0 / 64.0)
        assert f.total_variation() == pytest.approx(2.0, abs=1e-12)

    def test_bump(self):
        f = parse_function_literal("bump:0.5,0.25", 1.0 / 64.0)
        assert f.linf() == pytest.approx(1.0, abs=1e-9)

    def test_csv_roundtrip(self, tmp_path):
        f = parse_function_literal("bump:0,1", 1.0 / 32.0)
        path = tmp_path / "f.csv"
        path.write_text(f.to_csv(), encoding="utf-8")
        g = parse_function_literal(f"csv:{path}", 1.0 / 32.0)
        assert np.allclose(f.values, g.values, atol=1e-12)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_function_literal("mystery:1", 0.01)


# tokens of the literal grammar: finite numbers small enough that an accepted
# grid stays far below the node limit at step 1/64, then huge, subnormal,
# non-finite and empty ones
TOKENS = st.one_of(
    st.floats(-100.0, 100.0).map(repr),
    st.sampled_from(["1e12", "-1e12", "1e300", "-1e300", "1.7e308",
                     "-1.7e308", "5e-324", "nan", "-nan", "inf", "-inf", ""]))


@given(kind=st.sampled_from(["indicator", "plateau", "bump"]),
       tokens=st.lists(TOKENS, min_size=0, max_size=5))
@settings(max_examples=300, deadline=None)
def test_literal_fuzz_returns_function_or_value_error(kind, tokens):
    text = f"{kind}:{','.join(tokens)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            f = parse_function_literal(text, 1.0 / 64.0)
        except ValueError:
            return
    assert isinstance(f, (GridFunction, StepFunction)), text


BAD_INPUTS = {
    "csv-short-row": ["energy", "--alpha", "0.5", "--function", "csv:{short_csv}"],
    "json-no-step": ["energy", "--alpha", "0.5", "--function", "json:{no_step}"],
    "json-null-origin": ["energy", "--alpha", "0.5", "--function",
                         "json:{null_origin}"],
    "json-list-step": ["energy", "--alpha", "0.5", "--function",
                       "json:{list_step}"],
    "json-dict-values": ["energy", "--alpha", "0.5", "--function",
                         "json:{dict_values}"],
    # finite samples whose energy overflows float64
    "energy-overflow": ["energy", "--alpha", "0.5", "--function",
                        "csv:{huge_csv}"],
    "zero-step": ["energy", "--alpha", "0.5", "--function", "bump:0,1",
                  "--step", "0"],
    "atom-without-mass": ["levy", "--atom", "1"],
    "capacity-zero-step": ["capacity", "--target", "[[0.2, 0.4]]",
                           "--alpha-star", "0.5", "--domain", "0,4",
                           "--step", "0"],
    # (4 - 0) / 1e-9 + 1 nodes: 29.8 GiB for the node array alone
    "capacity-tiny-step": ["capacity", "--target", "[[0.2, 0.4]]",
                           "--alpha-star", "0.5", "--domain", "0,4",
                           "--step", "1e-9"],
    "capacity-null-endpoint": ["capacity", "--target", "[[0, 1], [null, 2]]",
                               "--alpha-star", "0.5", "--domain", "0,4",
                               "--step", "0.01"],
    "capacity-bare-number": ["capacity", "--target", "[5]", "--alpha-star",
                             "0.5", "--domain", "0,4", "--step", "0.01"],
    "capacity-reversed-piece": ["capacity", "--target", "[[1, 0]]",
                                "--alpha-star", "0.5", "--domain", "0,4",
                                "--step", "0.01"],
    "capacity-one-domain-number": ["capacity", "--target", "[[0.2, 0.4]]",
                                   "--alpha-star", "0.5", "--domain=2",
                                   "--step", "0.01"],
    "capacity-nan-domain": ["capacity", "--target", "[[0.2, 0.4]]",
                            "--alpha-star", "0.5", "--domain=nan,2",
                            "--step", "0.01"],
    # ||b||^2 of the E1 system overflows float64 below alpha_star ~ 1e-157
    "capacity-tiny-alpha-star": ["capacity", "--target", "[[-0.1, 0.1]]",
                                 "--alpha-star", "1e-300", "--domain=-2,2",
                                 "--step", "0.01"],
    "bump-negative-width": ["energy", "--alpha", "0.5", "--function",
                            "bump:0,-1"],
    "bump-zero-width": ["energy", "--alpha", "0.5", "--function", "bump:0,0"],
    # c + w overflows to inf
    "bump-overflow": ["energy", "--alpha", "0.5", "--function",
                      "bump:1e308,1e308"],
    # ~1e12 * 256 nodes at the default step: PiB-sized grids
    "bump-huge-width": ["energy", "--alpha", "0.5", "--function",
                        "bump:0,1e12"],
    "plateau-huge-top": ["energy", "--alpha", "0.5", "--function",
                         "plateau:0,1e12,0.5"],
    # b - a overflows to inf
    "indicator-overflow-span": ["energy", "--alpha", "0.5", "--function",
                                "indicator:-1e308,1e308"],
    # 1e9 cells: 7.45 GiB for the sampled step function alone
    "ladder-tiny-step": ["ladder", "--function", "indicator:0,1", "--step",
                         "1e-9"],
    "scale-null-alpha": ["scale", "--spec", "{null_alpha_spec}"],
    "scale-list-spec": ["scale", "--spec", "{list_json}"],
    "scale-fractional-count": ["scale", "--spec", "{half_count_spec}"],
    "levy-null-sigma": ["levy", "--triplet", "{null_sigma_triplet}"],
    "levy-list-triplet": ["levy", "--triplet", "{list_json}"],
    "levy-null-atom-mass": ["levy", "--triplet", "{null_mass_triplet}"],
    "levy-nan-sigma": ["levy", "--sigma", "nan"],
    "levy-nan-atom": ["levy", "--atom", "nan:1"],
    "levy-one-indicator-number": ["levy", "--atom", "1:1", "--indicator",
                                  "0"],
    "ladder-nan-sup-tol": ["ladder", "--function", "bump:0,1", "--sup-tol",
                           "nan"],
    "ladder-negative-sup-tol": ["ladder", "--function", "bump:0,1",
                                "--sup-tol", "-1"],
    "levy-nan-xi-min": ["levy", "--atom", "1:1", "--xi-min", "nan"],
    "levy-zero-n-xi": ["levy", "--atom", "1:1", "--n-xi", "0"],
    "levy-reversed-xi": ["levy", "--atom", "1:1", "--xi-min", "10",
                         "--xi-max", "1"],
    "levy-infinite-xi-max": ["levy", "--atom", "1:1", "--xi-max", "inf"],
    # 1e10 frequencies: 149 GiB for the grid alone
    "levy-huge-n-xi": ["levy", "--atom", "1:1", "--n-xi", "10000000000"],
    # 1e8 islands: several GiB of Python lists
    "scale-huge-count": ["scale", "--n-intervals", "100000000"],
    "scale-huge-spec-count": ["scale", "--spec", "{huge_count_spec}"],
    "scale-zero-step": ["scale", "--step", "0"],
    "scale-negative-step": ["scale", "--step", "-1"],
    # 3e12 nodes on [-1.5, 1.5]: 21.8 TiB for the grid alone
    "scale-tiny-step": ["scale", "--step", "1e-12"],
    "scale-infinite-budget": ["scale", "--budget", "inf"],
    # sigma xi^2 / 2 overflows at xi = 1e300
    "levy-overflowing-symbol": ["levy", "--sigma", "1", "--xi-max", "1e300"],
}

def _bad_input_files(root) -> dict:
    """Write the input files of the BAD_INPUTS cases into ``root``; return
    name -> path."""
    grid = {"origin": 0.0, "step": 0.5, "values": [0.0, 1.0, 0.0]}
    files = {
        "short_csv": "0,0\n0.1,1\n0.2\n0.3,0\n",
        "huge_csv": "0,0\n0.5,1e160\n1,0\n",
        "no_step": json.dumps({"origin": 0.0, "values": [0.0, 1.0, 0.0]}),
        "null_origin": json.dumps({**grid, "origin": None}),
        "list_step": json.dumps({**grid, "step": [0.5]}),
        "dict_values": json.dumps({**grid, "values": {"0": 1.0}}),
        "list_json": "[1, 2]",
        "null_alpha_spec": json.dumps({"alpha": None, "budget": 0.1}),
        "half_count_spec": json.dumps({"alpha": 1.5, "budget": 0.1,
                                       "n_intervals": 2.5}),
        "huge_count_spec": json.dumps({"alpha": 1.5, "budget": 0.1,
                                       "n_intervals": 1e8}),
        "null_sigma_triplet": json.dumps({"sigma": None}),
        "null_mass_triplet": json.dumps({"atoms": [[1, None]]}),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = Path(root) / name
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _run_main(args) -> tuple:
    """(exit code, stdout, stderr, name of an escaped exception or None) of
    ``fracform.cli.main(args)`` in this process, as a fresh
    ``python -m fracform.cli`` would give them: an escaped exception exits
    with 1 and a traceback.  Warnings are shown afresh for each call."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        try:
            code = main(args)
        except SystemExit as exc:                      # argparse
            code = exc.code
        except BaseException as exc:                   # noqa: BLE001
            escaped = type(exc).__name__
            traceback.print_exc()
            code = 1
    return code or 0, out.getvalue(), err.getvalue(), escaped


def bad_input_outcomes(root) -> dict:
    """Case -> ``_run_main`` of every BAD_INPUTS case, with the input files
    and one out-dir per case under ``root``."""
    paths = _bad_input_files(root)
    out = {}
    for case, template in BAD_INPUTS.items():
        out_dir = Path(root) / "out" / case
        out_dir.mkdir(parents=True)
        args = [a.format(**paths) for a in template]
        out[case] = _run_main(args + ["--out-dir", str(out_dir)])
    return out


@pytest.fixture(scope="module")
def bad_input_runs(tmp_path_factory):
    """Every BAD_INPUTS case, run in one child process under the 1 GiB
    address-space cap with one BLAS thread, so that a case that would
    allocate tens of GiB fails fast with MemoryError."""
    root = tmp_path_factory.mktemp("bad-inputs")
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, test_cli\n"
            "print(json.dumps(test_cli.bad_input_outcomes(sys.argv[1])))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(root)],
                          capture_output=True, text=True,
                          env={**os.environ, **SINGLE_THREAD,
                               "PYTHONPATH": path},
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, bad_input_runs):
    code, _, stderr, escaped = bad_input_runs[case]
    assert code == 1, escaped
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr


@pytest.mark.parametrize("where", ["option", "environment"])
def test_unusable_out_dir_is_one_error_line(where, tmp_path, monkeypatch):
    # a directory under a regular file, or the regular file itself, cannot
    # be made; the run stops before the subcommand and writes nothing
    plain = tmp_path / "plain"
    plain.write_text("x", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = ["energy", "--alpha", "0.5", "--function", "bump:0,1",
            "--out", "report.json"]
    if where == "option":
        monkeypatch.delenv("FSL_OUT_DIR", raising=False)
        args += ["--out-dir", str(plain / "sub")]
    else:
        monkeypatch.setenv("FSL_OUT_DIR", str(plain))
    code, stdout, stderr, escaped = _run_main(args)
    assert (code, escaped, stdout) == (1, None, "")
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]
    assert plain.read_text(encoding="utf-8") == "x"


def _readme_example(argv):
    if argv[1:4] == ["verify", "--suite", "all"]:
        return pytest.param(argv, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="check 4, step-approximation-rate, is a documented "
                   "failure, so verify --suite all exits 2"))
    return argv


_README_EXAMPLES = load_tool("bench_pairs").readme_examples(
    README.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv", [_readme_example(argv) for argv in _README_EXAMPLES],
    ids=[f"{i}-{argv[1]}" for i, argv in enumerate(_README_EXAMPLES)])
def test_readme_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FSL_OUT_DIR", raising=False)
    code, _, stderr, escaped = _run_main(argv[1:])
    assert (code, escaped, stderr) == (0, None, ""), shlex.join(argv)


def _pair_by_float(text):
    """The (lo, hi) that float() and the window gate read from text, or
    None where either refuses it."""
    try:
        return window("pair", [float(t) for t in text.split(",")])
    except ValueError:
        return None


# number tokens, tokens float() reads in its wider grammar, and the text
# around them
PAIR_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1_000", "1__0", "_1", "1_", " 2 ", "\u0663", "1.",
                     ".5", ".", "1e5_0", "e5", "0x10", "infinity", "-nan",
                     "1e400", ""]),
    st.text(alphabet="0123456789_.eE+- ", max_size=6))


@given(tokens=st.lists(PAIR_TOKENS, min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_pair_reads_what_float_and_the_window_gate_accept(tokens):
    text = ",".join(tokens)
    expected = _pair_by_float(text)
    if expected is None:
        with pytest.raises(ValueError) as info:
            _pair("--domain", text, "lo < hi")
        assert str(info.value) == \
            f"--domain needs two finite numbers lo < hi, got {text!r}"
    else:
        assert _pair("--domain", text, "lo < hi") == expected


@pytest.mark.parametrize("domain", ["2", "nan,2", "3,1", "0,1,2", "a,b"])
def test_capacity_domain_needs_two_ordered_numbers(domain, tmp_path):
    code, _, stderr, _ = _run_main(
        ["capacity", "--target", "[[0.2, 0.4]]", "--alpha-star", "0.5",
         f"--domain={domain}", "--step", "0.01", "--out-dir", str(tmp_path)])
    assert code == 1
    assert stderr == f"error: --domain needs two finite numbers lo < hi, " \
                     f"got {domain!r}\n"


class TestEnergyCommand:
    def test_indicator_alpha_half(self, tmp_path):
        code, stdout, _, _ = _run_main(["energy", "--alpha", "0.5",
                                        "--function", "indicator:0,1",
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        value = float(stdout.split("energy = ")[1].splitlines()[0])
        assert value == pytest.approx(16.0, rel=0.01)

    def test_divergent_flagged(self, tmp_path):
        code, stdout, _, _ = _run_main(["energy", "--alpha", "1.5",
                                        "--function", "indicator:0,1",
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "DIVERGENT" in stdout

    def test_indicator_just_below_one_is_finite(self, tmp_path):
        code, stdout, _, _ = _run_main(["energy", "--alpha", "0.99",
                                        "--function", "indicator:0,1",
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        # the closed form 4 / (alpha (1 - alpha)) to the printed 12 digits
        assert "energy = 404.04040404\n" in stdout
        assert "DIVERGENT" not in stdout

    def test_dirichlet_energy_of_a_jump_diverges(self, tmp_path):
        code, stdout, _, _ = _run_main(["energy", "--alpha", "2",
                                        "--function", "indicator:0,1",
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert stdout == "dirichlet_energy = divergent\n"

    def test_json_report_written(self, tmp_path):
        out = run_cli(["energy", "--alpha", "0.5", "--function", "bump:0,1",
                       "--out", "report.json", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert set(data) == {"value", "l2", "e1", "trace"}

    def test_step_function_trace_has_ten_levels(self, tmp_path):
        # the library samples nothing by default; the command asks for the
        # ten levels of sampled evidence, at 4 .. 2048 cells
        code, stdout, _, _ = _run_main(["energy", "--alpha", "0.5",
                                        "--function", "indicator:0,1",
                                        "--out", "report.json",
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        trace = [line.split() for line in stdout.splitlines()
                 if line.startswith("trace ")]
        assert [int(cells) for _, cells, _ in trace] == \
            [4 * 2 ** k for k in range(10)]
        assert " ".join(trace[0]) == "trace 4 11.7123343053"
        data = json.loads((tmp_path / "report.json").read_text())
        assert [cells for cells, _ in data["trace"]] == \
            [4 * 2 ** k for k in range(10)]


class TestVerifyCommand:
    def test_core_suite_deterministic_stdout(self, tmp_path):
        a = run_cli(["verify", "--suite", "core", "--seed", "7",
                     "--out-dir", str(tmp_path / "a")])
        b = run_cli(["verify", "--suite", "core", "--seed", "7",
                     "--out-dir", str(tmp_path / "b")])
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        rows_a = (tmp_path / "a" / "verdicts.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "verdicts.csv").read_text().splitlines()
        # identical apart from the wall-clock runtime column
        strip = lambda rows: [",".join(r.split(",")[:4]) for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_full_suite_exit_code_flags_failures(self, tmp_path):
        code, stdout, _, _ = _run_main(["verify", "--suite", "all", "--seed",
                                        "7", "--out-dir", str(tmp_path)])
        # the step-rate criterion is a documented failure, so exit code 2
        assert code == 2
        assert "step-approximation-rate: FAIL" in stdout
        rows = (tmp_path / "verdicts.csv").read_text().splitlines()
        assert len(rows) == 13  # header plus one record per criterion

    def test_list_enumerates_checks(self, tmp_path):
        code, stdout, _, _ = _run_main(["verify", "--list", "--out-dir",
                                        str(tmp_path)])
        assert code == 0
        assert len(stdout.strip().splitlines()) == 12

    def test_usage_error_exits_one(self):
        code, _, _, _ = _run_main(["verify", "--suite", "bogus"])
        assert code == 1


class TestEmitTable:
    def test_schema_and_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table([], path)
        assert path.read_text() == \
            "check_id,status,measured,tolerance,runtime_ms\n"

    def test_single_record(self, tmp_path):
        rec = VerdictRecord("demo", "PASS", (1.0, 2.5), 0.1, 12)
        path = tmp_path / "t.csv"
        emit_table([rec], path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["check_id", "status", "measured", "tolerance",
                           "runtime_ms"]
        assert rows[1] == ["demo", "PASS", "1;2.5", "0.1", "12"]

    def test_column_order_fixed(self, tmp_path):
        recs = [VerdictRecord("b", "PASS", (1.0,), 0.1, 1),
                VerdictRecord("a", "FAIL", (2.0,), 0.2, 2)]
        path = tmp_path / "t.csv"
        emit_table(recs, path)
        rows = list(csv.reader(path.open()))
        assert [r[0] for r in rows[1:]] == ["b", "a"]


class TestOtherCommands:
    def test_ladder_writes_tree_and_trace(self, tmp_path):
        out = run_cli(["ladder", "--function", "bump:0,1", "--step", "0.01",
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        tree = json.loads((tmp_path / "ladder_tree.json").read_text())
        assert "positive" in tree
        trace = (tmp_path / "ladder_trace.csv").read_text().splitlines()
        assert trace[0] == "part,nodes,sup_gap"

    def test_ladder_budget_cut_serializes(self, tmp_path):
        # a tree cut by the node budget carries pending stubs; the JSON
        # must still be valid and flag them
        f = parse_function_literal("bump:0,1", 0.01)
        xs = f.x
        extra = np.where(np.abs(xs - 0.8) < 0.15,
                         0.3 * np.cos(np.pi * (xs - 0.8) / 0.3) ** 2, 0.0)
        g = f.with_values(f.values + extra)
        path = tmp_path / "g.csv"
        path.write_text(g.to_csv(), encoding="utf-8")
        code, stdout, _, _ = _run_main(["ladder", "--function", f"csv:{path}",
                                        "--max-nodes", "1", "--sup-tol",
                                        "1e-9", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "NOT_CONVERGED" in stdout
        tree = json.loads((tmp_path / "ladder_tree.json").read_text())
        kids = tree["positive"]["root"]["children"]
        assert any(c["pending"] for c in kids)

    def test_ladder_splits_signed_input(self, tmp_path):
        f = parse_function_literal("bump:0,1", 0.01)
        g = f.with_values(np.where(f.x < 0, -f.values, f.values))
        path = tmp_path / "g.csv"
        path.write_text(g.to_csv(), encoding="utf-8")
        code, _, _, _ = _run_main(["ladder", "--function", f"csv:{path}",
                                   "--out-dir", str(tmp_path)])
        assert code == 0
        tree = json.loads((tmp_path / "ladder_tree.json").read_text())
        assert set(tree) == {"positive", "negative"}

    def test_scale_and_capacity(self, tmp_path):
        out = run_cli(["scale", "--alpha", "1.5", "--budget", "0.3",
                       "--n-intervals", "15", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        gset = json.loads((tmp_path / "open_set.json").read_text())
        assert gset[0][0] == "-inf"
        scale_rows = (tmp_path / "scale.csv").read_text().splitlines()
        assert len(scale_rows) > 100

        out = run_cli(["capacity", "--target", "[[-0.1, 0.1]]",
                       "--alpha-star", "0.5", "--domain=-2,2",
                       "--step", "0.005", "--out", "cap.json",
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        data = json.loads((tmp_path / "cap.json").read_text())
        assert data["value"] > 0 and data["residual"] < 1e-8

    def test_levy_command(self, tmp_path):
        out = run_cli(["levy", "--atom", "1:1", "--indicator", "0,2",
                       "--symbol-out", "psi.csv", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert "indicator_energy = 4" in out.stdout
        assert "finite_variation = True" in out.stdout
        assert (tmp_path / "psi.csv").exists()
        # bounded symbol: no growth verdict line
        assert "PROPER-SUBSPACES-EXIST" not in out.stdout

    @pytest.mark.parametrize("indicator", ["0", "0,1,2", "nan,1", "1,0",
                                           "a,b"])
    def test_levy_indicator_refused_before_output(self, indicator, tmp_path):
        code, stdout, stderr, _ = _run_main(
            ["levy", "--atom", "1:1", "--indicator", indicator,
             "--out-dir", str(tmp_path)])
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: --indicator needs"), stderr

    def test_levy_growth_verdict(self, tmp_path):
        code, stdout, _, _ = _run_main(["levy", "--power-alpha", "1.5",
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "PROPER-SUBSPACES-EXIST" in stdout
        assert "theorem-backed" in stdout

    @pytest.mark.parametrize("args, evidence", [
        (["--power-alpha", "0.98"], None),
        (["--power-alpha", "0.99"], None),
        (["--power-alpha", repr(1.0 - 1e-9)], None),
        (["--power-alpha", "1"], "density exponent = 1 >= 1"),
        (["--power-alpha", "1.5"], "density exponent = 1.5 >= 1"),
        (["--sigma", "1"], "sigma = 1 > 0"),
        (["--atom", "1:1", "--atom", "0.3:2"], None),
        # the window fit is unreliable here (r2 ~ 0.18), the triplet is not
        (["--power-alpha", "1.5", "--atom", "1:1000"],
         "density exponent = 1.5 >= 1"),
    ])
    def test_levy_verdict_read_from_the_triplet(self, args, evidence,
                                                tmp_path):
        code, stdout, _, _ = _run_main(["levy", *args,
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        verdicts = [line for line in stdout.splitlines()
                    if line.startswith("verdict:")]
        if evidence is None:
            assert verdicts == []
        else:
            assert verdicts == [
                "verdict: PROPER-SUBSPACES-EXIST (theorem-backed; exact "
                f"growth psi(xi) >= c|xi| from the triplet: {evidence})"]
        assert "growth_fit" in stdout

    def test_levy_triplet_file(self, tmp_path):
        spec = {"sigma": 0.0, "atoms": [[1.0, 1.0]],
                "density": {"type": "power", "alpha": 0.5}}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, stdout, _, _ = _run_main(["levy", "--triplet", str(path),
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "finite_variation = True" in stdout

    def test_scale_overflowing_radii_are_clipped(self, tmp_path):
        # share ** 2 overflows for the first islands at budget 1e308
        code, stdout, stderr, _ = _run_main(["scale", "--budget", "1e308",
                                             "--n-intervals", "4096",
                                             "--out-dir", str(tmp_path)])
        assert code == 0 and stderr == ""
        assert "islands = 3" in stdout

    def test_levy_symbol_finite_on_extreme_frequencies(self, tmp_path):
        # atoms keep psi bounded at xi = 1e300; sigma = 0 adds nothing.
        # Warnings are errors, which escape main and fail the run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr, _ = _run_main(
                ["levy", "--atom", "1:1", "--xi-min", "1e-300", "--xi-max",
                 "1e300", "--n-xi", "50", "--out-dir", str(tmp_path)])
        assert code == 0 and stderr == ""
        assert "nan" not in stdout
        assert "growth_fit" in stdout

    def test_scale_spec_file(self, tmp_path):
        spec = {"alpha": 1.5, "budget": 0.2, "n_intervals": 7}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, stdout, _, _ = _run_main(["scale", "--spec", str(path),
                                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "islands =" in stdout

    def test_json_function_literal(self, tmp_path):
        f = parse_function_literal("bump:0,1", 1.0 / 64.0)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json_dict()), encoding="utf-8")
        g = parse_function_literal(f"json:{path}", 1.0 / 64.0)
        assert np.array_equal(g.values, f.values)

    def test_out_dir_env_fallback(self, tmp_path):
        env = dict(os.environ, FSL_OUT_DIR=str(tmp_path))
        out = run_cli(["verify", "--suite", "properness", "--seed", "3"],
                      env=env)
        assert out.returncode == 0
        assert (tmp_path / "verdicts.csv").exists()
