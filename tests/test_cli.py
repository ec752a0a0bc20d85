import csv
import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracform.cli import emit_table, parse_function_literal
from fracform.grids import GridFunction, StepFunction
from fracform.verify import VerdictRecord


def run_cli(args, cwd=None, env=None, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "fracform.cli"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env,
                          preexec_fn=preexec_fn)


def _cap_address_space():
    # 1 GiB: a missing size guard fails with MemoryError instead of
    # allocating tens of GiB
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# one BLAS/OpenMP thread, so the capped address space does not depend on
# the number of cores (each thread may reserve its own malloc arena)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


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
    "scale-null-alpha": ["scale", "--spec", "{null_alpha_spec}"],
    "scale-list-spec": ["scale", "--spec", "{list_json}"],
    "scale-fractional-count": ["scale", "--spec", "{half_count_spec}"],
    "levy-null-sigma": ["levy", "--triplet", "{null_sigma_triplet}"],
    "levy-list-triplet": ["levy", "--triplet", "{list_json}"],
    "levy-null-atom-mass": ["levy", "--triplet", "{null_mass_triplet}"],
    "levy-nan-sigma": ["levy", "--sigma", "nan"],
    "levy-nan-atom": ["levy", "--atom", "nan:1"],
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
}

# cases that would allocate far more than the address-space cap
HUGE_GRIDS = {"capacity-tiny-step", "bump-overflow", "bump-huge-width",
              "plateau-huge-top", "levy-huge-n-xi", "scale-huge-count",
              "scale-huge-spec-count"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, tmp_path):
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
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    args = [a.format(**paths) for a in BAD_INPUTS[case]]
    if case in HUGE_GRIDS:
        out = run_cli(args + ["--out-dir", str(tmp_path)],
                      env={**os.environ, **SINGLE_THREAD},
                      preexec_fn=_cap_address_space)
    else:
        out = run_cli(args + ["--out-dir", str(tmp_path)])
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize("domain", ["2", "nan,2", "3,1", "0,1,2", "a,b"])
def test_capacity_domain_needs_two_ordered_numbers(domain, tmp_path):
    out = run_cli(["capacity", "--target", "[[0.2, 0.4]]", "--alpha-star",
                   "0.5", f"--domain={domain}", "--step", "0.01",
                   "--out-dir", str(tmp_path)])
    assert out.returncode == 1
    assert out.stderr == f"error: --domain needs two finite numbers lo < hi, " \
                         f"got {domain!r}\n"


class TestEnergyCommand:
    def test_indicator_alpha_half(self, tmp_path):
        out = run_cli(["energy", "--alpha", "0.5", "--function",
                       "indicator:0,1", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        value = float(out.stdout.split("energy = ")[1].splitlines()[0])
        assert value == pytest.approx(16.0, rel=0.01)

    def test_divergent_flagged(self, tmp_path):
        out = run_cli(["energy", "--alpha", "1.5", "--function",
                       "indicator:0,1", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert "DIVERGENT" in out.stdout

    def test_json_report_written(self, tmp_path):
        out = run_cli(["energy", "--alpha", "0.5", "--function", "bump:0,1",
                       "--out", "report.json", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert set(data) == {"value", "l2", "e1", "trace"}


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
        out = run_cli(["verify", "--suite", "all", "--seed", "7",
                       "--out-dir", str(tmp_path)])
        # the step-rate criterion is a documented failure, so exit code 2
        assert out.returncode == 2
        assert "step-approximation-rate: FAIL" in out.stdout
        rows = (tmp_path / "verdicts.csv").read_text().splitlines()
        assert len(rows) == 13  # header plus one record per criterion

    def test_list_enumerates_checks(self, tmp_path):
        out = run_cli(["verify", "--list", "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert len(out.stdout.strip().splitlines()) == 12

    def test_usage_error_exits_one(self):
        out = run_cli(["verify", "--suite", "bogus"])
        assert out.returncode == 1


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
        out = run_cli(["ladder", "--function", f"csv:{path}",
                       "--max-nodes", "1", "--sup-tol", "1e-9",
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert "NOT_CONVERGED" in out.stdout
        tree = json.loads((tmp_path / "ladder_tree.json").read_text())
        kids = tree["positive"]["root"]["children"]
        assert any(c["pending"] for c in kids)

    def test_ladder_splits_signed_input(self, tmp_path):
        f = parse_function_literal("bump:0,1", 0.01)
        g = f.with_values(np.where(f.x < 0, -f.values, f.values))
        path = tmp_path / "g.csv"
        path.write_text(g.to_csv(), encoding="utf-8")
        out = run_cli(["ladder", "--function", f"csv:{path}",
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
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

    def test_levy_growth_verdict(self, tmp_path):
        out = run_cli(["levy", "--power-alpha", "1.5",
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert "PROPER-SUBSPACES-EXIST" in out.stdout
        assert "theorem-backed" in out.stdout

    def test_levy_triplet_file(self, tmp_path):
        spec = {"sigma": 0.0, "atoms": [[1.0, 1.0]],
                "density": {"type": "power", "alpha": 0.5}}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = run_cli(["levy", "--triplet", str(path),
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert "finite_variation = True" in out.stdout

    def test_scale_spec_file(self, tmp_path):
        spec = {"alpha": 1.5, "budget": 0.2, "n_intervals": 7}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = run_cli(["scale", "--spec", str(path),
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0
        assert "islands =" in out.stdout

    def test_json_function_literal(self, tmp_path):
        f = parse_function_literal("bump:0,1", 1.0 / 64.0)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json_dict()), encoding="utf-8")
        g = parse_function_literal(f"json:{path}", 1.0 / 64.0)
        assert np.array_equal(g.values, f.values)

    def test_out_dir_env_fallback(self, tmp_path):
        import os
        import subprocess
        env = dict(os.environ, FSL_OUT_DIR=str(tmp_path))
        out = subprocess.run(
            [sys.executable, "-m", "fracform.cli", "verify", "--suite",
             "properness", "--seed", "3"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert (tmp_path / "verdicts.csv").exists()
