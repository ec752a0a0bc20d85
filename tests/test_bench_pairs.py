"""The line pairing that ``tools/bench_pairs.py`` records when the two
sides' ``verify`` outputs differ."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
differing_lines = bench_pairs.differing_lines


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

