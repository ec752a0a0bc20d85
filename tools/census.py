"""Which ``src/`` functions the documented entry points reach.

    python3 tools/census.py [--json]

Run from anywhere; the package is imported from this checkout's ``src``.
Every function definition in ``src/fracform`` is listed with ``ast``, by
module and qualified name (``grids.GridFunction.from_csv``, nested ones as
``outer.<locals>.inner``).  A ``sys.setprofile`` hook, and the same hook
through ``threading.setprofile`` for any thread, records the ``co_qualname``
of every call into those files while the entry points run in this process:

- each ``fracform`` line of the ``sh`` block under the README heading
  "Command line" (read by ``bench_pairs.readme_examples``), run through
  ``cli.main`` in a fresh temporary working directory with ``FSL_OUT_DIR``
  unset;
- ``verify --suite all --seed 0`` and ``verify --list``, likewise.

The files a run writes go with its directory, and its stdout and stderr
are discarded.  The table printed gives, per function, the entry points
that reach it, unreached ones first; ``--json`` prints the same as one JSON
object, qualified name -> entry point list.  Caches fill as the entry
points run, so a function that only fills a cache counts as reached only
in a fresh interpreter: run the census as a script, not after other work in
the same process.  The tool itself uses the standard library only;
perfbench is not an entry point here.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
import threading
from pathlib import Path

from bench_pairs import readme_examples

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracform"
EXTRA_ENTRY_POINTS = (["fracform", "verify", "--suite", "all", "--seed", "0"],
                      ["fracform", "verify", "--list"])


def definitions() -> set:
    """``module.qualname`` of every function definition in the package."""
    names = set()

    def walk(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                names.add(f"{module}.{qual}")
                walk(child, qual + ".<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", module)
            else:
                walk(child, prefix, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return names


def entry_points() -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    argvs = readme_examples(readme)
    return argvs + [a for a in EXTRA_ENTRY_POINTS if a not in argvs]


def census() -> dict:
    """``module.qualname`` -> the entry points (command lines) that reach
    it, for every function definition in the package."""
    sys.path.insert(0, str(ROOT / "src"))
    from fracform import cli

    files = {str(p): p.stem for p in PACKAGE.glob("*.py")}
    reached = {name: [] for name in definitions()}
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            module = files.get(frame.f_code.co_filename)
            if module is not None:
                seen.add(f"{module}.{frame.f_code.co_qualname}")

    saved_env = os.environ.pop("FSL_OUT_DIR", None)
    saved_cwd = os.getcwd()
    try:
        for argv in entry_points():
            seen.clear()
            with tempfile.TemporaryDirectory(prefix="census-") as cwd:
                os.chdir(cwd)
                sink = io.StringIO()
                threading.setprofile(hook)
                sys.setprofile(hook)
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        cli.main(argv[1:])
                finally:
                    sys.setprofile(None)
                    threading.setprofile(None)
                    os.chdir(saved_cwd)
            for name in seen & reached.keys():
                reached[name].append(shlex.join(argv))
    finally:
        if saved_env is not None:
            os.environ["FSL_OUT_DIR"] = saved_env
    return reached


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", action="store_true",
                    help="print one JSON object instead of the table")
    args = ap.parse_args(argv)
    reached = census()
    order = sorted(reached, key=lambda name: (bool(reached[name]), name))
    if args.json:
        print(json.dumps({name: reached[name] for name in order}, indent=1))
        return 0
    for name in order:
        print(f"{name}: {len(reached[name])} "
              + ("; ".join(reached[name]) or "unreached"))
    unreached = sum(1 for name in order if not reached[name])
    print(f"{unreached} of {len(order)} functions unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
