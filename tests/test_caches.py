"""Every cache in ``src/`` is named in the README's caches paragraph: each
``functools.cache`` or ``lru_cache`` function, each ``cached_property`` and
each ``__dict__[...]`` key the library writes."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def cache_names(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(
                _decorator_name(d) in _DECORATORS for d in node.decorator_list):
            names.add(node.name)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "__dict__"
              and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    return names


def _caches_paragraph() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return next(p for p in text.split("\n\n") if p.startswith("**Caches.**"))


def test_scan_finds_every_kind_of_cache():
    source = ("import functools\nfrom functools import cached_property\n"
              "@functools.lru_cache(maxsize=4)\ndef a(): pass\n"
              "@functools.cache\ndef b(): pass\n"
              "class C:\n    @cached_property\n    def c(self): pass\n"
              "def d(f):\n    f.__dict__['e'] = 1\n    f.__dict__.get('g')\n")
    assert cache_names(source) == {"a", "b", "c", "e"}


def test_every_cache_is_in_the_readme():
    paragraph = _caches_paragraph()
    names = set().union(*(cache_names(path.read_text(encoding="utf-8"))
                          for path in sorted((ROOT / "src").rglob("*.py"))))
    # one of each kind the scan must find: an lru_cache (the kept lag
    # tables, and the kept E1 operators and Hardy rules of other modules),
    # a __dict__ key (the Fourier table, and the Levy atoms' rho) and a
    # cached_property
    assert {"_kept_lag_weights", "_kept_e1_operator", "_kept_hardy_rule",
            "_fourier_table", "_atom_rho", "increment_autocorr"} <= names
    missing = sorted(name for name in names if not re.search(
        rf"`(\w+\.)?{re.escape(name)}`", paragraph))
    assert missing == []
