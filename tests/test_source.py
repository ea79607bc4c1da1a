"""Source hygiene: no module of the package imports a name it never uses.

`__init__` is exempt because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import naryalg

MODULES = sorted(p.name for p in Path(naryalg.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a Name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_sees_attribute_use_and_aliases():
    source = "import os.path\nimport sys as s\nfrom re import A, B\nos.getcwd()\nB\n"
    assert unused_imports(source) == ["A", "s"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert unused_imports(source) == []


# Grouping all of f by its first n-1 slots costs the most memory of any
# adjoint step; the checks read block-sorted entries instead, and only the
# full residual and the sampled FI may build the grouping.
AD_ROWS_CALLERS = {"derivation_residual", "filippov_sampled"}


def callers(source: str, attr: str) -> list:
    """(function, line) of each call of an attribute named attr, in line
    order: the top-level function or method it is in, or None outside any."""
    tree = ast.parse(source)

    def calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == attr]

    owner = {}
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((call, fn.name) for call in calls(fn))
    return sorted(((owner.get(call), call.lineno) for call in calls(tree)),
                  key=lambda found: found[1])


def test_ad_rows_checker_sees_nested_and_method_calls():
    source = ("def derivation_residual(L):\n    return L.ad_rows()\n"
              "def check(L):\n    def inner():\n        return L.ad_rows()\n"
              "class C:\n    def span(self):\n        return self.ad_rows()\n"
              "ROWS = x.ad_rows()\n")
    assert callers(source, "ad_rows") == [("derivation_residual", 2), ("check", 5),
                                          ("span", 8), (None, 9)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_ad_rows_only_on_the_reference_routes(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert [call for call in callers(source, "ad_rows")
            if call[0] not in AD_ROWS_CALLERS] == []


# Which keys of f stand for an orbit follows from its skew runs; algebra.py
# owns that rule (runs_within, orbit_part, the swap pruning) and the other
# modules ask it, so no second reading of skew_runs() can drift from it.
def test_skew_runs_checker_sees_calls_not_names():
    source = ("def runs(L):\n    return L.skew_runs()\n"
              "cut = [r for r in L.skew_runs() if r]\n"
              "def name(L):\n    return L.skew_runs\n"
              "def runs_within(L):\n    return L.runs_within(1, 2)\n")
    assert callers(source, "skew_runs") == [("runs", 2), (None, 3)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_skew_runs_only_in_algebra(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert module == "algebra.py" or callers(source, "skew_runs") == []
