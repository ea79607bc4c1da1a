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


def ad_rows_callers(source: str) -> list:
    """(function, line) of each call of an ad_rows attribute, in line order:
    the top-level function or method it is in, or None outside any."""
    tree = ast.parse(source)

    def calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == "ad_rows"]

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
    assert ad_rows_callers(source) == [("derivation_residual", 2), ("check", 5),
                                       ("span", 8), (None, 9)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_ad_rows_only_on_the_reference_routes(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert [call for call in ad_rows_callers(source) if call[0] not in AD_ROWS_CALLERS] == []
