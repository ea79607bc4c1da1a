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
