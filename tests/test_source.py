"""Source hygiene: no module of the package imports a name it never uses,
and every source file parses as the oldest supported Python.

`__init__` is exempt from the import check because its imports are the
package's exports.
"""

import ast
from pathlib import Path

import pytest

import naryalg

SOURCES = sorted([*Path(naryalg.__file__).parent.glob("*.py"),
                  *Path(__file__).parent.glob("*.py")])
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    # pyproject.toml allows Python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


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


# naryalg/__init__ imports each public name's module on first use, from a
# name -> module table; a name the module does not define would fail only
# when read, so every entry is pinned to a top-level definition.
def top_level_names(source: str) -> set:
    """Names a module's own top-level def, class or assignment binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_top_level_checker_sees_definitions_not_imports():
    source = ("import os\nfrom re import A\ndef f():\n    g = 1\nclass C:\n    x = 1\n"
              "B = D = 2\nE: int = 3\nF.attr = 4\nif os:\n    G = 5\n")
    assert top_level_names(source) == {"f", "C", "B", "D", "E"}


def test_lazy_table_names_are_defined_where_it_says():
    home = Path(naryalg.__file__).parent
    defined = {module: top_level_names((home / f"{module}.py").read_text())
               for module in set(naryalg._MODULE.values())}
    assert [(name, module) for name, module in naryalg._MODULE.items()
            if name not in defined[module]] == []


# hashlib loads libcrypto (about 3 MB); only `check` prints a digest, so no
# module imports it when it is itself imported.
def eager_imports(source: str) -> set:
    """Top-level names of the modules an import outside any function body
    brings in when the module runs."""
    found = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_eager_import_checker_skips_function_bodies():
    source = ("import os.path\nfrom re import A\nfrom . import tensor\n"
              "try:\n    import zlib\nexcept ImportError:\n    pass\n"
              "class C:\n    import bz2\n"
              "def f():\n    import hashlib\n")
    assert eager_imports(source) == {"os", "re", "zlib", "bz2"}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_hashlib_when_imported(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert not {"hashlib", "_hashlib"} & eager_imports(source)


# The orbit expansion has one copy, in tensor.py: every other module expands
# through OrbitTensor.data or a tensor's rows(), never through its own.
EXPANSION = {"_rows", "_expand"}


def mentions(source: str, names: set) -> list:
    """(name, line) of each definition, import, name or attribute reading
    one of names, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((a.asname or a.name, node.lineno) for a in node.names)
            found.extend((a.name, node.lineno) for a in node.names if a.asname)
        elif isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
    return sorted(((name, line) for name, line in found if name in names),
                  key=lambda f: f[1])


def test_mention_checker_sees_imports_attributes_and_definitions():
    source = ("from .tensor import _rows as r\nx = tensor._expand(y)\n"
              "def _rows():\n    pass\ntext = '_expand'\ndef rows(t):\n    return t.rows()\n")
    assert mentions(source, EXPANSION) == [("_rows", 1), ("_expand", 2), ("_rows", 3)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_orbit_expansion_only_in_tensor(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert module == "tensor.py" or mentions(source, EXPANSION) == []


# An entry's file layout is written in one place: the literals of an item of
# "entries" appear only in algebra._entry_texts and the two close templates
# it is given, so the algebra and trace form writers cannot drift apart.
LAYOUT = ('"in": [', '"out": ', '"val": "')
ENTRY_WRITER = {"_entry_texts", "_ALGEBRA_CLOSE", "_FORM_CLOSE"}


def layout_owners(source: str) -> list:
    """(owner, line) of each string literal holding a piece of the entry
    layout: the top-level function, class or assigned name it is in, or None."""
    def literals(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Constant)
                and isinstance(c.value, str) and any(p in c.value for p in LAYOUT)]

    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            owner = node.targets[0].id
        else:
            owner = None
        found.extend((owner, c.lineno) for c in literals(node))
    return sorted(found, key=lambda f: f[1])


def test_layout_checker_sees_literals_by_owner():
    source = ("A = '   \"val\": \"%s\"'\nB = {'in': 1, 'val': 2}\n"
              "def f():\n    return '\"in\": [' + x\n"
              "class C:\n    T = '\"out\": %d'\n"
              "print('\"val\": \"1\"')\n")
    assert layout_owners(source) == [("A", 1), ("f", 4), ("C", 6), (None, 7)]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_entry_text_only_from_the_entry_writer(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    owners = {owner for owner, _ in layout_owners(source)}
    assert owners == (ENTRY_WRITER if module == "algebra.py" else set())


# The adjoint maps, the Lie closure and the trace-form rank tests hand the
# elimination {column: value} maps of the nonzeros they hold, and the tensor
# kernels move key slots with itemgetters; a dense vector built by list
# repetition ([x] * n) would bring back a fill the size of the column count
# or of the rank.
SPARSE_MODULES = ["algebra.py", "forms.py", "adjoint.py", "tensor.py"]


def list_repetitions(source: str) -> list:
    """Lines of each product of a list display and anything, either way round."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and (isinstance(node.left, ast.List) or isinstance(node.right, ast.List)))


def test_list_repetition_checker_sees_either_side_not_tuples_or_comprehensions():
    source = ("a = [0] * n\nb = d * [Fraction(0)]\nc = (0,) * n\n"
              "e = [0 for _ in range(n)]\nf = [[0] * m for _ in range(n)]\ng = x * y\n")
    assert list_repetitions(source) == [1, 2, 5]


@pytest.mark.parametrize("module", SPARSE_MODULES)
def test_no_vector_by_list_repetition(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert list_repetitions(source) == []


# The tensor kernels read and write a key's slots through itemgetters built
# once per call (tensor._slot_getters) or by slicing; rebuilding each key as
# a list inside the loop over the entries is the per-key cost they replaced.
def list_calls_in_loops(source: str) -> list:
    """Lines of each list(...) call in the body of a for or while loop or in
    a comprehension; a for loop's iterable is read once and is not a body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            scope = node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            scope = [node]
        else:
            continue
        found.update(call.lineno for part in scope for call in ast.walk(part)
                     if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                     and call.func.id == "list")
    return sorted(found)


def test_loop_list_checker_sees_bodies_and_comprehensions_not_iterables():
    source = ("for key in data:\n    new = list(key)\n"
              "rows = [list(k) for k in data]\n"
              "while todo:\n    if x:\n        y = list(todo.pop())\n"
              "for k in list(data):\n    pass\n"
              "dest = list(range(1, n + 1))\n"
              "def f(key):\n    return list(key)\n")
    assert list_calls_in_loops(source) == [2, 3, 6]


def test_tensor_rebuilds_no_key_as_a_list_in_a_loop():
    source = (Path(naryalg.__file__).parent / "tensor.py").read_text()
    assert list_calls_in_loops(source) == []


# The package's record classes are plain classes: dataclasses would bring in
# inspect, ast, dis and tokenize on every request.
def imported_modules(source: str) -> set:
    """Top-level names of every module any import statement names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_import_checker_sees_function_bodies_and_skips_relative_imports():
    source = ("import os.path\nfrom . import tensor\n"
              "def f():\n    from dataclasses import dataclass\n")
    assert imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_dataclasses(module):
    source = (Path(naryalg.__file__).parent / module).read_text()
    assert "dataclasses" not in imported_modules(source)


# tensor.py picks a key's slots with the itemgetters of _slot_getters only;
# a comprehension indexing by arithmetic on its own loop variable
# (key[s - 1] for s in slots) is the per-key pick they replaced.
def own_variable_picks(source: str) -> list:
    """Lines of each comprehension whose body indexes something with
    arithmetic on the comprehension's own loop variables; a plain lookup by
    a loop variable (data[key]) is not a pick."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            bound = {name.id for gen in node.generators for name in ast.walk(gen.target)
                     if isinstance(name, ast.Name)}
            parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            found.update(sub.lineno for part in parts for sub in ast.walk(part)
                         if isinstance(sub, ast.Subscript)
                         and any(isinstance(op, ast.BinOp) and any(
                             isinstance(name, ast.Name) and name.id in bound
                             for name in ast.walk(op)) for op in ast.walk(sub.slice)))
    return sorted(found)


def test_pick_checker_sees_own_variables_not_fixed_slices():
    source = ("a = tuple(key[s - 1] for s in slots)\n"
              "b = [row[j + 1] for i, j in pairs]\n"
              "c = {k: t.shape[k - 1] for k in ks}\n"
              "d = [(key[h:], val) for key, val in items]\n"
              "e = [key[i - 1] for key in keys]\n"
              "f = [data[key] for key in keys]\n")
    assert own_variable_picks(source) == [1, 2, 3]


def test_tensor_picks_slots_only_through_slot_getters():
    source = (Path(naryalg.__file__).parent / "tensor.py").read_text()
    assert own_variable_picks(source) == []


# Only tensor.py builds itemgetters: every other module moves key slots
# through tensor._tuple_getter, which returns a tuple for one position too,
# where a bare itemgetter returns the item itself.
def names_itemgetter(source: str) -> bool:
    """Whether an import binds operator's itemgetter or an attribute reads it."""
    return any((isinstance(node, ast.ImportFrom) and node.module == "operator"
                and any(a.name == "itemgetter" for a in node.names))
               or (isinstance(node, ast.Attribute) and node.attr == "itemgetter")
               for node in ast.walk(ast.parse(source)))


def test_itemgetter_checker_sees_imports_and_attributes():
    assert names_itemgetter("from operator import lt, itemgetter\n")
    assert names_itemgetter("import operator\nget = operator.itemgetter(0)\n")
    assert not names_itemgetter("from operator import lt\nfrom .tensor import _tuple_getter\n")


def test_only_tensor_imports_itemgetter():
    users = {module for module in MODULES + ["__init__.py"]
             if names_itemgetter((Path(naryalg.__file__).parent / module).read_text())}
    assert users == {"tensor.py"}
