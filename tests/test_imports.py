"""Per-verb imports: what a request loads, and the package's lazy names.

`naryalg/__init__` imports a module when one of its names is first read, and
the CLI imports only `algebra` up front; every other module, and `hashlib`
(which loads libcrypto), is imported by the verbs that use it.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import naryalg
from naryalg.cli import run

LAZY = ["naryalg.construct", "naryalg.forms", "naryalg.young", "hashlib", "_hashlib"]

CHILD = """
import json, sys
LAZY = json.loads(sys.argv[1])
loaded = lambda: [m for m in LAZY if m in sys.modules]
seen = {}
import naryalg.cli
seen["import"] = loaded()
for verb in (["liealg", sys.argv[2], "--kernel"], ["check", sys.argv[2], "--suite", "skew"]):
    assert naryalg.cli.run(verb) == 0, verb
    seen[verb[0]] = loaded()
print(json.dumps(seen))
"""


def test_a_request_loads_only_what_its_verb_uses(tmp_path):
    path = tmp_path / "a8.json"
    assert run(["gen", "--family", "A", "--n", "7", "-o", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(LAZY), str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["liealg"] == []
    # check prints each input's digest, and only the digest needs hashlib
    assert seen["check"] == ["hashlib", "_hashlib"]


# dataclasses imports inspect, ast, dis and tokenize, several ms of start-up
# for each request; the package's record classes do without it.
HEAVY = ["dataclasses", "inspect"]
VERBS = {
    "gen": ["gen", "--family", "A", "--n", "3", "-o", "{out}"],
    "check": ["check", "{a4}", "--suite", "all"],
    "compose": ["compose", "--l1", "{a4}", "--l2", "{a4}", "--metric", "euclid", "-o", "{out}"],
    "kasymov": ["kasymov", "{a4}", "-o", "{out}"],
    "mixed": ["mixed", "{a4}", "{a4}", "-o", "{out}"],
    "liealg": ["liealg", "{a4}", "--kernel", "--centre"],
    "young": ["young", "classify", "{a4}"],
}

RUN_ONE = """
import json, sys
import naryalg.cli
code = naryalg.cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""


@pytest.mark.parametrize("verb", VERBS)
def test_no_verb_imports_dataclasses(verb, tmp_path):
    a4 = tmp_path / "a4.json"
    assert run(["gen", "--family", "A", "--n", "3", "-o", str(a4)]) == 0
    args = [arg.format(a4=a4, out=tmp_path / "out.json") for arg in VERBS[verb]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", RUN_ONE, json.dumps(args), json.dumps(HEAVY)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120, check=True,
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    # A4 fails cyclic, nple, triple and lple of the full suite
    assert code == (1 if verb == "check" else 0)
    assert loaded == []


def record_cases():
    from fractions import Fraction

    from naryalg import (CheckReport, ConstructionInput, FundamentalObject, SlotPermutation,
                         Tableau, TraceForm, YoungShape, builtin, kasymov)
    from naryalg.adjoint import LieClosure

    a4 = builtin("A4")
    shape = YoungShape(3, 1)
    return [
        (CheckReport, ("skew", False, (1, 2, 1, 3), 2, "detail"), False),
        (CheckReport, ("skew", True, None, None, ""), False),
        (SlotPermutation, ((1, 2), (2, 1)), True),
        (TraceForm, (3, 3, kasymov(a4).tensor), False),
        (LieClosure, ([[[0, 1], [-1, 0]]], 1, 1), False),
        (FundamentalObject, (((1, 0), (0, 1)),), True),
        (ConstructionInput, (a4, a4, a4.metric, Fraction(1, 2)), False),
        (YoungShape, (3, 1), True),
        (Tableau, (shape, (1, 2), (3,)), True),
    ]


def test_records_compare_show_and_hash_as_dataclasses_would():
    import dataclasses

    for cls, args, frozen in record_cases():
        twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=frozen)
        record = cls(*args)
        assert repr(record) == repr(twin(*args))
        assert record == cls(*args) and record != twin(*args)
        assert vars(twin(*args)) == {name: getattr(record, name) for name in cls.__slots__}
        if frozen:
            assert hash(record) == hash(twin(*args)) == hash(cls(*args))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)


def test_records_keep_their_defaults_and_checks():
    from fractions import Fraction

    from naryalg import (CheckReport, ConstructionInput, ShapeError, SlotPermutation,
                         Tableau, YoungShape, builtin, zero_algebra)

    report = CheckReport("skew", True)
    assert (report.witness, report.residual, report.detail) == (None, None, "")
    a4 = builtin("A4")
    assert ConstructionInput(a4, a4, a4.metric).prefactor == Fraction(1)
    assert Tableau(YoungShape(3, 1), [1, 2], [3]).column1 == (1, 2)
    for make, error, message in [
            (lambda: CheckReport("skew", False), ValueError, "failing report must carry a witness"),
            (lambda: SlotPermutation((1, 2), (2, 3)), ShapeError, "not a bijection on its slots"),
            (lambda: SlotPermutation((1, 1), (1, 1)), ShapeError, "duplicate slots"),
            (lambda: ConstructionInput(a4, zero_algebra(3, 3), a4.metric), ShapeError,
             "dimension mismatch 4 != 3"),
            (lambda: ConstructionInput(a4, a4, zero_algebra(3, 3).metric), ShapeError,
             "metric dimension mismatch"),
            (lambda: YoungShape(3, 2), ShapeError, "bad two-column shape l=3, r=2"),
            (lambda: Tableau(YoungShape(3, 1), (1,), (2, 3)), ShapeError, "column lengths"),
            (lambda: Tableau(YoungShape(3, 1), (1, 1), (3,)), ShapeError, "not a bijection onto")]:
        with pytest.raises(error, match=message):
            make()


def test_every_public_name_is_its_modules_object():
    for name in naryalg.__all__:
        module = naryalg._MODULE.get(name)
        if module is None:
            assert getattr(naryalg, name) is importlib.import_module(f"naryalg.{name}")
        else:
            assert getattr(naryalg, name) is getattr(importlib.import_module(f"naryalg.{module}"), name)
    assert set(naryalg.__all__) <= set(dir(naryalg))


def test_a_replaced_name_is_read_from_its_module(monkeypatch):
    from naryalg import forms

    monkeypatch.setattr(forms, "kasymov", "replaced")
    assert naryalg.kasymov == "replaced"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        naryalg.no_such_name
    assert not hasattr(naryalg, "cli_main")
