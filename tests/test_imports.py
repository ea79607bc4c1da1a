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
