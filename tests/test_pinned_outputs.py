"""Exact outputs of every verb besides `check`, pinned against recorded output.

tests/data/pinned_outputs.json holds, under "files", the sha256 of the file
each writing verb leaves (`gen` of every family, `compose`, `kasymov` and
`mixed`) and, under "stdout", the full standard output of `liealg` and
`young`.  The writing cases run in order in one directory, so a later case
reads the files of earlier ones; any argument ending in ".json" names a
file there.
"""

import hashlib
import json
from pathlib import Path

import pytest

from naryalg.cli import run

PINS = json.loads((Path(__file__).parent / "data" / "pinned_outputs.json").read_text())


def resolve(args, root):
    return [str(root / a) if a.endswith(".json") else a for a in args]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The directory of every "files" case's output, and each case's exit code."""
    root = tmp_path_factory.mktemp("outputs")
    codes = {}
    for case in PINS["files"]:
        codes[case["output"]] = run(resolve(case["args"], root) + ["-o", str(root / case["output"])])
    return root, codes


@pytest.mark.parametrize("case", PINS["files"], ids=[" ".join(c["args"]) for c in PINS["files"]])
def test_written_file_is_pinned(case, written):
    root, codes = written
    assert codes[case["output"]] == case["exit"]
    assert hashlib.sha256((root / case["output"]).read_bytes()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", PINS["stdout"], ids=[" ".join(c["args"]) for c in PINS["stdout"]])
def test_stdout_is_pinned(case, written, capsys):
    root, _ = written
    capsys.readouterr()
    assert run(resolve(case["args"], root)) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
