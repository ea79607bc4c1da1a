"""Exact `check` reports pinned against recorded output.

tests/data/pinned_reports.json holds, for each fixture and suite, the exit
code and the full `checks` array of `check --format json`: every verdict,
witness, residual and detail.  Refactors of the check kernels must leave
these byte-for-byte unchanged, including which key is reported when several
fail and the sign of residuals at tied witnesses.
"""

import json
from pathlib import Path

import pytest

from naryalg import save
from naryalg.cli import run

from change_of_basis import perturbed_a4

CASES = json.loads((Path(__file__).parent / "data" / "pinned_reports.json").read_text())

GEN_ARGS = {
    "A4": ["--family", "A", "--n", "3"],
    "A5": ["--family", "A", "--n", "4"],
    "A6": ["--family", "A", "--n", "5"],
    "A1+3": ["--family", "Apq", "--signature=-1,1,1,1"],
    "cs-so4": ["--family", "cs-so4"],
    "a4-sum-a4": ["--family", "a4sum"],
    "zero(4,3)": ["--family", "zero", "--n", "3", "--d", "4"],
}


def write_fixture(name, path):
    if name == "A4-perturbed":
        save(perturbed_a4(), path)
    else:
        assert run(["gen", *GEN_ARGS[name], "-o", str(path)]) == 0


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['fixture']} {' '.join(c['args'][1:])}" for c in CASES]
)
def test_check_report_is_pinned(case, tmp_path, capsys):
    path = tmp_path / "alg.json"
    write_fixture(case["fixture"], path)
    code = run(["check", str(path), *case["args"], "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == case["exit"]
    assert report["passed"] == case["passed"]
    assert report["checks"] == case["checks"]
