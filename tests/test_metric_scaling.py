"""A diagonal metric costs O(d): sparse metric rows at large dimension.

The command-line round trip runs in child processes under a 1 GiB
address-space limit, so d x d metric storage ends in exit 3 (out of memory)
there instead of exhausting the machine.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import naryalg
from naryalg import Metric, NaryAlgebra, RationalTensor, ShapeError, direct_sum, simple_filippov

resource = pytest.importorskip("resource")

ADDRESS_SPACE_LIMIT = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_limited(*args):
    """`python -m naryalg ARGS` in a child process under the address-space limit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "naryalg", *args], env=env,
                          preexec_fn=_limit_address_space, capture_output=True,
                          text=True, timeout=60)


def test_zero_algebra_at_d_100000_round_trips_in_1_gib(tmp_path):
    path = tmp_path / "zero100k.json"
    gen = run_limited("gen", "--family", "zero", "--n", "2", "--d", "100000", "-o", str(path))
    assert gen.returncode == 0, gen.stderr
    check = run_limited("check", str(path), "--suite", "filippov,metricity")
    assert check.returncode == 0, check.stderr
    report = json.loads(check.stdout)
    assert report["passed"]
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("filippov", True), ("metricity", True)]


def test_diag_equals_the_dense_diagonal_matrix():
    signs = [2, -1, Fraction(1, 3), 1]
    dense = Metric([[x if i == j else 0 for j in range(4)] for i, x in enumerate(signs)])
    assert Metric.diag(signs) == dense
    assert hash(Metric.diag(signs)) == hash(dense)
    assert Metric.diag(signs).inverse == dense.inverse


@pytest.mark.parametrize("p, q", [(-1, 5), (3, -1), (-2, -2)])
def test_lorentzian_rejects_a_negative_count(p, q):
    with pytest.raises(ShapeError, match="negative count"):
        Metric.lorentzian(p, q)
    assert Metric.lorentzian(0, 2) == Metric.euclidean(2)


def test_direct_sum_metric_equals_the_dense_block_matrix():
    a = NaryAlgebra("a", 2, 2, RationalTensor((2, 2, 2)), Metric([[2, 1], [1, 3]]))
    b = simple_filippov(2, [1, -1, 1])
    block = Metric([[2, 1, 0, 0, 0], [1, 3, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, -1, 0], [0, 0, 0, 0, 1]])
    metric = direct_sum(a, b).metric
    assert metric == block
    assert hash(metric) == hash(block)
    assert metric.inverse == block.inverse


def test_direct_sum_shifts_the_inverse_blocks(monkeypatch):
    # each 2 x 2 inverse is within the guard (2 * 2^3 = 16); a Gauss-Jordan
    # inverse of the 4 x 4 sum would need 128
    monkeypatch.setenv("NARY_SIZE_GUARD", "16")
    a = NaryAlgebra("a", 2, 2, RationalTensor((2, 2, 2)), Metric([[2, 1], [1, 3]]))
    metric = direct_sum(a, a).metric
    block = [[Fraction(3, 5), Fraction(-1, 5), 0, 0], [Fraction(-1, 5), Fraction(2, 5), 0, 0],
             [0, 0, Fraction(3, 5), Fraction(-1, 5)], [0, 0, Fraction(-1, 5), Fraction(2, 5)]]
    assert [list(row) for row in metric.inverse] == block
    monkeypatch.delenv("NARY_SIZE_GUARD")
    assert metric == Metric(metric.entries)
    assert metric.inverse == Metric(metric.entries).inverse


def test_integral_diagonal_metric_is_written_as_diag(tmp_path):
    path = tmp_path / "zero1000.json"
    signs = [2] + [1] * 999
    L = NaryAlgebra("z", 1000, 2, RationalTensor((1000,) * 3), Metric.diag(signs))
    naryalg.save(L, path)
    assert json.loads(path.read_text())["metric"] == {"diag": signs}
    assert path.stat().st_size < 20_000
    assert naryalg.load(path) == L
    # "diag" holds nonzero integers only, so a rational diagonal stays a matrix
    half = NaryAlgebra("h", 2, 2, RationalTensor((2,) * 3), Metric.diag([Fraction(1, 2), 1]))
    naryalg.save(half, path)
    assert json.loads(path.read_text())["metric"] == {"matrix": [["1/2", "0"], ["0", "1"]]}
    assert naryalg.load(path) == half
