"""Self-tests of the benchmark's own parts (about two minutes):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import pytest

import inputs
import run
from layers import layer_metrics, pass_trace
from tracer import Tracer
from workloads import FIXTURES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _gen(stem: str, work: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    path = work / f"{stem}.gen.json"
    child = run.spawn([sys.executable, "-m", "naryalg", "gen", *FIXTURES[stem], "-o", path.name],
                      work, env, 60)
    assert child.code == 0, child.stderr
    return path


def test_identity_seed_reproduces_gen_byte_for_byte(tmp_path):
    for stem in FIXTURES:
        path = _gen(stem, tmp_path)
        obj = inputs.read(path)
        inputs.write(inputs.transform(obj, inputs.identity(obj["dim"])), tmp_path / "id.json")
        assert (tmp_path / "id.json").read_bytes() == path.read_bytes(), stem


def _verdict_table(workload, seed: int, work: Path) -> list:
    bench = run.Bench(ROOT, workload, seed)
    bench.work = work / f"{workload.name}-{seed}"
    bench.setup()
    done = bench.run_pass(traced=False)
    table = []
    for outcome in done.outcomes:
        stdout = outcome.child.stdout.decode()
        if outcome.label.startswith("check") and stdout:
            stdout = {c["name"]: c["passed"] for c in json.loads(stdout)["checks"]}
        table.append((outcome.label, outcome.child.code, outcome.kind, stdout))
    return table


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_three_seeds_give_identical_verdict_tables(name, tmp_path):
    tables = [_verdict_table(WORKLOADS[name], seed, tmp_path) for seed in (1, 2, 3)]
    assert tables[0] == tables[1] == tables[2]


def test_seeded_basis_changes_differ_and_repeat():
    a = inputs.seeded(random.Random("w/1"), 8, rescale=False)
    b = inputs.seeded(random.Random("w/1"), 8, rescale=False)
    c = inputs.seeded(random.Random("w/2"), 8, rescale=False)
    assert a == b != c
    assert sorted(a.perm) == list(range(1, 9)) and {abs(x) for x in a.t} == {1}


def test_forms_closure_inputs_hold_non_integral_values(tmp_path):
    bench = run.Bench(ROOT, WORKLOADS["forms-closure"], 5)
    bench.work = tmp_path / "forms"
    bench.setup()
    for stem in WORKLOADS["forms-closure"].fixtures:
        obj = inputs.read(bench.work / f"{stem}.json")
        assert any("/" in e["val"] for e in obj["entries"]), stem
        assert any(abs(x) != 1 for x in obj["metric"]["diag"]), stem


@pytest.fixture
def naryalg_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import naryalg

        yield naryalg
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tracer_records_calls_made_inside_the_package(naryalg_package):
    na = naryalg_package
    original = na.tensor.contract
    tracer = Tracer()
    tracer.install(na)
    try:
        a4 = na.builtin("A4")
        na.forms.mixed_trace(a4, a4)
        na.adjoint.lie_closure(a4)
    finally:
        tracer.uninstall()
    assert na.tensor.contract is original and na.forms.contract is original
    assert tracer.edges["forms.mixed_trace", "tensor.contract"] == 1
    assert tracer.edges["adjoint.lie_closure", "linalg.EchelonBasis.insert"] > 0
    assert tracer.calls["tensor.RationalTensor.init"] > 0
    assert tracer.counts["forms.mixed_trace"]["out_nnz"] == 24


def test_self_times_add_up_to_the_traced_wall_time(tmp_path):
    _gen("a4", tmp_path).rename(tmp_path / "a4.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(run.HERE / "tracer.py"), "t.json", "--",
           "check", "a4.json", "--suite", "all"]
    child = run.spawn(cmd, tmp_path, env, 60)
    assert child.code == 1  # A4 is not a triple system
    trace = inputs.read(tmp_path / "t.json")
    assert trace["calls"]["cli.run"] == 1
    assert sum(trace["self_s"].values()) == pytest.approx(trace["root_s"], rel=1e-9)
    assert 0 < trace["root_s"] < child.wall_s
    assert 0 < trace["ready"] - child.spawned < child.wall_s - trace["root_s"]


def test_address_space_limit_turns_a_blow_up_into_a_failure(tmp_path):
    cmd = [sys.executable, "-c", f"bytearray({run.CHILD_ADDRESS_SPACE})"]
    child = run.spawn(cmd, tmp_path, dict(os.environ), 60)
    assert child.code == 1 and b"MemoryError" in child.stderr


def test_spawner_children_do_not_inherit_the_runner_peak(tmp_path):
    spawner = run.Spawner()
    try:
        ballast = b"\1" * (200 << 20)  # the runner grows after the spawner forks
        cmd = [sys.executable, "-c", "pass"]
        direct = run.spawn(cmd, tmp_path, dict(os.environ), 60)
        served = spawner(cmd, tmp_path, dict(os.environ), 60)
    finally:
        spawner.close()
        del ballast
    assert direct.rss_kb > 200 << 10
    assert served.rss_kb < direct.rss_kb - (150 << 10)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED_END_TO_END)
    done = run.Pass(traced=True)
    per_layer = layer_metrics([pass_trace(done)], 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])
