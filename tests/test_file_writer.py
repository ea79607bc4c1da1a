"""The streamed file writer against json.dump, and the memory footprint of
writing and reading large files.

`algebra.save` and `forms.save` format the entries through one writer
instead of going through json, streaming the rows of a tensor (an orbit
expansion for a trace form or a constructed bracket); json.dump of
`to_json_dict` stays the reference, and the files must match it byte for
byte.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import naryalg
from naryalg import (
    ConstructionInput,
    Metric,
    algebra,
    associated_leibniz,
    builtin,
    direct_sum,
    forms,
    zero_algebra,
)
from naryalg.cli import run

from change_of_basis import metrics, perturbed_a4, rescale


def reference_bytes(obj, path) -> bytes:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return path.read_bytes()


def assert_same_file(save, to_json_dict, obj, tmp_path, *args):
    path = tmp_path / "saved.json"
    save(obj, path, *args)
    expect = to_json_dict(obj, *args)
    assert path.read_bytes() == reference_bytes(expect, tmp_path / "reference.json")
    assert json.loads(path.read_text(encoding="utf-8")) == expect


def algebras():
    a4, a5 = builtin("A4"), builtin("A5")
    metric = Metric([[2, Fraction(1, 2), 0, 0], [Fraction(1, 2), 1, 0, 0],
                     [0, 0, Fraction(-1, 3), 0], [0, 0, 0, 5]])
    rational_metric = algebra.NaryAlgebra("A4, matrix metric", 4, 3, a4.f, metric)
    unverified = builtin("A4")
    unverified.verified = False
    quoted = builtin("A4")
    quoted.name = 'the "A4" \\ algèbre ☃'
    return {
        "A4": a4,
        "rescaled A5": rescale(a5, (1, 2, 3, 4, 5)),
        "zero(4,3)": zero_algebra(4, 3),
        "rational metric": rational_metric,
        "unverified": unverified,
        "quoted name": quoted,
    }


@pytest.mark.parametrize("name", list(algebras()))
def test_algebra_file_matches_json_dump(name, tmp_path):
    assert_same_file(algebra.save, algebra.to_json_dict, algebras()[name], tmp_path)


def test_algebra_without_metric_round_trips(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    algebra.save(algebra.NaryAlgebra("A4, no metric", 4, 3, builtin("A4").f), first)
    loaded = algebra.load(first)
    assert loaded.metric is None
    algebra.save(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert "metric" not in json.loads(first.read_text(encoding="utf-8"))


def test_trace_form_files_match_json_dump(tmp_path):
    r6 = rescale(builtin("A6"), (1, 2, 3, 4, 5, 6))
    s6 = rescale(builtin("A6"), (3, 1, 6, 2, 5, 4))
    cases = [
        (forms.kasymov(builtin("A4")), "kasymov(A4)"),
        (forms.kasymov(r6), "kasymov(A6*t)"),
        (forms.mixed_trace(r6, s6), 'mixed "A6" é'),
        (forms.mixed_trace(builtin("A8"), builtin("a4-sum-a4")), "seven"),
        (forms.kasymov(perturbed_a4()), "no run of two slots"),
        (forms.kasymov(zero_algebra(3, 3)), "empty"),
    ]
    for form, name in cases:
        assert_same_file(forms.save, forms.to_json_dict, form, tmp_path, name)
        # a loaded form has one-slot runs: saved again, it is the same file
        saved = (tmp_path / "saved.json").read_bytes()
        loaded = forms.load(tmp_path / "saved.json")
        assert all(lo == hi for lo, hi in loaded.tensor.runs)
        assert_same_file(forms.save, forms.to_json_dict, loaded, tmp_path, name)
        assert (tmp_path / "saved.json").read_bytes() == saved


def test_compose_files_match_json_dump(tmp_path):
    a4, cs, bent = builtin("A4"), builtin("cs-so4"), perturbed_a4()
    euclid, lorentz, skewed = metrics(4)
    so3 = direct_sum(builtin("A3"), zero_algebra(1, 2))
    cases = [
        (a4, a4, euclid, Fraction(1, 2), False),
        (a4, cs, lorentz, Fraction(5, 3), True),
        (a4, a4, skewed, Fraction(-3, 7), True),
        (cs, a4, skewed, 1, True),
        (bent, a4, euclid, 1, True),
        (zero_algebra(4, 3), a4, euclid, 0, True),
        (a4, so3, euclid, 1, True),
        (builtin("A8"), builtin("a4-sum-a4"), Metric.euclidean(8), 1, False),
    ]
    for l1, l2, metric, p, force in cases:
        out = associated_leibniz(ConstructionInput(l1, l2, metric, Fraction(p)), force=force)
        assert_same_file(algebra.save, algebra.to_json_dict, out, tmp_path)
        assert algebra.load(tmp_path / "saved.json").f == out.f


def test_kasymov_save_allocates_one_orbit_expansion_at_a_time(tmp_path):
    a7 = builtin("A7")
    tracemalloc.start()
    try:
        forms.save(forms.kasymov(a7), tmp_path / "k7.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 302,400 entries from 21 orbits: about 48 MB when the whole form was
    # contracted and kept, about 1.7 MB streaming its expansion
    assert peak < 8 << 20


# gen A7 and write its Kasymov form (302,400 entries) in one child process,
# which prints its own peak resident set.  VmHWM belongs to the child's
# address space alone; ru_maxrss would also carry the test process's peak,
# which Linux passes on through fork and exec.
CHILD = """
import sys
from naryalg.cli import run
for argv in (["gen", "--family", "A", "--n", "6", "-o", sys.argv[1]],
             ["kasymov", sys.argv[1], "-o", sys.argv[2]]):
    if run(argv) != 0:
        sys.exit(f"{argv[0]} failed")
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_kasymov_write_peak_memory(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "a7.json"), str(tmp_path / "k7.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    peak_mb = int(done.stdout) / 1024
    # the json.dump writer and Fraction contraction peaked at about 220 MB
    assert peak_mb < 150


COMPOSE_CHILD = """
import sys
from naryalg.cli import run
for argv in (["gen", "--family", "A", "--n", "6", "-o", sys.argv[1]],
             ["compose", "--l1", sys.argv[1], "--l2", sys.argv[1], "-o", sys.argv[2]]):
    if run(argv) != 0:
        sys.exit(f"{argv[0]} failed")
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_compose_write_peak_memory(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", COMPOSE_CHILD, str(tmp_path / "a7.json"), str(tmp_path / "c7.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    peak_mb = int(done.stdout) / 1024
    # the 9-bracket of A7 x A7 has 302,400 entries: about 133 MB when the
    # whole bracket was expanded, scaled and raised before the file was
    # written, about 21 MB streaming it from 105 orbits
    assert peak_mb < 40


LOAD_CHILD = """
import sys
from naryalg import algebra
algebra.load(sys.argv[1])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_load_peak_memory(tmp_path):
    # gen runs here: its own peak is above that of the load being measured
    path = tmp_path / "a8.json"
    assert run(["gen", "--family", "A", "--n", "7", "-o", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", LOAD_CHILD, str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120, check=True,
    )
    peak_mb = int(done.stdout) / 1024
    # 40,320 entries: about 38 MB when the whole JSON tree of entry dicts was
    # built before the entries were read, about 28 MB parsing them into
    # (key, literal) pairs as json reads, with every module imported; about
    # 25.7 MB importing algebra alone and releasing each entry tuple once read
    assert peak_mb < 28


LIEALG_CHILD = """
import sys
from naryalg.cli import run
if run(["liealg", *sys.argv[1:]]) != 0:
    sys.exit("liealg failed")
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_liealg_peak_memory(tmp_path):
    path = tmp_path / "a8.json"
    assert run(["gen", "--family", "A", "--n", "7", "-o", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    for flags in (["--kernel"], ["--kernel", "--centre"]):
        done = subprocess.run(
            [sys.executable, "-c", LIEALG_CHILD, str(path), *flags],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120, check=True,
        )
        out = done.stdout.splitlines()
        report = json.loads("\n".join(out[:-1]))
        assert report["kernel_dim"] == 8 ** 6 - 28
        assert report.get("centre_dim", 0) == 0
        peak_mb = int(out[-1]) / 1024
        # about 44 MB when the ad span grouped all 40,320 entries of f into
        # 20,160 ad row tuples, about 32 MB grouping only the 28 block-sorted
        # ones; about 43 MB for --centre with one dense equation per head of f;
        # about 26 MB importing only the modules liealg uses
        assert peak_mb < 30, flags


SPAN_CHILD = """
import sys
from naryalg import algebra
assert len(algebra.load(sys.argv[1]).ad_span()) == 4
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_sparse_ad_span_peak_memory(tmp_path):
    # four entries at d = 1000: each span member was a dense d^2 = 10^6 row
    path = tmp_path / "sparse.json"
    entries = [((1, 2), 3), ((2, 3), 1), ((3, 1), 2), ((4, 5), 6)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "sparse", "dim": 1000, "arity": 2, "entries": [
            {"in": list(ins), "out": out, "val": "1"} for ins, out in entries]}, fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", SPAN_CHILD, str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120, check=True,
    )
    peak_mb = int(done.stdout) / 1024
    # about 250 MB (and 8 s) when each normalized row held a new Fraction
    # for every zero, about 64 MB sharing one, about 17 MB keeping only the
    # nonzeros (see test_linalg for d = 2000)
    assert peak_mb < 100


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_liealg_centre_printout_peak_memory(tmp_path):
    d = 600
    path = tmp_path / "zero.json"
    assert run(["gen", "--family", "zero", "--n", "2", "--d", str(d), "-o", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(naryalg.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", LIEALG_CHILD, str(path), "--centre"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120, check=True,
    )
    out = done.stdout.splitlines()
    text = "\n".join(out[:-1]) + "\n"
    report = json.loads(text)
    assert report["centre_dim"] == d
    assert report["centre_basis"] == [["1" if i == j else "0" for j in range(d)]
                                      for i in range(d)]
    assert text == json.dumps(report, indent=1) + "\n"
    peak_mb = int(out[-1]) / 1024
    # about 76 MB formatting all 360,000 values and the whole json.dumps text
    # at once, about 19 MB printing one row at a time
    assert peak_mb < 40
