import json
import sys
import time

import pytest

from naryalg import (
    Metric,
    NaryAlgebra,
    RationalTensor,
    algebra,
    builtin,
    corollary_self,
    derivation_residual,
    direct_sum,
    filippov_residual,
    load,
    save,
)
from naryalg.algebra import CheckReport, Coordinates
from naryalg.cli import run

from change_of_basis import perturb, perturbed_a4


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


IDENTITY_METRIC = {"matrix": [[str(int(i == j)) for j in range(4)] for i in range(4)]}

RADICAL_REPORT = {
    "name": "nondegenerate", "passed": False, "witness": ["1", "0", "0", "0"],
    "residual": "0", "detail": "radical vector coordinates",
}


def count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper; returns its growing call list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture()
def a4_file(tmp_path):
    path = tmp_path / "a4.json"
    assert run(["gen", "--family", "A", "--n", "3", "-o", str(path)]) == 0
    return path


class TestGenCheckPipeline:
    def test_gen_then_check_passes(self, a4_file, tmp_path, capsys):
        code = run(["check", str(a4_file), "--suite", "filippov,skew,metricity"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == ["filippov", "skew", "metricity"]

    def test_all_families_generate(self, tmp_path):
        for args in (
            ["--family", "Apq", "--signature=-1,1,1,1"],
            ["--family", "cs-so4"],
            ["--family", "a4sum"],
            ["--family", "zero", "--n", "3", "--d", "2"],
        ):
            out = tmp_path / f"{args[1]}.json"
            assert run(["gen", *args, "-o", str(out)]) == 0
            assert out.exists()

    def test_perturbed_algebra_fails_with_witness(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        save(perturbed_a4(), path)
        code = run(["check", str(path), "--suite", "filippov"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["checks"][0]["witness"]

    def test_check_all_suite(self, a4_file, capsys):
        code = run(["check", str(a4_file), "--suite", "all"])
        capsys.readouterr()
        assert code == 1  # A_4 is not a triple system: the cyclic sum is 3f

    def test_reports_are_byte_identical(self, a4_file, capsys):
        run(["check", str(a4_file), "--suite", "filippov,nondegenerate"])
        first = capsys.readouterr().out
        run(["check", str(a4_file), "--suite", "filippov,nondegenerate"])
        assert capsys.readouterr().out == first

    def test_degenerate_algebra_fails_nondegenerate(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        assert run(["gen", "--family", "zero", "--n", "3", "--d", "4", "-o", str(path)]) == 0
        assert run(["check", str(path), "--suite", "nondegenerate"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == [RADICAL_REPORT]

    def test_large_dimension_radical_is_cheap(self, tmp_path, capsys):
        # a diagonal metric inverts entry by entry, and only one radical vector is built
        path = tmp_path / "zero400.json"
        assert run(["gen", "--family", "zero", "--n", "2", "--d", "400", "-o", str(path)]) == 0
        start = time.perf_counter()
        assert run(["check", str(path), "--suite", "nondegenerate"]) == 1
        assert time.perf_counter() - start < 10
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == [dict(RADICAL_REPORT, witness=["1"] + ["0"] * 399)]

    def test_coordinate_witness_renders_as_rationals_whatever_its_type(self):
        # the radical vector reads as rationals even when its values are ints
        report = CheckReport("nondegenerate", False, Coordinates((1, 0, 0, 0)), 0,
                             "radical vector coordinates")
        assert report.as_dict() == RADICAL_REPORT
        assert CheckReport("skew", False, (1, 2, 1, 2), 2).as_dict()["witness"] == [1, 2, 1, 2]

    def test_timings_flag_adds_field(self, a4_file, capsys):
        run(["check", str(a4_file), "--suite", "filippov", "--timings"])
        report = json.loads(capsys.readouterr().out)
        assert "filippov" in report["timings"]

    def test_md_format(self, a4_file, capsys):
        assert run(["check", str(a4_file), "--suite", "filippov", "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "| filippov | pass |" in out

    def test_report_to_file(self, a4_file, tmp_path):
        out = tmp_path / "report.json"
        assert run(["check", str(a4_file), "--suite", "filippov", "-o", str(out)]) == 0
        assert read_json(out)["passed"] is True

    def test_metric_spec_override(self, tmp_path, capsys):
        path = tmp_path / "a13.json"
        assert run(["gen", "--family", "Apq", "--signature=-1,1,1,1", "-o", str(path)]) == 0
        assert run(["check", str(path), "--suite", "metricity",
                    "--metric", "lorentz:1,3"]) == 0
        capsys.readouterr()
        assert run(["check", str(path), "--suite", "metricity",
                    "--metric", "lorentz:2,2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("obj, spec", [
        ({"diag": [-1, 1, 1, 1]}, "lorentz:1,3"),
        (IDENTITY_METRIC, "euclid"),
    ], ids=["diag", "matrix"])
    def test_metric_file_reports_as_its_spec(self, a4_file, tmp_path, capsys, obj, spec):
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        outcomes = []
        for metric in (str(path), spec):
            code = run(["check", str(a4_file), "--suite", "metricity,fullanti", "--metric", metric])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("spec", ["lorentz:-1,5", "lorentz:5,-1"])
    def test_negative_lorentz_count_is_a_bad_spec(self, a4_file, capsys, spec):
        # the counts sum to the dimension, but a negative count is no signature
        assert run(["check", str(a4_file), "--suite", "metricity", "--metric", spec]) == 2
        assert capsys.readouterr().err == f"naryalg: error: bad lorentz spec {spec!r}\n"


class TestCompose:
    def test_half_prefactor_reproduces_cs_so4(self, a4_file, tmp_path, capsys):
        out = tmp_path / "half.json"
        code = run([
            "compose", "--l1", str(a4_file), "--l2", str(a4_file),
            "--metric", "euclid", "--prefactor", "1/2", "-o", str(out),
        ])
        assert code == 0

        assert load(out).f == builtin("cs-so4").f
        assert run(["check", str(out), "--suite", "triple,lple"]) == 0
        capsys.readouterr()

    def test_matrix_metric_file_composes_as_euclid(self, a4_file, tmp_path, capsys):
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(IDENTITY_METRIC), encoding="utf-8")
        written = []
        for metric in (str(path), "euclid"):
            out = tmp_path / "half.json"
            assert run(["compose", "--l1", str(a4_file), "--l2", str(a4_file),
                        "--prefactor", "1/2", "--metric", metric, "-o", str(out)]) == 0
            written.append((out.read_bytes(), *capsys.readouterr()))
        assert written[0] == written[1]

    def test_forced_output_is_reported_unverified(self, a4_file, tmp_path, capsys):
        out = tmp_path / "forced.json"
        assert run([
            "compose", "--l1", str(a4_file), "--l2", str(a4_file),
            "--metric", "euclid", "--force", "-o", str(out),
        ]) == 0
        assert read_json(out)["verified"] is False
        assert run(["check", str(out), "--suite", "filippov"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is False
        assert run(["check", str(a4_file), "--suite", "filippov"]) == 0
        assert "verified" not in json.loads(capsys.readouterr().out)

    def test_rejection_exits_one(self, a4_file, tmp_path, capsys):
        bad = NaryAlgebra(
            "bad", 4, 3,
            RationalTensor((4,) * 4, {(a, a, b, b): 1 for a in (1, 2) for b in (1, 2)}),
            Metric.euclidean(4),
        )
        bad_path = tmp_path / "bad.json"
        save(bad, bad_path)
        code = run([
            "compose", "--l1", str(a4_file), "--l2", str(bad_path),
            "--metric", "euclid", "-o", str(tmp_path / "out.json"),
        ])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False

    def test_failed_derivation_report_is_the_same_on_both_routes(self, tmp_path, capsys):
        # the rejection carries the full residual's first nonzero entry
        bad = perturbed_a4()
        l1 = tmp_path / "bad.json"
        save(bad, l1)
        l2 = tmp_path / "cs.json"
        assert run(["gen", "--family", "cs-so4", "-o", str(l2)]) == 0
        argv = ["compose", "--l1", str(l1), "--l2", str(l2), "--metric", "euclid",
                "-o", str(tmp_path / "out.json")]
        capsys.readouterr()
        assert run(argv) == 1
        report = json.loads(capsys.readouterr().out)["checks"][0]
        full = derivation_residual(bad, load(l2))
        assert report == algebra._zero_report("derivation", full.data).as_dict()
        assert report["name"] == "derivation"


class TestFilippovMemo:
    """One FI verdict per loaded algebra, however many checks ask for it."""

    def test_seven_leibniz_filippov_nple(self, tmp_path, capsys, monkeypatch, seven_leibniz):
        path = tmp_path / "seven.json"
        save(seven_leibniz, path)
        slices = count_calls(monkeypatch, algebra, "_derivation_terms")
        assert run(["check", str(path), "--suite", "filippov"]) == 0
        once = len(slices)
        assert once == 12  # the ad-span rank of seven-leibniz
        assert run(["check", str(path), "--suite", "filippov,nple"]) == 0
        assert len(slices) == 2 * once
        capsys.readouterr()

    def test_a6_suite_all(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "a6.json"
        assert run(["gen", "--family", "A", "--n", "5", "-o", str(path)]) == 0
        slices = count_calls(monkeypatch, algebra, "_derivation_terms")
        assert run(["check", str(path), "--suite", "filippov"]) == 0
        once = len(slices)
        assert once == 15  # the ad-span rank of A6, not its 360 ad rows
        capsys.readouterr()
        assert run(["check", str(path), "--suite", "all"]) == 1  # the cyclic sum is nonzero
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["filippov"]
        assert {"nple", "genmetric", "lple"} <= set(checks)
        assert len(slices) == 2 * once

    def test_arity_seven_suite_all_includes_lple(self, tmp_path, capsys):
        path = tmp_path / "c6.json"
        save(corollary_self(builtin("A6")), path)
        assert run(["check", str(path), "--suite", "all"]) == 1  # not skew in all 7 slots
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["genmetric"] and checks["lple"]
        assert run(["check", str(path), "--suite", "lple"]) == 0
        capsys.readouterr()


class TestCyclicMemo:
    """One cyclic verdict per loaded algebra: cyclic, nple and triple share it."""

    def test_cs_so4_suite_all(self, tmp_path, capsys, monkeypatch, cs):
        path = tmp_path / "cs.json"
        save(cs, path)
        sums = count_calls(monkeypatch, algebra, "_rotation_least_sum")
        assert run(["check", str(path), "--suite", "all"]) == 1  # not skew in slot 3
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["cyclic"] and checks["nple"] and checks["triple"]
        assert len(sums) == 1

    def test_seven_leibniz_cyclic_nple(self, tmp_path, capsys, monkeypatch, seven_leibniz):
        path = tmp_path / "seven.json"
        save(seven_leibniz, path)
        sums = count_calls(monkeypatch, algebra, "_rotation_least_sum")
        assert run(["check", str(path), "--suite", "cyclic,nple"]) == 0
        assert len(sums) == 1
        capsys.readouterr()


class TestFilippovWitness:
    def test_span_witness_is_the_full_residuals_first_entry(self, tmp_path, capsys, a6):
        # A6+A6 with its largest entry doubled: the full residual's first
        # nonzero entry is the witness, in the library and through the CLI
        big = direct_sum(a6, a6)
        key = max(big.f.data)
        bad = perturb(big, key, 2 * big.f.get(key))
        full = algebra._zero_report("filippov", filippov_residual(bad).data)
        assert full.witness == (7, 9, 10, 11, 12, 12, 11, 10, 9, 7)
        report = algebra.check_filippov(bad)
        assert (report.passed, report.witness, report.residual) == (False, full.witness, -1)
        path = tmp_path / "bad.json"
        save(bad, path)
        assert run(["check", str(path), "--suite", "filippov"]) == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert (check["witness"], check["residual"]) == (list(full.witness), "-1")


class TestOtherVerbs:
    def test_kasymov_and_mixed(self, a4_file, tmp_path):
        k = tmp_path / "k.json"
        assert run(["kasymov", str(a4_file), "-o", str(k)]) == 0
        assert read_json(k)["slots"] == 4
        m = tmp_path / "m.json"
        assert run(["mixed", str(a4_file), str(a4_file), "-o", str(m)]) == 0
        assert read_json(m)["entries"] == read_json(k)["entries"]

    def test_kasymov_contraction_is_guarded(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "a6.json"
        assert run(["gen", "--family", "A", "--n", "5", "-o", str(path)]) == 0
        out = tmp_path / "k.json"
        # the expansion is guarded on its own estimate, orbits x 4! x 4! =
        # 15 x 576 = 8640 entries, before the output file is opened
        monkeypatch.setenv("NARY_SIZE_GUARD", "8639")
        assert run(["kasymov", str(path), "-o", str(out)]) == 3
        assert "trace form expansion: 8640 exceeds size guard 8639" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setenv("NARY_SIZE_GUARD", "8640")
        assert run(["kasymov", str(path), "-o", str(out)]) == 0

    def test_compose_construction_is_guarded(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "a6.json"
        assert run(["gen", "--family", "A", "--n", "5", "-o", str(path)]) == 0
        out = tmp_path / "c.json"
        argv = ["compose", "--l1", str(path), "--l2", str(path), "--force", "-o", str(out)]
        # the bracket's orbits x 4! x 3! x 1! = 60 x 144 = 8640 entries, the
        # count of the form it raises, refused before the file is opened
        monkeypatch.setenv("NARY_SIZE_GUARD", "8639")
        assert run(argv) == 3
        assert "trace form expansion: 8640 exceeds size guard 8639" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setenv("NARY_SIZE_GUARD", "8640")
        assert run(argv) == 0

    def test_liealg(self, a4_file, capsys):
        assert run(["liealg", str(a4_file), "--kernel", "--centre"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closure_dim"] == 6
        assert out["kernel_dim"] == 10
        assert out["centre_dim"] == 0

    @pytest.mark.parametrize("name", ["A4", "A5", "A6", "cs-so4"])
    def test_liealg_kernel_dim_is_rank_nullity(self, name, tmp_path, capsys):
        from naryalg import ad_kernel

        path = tmp_path / "alg.json"
        save(builtin(name), path)
        assert run(["liealg", str(path), "--kernel"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel_dim"] == len(ad_kernel(builtin(name))[1])

    def test_liealg_kernel_beyond_the_ad_kernel_cap(self, tmp_path, capsys, a8):
        path = tmp_path / "a8.json"
        save(a8, path)
        assert run(["liealg", str(path), "--kernel"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["closure_dim"], out["kernel_dim"]) == (28, 8 ** 6 - 28)

    def test_liealg_on_a_large_abelian_algebra(self, tmp_path, capsys):
        # the closure guards each commutator round on its own work, and an
        # empty ad span leaves no round to run
        path = tmp_path / "zero.json"
        assert run(["gen", "--family", "zero", "--n", "2", "--d", "2000", "-o", str(path)]) == 0
        assert run(["liealg", str(path), "--kernel"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["closure_dim"], out["kernel_dim"]) == (0, 2000)

    def test_young_dim(self, capsys):
        assert run(["young", "dim", "--l", "3", "--r", "1", "--d", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["gl_dim"] == 20

    def test_young_dim_long_column_beyond_d(self, capsys):
        # d < l - r: the long column does not fit, so no digit bound is needed
        assert run(["young", "dim", "--l", "5", "--r", "1", "--d", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["gl_dim"] == 0

    def test_young_classify(self, a4_file, capsys):
        assert run(["young", "classify", str(a4_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["l"] == 3
        assert out["components"] == [
            {"r": 0, "nonzero": True, "gl_dim": 4},
            {"r": 1, "nonzero": False, "gl_dim": 20},
        ]


class TestErrorPaths:
    def test_usage_error(self, capsys):
        assert run(["gen", "--family", "A"]) == 2  # missing -o
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert run(["check", "absent.json", "--suite", "filippov"]) == 2
        capsys.readouterr()

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "dim": 2}')
        assert run(["check", str(path), "--suite", "filippov"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [("metric", {"matrix": [1, 2, 3]}), ("name", ["x"])],
                             ids=["matrix-rows-not-lists", "name-not-a-string"])
    def test_malformed_header_field(self, tmp_path, capsys, field, value):
        path = tmp_path / "a3.json"
        assert run(["gen", "--family", "A", "--n", "2", "-o", str(path)]) == 0
        obj = read_json(path)
        obj[field] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run(["check", str(path), "--suite", "metricity"]) == 2
        assert capsys.readouterr().err.startswith("naryalg: error:")

    @pytest.mark.parametrize("verb", [["check", "{deep}", "--suite", "all"], ["kasymov", "{deep}"],
                                      ["check", "{a4}", "--suite", "metricity", "--metric", "{deep}"]],
                             ids=["check", "kasymov", "metric-file"])
    def test_deeply_nested_json(self, verb, tmp_path, a4_file, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "k.json"
        argv = [arg.format(deep=deep, a4=a4_file) for arg in verb]
        assert run(argv + (["-o", str(out)] if verb[0] == "kasymov" else [])) == 2
        assert capsys.readouterr().err.startswith("naryalg: error: JSON nested too deeply")
        assert not out.exists()

    def test_unknown_suite_name(self, a4_file, capsys):
        assert run(["check", str(a4_file), "--suite", "bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("suite", ["", ",", " , "])
    def test_empty_suite(self, a4_file, suite, capsys):
        assert run(["check", str(a4_file), "--suite", suite]) == 2
        out = capsys.readouterr()
        assert out.err == f"naryalg: error: --suite {suite!r} names no check\n"
        assert out.out == ""

    def test_suite_is_judged_before_the_file_is_read(self, monkeypatch, capsys):
        loads = count_calls(monkeypatch, algebra, "load")
        # a bad file and a bad suite: the suite is reported
        assert run(["check", "absent.json", "--suite", "filippov,bogus"]) == 2
        assert capsys.readouterr().err == "naryalg: error: unknown check 'bogus'\n"
        assert run(["check", "absent.json", "--suite", ","]) == 2
        capsys.readouterr()
        assert loads == []

    def test_young_dim_negative_d(self, capsys):
        assert run(["young", "dim", "--l", "3", "--r", "1", "--d", "-2"]) == 2
        assert capsys.readouterr().err == \
            "naryalg: error: --d must be a non-negative integer, got -2\n"

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no limit on the digits an int prints")
    @pytest.mark.parametrize("l, r, d", [(3000, 0, 100_000), (10 ** 8, 0, 10 ** 9)])
    def test_young_dim_too_long_to_print(self, l, r, d, capsys):
        # well-formed requests whose answer has more digits than an int prints
        assert run(["young", "dim", "--l", str(l), "--r", str(r), "--d", str(d)]) == 3
        out = capsys.readouterr()
        assert out.err.startswith("naryalg: size guard: young dim: the dimension has more than")
        assert out.out == ""

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no limit on the digits an int prints")
    def test_young_dim_at_the_digit_limit(self, capsys):
        # r = 0 gives C(d, l): find the least l whose C(d, l) is too long to print
        limit, d = INT_DIGIT_LIMIT, 20_000
        l, dim = 0, 1
        while dim < 10 ** limit:
            last, l = dim, l + 1
            dim = dim * (d - l + 1) // l
        assert run(["young", "dim", "--l", str(l - 1), "--r", "0", "--d", str(d)]) == 0
        assert json.loads(capsys.readouterr().out)["gl_dim"] == last
        assert run(["young", "dim", "--l", str(l), "--r", "0", "--d", str(d)]) == 3
        capsys.readouterr()

    def test_size_guard_exit_code(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("NARY_SIZE_GUARD", "10")
        assert run(["gen", "--family", "A", "--n", "3", "-o", str(tmp_path / "x.json")]) == 3
        capsys.readouterr()

    def test_memory_error_exit_code(self, monkeypatch, tmp_path, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(algebra, "simple_filippov", exhausted)
        out = tmp_path / "a10.json"
        assert run(["gen", "--family", "A", "--n", "10", "-o", str(out)]) == 3
        assert not out.exists()
        assert "naryalg: out of memory" in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path, capsys, seven_leibniz):
        path = tmp_path / "seven.json"
        save(seven_leibniz, path)
        assert run(["young", "classify", str(path)]) == 3
        assert "87091200 operations exceed budget 10000000" in capsys.readouterr().err

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["default", "force"])
    def test_isotypic_sweep_obeys_size_guard(self, monkeypatch, a4_file, capsys, force):
        # A4: 3! permutations x 24 entries = 144 operations; --force lifts only the budget
        monkeypatch.setenv("NARY_SIZE_GUARD", "144")
        assert run(["young", "classify", *force, str(a4_file)]) == 0
        monkeypatch.setenv("NARY_SIZE_GUARD", "100")
        assert run(["young", "classify", *force, str(a4_file)]) == 3
        assert "isotypic projection: 144 exceeds size guard 100" in capsys.readouterr().err

