import json
import time

import pytest

from naryalg import Metric, NaryAlgebra, RationalTensor, algebra, builtin, save
from naryalg.algebra import CheckReport, Coordinates
from naryalg.cli import run


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        a4 = builtin("A4")
        data = dict(a4.f.data)
        data[(1, 2, 3, 4)] = 2
        broken = NaryAlgebra("broken", 4, 3, RationalTensor((4,) * 4, data), a4.metric)
        path = tmp_path / "broken.json"
        save(broken, path)
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


class TestCompose:
    def test_half_prefactor_reproduces_cs_so4(self, a4_file, tmp_path, capsys):
        out = tmp_path / "half.json"
        code = run([
            "compose", "--l1", str(a4_file), "--l2", str(a4_file),
            "--metric", "euclid", "--prefactor", "1/2", "-o", str(out),
        ])
        assert code == 0
        from naryalg import load

        assert load(out).f == builtin("cs-so4").f
        assert run(["check", str(out), "--suite", "triple,lple"]) == 0
        capsys.readouterr()

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

    def test_failed_derivation_report_is_the_same_on_both_routes(
            self, tmp_path, capsys, monkeypatch):
        a4 = builtin("A4")
        data = dict(a4.f.data)
        data[(1, 2, 3, 4)] = 2
        l1 = tmp_path / "bad.json"
        save(NaryAlgebra("A4-perturbed", 4, 3, RationalTensor((4,) * 4, data), a4.metric), l1)
        l2 = tmp_path / "cs.json"
        assert run(["gen", "--family", "cs-so4", "-o", str(l2)]) == 0
        argv = ["compose", "--l1", str(l1), "--l2", str(l2), "--metric", "euclid",
                "-o", str(tmp_path / "out.json")]
        capsys.readouterr()
        assert run(argv) == 1
        full = capsys.readouterr().out
        monkeypatch.setattr(algebra, "FULL_RESIDUAL_WORK_LIMIT", 0)
        spans = count_calls(monkeypatch, algebra, "_span_residual")
        assert run(argv) == 1
        assert capsys.readouterr().out == full
        assert len(spans) == 1
        assert json.loads(full)["checks"][0]["name"] == "derivation"


class TestFilippovMemo:
    """One FI verdict per loaded algebra, however many checks ask for it."""

    def test_seven_leibniz_filippov_nple(self, tmp_path, capsys, monkeypatch, seven_leibniz):
        path = tmp_path / "seven.json"
        save(seven_leibniz, path)
        slices = count_calls(monkeypatch, algebra, "_residual_slice")
        assert run(["check", str(path), "--suite", "filippov"]) == 0
        once = len(slices)
        assert once > 0
        assert run(["check", str(path), "--suite", "filippov,nple"]) == 0
        assert len(slices) == 2 * once
        capsys.readouterr()

    def test_a6_suite_all(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "a6.json"
        assert run(["gen", "--family", "A", "--n", "5", "-o", str(path)]) == 0
        residuals = count_calls(monkeypatch, algebra, "derivation_residual")
        assert run(["check", str(path), "--suite", "all"]) == 1  # the cyclic sum is nonzero
        checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["filippov"]
        assert {"nple", "genmetric", "lple"} <= set(checks)
        assert len(residuals) == 1


class TestOtherVerbs:
    def test_kasymov_and_mixed(self, a4_file, tmp_path):
        k = tmp_path / "k.json"
        assert run(["kasymov", str(a4_file), "-o", str(k)]) == 0
        assert read_json(k)["slots"] == 4
        m = tmp_path / "m.json"
        assert run(["mixed", str(a4_file), str(a4_file), "-o", str(m)]) == 0
        assert read_json(m)["entries"] == read_json(k)["entries"]

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

    def test_young_dim(self, capsys):
        assert run(["young", "dim", "--l", "3", "--r", "1", "--d", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["gl_dim"] == 20

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

    def test_unknown_suite_name(self, a4_file, capsys):
        assert run(["check", str(a4_file), "--suite", "bogus"]) == 2
        capsys.readouterr()

    def test_size_guard_exit_code(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("NARY_SIZE_GUARD", "10")
        assert run(["gen", "--family", "A", "--n", "3", "-o", str(tmp_path / "x.json")]) == 3
        capsys.readouterr()

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

