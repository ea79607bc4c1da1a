"""Property-based tests of the input boundary.

Rational literals, both file loaders and `check` on arbitrary files: every
input ends in a value or a loader error, and every `check` in exit 0, 1, 2
or 3, never in a traceback.  The loaders parse entries as json reads them;
on every file they load the same tensor, or raise the same message, as the
per-entry loop over plain JSON below.  Examples are derandomized so the
suite stays deterministic.
"""

import contextlib
import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import AlgebraFileError, NaryAlgebra, RationalTensor, algebra, builtin, forms
from naryalg.algebra import from_json_dict, to_json_dict
from naryalg.cli import CHECKS, run
from naryalg.tensor import format_rational, parse_rational

from change_of_basis import rescale

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

CANONICAL = re.compile(r"0|-?[1-9][0-9]*(/[1-9][0-9]*)?")
LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

digits = st.text("0123456789", min_size=1, max_size=5)
literals = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "-"]), digits, st.none() | digits,
)
# near misses of a literal and arbitrary text
malformed = st.one_of(
    st.text(max_size=8),
    st.text("0123456789/-+. \n١e", max_size=8),
    literals.map(lambda s: s + "\n"),
    literals.map(lambda s: " " + s),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(allow_infinity=False), st.text(max_size=3),
)


@FUZZ
@given(literals)
def test_well_formed_literals_parse_to_canonical_values(text):
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    value = parse_rational(text)
    assert value == Fraction(int(num), int(den or 1))
    assert type(value) is (int if value.denominator == 1 else Fraction)
    out = format_rational(value)
    assert CANONICAL.fullmatch(out)
    assert parse_rational(out) == value and format_rational(parse_rational(out)) == out
    if "/" in out:
        p, q = map(int, out.split("/"))
        assert q > 1 and math.gcd(p, q) == 1


@FUZZ
@given(malformed | scalars | st.lists(scalars, max_size=2))
def test_anything_else_is_a_value_error(text):
    try:
        value = parse_rational(text)
    except ValueError:
        return
    assert isinstance(text, str) and LITERAL.fullmatch(text)
    assert value == Fraction(text)


values = st.sampled_from(["1", "-1", "2", "1/2", "-3/4", "0"]) | literals


def entry_objects(with_out: bool):
    """Objects shaped like an entry, in the writer's field order."""
    fields = {"in": st.lists(st.integers(1, 3), max_size=4), "val": values}
    if with_out:
        fields["out"] = st.integers(1, 3)
    return st.fixed_dictionaries({key: fields[key] for key in ("in", "out", "val") if key in fields})


@st.composite
def entry_files(draw, with_out: bool):
    """A well-formed algebra (or trace-form) object, then at most one corruption."""
    d = draw(st.integers(0, 3))
    rank = draw(st.integers(3, 4)) if with_out else draw(st.integers(0, 4))
    keys = draw(st.lists(st.tuples(*[st.integers(1, max(d, 1))] * rank),
                         max_size=8, unique=True))
    split = rank - 1 if with_out else rank
    entries = []
    for key in keys:
        ent = {"in": list(key[:split])}
        if with_out:
            ent["out"] = key[-1]
        ent["val"] = draw(values)
        entries.append(ent)
    if with_out:
        obj = {"name": "fuzz", "dim": d, "arity": rank - 1, "entries": entries}
        if draw(st.booleans()):
            obj["metric"] = draw(st.one_of(
                st.builds(lambda s: {"diag": s}, st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d)),
                st.builds(lambda m: {"matrix": m}, st.lists(st.lists(
                    st.sampled_from(["1", "0", "-1", "1/2"]), min_size=d, max_size=d),
                    min_size=d, max_size=d)),
            ))
    else:
        obj = {"dim": d, "slots": rank, "entries": entries}
    target = draw(st.sampled_from([None, "entry", "duplicate", "reorder", *obj, "verified", "arity1"]))
    nested = entry_objects(with_out)
    if target == "entry" and entries:
        ent = draw(st.sampled_from(entries))
        field = draw(st.sampled_from(sorted(ent)))
        if draw(st.booleans()):
            del ent[field]
        else:
            ent[field] = draw(scalars | malformed | nested
                              | st.lists(scalars | nested, max_size=4))
    elif target == "duplicate" and entries:
        # the same indices again, the value possibly "0"
        ent = dict(draw(st.sampled_from(entries)))
        ent["val"] = draw(values)
        entries.insert(draw(st.integers(0, len(entries))), ent)
    elif target == "reorder" and entries:
        ent = draw(st.sampled_from(entries))
        first = next(iter(ent))
        ent[first] = ent.pop(first)
    elif target == "metric" and "metric" in obj:
        obj["metric"] = draw(scalars | nested | st.builds(lambda x: {"diag": x}, st.lists(scalars, max_size=4))
                             | st.builds(lambda x: {"matrix": x}, st.lists(scalars, min_size=d, max_size=d)))
    elif target not in (None, "entry", "duplicate", "reorder"):
        obj[target] = draw(scalars | nested | st.lists(scalars | nested, max_size=2))
    return obj


def reference_entries(entries, d: int, rank: int, with_out: bool) -> dict:
    """The per-entry loop over plain JSON, then the zero drop and key check
    of RationalTensor.__init__: what the loaders did before they parsed
    entries as json read them."""
    if not isinstance(entries, list):
        raise AlgebraFileError("'entries' must be a list")
    data = {}
    for ent in entries:
        try:
            idx = tuple(ent["in"]) + ((ent["out"],) if with_out else ())
            val = parse_rational(ent["val"])
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgebraFileError(f"bad entry {ent!r}: {exc}") from exc
        if len(idx) != rank:
            raise AlgebraFileError(f"entry {ent!r} has wrong index count")
        if any(type(i) is not int or not 1 <= i <= d for i in idx):
            raise AlgebraFileError(f"entry index {idx} out of 1..{d}")
        if idx in data:
            raise AlgebraFileError(f"duplicate entry for index {idx}")
        data[idx] = val
    return RationalTensor((d,) * rank, data).data


def outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def reference_load(module, path):
    """module.load on plain JSON through reference_entries."""
    obj = algebra._read_json(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_read_entries", reference_entries)
        return module.from_json_dict(obj)


def assert_loads_as_before(module, path):
    """module.load(path) equals reference_load: the same tensor, key order and
    value types, or the same exception type and message."""
    got = outcome(lambda: module.load(path))
    expect = outcome(lambda: reference_load(module, path))
    assert got == expect
    if not isinstance(expect, tuple):
        data = (got.f if module is algebra else got.tensor).data
        ref = (expect.f if module is algebra else expect.tensor).data
        assert [(k, v, type(v)) for k, v in data.items()] == [(k, v, type(v)) for k, v in ref.items()]
        if module is algebra:
            assert got.verified == expect.verified
    return got


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return path


@FUZZ
@given(entry_files(with_out=True) | entry_objects(True) | scalars)
def test_algebra_loader_returns_or_rejects(tmp_path_factory, obj):
    path = write_json(tmp_path_factory.getbasetemp() / "fuzz-algebra.json", obj)
    L = assert_loads_as_before(algebra, path)
    assert outcome(lambda: from_json_dict(obj)) == L
    if isinstance(L, tuple):
        assert L[0] is AlgebraFileError
        return
    assert isinstance(L, NaryAlgebra)
    assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in L.f.data.values())


@FUZZ
@given(entry_files(with_out=False) | entry_objects(False) | scalars)
def test_trace_form_loader_returns_or_rejects(tmp_path_factory, obj):
    path = write_json(tmp_path_factory.getbasetemp() / "fuzz-form.json", obj)
    k = assert_loads_as_before(forms, path)
    assert outcome(lambda: forms.from_json_dict(obj)) == k
    if isinstance(k, tuple):
        assert k[0] is AlgebraFileError
        return
    assert isinstance(k, forms.TraceForm)


def algebra_file(name="x", d=2, n=2, entries=(), **fields):
    return {"name": name, "dim": d, "arity": n, **fields, "entries": list(entries)}


def ent(ins, out, val="1"):
    return {"in": list(ins), "out": out, "val": val}


def with_zero_literal():
    obj = to_json_dict(builtin("A4"))
    obj["entries"].insert(2, ent((1, 1, 2), 3, "0"))
    return obj


# case -> (loader module, the file's JSON, or a function building it)
LOADER_CASES = {
    **{name: (algebra, lambda name=name: to_json_dict(builtin(name)))
       for name in ("A4", "A5", "A6", "A7", "A8", "seven-leibniz", "cs-so4", "zero(4,3)")},
    "rescaled A5": (algebra, lambda: to_json_dict(rescale(builtin("A5"), (1, 2, 3, 4, 5)))),
    "rescaled cs-so4": (algebra, lambda: to_json_dict(rescale(builtin("cs-so4"), (3, 1, 2, 5)))),
    "a zero literal": (algebra, with_zero_literal),
    "kasymov(A5)": (forms, lambda: forms.to_json_dict(forms.kasymov(builtin("A5")))),
    "literals that do not read back": (algebra, algebra_file(
        entries=[ent((1, 2), 1, "2/4"), ent((2, 1), 1, "-0"), ent((2, 2), 1, "01")])),
    "fields out of order": (algebra, algebra_file(
        entries=[{"val": "1", "in": [1, 2], "out": 1}, {"out": 2, "in": [2, 1], "val": "-1"}])),
    "bad literal": (algebra, algebra_file(entries=[ent((1, 2), 1), ent((2, 1), 1, "1.5")])),
    "wrong index count": (algebra, algebra_file(entries=[ent((1, 2), 1), ent((1,), 1)])),
    "wrong index count, fields out of order": (algebra, algebra_file(
        entries=[{"out": 1, "val": "1", "in": [1, 2, 1]}])),
    "wrong index count, a literal that does not read back": (algebra, algebra_file(
        entries=[ent((1,), 1, "2/4")])),
    "boolean index": (algebra, algebra_file(entries=[ent((True, 2), 1)])),
    "zero index": (algebra, algebra_file(entries=[ent((0, 1), 1)])),
    "index out of range": (algebra, algebra_file(entries=[ent((1, 3), 1)])),
    "out out of range": (algebra, algebra_file(entries=[ent((1, 2), 3)])),
    "duplicate entry": (algebra, algebra_file(entries=[ent((1, 2), 1), ent((2, 1), 1), ent((1, 2), 1)])),
    "duplicate of a zero entry": (algebra, algebra_file(entries=[ent((1, 2), 1, "0"), ent((1, 2), 1)])),
    "two zero entries at one index": (algebra, algebra_file(
        entries=[ent((1, 2), 1, "0"), ent((1, 2), 1, "0")])),
    "missing out": (algebra, algebra_file(entries=[{"in": [1, 2], "val": "1"}])),
    "in is not a list": (algebra, algebra_file(entries=[ent((1, 2), 1), {"in": 5, "out": 1, "val": "1"}])),
    "top level shaped like an entry": (algebra, ent((1, 2), 1, "01")),
    "entry objects in the header": (algebra, algebra_file(
        metric=ent((1,), 1), verified=ent((1, 2), 1), entries=[ent((1, 2), 1)])),
    "entry object as the name": (algebra, algebra_file(name=ent((1, 2), 1))),
    "entry object as the dim": (algebra, algebra_file(d=ent((1, 2), 1))),
    "entry object inside an index list": (algebra, algebra_file(entries=[ent([ent((1, 2), 1), 2], 1)])),
    "entry object as the entries": (algebra, algebra_file() | {"entries": ent((1, 2), 1)}),
    "form: top level shaped like an entry": (forms, {"in": [1, 2], "val": "1"}),
    "form: wrong index count": (forms, {"dim": 2, "slots": 2, "entries": [{"in": [1], "val": "1"}]}),
    "form: entry with an out field": (forms, {"dim": 2, "slots": 2,
                                             "entries": [{"in": [1, 2], "out": 1, "val": "1"}]}),
    "form: entry object as the slots": (forms, {"dim": 2, "slots": {"in": [1, 2], "val": "1"},
                                               "entries": []}),
    "form: duplicate of a zero entry": (forms, {"dim": 2, "slots": 2, "entries": [
        {"in": [2, 1], "val": "0"}, {"in": [1, 2], "val": "1/2"}, {"in": [2, 1], "val": "3"}]}),
}


@pytest.mark.parametrize("case", list(LOADER_CASES))
def test_loader_matches_the_per_entry_loop(case, tmp_path):
    module, obj = LOADER_CASES[case]
    obj = obj() if callable(obj) else obj
    got = assert_loads_as_before(module, write_json(tmp_path / "case.json", obj))
    if case in ("A8", "rescaled A5", "a zero literal", "kasymov(A5)"):
        assert not isinstance(got, tuple)
    if case.startswith(("duplicate", "wrong index", "top level", "in is not", "bad literal")):
        assert got[0] is AlgebraFileError


suites = st.lists(st.sampled_from([*CHECKS, "all", "bogus", ""]), min_size=1, max_size=3)
# mostly algebra files, so that the checks themselves run; one in three is
# arbitrary text or bytes
files = st.integers(0, 5).flatmap(
    lambda kind: st.text(max_size=20) if kind == 4 else st.binary(max_size=20) if kind == 5
    else entry_files(with_out=True).map(json.dumps)
)


@settings(FUZZ, max_examples=300)
@given(
    files, suites,
    st.none() | st.sampled_from(["euclid", "lorentz:1,2", "lorentz:2", "missing.json"]),
    st.sampled_from(["json", "md"]),
)
def test_check_exits_with_a_code_and_no_traceback(tmp_path_factory, content, suite, metric, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz-check.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    argv = ["check", str(path), "--suite", ",".join(suite), "--format", fmt]
    if metric is not None:
        argv += ["--metric", metric]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert out.getvalue()
    else:
        assert err.getvalue().strip()
