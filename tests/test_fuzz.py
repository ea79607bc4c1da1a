"""Property-based tests of the input boundary.

Rational literals, both file loaders and `check` on arbitrary files: every
input ends in a value or a loader error, and every `check` in exit 0, 1, 2
or 3, never in a traceback.  Examples are derandomized so the suite stays
deterministic.
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

from naryalg import AlgebraFileError, NaryAlgebra, forms
from naryalg.algebra import from_json_dict
from naryalg.cli import CHECKS, run
from naryalg.tensor import format_rational, parse_rational

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
        ent = {"in": list(key[:split]), "val": draw(values)}
        if with_out:
            ent["out"] = key[-1]
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
    target = draw(st.sampled_from([None, "entry", *obj, "verified", "arity1"]))
    if target == "entry" and entries:
        ent = draw(st.sampled_from(entries))
        field = draw(st.sampled_from(sorted(ent)))
        if draw(st.booleans()):
            del ent[field]
        else:
            ent[field] = draw(scalars | malformed | st.lists(scalars, max_size=4))
    elif target == "metric" and "metric" in obj:
        obj["metric"] = draw(scalars | st.builds(lambda x: {"diag": x}, st.lists(scalars, max_size=4))
                             | st.builds(lambda x: {"matrix": x}, st.lists(scalars, min_size=d, max_size=d)))
    elif target not in (None, "entry"):
        obj[target] = draw(scalars | st.lists(scalars, max_size=2))
    return obj


@FUZZ
@given(entry_files(with_out=True) | scalars)
def test_algebra_loader_returns_or_rejects(obj):
    try:
        L = from_json_dict(obj)
    except AlgebraFileError:
        return
    assert isinstance(L, NaryAlgebra)
    assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in L.f.data.values())


@FUZZ
@given(entry_files(with_out=False) | scalars)
def test_trace_form_loader_returns_or_rejects(obj):
    try:
        k = forms.from_json_dict(obj)
    except AlgebraFileError:
        return
    assert isinstance(k, forms.TraceForm)


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
