"""Trace forms on fundamental objects and the Cartan-type criterion.

kasymov(L) carries no 1/2 prefactor; callers that want the half-normalized
variants scale it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    AlgebraFileError,
    CheckReport,
    Coordinates,
    NaryAlgebra,
    _read_entries,
    _read_json,
    _write_json,
)
from .tensor import RationalTensor, ShapeError, contract, format_rational, guard


@dataclass
class TraceForm:
    """Tr(ad1_X ad2_Y) on basis tuples; first n-1 slots from L1, last m-1 from L2."""

    arity1: int
    arity2: int
    tensor: RationalTensor

    @property
    def d(self) -> int:
        return self.tensor.shape[0] if self.tensor.shape else 0


def mixed_trace(l1: NaryAlgebra, l2: NaryAlgebra) -> TraceForm:
    """k(X, Y) = Tr(ad1_X ad2_Y) = sum_{b,c} f_{X b}^c h_{Y c}^b."""
    if l1.d != l2.d:
        raise ShapeError(f"dimension mismatch: {l1.d} != {l2.d}")
    k = contract(l1.f, (l1.n, l1.n + 1), l2.f, (l2.n + 1, l2.n))
    return TraceForm(l1.n, l2.n, k)


def kasymov(L: NaryAlgebra) -> TraceForm:
    """The 2(n-1)-linear trace form k_{A B} = f_{A b}^c f_{B c}^b."""
    return mixed_trace(L, L)


def _rank_report(columns, d: int) -> CheckReport:
    """Rank-d test of the d-row matrix with the given columns; stops at rank d.

    A failing report carries the first rref basis vector of the radical,
    the orthogonal complement of the column span, read off the same
    EchelonBasis with no second elimination.  rref is unique for a row
    space, so it depends only on that span, not on the columns streamed.
    """
    eb = linalg.EchelonBasis(d)
    for col in columns:
        if eb.insert(col) and len(eb) == d:
            break
    if len(eb) == d:
        return CheckReport("nondegenerate", True)
    return CheckReport("nondegenerate", False,
                       witness=Coordinates(next(eb.null_vectors())),
                       residual=0, detail="radical vector coordinates")


def nondegenerate(k: TraceForm) -> CheckReport:
    """Rank-d test of the form flattened over its first slot.

    Passing means k(X, basis, .., basis) = 0 forces X = 0.  A failing report
    carries a radical vector's coordinates as its witness.
    """
    d = k.d
    cols: dict = {}
    for key, val in k.tensor.data.items():
        cols.setdefault(key[1:], {})[key[0]] = val

    def columns():
        for rest in sorted(cols):
            col = [0] * d
            for first, val in cols[rest].items():
                col[first - 1] = val
            yield col

    return _rank_report(columns(), d)


def _trace_product(arows: dict, brows: dict):
    """Tr(ad_A ad_B) = sum_{l,s} f_{A l}^s f_{B s}^l, from two ad_rows() values."""
    return sum(val * brows[s].get(l, 0) for l, row in arows.items()
               for s, val in row.items() if s in brows)


def kasymov_nondegenerate(L: NaryAlgebra) -> CheckReport:
    """nondegenerate(kasymov(L)), decided without building the form.

    The column k(., A', B) of the flattened form, A' = (a2..a_{n-1}), is
    linear in ad_B, so for each A' the columns with B in L.ad_span() span
    all of that A''s columns, and each of them is a column of the form.
    Verdict and witness are those of nondegenerate(kasymov(L)).
    """
    d = L.d
    groups: dict = {}
    for a_tuple, arows in L.ad_rows().items():
        groups.setdefault(a_tuple[1:], []).append((a_tuple[0], arows))
    reps = L.ad_span()
    guard(len(groups) * len(reps) * d, f"Kasymov rank test({L.name})")

    def columns():
        for rest in sorted(groups):
            for _, brows in reps:
                col = [0] * d
                for first, arows in groups[rest]:
                    col[first - 1] = _trace_product(arows, brows)
                yield col

    return _rank_report(columns(), d)


def to_json_dict(k: TraceForm, name: str = "trace-form") -> dict:
    return {
        "name": name,
        "dim": k.d,
        "slots": k.tensor.rank,
        "arity1": k.arity1,
        "arity2": k.arity2,
        "entries": [
            {"in": list(key), "val": format_rational(val)}
            for key, val in k.tensor.entries()
        ],
    }


def from_json_dict(obj: dict) -> TraceForm:
    try:
        d = obj["dim"]
        slots = obj["slots"]
        arity1 = obj.get("arity1", slots // 2 + 1)
        arity2 = obj.get("arity2", slots - arity1 + 2)
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise AlgebraFileError(f"bad trace form file: {exc}") from exc
    if type(d) is not int or d < 0 or type(slots) is not int or slots < 0:
        raise AlgebraFileError(f"bad dim/slots ({d!r}, {slots!r})")
    data = _read_entries(entries, d, slots, with_out=False)
    return TraceForm(arity1, arity2, RationalTensor((d,) * slots, data))


def save(k: TraceForm, path, name: str = "trace-form") -> None:
    _write_json(to_json_dict(k, name), path)


def load(path) -> TraceForm:
    return from_json_dict(_read_json(path))
