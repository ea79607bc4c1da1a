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
from .tensor import RationalTensor, ShapeError, contract, format_rational


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


def nondegenerate(k: TraceForm) -> CheckReport:
    """Rank-d test of the form flattened over its first slot.

    Passing means k(X, basis, .., basis) = 0 forces X = 0.  A failing report
    carries a radical vector's coordinates as its witness.
    """
    t = k.tensor
    d = k.d
    if t.rank == 0 or d == 0:
        return CheckReport("nondegenerate", True)
    rows: dict = {}
    for key, val in t.data.items():
        rows.setdefault(key[0], {})[key[1:]] = val
    cols = sorted({rest for row in rows.values() for rest in row})
    col_index = {rest: i for i, rest in enumerate(cols)}
    mat = [[0] * len(cols) for _ in range(d)]
    for first, row in rows.items():
        for rest, val in row.items():
            mat[first - 1][col_index[rest]] = val
    if linalg.rank(mat, len(cols) or 1) == d:
        return CheckReport("nondegenerate", True)
    radical = linalg.nullspace(linalg.transpose(mat) if cols else [[0] * d], d)
    vec = Coordinates(radical[0] if radical else (0,) * d)
    return CheckReport("nondegenerate", False, witness=vec, residual=0,
                       detail="radical vector coordinates")


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
