"""Trace forms on fundamental objects and the Cartan-type criterion.

kasymov(L) carries no 1/2 prefactor; callers that want the half-normalized
variants scale it themselves.

A trace form is computed and kept once per orbit.  f is skew on its input
runs, so k(X, Y) = Tr(ad1_X ad2_Y) is skew on X's runs and on Y's runs, and
mixed_trace contracts only f's entries at block-sorted X and h's at
block-sorted Y into a tensor.OrbitTensor.  Its one expansion, in sorted key
order, serves both readers of the whole form: its data, built on first use,
and save, which streams the entries into the file writer without building
them.  The compose bracket in construct comes from the same contraction.
"""

from __future__ import annotations

from . import linalg
from .algebra import (
    _FORM_CLOSE,
    AlgebraFileError,
    CheckReport,
    Coordinates,
    NaryAlgebra,
    _entry_texts,
    _group_ad,
    _read_entries,
    _read_entry_file,
    _write_file,
)
from .tensor import (
    OrbitTensor,
    RationalTensor,
    ShapeError,
    _Record,
    contract,
    format_rational,
    guard,
)


class TraceForm(_Record):
    """Tr(ad1_X ad2_Y) on basis tuples; first n-1 slots from L1, last m-1 from L2.

    tensor is the form kept once per orbit: tensor.runs are X's runs, then
    Y's shifted by n-1.  A form read from a file has one-slot runs, so its
    orbits are all of its entries.
    """

    __slots__ = ("arity1", "arity2", "tensor")

    def __init__(self, arity1: int, arity2: int, tensor: OrbitTensor):
        self.arity1, self.arity2, self.tensor = arity1, arity2, tensor

    @property
    def d(self) -> int:
        return self.tensor.shape[0] if self.tensor.shape else 0


def _trace_orbits(l1: NaryAlgebra, l2: NaryAlgebra, h: RationalTensor, last: int) -> OrbitTensor:
    """sum_{b,c} f_{X b}^c h_{Y c}^b at block-sorted X and at Y block-sorted
    on l2's input slots 1..last, as an OrbitTensor whose later slots are
    one-slot runs.

    h is l2's f at those Y, its later slots possibly mapped (the compose
    bracket raises slot m-1); f is l1's.
    """
    n, m = l1.n, l2.n
    x = RationalTensor._trusted(l1.f.shape, l1.orbit_part(1, n - 1))
    k = contract(x, (n, n + 1), h, (m + 1, m))
    runs = l1.runs_within(1, n - 1) + tuple((lo + n - 1, hi + n - 1)
                                             for lo, hi in l2.runs_within(1, last))
    return OrbitTensor(k, runs + tuple((s, s) for s in range(runs[-1][1] + 1, k.rank + 1)))


def mixed_trace(l1: NaryAlgebra, l2: NaryAlgebra) -> TraceForm:
    """k(X, Y) = Tr(ad1_X ad2_Y) = sum_{b,c} f_{X b}^c h_{Y c}^b.

    Contracted from f's entries at block-sorted X and h's at block-sorted Y
    only, which gives k at its block-sorted keys: one entry per orbit.
    """
    if l1.d != l2.d:
        raise ShapeError(f"dimension mismatch: {l1.d} != {l2.d}")
    m = l2.n
    h = RationalTensor._trusted(l2.f.shape, l2.orbit_part(1, m - 1))
    return TraceForm(l1.n, m, _trace_orbits(l1, l2, h, m - 1))


def kasymov(L: NaryAlgebra) -> TraceForm:
    """The 2(n-1)-linear trace form k_{A B} = f_{A b}^c f_{B c}^b."""
    return mixed_trace(L, L)


def _rank_report(columns, d: int) -> CheckReport:
    """Rank-d test of the d-row matrix with the given columns, each a 0-based
    {row: value} map; stops at rank d.

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
    cols: dict = {}
    for key, val in k.tensor.data.items():
        cols.setdefault(key[1:], {})[key[0] - 1] = val
    return _rank_report((cols[rest] for rest in sorted(cols)), k.d)


def _trace_product(arows: dict, brows: dict):
    """Tr(ad_A ad_B) = sum_{l,s} f_{A l}^s f_{B s}^l, from the {l: {s: value}}
    rows of ad_A and ad_B."""
    return sum(val * brows[s].get(l, 0) for l, row in arows.items()
               for s, val in row.items() if s in brows)


def kasymov_nondegenerate(L: NaryAlgebra) -> CheckReport:
    """nondegenerate(kasymov(L)), decided without building the form.

    The column k(., A', B) of the flattened form, A' = (a2..a_{n-1}), is
    linear in ad_B, so for each A' the columns with B in L.ad_span() span
    all of that A''s columns, and each of them is a column of the form.
    Only block-sorted A' are grouped and streamed: a permuted A' gives +-
    the same columns.  Verdict and witness are those of nondegenerate(kasymov(L)).
    """
    d = L.d
    groups: dict = {}
    for a_tuple, arows in _group_ad(L.orbit_part(2, L.n - 1)).items():
        groups.setdefault(a_tuple[1:], []).append((a_tuple[0], arows))
    reps = L.ad_span()
    guard(len(groups) * len(reps) * d, f"Kasymov rank test({L.name})")
    return _rank_report(({first - 1: _trace_product(arows, brows) for first, arows in groups[rest]}
                         for rest in sorted(groups) for _, brows in reps), d)


def _header(k: TraceForm, name: str) -> dict:
    """Every field of the trace form file except "entries"."""
    return {"name": name, "dim": k.d, "slots": k.tensor.rank,
            "arity1": k.arity1, "arity2": k.arity2}


def to_json_dict(k: TraceForm, name: str = "trace-form") -> dict:
    out = _header(k, name)
    out["entries"] = [{"in": list(key), "val": format_rational(val)}
                      for key, val in k.tensor.entries()]
    return out


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
    # the form of an arity-n and an arity-m algebra has n-1 + m-1 slots
    if (type(arity1) is not int or type(arity2) is not int or arity1 < 2 or arity2 < 2
            or arity1 + arity2 - 2 != slots):
        raise AlgebraFileError(f"bad arity1/arity2 ({arity1!r}, {arity2!r}) for {slots} slots")
    data = _read_entries(entries, d, slots, with_out=False)
    return TraceForm(arity1, arity2, OrbitTensor(RationalTensor._trusted((d,) * slots, data),
                                                 tuple((s, s) for s in range(1, slots + 1))))


def save(k: TraceForm, path, name: str = "trace-form") -> None:
    """Write k's file, streaming its expansion; the size guard is checked
    before the file is opened."""
    _write_file(_header(k, name), _entry_texts(k.tensor.rows(), _FORM_CLOSE), path)


def load(path) -> TraceForm:
    return from_json_dict(_read_entry_file(path, with_out=False))
