"""Trace forms on fundamental objects and the Cartan-type criterion.

kasymov(L) carries no 1/2 prefactor; callers that want the half-normalized
variants scale it themselves.

A trace form is computed and kept once per orbit.  f is skew on its input
runs, so k(X, Y) = Tr(ad1_X ad2_Y) is skew on X's runs and on Y's runs, and
mixed_trace contracts only f's entries at block-sorted X and h's at
block-sorted Y.  One expansion, in sorted key order, serves both readers of
the whole form: TraceForm.tensor, built on demand, and save, which streams
the entries into the file writer without building the tensor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebra import (
    AlgebraFileError,
    CheckReport,
    Coordinates,
    NaryAlgebra,
    _entry_template,
    _group_ad,
    _read_entries,
    _read_entry_file,
    _write_file,
)
from .tensor import RationalTensor, ShapeError, _parity, contract, format_rational, guard


@dataclass
class TraceForm:
    """Tr(ad1_X ad2_Y) on basis tuples; first n-1 slots from L1, last m-1 from L2.

    orbits holds one entry per orbit: the form at its block-sorted keys,
    increasing inside each of runs, the 1-based (first, last) slot runs it is
    skew on.  A form read from a file has one-slot runs, so its orbits are
    all of its entries.
    """

    arity1: int
    arity2: int
    orbits: RationalTensor
    runs: tuple

    @property
    def d(self) -> int:
        return self.orbits.shape[0] if self.orbits.shape else 0

    @cached_property
    def tensor(self) -> RationalTensor:
        """Every entry of the form."""
        data = {head + tail: val if sign > 0 else -val
                for head, sign, tails in _expansion_rows(self) for tail, val in tails}
        return RationalTensor._trusted(self.orbits.shape, data)


def _expansion_rows(k: TraceForm):
    """The rows of _rows for all of k, once k's size passes the guard."""
    lengths = tuple(hi - lo + 1 for lo, hi in k.runs)
    guard(k.orbits.nnz * math.prod(map(math.factorial, lengths)), "trace form expansion")
    return _rows(sorted(k.orbits.data.items()), lengths)


def _rows(items: list, lengths: tuple):
    """Expand sorted (key, value) orbit entries, skew on consecutive slot runs
    of the given lengths, into rows (head, sign, tails) in sorted key order.

    A row stands for the entries head + tail, valued sign * value, for each
    (tail, value) in tails.  head is a permutation of the first run's part of
    a key and tails the sorted expansion of the rest; tails is one list per
    sorted head, shared by all of its permutations.
    """
    h, rest = lengths[0], lengths[1:]
    groups = ((srt, _expand([(key[h:], val) for key, val in group], rest))
              for srt, group in itertools.groupby(items, key=lambda item: item[0][:h]))
    if h == 1:
        # every head is its own orbit: stream, keeping one head's tails at a time
        for head, tails in groups:
            yield head, 1, tails
        return
    shared = dict(groups)
    heads = sorted((perm, _parity(perm), srt)
                   for srt in shared for perm in itertools.permutations(srt))
    for perm, sign, srt in heads:
        yield perm, sign, shared[srt]


def _expand(items: list, lengths: tuple) -> list:
    """The sorted (key, value) entries of the expansion of items (see _rows)."""
    if all(h == 1 for h in lengths):
        return items
    return [(head + tail, val if sign > 0 else -val)
            for head, sign, tails in _rows(items, lengths) for tail, val in tails]


def mixed_trace(l1: NaryAlgebra, l2: NaryAlgebra) -> TraceForm:
    """k(X, Y) = Tr(ad1_X ad2_Y) = sum_{b,c} f_{X b}^c h_{Y c}^b.

    Contracted from f's entries at block-sorted X and h's at block-sorted Y
    only, which gives k at its block-sorted keys: one entry per orbit.
    """
    if l1.d != l2.d:
        raise ShapeError(f"dimension mismatch: {l1.d} != {l2.d}")
    n, m = l1.n, l2.n
    x, y = (RationalTensor._trusted(L.f.shape, L.orbit_part(1, L.n - 1)) for L in (l1, l2))
    k = contract(x, (n, n + 1), y, (m + 1, m))
    return TraceForm(n, m, k, l1.runs_within(1, n - 1)
                     + tuple((lo + n - 1, hi + n - 1) for lo, hi in l2.runs_within(1, m - 1)))


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

    def columns():
        for rest in sorted(groups):
            for _, brows in reps:
                col = [0] * d
                for first, arows in groups[rest]:
                    col[first - 1] = _trace_product(arows, brows)
                yield col

    return _rank_report(columns(), d)


def _header(k: TraceForm, name: str) -> dict:
    """Every field of the trace form file except "entries"."""
    return {"name": name, "dim": k.d, "slots": k.orbits.rank,
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
    return TraceForm(arity1, arity2, RationalTensor._trusted((d,) * slots, data),
                     tuple((s, s) for s in range(1, slots + 1)))


def _entry_texts(rows):
    """The file text of each entry of the rows, in their order.

    Each permuted head is formatted once, and the tail texts of a sorted
    head once for each sign, then shared by all of its permutations.
    """
    lead, sep, close = _entry_template(2, with_out=False).split("%d")
    shared: dict = {}
    for head, sign, tails in rows:
        opening = lead + sep.join(map(str, head))
        key = (tuple(sorted(head)), sign)
        texts = shared.get(key)
        if texts is None:
            texts = ["".join([sep + str(i) for i in tail])
                     + close % format_rational(val if sign > 0 else -val)
                     for tail, val in tails]
            if len(head) > 1:
                shared[key] = texts
        for text in texts:
            yield opening + text


def save(k: TraceForm, path, name: str = "trace-form") -> None:
    """Write k's file, streaming its expansion; the size guard is checked
    before the file is opened."""
    _write_file(_header(k, name), _entry_texts(_expansion_rows(k)), path)


def load(path) -> TraceForm:
    return from_json_dict(_read_entry_file(path, with_out=False))
