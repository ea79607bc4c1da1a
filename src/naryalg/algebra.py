"""n-Leibniz / Filippov algebras as exact structure-constant tensors.

An algebra of arity n on dimension d is a rank-(n+1) tensor f whose first n
slots are bracket inputs and whose last slot is the (upper) output index.
All property checks are exact zero tests; failing checks carry the
lexicographically first nonzero entry that violates the property.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from operator import itemgetter, lt

from . import linalg
from .tensor import (
    RationalTensor,
    ShapeError,
    _acc,
    _gather,
    _integral,
    _Record,
    _slot_getters,
    antisymmetrize,
    format_rational,
    guard,
    levi_civita,
    parse_rational,
    raise_lower,
)

class AlgebraFileError(ValueError):
    """Malformed algebra/trace-form file."""


def _rational(x):
    """x as an int when it is integral, else as a Fraction."""
    return x if type(x) is int else _integral(Fraction(x))


class Metric:
    """Symmetric non-degenerate bilinear form on Q^d, stored as sparse rows.

    g and its inverse are rows {i: {j: value}} of their nonzero entries,
    1-based with ascending j.  A diagonal metric costs O(d) to build, hash
    and invert; only a dense "matrix" metric pays for its d^2 input and its
    guarded Gauss-Jordan inverse.  Immutable and hashed by value, so results
    computed for one metric can be cached under any equal one.  Integral
    values are stored as ints.
    """

    def __init__(self, entries):
        rows = [[_rational(x) for x in row] for row in entries]
        if any(len(row) != len(rows) for row in rows):
            raise ShapeError("metric matrix is not square")
        self._build(len(rows), {i: {j: x for j, x in enumerate(row, 1) if x}
                                for i, row in enumerate(rows, 1)})

    @classmethod
    def _of_rows(cls, d: int, rows: dict, inverse_rows: dict | None = None) -> "Metric":
        metric = object.__new__(cls)
        metric._build(d, rows, inverse_rows)
        return metric

    def _build(self, d: int, rows: dict, inverse_rows: dict | None = None) -> None:
        """The one construction route: checks rows and computes the inverse,
        unless the caller already holds the inverse rows.

        rows holds nonzero ints and Fractions only, in ascending i and j.
        """
        self.d = d
        self.rows = rows
        for i, row in rows.items():
            for j, x in row.items():
                if rows.get(j, {}).get(i) != x:
                    raise ShapeError("metric matrix is not symmetric")
        if len(rows) != d or not all(rows.values()):
            raise ShapeError("metric is singular")
        self.is_diagonal = all(len(row) == 1 and i in row for i, row in rows.items())
        if inverse_rows is not None:
            self.inverse_rows = inverse_rows
        elif self.is_diagonal:
            # +1 and -1 are their own inverses
            self.inverse_rows = {i: {i: x if x in (1, -1) else _integral(Fraction(1) / x)}
                                 for i, row in rows.items() for x in row.values()}
        else:
            # Gauss-Jordan on the d x 2d augmented matrix
            guard(2 * d ** 3, "metric inverse")
            try:
                inverse = linalg.invert(self.entries)
            except linalg.SingularMatrixError as exc:
                raise ShapeError("metric is singular") from exc
            self.inverse_rows = {i: {j: _integral(x) for j, x in enumerate(row, 1) if x}
                                 for i, row in enumerate(inverse, 1)}
        self._hash = hash(tuple((i, tuple(row.items())) for i, row in rows.items()))

    @classmethod
    def diag(cls, signs) -> "Metric":
        signs = [_rational(x) for x in signs]
        return cls._of_rows(len(signs), {i: {i: x} if x else {}
                                         for i, x in enumerate(signs, 1)})

    @classmethod
    def euclidean(cls, d: int) -> "Metric":
        return cls._of_rows(d, {i: {i: 1} for i in range(1, d + 1)})

    @classmethod
    def lorentzian(cls, p: int, q: int) -> "Metric":
        if p < 0 or q < 0:
            raise ShapeError(f"negative count in signature ({p}, {q})")
        return cls._of_rows(p + q, {i: {i: -1 if i <= p else 1} for i in range(1, p + q + 1)})

    def _dense(self, rows: dict) -> tuple:
        return tuple(tuple(rows[i].get(j, 0) for j in range(1, self.d + 1))
                     for i in range(1, self.d + 1))

    @property
    def entries(self) -> tuple:
        """Dense d x d view of g, built on every call."""
        return self._dense(self.rows)

    @property
    def inverse(self) -> tuple:
        """Dense d x d view of the inverse of g, built on every call."""
        return self._dense(self.inverse_rows)

    def diagonal(self):
        return [self.rows[i].get(i, 0) for i in range(1, self.d + 1)]

    def __eq__(self, other):
        if not isinstance(other, Metric):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_diagonal:
            return f"Metric.diag({self.diagonal()})"
        return f"Metric({self.entries!r})"


class Coordinates(tuple):
    """A witness that is a vector's coordinates, not an index tuple."""


class CheckReport(_Record):
    __slots__ = ("name", "passed", "witness", "residual", "detail")

    def __init__(self, name: str, passed: bool, witness: tuple | None = None,
                 residual: object = None, detail: str = ""):
        if not passed and witness is None:
            raise ValueError("failing report must carry a witness")
        self.name, self.passed, self.witness, self.residual, self.detail = (
            name, passed, witness, residual, detail)

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            if isinstance(self.witness, Coordinates):
                out["witness"] = [format_rational(x) for x in self.witness]
            else:
                out["witness"] = list(self.witness)
        if self.residual is not None:
            out["residual"] = format_rational(self.residual)
        if self.detail:
            out["detail"] = self.detail
        return out


class NaryAlgebra:
    """Arity-n algebra with structure constants f (last slot = output)."""

    def __init__(self, name, d, n, f: RationalTensor, metric: Metric | None = None):
        if n < 2:
            raise ShapeError(f"arity must be >= 2, got {n}")
        if f.shape != (d,) * (n + 1):
            raise ShapeError(f"structure tensor shape {f.shape} != {(d,) * (n + 1)}")
        if metric is not None and metric.d != d:
            raise ShapeError(f"metric dim {metric.d} != algebra dim {d}")
        self.name = name
        self.d = d
        self.n = n
        self.f = f
        self.metric = metric
        # False for output built with its preconditions skipped (force=True).
        self.verified = True
        self._cache: dict = {}

    def __eq__(self, other):
        if not isinstance(other, NaryAlgebra):
            return NotImplemented
        return (
            self.name == other.name
            and self.d == other.d
            and self.n == other.n
            and self.f == other.f
            and self.metric == other.metric
        )

    def __repr__(self):
        return f"NaryAlgebra({self.name!r}, d={self.d}, n={self.n}, nnz={self.f.nnz})"

    def require_metric(self, metric: Metric | None = None) -> Metric:
        metric = metric if metric is not None else self.metric
        if metric is None:
            raise ShapeError(f"algebra {self.name!r} has no metric and none was supplied")
        if metric.d != self.d:
            raise ShapeError(f"metric dim {metric.d} != algebra dim {self.d}")
        return metric

    def lowered(self, metric: Metric | None = None) -> RationalTensor:
        """Structure constants with the output slot lowered by the metric."""
        metric = self.require_metric(metric)
        key = ("lowered", metric)
        if key not in self._cache:
            self._cache[key] = raise_lower(self.f, self.n + 1, metric, "lower")
        return self._cache[key]

    def ad_rows(self) -> dict:
        """Group f by the first n-1 slots: A -> {l: {s: value}}."""
        if "ad_rows" not in self._cache:
            self._cache["ad_rows"] = _group_ad(self.f.data)
        return self._cache["ad_rows"]

    def skew_runs(self) -> tuple:
        """The skew-block descriptor: maximal runs of input slots on which f
        is skew, as 1-based (first, last) pairs covering 1..n in order.

        Found once, by one scan that shrinks as it goes.  Slots k, k+1 are
        decided on part, f at the keys increasing on every run found so far,
        the run holding k cut to end at k-1.  Swapping k and k+1 maps part to
        itself, and any other key of f is +- a key of part under a
        permutation of slots f is already skew on, which commutes with the
        swap; so the test on part decides the swap for all of f.  Once k+1
        is decided, part keeps its keys with key[k-1] < key[k] when k-1 is
        in k's run; at the end it is orbit_part(1, n-1), which is kept.
        """
        if "skew_runs" not in self._cache:
            data = part = self.f.data
            runs, cut = [[1, 1]], ()
            for i in range(self.n - 1):     # 0-based positions of slots i+1, i+2
                run = runs[-1]
                if _swap_skew(part, data, i, self.n + 1):
                    run[1] = i + 2
                else:
                    runs.append([i + 2, i + 2])
                if run[0] < i + 1:
                    part = {key: val for key, val in part.items() if key[i - 1] < key[i]}
                    cut += (i - 1,)
            if cut:
                self._cache[("orbit_part", cut)] = part
            self._cache["skew_runs"] = tuple(map(tuple, runs))
        return self._cache["skew_runs"]

    def runs_within(self, first: int, last: int) -> tuple:
        """skew_runs() cut to input slots first..last."""
        return tuple((max(lo, first), min(hi, last)) for lo, hi in self.skew_runs()
                     if lo <= last and first <= hi)

    def orbit_part(self, first: int, last: int) -> dict:
        """f's data at the keys increasing on input slots first..last inside
        every run of runs_within(first, last); f.data itself when no run has
        two slots.

        f at a permuted key is +-f at the block-sorted one, so the
        block-sorted key is the lexicographically least of its orbit.
        """
        pairs = tuple(s - 1 for lo, hi in self.runs_within(first, last) for s in range(lo, hi))
        if not pairs:
            return self.f.data
        cached = ("orbit_part", pairs)
        if cached not in self._cache:
            # a part kept on fewer pairs holds every key of this one: skew_runs()
            # keeps the one on slots 1..n-1, and that on 1..n is cut from it
            source = self._cache.get(("orbit_part", pairs[:-1]), self.f.data)
            lo, hi = itemgetter(*pairs), itemgetter(*[i + 1 for i in pairs])
            keep = ((lambda t: lo(t) < hi(t)) if len(pairs) == 1
                    else (lambda t: all(map(lt, lo(t), hi(t)))))
            self._cache[cached] = {key: val for key, val in source.items() if keep(key)}
        return self._cache[cached]

    def ad_span(self) -> list:
        """Basis (n-1)-tuples whose ad matrices span the whole ad space.

        A list of (A, ad_rows()[A]) in lexicographic order of A: a tuple is
        kept iff its ad matrix is independent of those kept before it, so
        len(ad_span()) is the rank of A -> ad_A.  Only block-sorted tuples
        are tried, grouped from orbit_part(1, n-1): a permuted tuple has +-
        the ad matrix of its block-sorted one, which precedes it, so it is
        never kept.
        """
        if "ad_span" not in self._cache:
            d = self.d
            rows = _group_ad(self.orbit_part(1, self.n - 1))
            guard(len(rows) * d * d, f"adjoint span({self.name})")
            eb = linalg.EchelonBasis(d * d)
            self._cache["ad_span"] = [(a_tuple, mrows) for a_tuple, mrows in sorted(rows.items())
                                      if eb.insert(_flat(mrows, d))]
        return self._cache["ad_span"]


def _group_ad(data: dict) -> dict:
    """Group data's entries by all but their last two slots: A -> {l: {s: value}}."""
    rows: dict = {}
    for key, val in data.items():
        rows.setdefault(key[:-2], {}).setdefault(key[-2], {})[key[-1]] = val
    return rows


def _flat(mat: dict, d: int) -> dict:
    """A sparse 1-based {i: {j: value}} d x d matrix as the {column: value}
    map of its row-major flattening, an EchelonBasis row."""
    return {(i - 1) * d + j - 1: val for i, row in mat.items() for j, val in row.items()}


def _swap_skew(part: dict, data: dict, i: int, rank: int) -> bool:
    """Whether data[key] == -data[key with entries i, i+1 swapped] for every
    key of part, entries of data that the swap maps onto part.

    Each key with key[i] < key[i+1] looks up its partner in data, a repeated
    index fails, and equal counts on both sides make the pairing a bijection.
    """
    swap = itemgetter(*range(i), i + 1, i, *range(i + 2, rank))
    ahead = 0
    for key, val in part.items():
        a, b = key[i], key[i + 1]
        if a < b:
            if data.get(swap(key)) != -val:
                return False
            ahead += 1
        elif a == b:
            return False
    return 2 * ahead == len(part)


def _zero_report(name: str, data: dict, detail: str = "") -> CheckReport:
    """Passes iff data is empty, else reports its lexicographically first key."""
    if data:
        witness = min(data)
        return CheckReport(name, False, witness, data[witness], detail)
    return CheckReport(name, True, detail=detail)


# ---------------------------------------------------------------------------
# canonical builders


def simple_filippov(n: int, signature) -> NaryAlgebra:
    """The (n+1)-dimensional simple algebra: eps with one index raised.

    f_{a1..an}^b = eta^{b a_{n+1}} eps_{a1..an a_{n+1}} with eta = diag(signature).
    """
    signature = list(signature)
    if len(signature) != n + 1:
        raise ShapeError(f"signature length {len(signature)} != n+1 = {n + 1}")
    if any(s not in (1, -1) for s in signature):
        raise ShapeError("signature entries must be +1 or -1")
    d = n + 1
    data = {key: signature[key[n] - 1] * val for key, val in levi_civita(d).data.items()}
    p = signature.count(-1)
    name = f"A{d}" if p == 0 else f"A{p}+{d - p}"
    return NaryAlgebra(name, d, n, RationalTensor((d,) * (n + 1), data), Metric.diag(signature))


def zero_algebra(d: int, n: int, name: str | None = None) -> NaryAlgebra:
    return NaryAlgebra(
        name or f"zero({d},{n})", d, n, RationalTensor((d,) * (n + 1)),
        Metric.euclidean(d) if d else None,
    )


def direct_sum(a: NaryAlgebra, b: NaryAlgebra) -> NaryAlgebra:
    """Ideal direct sum; all mixed structure constants vanish."""
    if a.n != b.n:
        raise ShapeError(f"arity mismatch: {a.n} != {b.n}")
    d = a.d + b.d
    data = dict(a.f.data)
    for key, val in b.f.data.items():
        data[tuple(i + a.d for i in key)] = val
    metric = None
    if a.metric is not None and b.metric is not None:
        # the inverse of a block-diagonal metric is block-diagonal too
        rows, inverse = dict(a.metric.rows), dict(a.metric.inverse_rows)
        for mine, theirs in ((rows, b.metric.rows), (inverse, b.metric.inverse_rows)):
            for i, row in theirs.items():
                mine[i + a.d] = {j + a.d: x for j, x in row.items()}
        metric = Metric._of_rows(d, rows, inverse)
    return NaryAlgebra(
        f"{a.name}+{b.name}", d, a.n, RationalTensor((d,) * (a.n + 1), data), metric
    )


# ---------------------------------------------------------------------------
# the Filippov identity


def _matrix_cols(rows: dict) -> dict:
    cols: dict = {}
    for b, row in rows.items():
        for l, val in row.items():
            cols.setdefault(l, {})[b] = val
    return cols


def _derivation_terms(entries, spans: list, mrows: dict, out: dict):
    """Accumulate  f_B^l M_l^s - sum_k M_{b_k}^l f_{..l..}^s  into out at
    block-sorted B, keyed B + (s,).

    entries are f's (key, value) pairs at block-sorted inputs, from
    orbit_part(1, n), and spans[k] is the run (lo, hi) of input slot k,
    0-based and half-open; with one-slot spans every input is block-sorted.
    mrows maps lower index l -> {upper s: value}.  An entry f_C^s reaches the second term
    at B = C with C_k replaced by b and re-sorted, with the sign of that sort.
    """
    mcols = _matrix_cols(mrows)
    for key, val in entries:
        inputs, l0 = key[:-1], key[-1]
        row = mrows.get(l0)
        if row:
            for s, mv in row.items():
                _acc(out, inputs + (s,), val * mv)
        for k, (lo, hi) in enumerate(spans):
            col = mcols.get(inputs[k])
            if col:
                for b, mv in col.items():
                    if hi - lo == 1:  # a one-slot run: nothing to re-sort
                        _acc(out, key[:k] + (b,) + key[k + 1:], -val * mv)
                        continue
                    sign, new = _resort(key, k, b, lo, hi)
                    if sign:
                        _acc(out, new, -sign * val * mv)


def derivation_residual(l1: NaryAlgebra, l2: NaryAlgebra) -> RationalTensor:
    """Residual of 'ad2 is a derivation of l1'.

    Entry at (a1..an, b1..b_{m-1}, s) is
    f_{a1..an}^l h_{b1..b_{m-1} l}^s - sum_r h_{b1..b_{m-1} a_r}^l f_{a1.. l ..an}^s.
    """
    if l1.d != l2.d:
        raise ShapeError(f"dimension mismatch {l1.d} != {l2.d}")
    guard(len(l2.ad_rows()) * l1.f.nnz * (l1.n + 1), "derivation_residual")
    out: dict = {}
    for y_tuple, mrows in sorted(l2.ad_rows().items()):
        # a small per-slice dict with short keys: most slices cancel to nothing
        acc: dict = {}
        _derivation_terms(l1.f.data.items(), [(k, k + 1) for k in range(l1.n)], mrows, acc)
        out.update({key[:-1] + y_tuple + (key[-1],): val for key, val in acc.items()})
    return RationalTensor((l1.d,) * (l1.n + l2.n), out)


def filippov_residual(L: NaryAlgebra) -> RationalTensor:
    """Residual tensor of the (left) Filippov identity: derivation_residual(L, L).

    Entry at (b1..bn, a1..a_{n-1}, s) is
    f_{b1..bn}^l f_{a1..a_{n-1} l}^s - sum_k f_{a1..a_{n-1} b_k}^l f_{b1.. l ..bn}^s;
    the algebra satisfies the identity iff this is the zero tensor.
    """
    return derivation_residual(L, L)


def _resort(key: tuple, k: int, new: int, lo: int, hi: int):
    """key, block-sorted on its run key[lo:hi], with entry k set to new and
    re-sorted inside that run: (sign of that sort, new key), or (0, None)
    when new repeats another entry of the run."""
    rest = key[lo:k] + key[k + 1:hi]
    pos = bisect_left(rest, new)
    if pos < len(rest) and rest[pos] == new:
        return 0, None
    sign = -1 if (pos + lo - k) % 2 else 1
    return sign, key[:lo] + rest[:pos] + (new,) + rest[pos:] + key[hi:]


def _derivation_report(name: str, l1: NaryAlgebra, l2: NaryAlgebra) -> CheckReport:
    """Exact check that every ad of l2 is a derivation of l1.

    The residual is linear in ad2, so it vanishes iff it vanishes on the
    slices of l2.ad_span().  Each ad2 outside that span is a combination of
    span members that precede it lexicographically, so wherever the full
    residual is nonzero at some input tuple, its least such ad2 tuple is a
    span member: the least first entry over the span slices is the full
    residual's lexicographically first nonzero entry.  Each slice is
    accumulated at block-sorted inputs only: the residual keeps every skew of
    f, so its least nonzero entry has a block-sorted input tuple.
    """
    if l1.d != l2.d:
        raise ShapeError(f"dimension mismatch {l1.d} != {l2.d}")
    reps = l2.ad_span()
    guard(len(reps) * l1.f.nnz * (l1.n + 1), "adjoint-span derivation check")
    entries = l1.orbit_part(1, l1.n).items()
    spans = [(lo - 1, hi) for lo, hi in l1.skew_runs() for _ in range(lo, hi + 1)]
    firsts = {}
    for y_tuple, mrows in reps:
        acc: dict = {}
        _derivation_terms(entries, spans, mrows, acc)
        if acc:
            key = min(acc)
            firsts[key[:-1] + y_tuple + (key[-1],)] = acc[key]
    return _zero_report(name, firsts)


def check_derivation(l1: NaryAlgebra, l2: NaryAlgebra) -> CheckReport:
    """Exact check that every ad of l2 is a derivation of l1.

    Decided on a spanning set of l2's adjoint matrices; a failing report
    carries the first nonzero entry of derivation_residual(l1, l2).
    """
    return _derivation_report("derivation", l1, l2)


def check_filippov(L: NaryAlgebra) -> CheckReport:
    """Exact FI check, check_derivation(L, L), computed once per algebra.

    A failing report carries the first nonzero entry of filippov_residual(L).
    """
    report = L._cache.get("filippov")
    if report is None:
        report = L._cache["filippov"] = _derivation_report("filippov", L, L)
    return report


def filippov_sampled(L: NaryAlgebra, samples: int = 10_000, seed: int = 12345) -> CheckReport:
    """FI residual on pseudo-randomly sampled (b-tuple, a-tuple) slices.

    Every sampled slice is checked exactly over all output indices; intended
    for algebras whose full residual is out of reach.
    """
    import random

    rng = random.Random(seed)
    rows = L.ad_rows()
    n, d = L.n, L.d
    for _ in range(samples):
        b = tuple(rng.randint(1, d) for _ in range(n))
        a = tuple(rng.randint(1, d) for _ in range(n - 1))
        ad_a = rows.get(a, {})
        acc: dict = {}
        for l, v in rows.get(b[:-1], {}).get(b[-1], {}).items():
            for s, w in ad_a.get(l, {}).items():
                _acc(acc, s, v * w)
        for k in range(n):
            for l, v in ad_a.get(b[k], {}).items():
                bl = b[:k] + (l,) + b[k + 1:]
                for s, w in rows.get(bl[:-1], {}).get(bl[-1], {}).items():
                    _acc(acc, s, -v * w)
        if acc:
            s = min(acc)
            return CheckReport(
                "filippov", False, b + a + (s,), acc[s],
                detail=f"sampled check ({samples} slices, seed {seed})",
            )
    return CheckReport(
        "filippov", True, detail=f"sampled check ({samples} slices, seed {seed})"
    )


# ---------------------------------------------------------------------------
# symmetry / metric property checks


def _mismatch_report(t: RationalTensor, name: str, moves, sign: int) -> CheckReport:
    """Compare t with slot-permuted copies of itself: t[key] == sign * t[moved key].

    Each move is a 0-based slot-index tuple: the moved key is
    (key[move[0]], key[move[1]], ...).  A failing report carries the
    lexicographically least offending key (or its image, when that is also
    stored) and the residual t[key] - sign * t[moved key]; ties go to the
    earlier move, then to the earlier key in storage order.
    """
    best = None
    data = t.data
    for move in moves:
        image = itemgetter(*move)
        for key, val in data.items():
            moved = image(key)
            other = data.get(moved)
            residual = val if other is None else val - sign * other
            if residual != 0:
                cand = key if other is None else min(key, moved)
                if best is None or cand < best[0]:
                    best = (cand, residual)
    if best:
        return CheckReport(name, False, best[0], best[1])
    return CheckReport(name, True)


def _adjacent_swaps(L: NaryAlgebra, slots) -> list:
    """Moves on f's slots exchanging each pair of adjacent listed (1-based)
    slots, except two distinct input slots inside one run of L.skew_runs():
    f is skew there, and so is any tensor that differs from f only in its
    output slot."""
    slots = list(slots)
    moves = []
    for a, b in zip(slots, slots[1:]):
        # the output slot is in no run, so metricity needs no skew scan
        if a != b and max(a, b) <= L.n and any(
                lo <= min(a, b) and max(a, b) <= hi for lo, hi in L.skew_runs()):
            continue
        move = list(range(L.n + 1))
        move[a - 1], move[b - 1] = b - 1, a - 1
        moves.append(move)
    return moves


def check_skew(L: NaryAlgebra, slots) -> CheckReport:
    """Antisymmetry of the bracket under every transposition inside slots.

    Pairs of slots inside one run of L.skew_runs() are known to pass; the
    others are compared entry by entry for the witness.
    """
    slots = list(slots)
    if not slots or any(not 1 <= s <= L.n for s in slots):
        raise ShapeError(f"slots {slots} not within 1..{L.n}")
    return _mismatch_report(L.f, "skew", _adjacent_swaps(L, slots), -1)


def check_metricity(L: NaryAlgebra, metric: Metric | None = None) -> CheckReport:
    """Invariance of the metric: lowered constants antisymmetric in the last two slots."""
    swap = _adjacent_swaps(L, [L.n, L.n + 1])
    return _mismatch_report(L.lowered(metric), "metricity", swap, -1)


def check_full_antisym_lowered(L: NaryAlgebra, metric: Metric | None = None) -> CheckReport:
    swaps = _adjacent_swaps(L, range(1, L.n + 2))
    return _mismatch_report(L.lowered(metric), "fullanti", swaps, -1)


def check_symmetry_property(L: NaryAlgebra, metric: Metric | None = None) -> CheckReport:
    """Pair-exchange symmetry of the lowered constants in their last four slots.

    For arity 3 this is the defining symmetry of the CS-type algebras:
    g_{a1 a2 b1 b2} = g_{b1 b2 a1 a2}.
    """
    if L.n < 3:
        raise ShapeError("symmetry property needs arity >= 3")
    r = L.n + 1
    move = (*range(r - 4), r - 2, r - 1, r - 4, r - 3)
    return _mismatch_report(L.lowered(metric), "symmetry", [move], 1)


def all_of(name: str, reports) -> CheckReport:
    """Conjunction of sub-checks: passes, or wraps the first failing report."""
    for rep in reports:
        if not rep.passed:
            return CheckReport(name, False, rep.witness, rep.residual,
                               detail=f"failed {rep.name}")
    return CheckReport(name, True)


def _odd_blocks(L: NaryAlgebra, what: str):
    """n for odd arity 2n-3, and the skew reports of input slots 1..n-1 and n..2n-3."""
    if L.n % 2 == 0 or L.n < 3:
        raise ShapeError(f"{what} check needs odd arity >= 3, got {L.n}")
    n = (L.n + 3) // 2
    return n, [check_skew(L, range(1, n)), check_skew(L, range(n, L.n + 1))]


def check_generalized_metric_l(L: NaryAlgebra, metric: Metric | None = None) -> CheckReport:
    """Generalized metric ell-algebra axioms for odd arity ell = 2n-3.

    Skew in the first n-1 and next n-2 slots, metric, symmetric under the
    exchange of the two (n-1)-index blocks of the lowered constants, and FI.
    """
    n, skews = _odd_blocks(L, "generalized metric")
    metric = L.require_metric(metric)
    block_exchange = (*range(n - 1, L.n + 1), *range(n - 1))
    return all_of("genmetric", [
        *skews,
        check_metricity(L, metric),
        _mismatch_report(L.lowered(metric), "blocksym", [block_exchange], 1),
        check_filippov(L),
    ])


def _impure_component(f: RationalTensor, n: int):
    """Least r != n-2 with a nonzero two-column component of f, or None.

    f is skew in input slots 1..n-1 and n..2n-3, so by Pieri's rule it holds
    only the two-column patterns r = 0..n-2.  Antisymmetrizing its first
    n-1+k input slots kills exactly the patterns with r > n-2-k; only the
    gather of each is built, since it is empty iff that antisymmetrization is
    zero.  k = 1 decides purity; the larger k run only on an impure f, to
    name the least r.
    """
    def impure(k):
        return bool(_gather(f, _slot_getters(f.rank, range(1, n + k)), True))

    if not impure(1):
        return None
    return next((n - 2 - k for k in range(n - 2, 1, -1) if impure(k)), n - 3)


def is_lie_lple(L: NaryAlgebra) -> CheckReport:
    """Odd arity l = 2n-3, block skews, FI, and purity at the r = n-2 pattern."""
    n, skews = _odd_blocks(L, "l-ple")
    pre = all_of("lple", [*skews, check_filippov(L)])
    r = _impure_component(L.f, n) if pre.passed else None
    if r is None:
        return pre
    return CheckReport("lple", False, (r,), None, detail=f"nonzero component at r={r} != {n - 2}")


# ---------------------------------------------------------------------------
# cyclic property, triple and n-ple systems


def cyclic_sum(L: NaryAlgebra) -> RationalTensor:
    """Sum of the n cyclic rotations of the bracket input slots."""
    guard(L.f.nnz * L.n, f"cyclic_sum({L.name})")
    out: dict = {}
    for key, val in L.f.data.items():
        inputs, s = key[:-1], key[-1]
        for shift in range(L.n):
            rotated = inputs[shift:] + inputs[:shift]
            _acc(out, rotated + (s,), val)
    return RationalTensor(L.f.shape, out)


def full_antisymmetrization(L: NaryAlgebra) -> RationalTensor:
    """Unnormalized signed sum over all n! permutations of the input slots."""
    return antisymmetrize(L.f, range(1, L.n + 1), normalized=False)


def _rotation_least_sum(L: NaryAlgebra) -> dict:
    """cyclic_sum(L) at its keys whose inputs are their own least rotation.

    Each entry of f is added once, at the least rotation of its inputs,
    times the number of shifts that reach it.
    """
    guard(L.f.nnz * L.n, f"cyclic_sum({L.name})")
    out: dict = {}
    for key, val in L.f.data.items():
        inputs = key[:-1]
        low = min(inputs)
        rotations = [inputs[k:] + inputs[:k] for k, i in enumerate(inputs) if i == low]
        least = min(rotations)
        _acc(out, least + key[-1:], val * rotations.count(least))
    return out


def check_cyclic(L: NaryAlgebra) -> CheckReport:
    """Vanishing of cyclic_sum(L), decided once per algebra.

    The cyclic sum is invariant under rotating its inputs, so it vanishes
    iff it vanishes where the inputs are their least rotation, and its
    lexicographically first nonzero entry sits at such a key: the report is
    that of cyclic_sum(L), without building the sum.
    """
    report = L._cache.get("cyclic")
    if report is None:
        report = L._cache["cyclic"] = _zero_report("cyclic", _rotation_least_sum(L))
    return report


def is_lie_triple(L: NaryAlgebra) -> CheckReport:
    """Arity 3, skew in the first two slots, FI, and vanishing cyclic sum."""
    if L.n != 3:
        return CheckReport("triple", False, (0,), None, detail=f"arity {L.n} != 3")
    return all_of("triple", [check_skew(L, [1, 2]), check_filippov(L), check_cyclic(L)])


def is_lie_nple(L: NaryAlgebra) -> CheckReport:
    """Skew in the first n-1 slots, FI, and vanishing cyclic sum."""
    return all_of("nple", [check_skew(L, range(1, L.n)), check_filippov(L), check_cyclic(L)])


# ---------------------------------------------------------------------------
# file format


def _metric_to_json(metric: Metric | None):
    if metric is None:
        return None
    if metric.is_diagonal and all(type(x) is int for x in metric.diagonal()):
        return {"diag": metric.diagonal()}
    return {"matrix": [[format_rational(x) for x in row] for row in metric.entries]}


def _metric_from_json(obj, d: int) -> Metric:
    if not isinstance(obj, dict):
        raise AlgebraFileError("metric must be an object")
    if "diag" in obj:
        diag = obj["diag"]
        if not isinstance(diag, list) or len(diag) != d:
            raise AlgebraFileError("metric diag has wrong length")
        if any(type(x) is not int or x == 0 for x in diag):
            raise AlgebraFileError("metric diag entries must be nonzero integers")
        return Metric.diag(diag)
    if "matrix" in obj:
        rows = obj["matrix"]
        if not isinstance(rows, list) or len(rows) != d:
            raise AlgebraFileError("metric matrix has wrong size")
        if not all(isinstance(row, list) for row in rows):
            raise AlgebraFileError("metric matrix rows must be lists")
        try:
            return Metric([[parse_rational(x) for x in row] for row in rows])
        except (ValueError, ShapeError) as exc:
            raise AlgebraFileError(f"bad metric matrix: {exc}") from exc
    raise AlgebraFileError("metric needs 'diag' or 'matrix'")


def _header(L: NaryAlgebra) -> dict:
    """Every field of the algebra file except "entries"."""
    out = {"name": L.name, "dim": L.d, "arity": L.n}
    metric = _metric_to_json(L.metric)
    if metric is not None:
        out["metric"] = metric
    if not L.verified:
        out["verified"] = False
    return out


def to_json_dict(L: NaryAlgebra) -> dict:
    out = _header(L)
    out["entries"] = [
        {"in": list(key[:-1]), "out": key[-1], "val": format_rational(val)}
        for key, val in L.f.entries()
    ]
    return out


def _read_entries(entries, d: int, rank: int, with_out: bool) -> dict:
    """Entry list -> {index tuple: nonzero value}; the index is "in" (+ "out").

    An entry is a JSON object, or a tuple _entry_hook made of one: the index
    ints followed by the literal.  A tuple's literal is parsed once per
    distinct literal; a tuple that fails a check is turned back into its
    object, whose checks name the fault.  Each tuple is released from the
    list once read, so its memory serves the next key.  Zero values count for
    the duplicate check and are then dropped.
    """
    if not isinstance(entries, list):
        raise AlgebraFileError("'entries' must be a list")
    data = {}
    values: dict = {}  # literal -> value, for the tuples
    for i, ent in enumerate(entries):
        if type(ent) is tuple:
            entries[i] = None
            idx, text = ent[:-1], ent[-1]
            val = values.get(text)
            if val is None:
                try:
                    val = values[text] = parse_rational(text)
                except ValueError:
                    pass
            if val is None or len(idx) != rank or (idx and (min(idx) < 1 or max(idx) > d)):
                ent = _entry_object(ent, with_out)
        if type(ent) is not tuple:
            try:
                idx = tuple(ent["in"]) + ((ent["out"],) if with_out else ())
                val = parse_rational(ent["val"])
            except (KeyError, TypeError, ValueError) as exc:
                raise AlgebraFileError(f"bad entry {ent!r}: {exc}") from exc
            if len(idx) != rank:
                raise AlgebraFileError(f"entry {ent!r} has wrong index count")
            # type() rather than isinstance(): JSON true/false are not indices
            if any(type(i) is not int or not 1 <= i <= d for i in idx):
                raise AlgebraFileError(f"entry index {idx} out of 1..{d}")
        if idx in data:
            raise AlgebraFileError(f"duplicate entry for index {idx}")
        data[idx] = val
    if not all(data.values()):
        data = {idx: val for idx, val in data.items() if val}
    return data


def from_json_dict(obj: dict) -> NaryAlgebra:
    if not isinstance(obj, dict):
        raise AlgebraFileError("algebra file must hold a JSON object")
    try:
        name = obj["name"]
        d = obj["dim"]
        n = obj["arity"]
        entries = obj["entries"]
    except KeyError as exc:
        raise AlgebraFileError(f"missing field {exc}") from exc
    if not isinstance(name, str):
        raise AlgebraFileError(f"'name' must be a string, got {name!r}")
    # type() rather than isinstance(): JSON true/false are not sizes
    if type(d) is not int or d < 0 or type(n) is not int or n < 2:
        raise AlgebraFileError(f"bad dim/arity ({d}, {n})")
    verified = obj.get("verified", True)
    if not isinstance(verified, bool):
        raise AlgebraFileError(f"'verified' must be true or false, got {verified!r}")
    data = _read_entries(entries, d, n + 1, with_out=True)
    metric = _metric_from_json(obj["metric"], d) if "metric" in obj else None
    L = NaryAlgebra(name, d, n, RationalTensor._trusted((d,) * (n + 1), data), metric)
    L.verified = verified
    return L


# Entries per write() call of the streamed writer.
_WRITE_CHUNK = 1024


# What follows an entry's input indices in its file text: %-templates of
# the key's indices after the inputs and of the value literal.
_ALGEBRA_CLOSE = '\n   ],\n   "out": %d,\n   "val": "%s"\n  }'
_FORM_CLOSE = '\n   ],\n   "val": "%s"\n  }'


def _entry_texts(rows, close: str):
    """The text of each entry of the rows (see tensor.RationalTensor.rows),
    in their order, laid out as json.dump(indent=1) lays out an item of
    "entries"; close is _ALGEBRA_CLOSE or _FORM_CLOSE.

    Each permuted head is formatted once, and the tail texts of a sorted
    head once for each sign, then shared by all of its permutations.  A
    one-index head has no other permutation: its texts are streamed.
    """
    lead, sep = '  {\n   "in": [\n    ', ",\n    "
    shared: dict = {}
    for head, sign, tails in rows:
        opening = lead + sep.join(map(str, head))
        template = (sep + "%d") * (len(tails[0][0]) - close.count("%d")) + close
        texts = (template % (*tail, format_rational(val if sign > 0 else -val))
                 for tail, val in tails)
        if len(head) > 1:
            key = (tuple(sorted(head)), sign)
            texts = shared[key] = shared.get(key) or list(texts)
        for text in texts:
            yield opening + text


def _write_json(fh, header: dict, field: str, texts, chunk: int = _WRITE_CHUNK) -> None:
    """Write header plus a last field, the list of the item texts, to fh byte
    for byte as json.dump(indent=1) and a newline would write them.

    The header goes through json, so its escaping and layout are json's.  The
    items hold only ints and rational literals, which need no escaping, so
    each text is laid out as json lays out a list item at depth 2; they are
    written chunk at a time.
    """
    head = json.dumps(header, indent=1)
    texts = iter(texts)
    fh.write(head[:-2])                 # drop the closing "\n}"
    fh.write(f',\n "{field}": [')
    sep = "\n"
    while part := list(islice(texts, chunk)):
        fh.write(sep)
        fh.write(",\n".join(part))
        sep = ",\n"
    fh.write("]\n}\n" if sep == "\n" else "\n ]\n}\n")


def _write_file(header: dict, texts, path) -> None:
    """Write header plus the entry texts, given in sorted key order and laid
    out by _entry_texts, as the file's "entries"."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, header, "entries", texts)


def _read_json(path, object_hook=None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_hook=object_hook)
        except json.JSONDecodeError as exc:
            raise AlgebraFileError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise AlgebraFileError(f"JSON nested too deeply: {exc}") from exc


def _entry_hook(with_out: bool):
    """json object_hook: an entry object -> one tuple, its index ints then its
    literal.

    Only an object with exactly the writer's fields in the writer's order,
    int indices and a string literal becomes a tuple, so _entry_object
    rebuilds it exactly; anything else stays a dict for _read_entries.
    """
    fields = ["in", "out", "val"] if with_out else ["in", "val"]
    literals: dict = {}  # one str object per distinct literal

    def hook(obj):
        if list(obj) != fields:
            return obj
        ins, text = obj["in"], obj["val"]
        out = obj["out"] if with_out else 0
        if (type(ins) is not list or type(out) is not int or type(text) is not str
                or not all(type(i) is int for i in ins)):
            return obj
        text = literals.setdefault(text, text)
        return (*ins, out, text) if with_out else (*ins, text)

    return hook


def _entry_object(ent: tuple, with_out: bool) -> dict:
    """The JSON object _entry_hook turned into ent."""
    if not with_out:
        return {"in": list(ent[:-1]), "val": ent[-1]}
    return {"in": list(ent[:-2]), "out": ent[-2], "val": ent[-1]}


def _read_entry_file(path, with_out: bool):
    """An algebra or trace-form file as JSON, its entries parsed into tuples
    as they are read, so no per-entry dicts are kept.

    json never makes tuples, so every tuple is an entry's.  A tuple anywhere
    but directly in the top-level "entries" list is turned back into its
    object: every other field, and every entry left a dict, reads as plain
    JSON.
    """
    root = [_read_json(path, _entry_hook(with_out))]
    entries = root[0].get("entries") if type(root[0]) is dict else None
    stack = [root]
    while stack:
        node = stack.pop()
        for k, v in (node.items() if type(node) is dict else enumerate(node)):
            if type(v) is tuple:
                if node is not entries:
                    node[k] = _entry_object(v, with_out)
            elif type(v) is dict or type(v) is list:
                stack.append(v)
    return root[0]


def save(L: NaryAlgebra, path) -> None:
    """Write L's file, streaming the rows of f; an OrbitTensor's size guard is
    checked before the file is opened."""
    _write_file(_header(L), _entry_texts(L.f.rows(), _ALGEBRA_CLOSE), path)


def load(path) -> NaryAlgebra:
    return from_json_dict(_read_entry_file(path, with_out=True))
