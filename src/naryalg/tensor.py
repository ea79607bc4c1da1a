"""Exact multi-index tensors over the rationals.

Tensors are stored sparsely (index tuple -> nonzero value) but behave like
dense arrays: absent entries are exactly zero.  All index tuples and slot
numbers are 1-based, matching the usual structure-constant conventions.
Integral values are Python ints, all others ``fractions.Fraction``s:
parsing and metrics keep integral data as ints, which keeps the hot kernels
on int arithmetic.  Arithmetic is exact and zeros are never stored.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SIZE_GUARD = 300_000_000


class SizeGuardError(Exception):
    """A requested computation exceeds the configured entry/work cap."""


class ShapeError(ValueError):
    """Incompatible shapes, slot numbers or index ranges."""


def size_guard_cap() -> int:
    raw = os.environ.get("NARY_SIZE_GUARD")
    if raw is None:
        return DEFAULT_SIZE_GUARD
    try:
        return int(raw)
    except ValueError as exc:
        raise SizeGuardError(f"invalid NARY_SIZE_GUARD value {raw!r}") from exc


def guard(count, what: str) -> None:
    cap = size_guard_cap()
    if count > cap:
        raise SizeGuardError(f"{what}: {count} exceeds size guard {cap}")


# ASCII digits only and no trailing newline: re's \d and $ accept both.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _integral(value):
    """value as an int when it is an integral Fraction, else unchanged."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def parse_rational(text: str):
    """Parse a 'p' or 'p/q' literal to an int if integral, else a Fraction.

    Anything else is malformed.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational literal {text!r}")
    try:
        return _integral(Fraction(text))
    except ZeroDivisionError as exc:
        raise ValueError(f"malformed rational literal {text!r}") from exc


def format_rational(value) -> str:
    return str(Fraction(value))


class RationalTensor:
    """Dense-semantics rational tensor with sparse storage.

    shape -- tuple of slot dimensions (a structure-constant tensor has all
             slots equal to the algebra dimension d)
    data  -- dict mapping 1-based index tuples to nonzero rational values
    """

    __slots__ = ("shape", "data")

    def __init__(self, shape, data=None):
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise ShapeError(f"negative slot dimension in {self.shape}")
        self.data = {}
        if data:
            for key, val in data.items():
                if val == 0:
                    continue
                key = tuple(key)
                self._check_key(key)
                self.data[key] = val

    def _check_key(self, key) -> None:
        if len(key) != len(self.shape):
            raise ShapeError(f"index {key} has wrong rank for shape {self.shape}")
        for i, dim in zip(key, self.shape):
            if not 1 <= i <= dim:
                raise ShapeError(f"index {key} out of range for shape {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def get(self, key):
        key = tuple(key)
        self._check_key(key)
        return self.data.get(key, 0)

    def __getitem__(self, key):
        return self.get(key)

    def __eq__(self, other):
        if not isinstance(other, RationalTensor):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self):
        return f"RationalTensor(shape={self.shape}, nnz={self.nnz})"

    def entries(self):
        """Iterate (index, value) in lexicographic index order."""
        return iter(sorted(self.data.items()))


@dataclass(frozen=True)
class SlotPermutation:
    """A bijection on a subset of slots: slot slots[i] moves to images[i]."""

    slots: tuple
    images: tuple

    def __post_init__(self):
        if sorted(self.slots) != sorted(self.images):
            raise ShapeError("slot permutation is not a bijection on its slots")
        if len(set(self.slots)) != len(self.slots):
            raise ShapeError("duplicate slots in permutation")

    def destination_map(self, rank: int) -> tuple:
        dest = list(range(1, rank + 1))
        for s, im in zip(self.slots, self.images):
            if not 1 <= s <= rank or not 1 <= im <= rank:
                raise ShapeError(f"slot out of range 1..{rank}")
            dest[s - 1] = im
        return tuple(dest)


def _acc(store: dict, key: tuple, val) -> None:
    cur = store.get(key)
    if cur is None:
        store[key] = val
    else:
        cur = cur + val
        if cur == 0:
            del store[key]
        else:
            store[key] = cur


def _validate_slots(t: RationalTensor, slots) -> tuple:
    slots = tuple(int(s) for s in slots)
    for s in slots:
        if not 1 <= s <= t.rank:
            raise ShapeError(f"slot {s} out of range 1..{t.rank}")
    if len(set(slots)) != len(slots):
        raise ShapeError(f"repeated slot in {slots}")
    return slots


def levi_civita(d: int) -> RationalTensor:
    """Totally antisymmetric rank-d symbol with value +1 at (1, 2, ..., d)."""
    if d < 1:
        raise ShapeError("levi_civita requires d >= 1")
    guard(math.factorial(d), f"levi_civita({d})")
    data = {}
    for perm in itertools.permutations(range(1, d + 1)):
        data[perm] = _parity(perm)
    return RationalTensor((d,) * d, data)


def kronecker_delta(d: int) -> RationalTensor:
    return RationalTensor((d, d), {(i, i): 1 for i in range(1, d + 1)})


def _parity(seq) -> int:
    # inversion count on a sequence of distinct values
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _sort_with_parity(seq):
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    sign = _parity(order)
    return tuple(seq[i] for i in order), sign


def permute(t: RationalTensor, p) -> RationalTensor:
    """Rearrange slots: slot s of t becomes slot dest[s] of the result.

    p is a SlotPermutation or a full destination tuple over 1..rank.
    """
    if isinstance(p, SlotPermutation):
        dest = p.destination_map(t.rank)
    else:
        dest = tuple(int(x) for x in p)
        if sorted(dest) != list(range(1, t.rank + 1)):
            raise ShapeError(f"{dest} is not a permutation of 1..{t.rank}")
    shape = [0] * t.rank
    for s in range(t.rank):
        shape[dest[s] - 1] = t.shape[s]
    out = {}
    for key, val in t.data.items():
        new = [0] * t.rank
        for s in range(t.rank):
            new[dest[s] - 1] = key[s]
        out[tuple(new)] = val
    return RationalTensor(tuple(shape), out)


def scale(t: RationalTensor, c) -> RationalTensor:
    if c == 0:
        return RationalTensor(t.shape)
    return RationalTensor(t.shape, {k: v * c for k, v in t.data.items()})


def add(t1: RationalTensor, t2: RationalTensor) -> RationalTensor:
    if t1.shape != t2.shape:
        raise ShapeError(f"cannot add shapes {t1.shape} and {t2.shape}")
    out = dict(t1.data)
    for key, val in t2.data.items():
        _acc(out, key, val)
    return RationalTensor(t1.shape, out)


def is_zero(t: RationalTensor) -> bool:
    return not t.data


def contract(t1, slots1, t2, slots2, metric=None) -> RationalTensor:
    """Contract paired slots of two tensors.

    Result shape is the uncontracted slots of t1 followed by those of t2, in
    their original order.  With a metric, both contracted slots are treated
    as lowered and joined through the inverse metric.
    """
    slots1 = _validate_slots(t1, slots1)
    slots2 = _validate_slots(t2, slots2)
    if len(slots1) != len(slots2):
        raise ShapeError("contraction slot lists differ in length")
    for s1, s2 in zip(slots1, slots2):
        if t1.shape[s1 - 1] != t2.shape[s2 - 1]:
            raise ShapeError(
                f"slot {s1} (dim {t1.shape[s1 - 1]}) cannot contract slot "
                f"{s2} (dim {t2.shape[s2 - 1]})"
            )
    if metric is not None:
        for s2 in slots2:
            t2 = raise_lower(t2, s2, metric, "raise")
    free1 = [s for s in range(1, t1.rank + 1) if s not in slots1]
    free2 = [s for s in range(1, t2.rank + 1) if s not in slots2]
    shape = tuple(t1.shape[s - 1] for s in free1) + tuple(t2.shape[s - 1] for s in free2)

    groups = {}
    for key, val in t2.data.items():
        bound = tuple(key[s - 1] for s in slots2)
        groups.setdefault(bound, []).append((tuple(key[s - 1] for s in free2), val))

    work = 0
    cap = size_guard_cap()
    out = {}
    for key, val in t1.data.items():
        bound = tuple(key[s - 1] for s in slots1)
        matches = groups.get(bound)
        if not matches:
            continue
        work += len(matches)
        if work > cap:
            raise SizeGuardError(f"contract: {work} products exceed size guard {cap}")
        head = tuple(key[s - 1] for s in free1)
        for tail, val2 in matches:
            _acc(out, head + tail, val * val2)
    return RationalTensor(shape, out)


def antisymmetrize(t, slots, normalized: bool = False) -> RationalTensor:
    """Signed sum over all permutations of the listed slots.

    The normalized variant divides by k! and is idempotent.  Entries whose
    listed slots carry a repeated index contribute zero and output nothing,
    so antisymmetrizing over more slots than the slot dimension yields the
    zero tensor.
    """
    return _symmetrize(t, slots, normalized, True, "antisymmetrize")


def symmetrize(t, slots, normalized: bool = False) -> RationalTensor:
    """Unsigned mirror of antisymmetrize."""
    return _symmetrize(t, slots, normalized, False, "symmetrize")


def _symmetrize(t, slots, normalized: bool, signed: bool, what: str) -> RationalTensor:
    # Gather each orbit onto its sorted representative, then expand it again.
    slots = _validate_slots(t, slots)
    k = len(slots)
    dims = {t.shape[s - 1] for s in slots}
    if len(dims) > 1:
        raise ShapeError(f"slots {slots} have mixed dimensions {sorted(dims)}")
    if k <= 1:
        return RationalTensor(t.shape, dict(t.data))
    reps = {}
    for key, val in t.data.items():
        sub = tuple(key[s - 1] for s in slots)
        if not signed:
            srt, sign = tuple(sorted(sub)), 1
        elif len(set(sub)) == k:
            srt, sign = _sort_with_parity(sub)
        else:
            continue
        rep = list(key)
        for s, i in zip(slots, srt):
            rep[s - 1] = i
        _acc(reps, tuple(rep), sign * val)
    guard(len(reps) * math.factorial(k), f"{what} expansion")
    out = {}
    for rep, val in reps.items():
        srt = tuple(rep[s - 1] for s in slots)
        stab = math.prod(math.factorial(srt.count(i)) for i in set(srt))
        val = val * (Fraction(stab, math.factorial(k)) if normalized else stab)
        perms = itertools.permutations(srt)
        for perm in perms if signed else set(perms):
            key = list(rep)
            for s, i in zip(slots, perm):
                key[s - 1] = i
            out[tuple(key)] = _parity(perm) * val if signed else val
    return RationalTensor(t.shape, out)


def raise_lower(t, slot, metric, direction: str) -> RationalTensor:
    """Contract one slot with the metric ('lower') or its inverse ('raise')."""
    (slot,) = _validate_slots(t, [slot])
    if t.shape[slot - 1] != metric.d:
        raise ShapeError(f"slot dim {t.shape[slot - 1]} != metric dim {metric.d}")
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    rows = metric.entries if direction == "lower" else metric.inverse
    out = {}
    for key, val in t.data.items():
        i = key[slot - 1]
        for j in range(1, metric.d + 1):
            g = rows[i - 1][j - 1]
            if g == 0:
                continue
            new = list(key)
            new[slot - 1] = j
            _acc(out, tuple(new), val * g)
    return RationalTensor(t.shape, out)
