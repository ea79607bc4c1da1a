"""Exact multi-index tensors over the rationals.

Tensors are stored sparsely (index tuple -> nonzero value) but behave like
dense arrays: absent entries are exactly zero.  All index tuples and slot
numbers are 1-based, matching the usual structure-constant conventions.
Integral values are Python ints, all others ``fractions.Fraction``s:
parsing and metrics keep integral data as ints, which keeps the hot kernels
on int arithmetic.  ``contract`` goes further: it multiplies each operand by
the lcm of its value denominators, multiplies and sums ints only, and divides
each output entry once, so rational inputs cost little more than integral
ones.  Arithmetic is exact and zeros are never stored.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter

DEFAULT_SIZE_GUARD = 300_000_000


class SizeGuardError(Exception):
    """A requested computation exceeds the configured entry/work cap."""


class ShapeError(ValueError):
    """Incompatible shapes, slot numbers or index ranges."""


class _Record:
    """A record whose fields are its class's __slots__, set by its __init__:
    compared and shown field by field, like a dataclass, and unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A _Record hashed by its fields; nothing reassigns them after __init__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())


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
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if not match:
        raise ValueError(f"malformed rational literal {text!r}")
    if match.group(1) is None:
        return int(text)
    num, _, den = text.partition("/")
    try:
        return _integral(Fraction(int(num), int(den)))
    except ZeroDivisionError as exc:
        raise ValueError(f"malformed rational literal {text!r}") from exc


def format_rational(value) -> str:
    if type(value) is int:
        return str(value)
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

    @classmethod
    def _trusted(cls, shape: tuple, data: dict) -> "RationalTensor":
        """A tensor on data a kernel derived from validated tensors.

        shape must be a tuple of ints, and data must hold only in-range keys
        of matching rank and no zero values: nothing is checked again.
        """
        t = object.__new__(cls)
        t.shape = shape
        t.data = data
        return t

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

    def rows(self):
        """Every entry as the rows (head, sign, tails) of _rows, in sorted key
        order: one row per first index."""
        data = self.data
        for head, keys in itertools.groupby(sorted(data), itemgetter(slice(1))):
            yield head, 1, [(key[1:], data[key]) for key in keys]


class OrbitTensor(RationalTensor):
    """A tensor kept once per orbit of the slot runs it is skew on.

    orbits holds its entries at the keys increasing inside each of runs, the
    1-based (first, last) slot runs covering every slot in order; a one-slot
    run is no constraint.  data, every entry, is expanded once on first use;
    rows() streams the same expansion without building it.  Either is
    guarded on nnz, the entry count, which is orbits x the product of the
    runs' factorials ("trace form expansion", the name its users refuse
    with); reading nnz expands nothing.
    """

    __slots__ = ("orbits", "runs", "_data")

    def __init__(self, orbits: RationalTensor, runs: tuple):
        self.shape = orbits.shape
        self.orbits = orbits
        self.runs = runs
        self._data = None

    @property
    def nnz(self) -> int:
        # exact: an orbit key increases strictly inside each run, so the
        # permutations inside its runs give distinct keys
        return self.orbits.nnz * math.prod(math.factorial(hi - lo + 1) for lo, hi in self.runs)

    @property
    def data(self) -> dict:
        if self._data is None:
            self._data = {head + tail: val if sign > 0 else -val
                          for head, sign, tails in self.rows() for tail, val in tails}
        return self._data

    def rows(self):
        guard(self.nnz, "trace form expansion")
        return _rows(sorted(self.orbits.data.items()), tuple(hi - lo + 1 for lo, hi in self.runs))


def _rows(items, lengths: tuple):
    """Expand an iterable of sorted (key, value) orbit entries, skew on
    consecutive slot runs of the given lengths, into rows (head, sign, tails)
    in sorted key order.

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
    import heapq  # only an expansion needs it; every request imports this module

    # the permutations of an increasing head come in sorted order, each with
    # the sign of its position in permutations(range(h)); merging the heads'
    # streams keeps one permutation of each at a time
    signs = [_parity(perm) for perm in itertools.permutations(range(h))]
    yield from heapq.merge(*(zip(itertools.permutations(srt), signs, itertools.repeat(tails))
                             for srt, tails in groups))


def _expand(items: list, lengths: tuple) -> list:
    """The sorted (key, value) entries of the expansion of items (see _rows)."""
    if all(h == 1 for h in lengths):
        return items
    return [(head + tail, val if sign > 0 else -val)
            for head, sign, tails in _rows(items, lengths) for tail, val in tails]


class SlotPermutation(_Frozen):
    """A bijection on a subset of slots: slot slots[i] moves to images[i]."""

    __slots__ = ("slots", "images")

    def __init__(self, slots: tuple, images: tuple):
        if sorted(slots) != sorted(images):
            raise ShapeError("slot permutation is not a bijection on its slots")
        if len(set(slots)) != len(slots):
            raise ShapeError("duplicate slots in permutation")
        self.slots, self.images = slots, images

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


def levi_civita(d: int) -> OrbitTensor:
    """Totally antisymmetric rank-d symbol with value +1 at (1, 2, ..., d):
    one orbit."""
    if d < 1:
        raise ShapeError("levi_civita requires d >= 1")
    guard(math.factorial(d), f"levi_civita({d})")
    return OrbitTensor(RationalTensor._trusted((d,) * d, {tuple(range(1, d + 1)): 1}), ((1, d),))


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
    # slot j of the result is the slot of t whose destination is j
    pick, _ = _slot_getters(t.rank, sorted(range(1, t.rank + 1), key=lambda s: dest[s - 1]))
    return RationalTensor._trusted(pick(t.shape), {pick(key): val for key, val in t.data.items()})


def scale(t: RationalTensor, c) -> RationalTensor:
    if c == 0:
        return RationalTensor(t.shape)
    return RationalTensor._trusted(t.shape, {k: _integral(v * c) for k, v in t.data.items()})


def add(t1: RationalTensor, t2: RationalTensor) -> RationalTensor:
    if t1.shape != t2.shape:
        raise ShapeError(f"cannot add shapes {t1.shape} and {t2.shape}")
    out = dict(t1.data)
    for key, val in t2.data.items():
        _acc(out, key, val)
    return RationalTensor._trusted(t1.shape, out)


def is_zero(t: RationalTensor) -> bool:
    return not t.data


def contract(t1, slots1, t2, slots2) -> RationalTensor:
    """Contract paired slots of two tensors.

    Result shape is the uncontracted slots of t1 followed by those of t2, in
    their original order.
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
    others1 = [s for s in range(1, t1.rank + 1) if s not in slots1]
    others2 = [s for s in range(1, t2.rank + 1) if s not in slots2]
    (bound1, _), (free1, _) = _slot_getters(t1.rank, slots1), _slot_getters(t1.rank, others1)
    (bound2, _), (free2, _) = _slot_getters(t2.rank, slots2), _slot_getters(t2.rank, others2)
    shape = free1(t1.shape) + free2(t2.shape)

    den1, data1 = _scaled_to_ints(t1.data)
    den2, data2 = _scaled_to_ints(t2.data)
    groups = {}
    for key, val in data2.items():
        groups.setdefault(bound2(key), []).append((free2(key), val))

    rows = {}
    work = 0
    for key, val in data1.items():
        matches = groups.get(bound1(key))
        if matches:
            work += len(matches)
            rows.setdefault(free1(key), []).append((val, matches))
    guard(work, "contract")
    den = den1 * den2
    out = {}
    for head, terms in rows.items():
        acc = defaultdict(int)
        for val, matches in terms:
            for tail, val2 in matches:
                acc[tail] += val * val2
        for tail, val in acc.items():
            if val:
                if den != 1:
                    q, r = divmod(val, den)
                    val = Fraction(val, den) if r else q
                out[head + tail] = val
    return RationalTensor._trusted(shape, out)


def _scaled_to_ints(data: dict):
    """(D, {key: D * value}) for D the lcm of the values' denominators.

    The scaled values are ints, so products and sums over them stay on int
    arithmetic; dividing a result by the product of the D's is exact.
    """
    dens = {val.denominator for val in data.values() if type(val) is not int}
    if not dens:
        return 1, data
    den = math.lcm(*dens)
    return den, {key: val.numerator * (den // val.denominator) for key, val in data.items()}


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


def _slot_getters(rank: int, slots) -> tuple:
    """The itemgetters (pick, place) of any number of 1-based slots of a
    rank-`rank` key: pick(key) is the tuple of key's indices at slots, and
    place(key + sub) is key with the tuple sub written into slots, in order."""
    at = {s - 1: rank + i for i, s in enumerate(slots)}
    return _tuple_getter([s - 1 for s in slots]), _tuple_getter([at.get(i, i) for i in range(rank)])


def _tuple_getter(positions: list):
    """An itemgetter of the 0-based positions that returns a tuple, also for
    one position or none."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def _gather(t, getters: tuple, signed: bool) -> dict:
    """The (signed) sum of t over each orbit of the slots of getters, at
    the key whose slots are sorted: empty iff the (anti)symmetrization over
    those slots is zero.  Signed, a key with a repeated index there adds nothing."""
    pick, place = getters
    reps = {}
    for key, val in t.data.items():
        sub = pick(key)
        srt = tuple(sorted(sub))
        if signed:
            if len(set(srt)) < len(srt):
                continue
            if _parity(sub) < 0:
                val = -val
        _acc(reps, place(key + srt), val)
    return reps


def _symmetrize(t, slots, normalized: bool, signed: bool, what: str) -> RationalTensor:
    # Gather each orbit onto its sorted representative, then expand it again.
    slots = _validate_slots(t, slots)
    k = len(slots)
    pick, place = getters = _slot_getters(t.rank, slots)
    dims = set(pick(t.shape))
    if len(dims) > 1:
        raise ShapeError(f"slots {slots} have mixed dimensions {sorted(dims)}")
    if k <= 1:
        return RationalTensor._trusted(t.shape, dict(t.data))
    reps = _gather(t, getters, signed)
    guard(len(reps) * math.factorial(k), f"{what} expansion")
    out = {}
    for rep, val in reps.items():
        srt = pick(rep)
        stab = math.prod(math.factorial(srt.count(i)) for i in set(srt))
        val = _integral(val * Fraction(stab, math.factorial(k))) if normalized else val * stab
        perms = itertools.permutations(srt)
        for perm in perms if signed else set(perms):
            out[place(rep + perm)] = _parity(perm) * val if signed else val
    return RationalTensor._trusted(t.shape, out)


def raise_lower(t, slot, metric, direction: str) -> RationalTensor:
    """Contract one slot with the metric ('lower') or its inverse ('raise')."""
    (slot,) = _validate_slots(t, [slot])
    if t.shape[slot - 1] != metric.d:
        raise ShapeError(f"slot dim {t.shape[slot - 1]} != metric dim {metric.d}")
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    rows = metric.rows if direction == "lower" else metric.inverse_rows
    out = {}
    i = slot - 1
    for key, val in t.data.items():
        for j, g in rows[key[i]].items():
            # a diagonal term keeps the key itself
            _acc(out, key if j == key[i] else key[:i] + (j,) + key[slot:], val * g)
    return RationalTensor._trusted(t.shape, {key: _integral(val) for key, val in out.items()})
