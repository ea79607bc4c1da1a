"""Small dense references the tests compare the package against; the
package itself never needs them."""

import itertools
import math
from fractions import Fraction

from naryalg.linalg import mat_mul
from naryalg.tensor import _acc, _integral, _parity


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def commutator(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(mat_mul(a, b), mat_mul(b, a))]


def partitions(n: int, cap: int | None = None):
    """The partitions of n with parts at most cap, in decreasing
    lexicographic order."""
    if n == 0:
        yield ()
        return
    cap = n if cap is None else cap
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def expansion(t):
    """Every entry of t, as (key, value), in the order its rows() streams them."""
    return [(head + tail, sign * val) for head, sign, tails in t.rows() for tail, val in tails]


# The list-based kernels that tensor.py once ran: each rebuilds every key as
# a list.  The package's kernels must give the same data, with its keys in
# the same storage order and its values of the same types.
def reference_permute(t, dest):
    """permute's data: slot s of t moves to slot dest[s - 1]."""
    out = {}
    for key, val in t.data.items():
        new = [0] * t.rank
        for s in range(t.rank):
            new[dest[s] - 1] = key[s]
        out[tuple(new)] = val
    return out


def reference_symmetrize(t, slots, normalized, signed):
    """(anti)symmetrize's data over the distinct in-range slots."""
    k = len(slots)
    if k <= 1:
        return dict(t.data)
    reps = {}
    for key, val in t.data.items():
        sub = tuple(key[s - 1] for s in slots)
        if not signed:
            sign = 1
        elif len(set(sub)) == k:
            sign = _parity(sub)
        else:
            continue
        rep = list(key)
        for s, i in zip(slots, sorted(sub)):
            rep[s - 1] = i
        _acc(reps, tuple(rep), sign * val)
    out = {}
    for rep, val in reps.items():
        srt = tuple(rep[s - 1] for s in slots)
        stab = math.prod(math.factorial(srt.count(i)) for i in set(srt))
        val = _integral(val * Fraction(stab, math.factorial(k))) if normalized else val * stab
        perms = itertools.permutations(srt)
        for perm in perms if signed else set(perms):
            key = list(rep)
            for s, i in zip(slots, perm):
                key[s - 1] = i
            out[tuple(key)] = _parity(perm) * val if signed else val
    return out


def reference_raise_lower(t, slot, metric, direction):
    """raise_lower's data: slot contracted with the metric or its inverse."""
    rows = metric.rows if direction == "lower" else metric.inverse_rows
    out = {}
    for key, val in t.data.items():
        for j, g in rows[key[slot - 1]].items():
            new = list(key)
            new[slot - 1] = j
            _acc(out, tuple(new), val * g)
    return {key: _integral(val) for key, val in out.items()}
