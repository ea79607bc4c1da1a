"""Small dense references the tests compare the package against; the
package itself never needs them."""

from naryalg.linalg import mat_mul


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
