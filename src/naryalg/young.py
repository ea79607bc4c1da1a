"""Two-column Young machinery for bracket-symmetry classification.

A bracket skew in its first n-1 and last n-2 slots decomposes over two-column
patterns indexed by r, the length of the second column.  Classification uses
the central character idempotent (filling-independent), built from the class
sums of one l! permutation sweep; the literal
symmetrize-rows-then-antisymmetrize-columns projector of a single tableau is
kept as a separate operation.  Lie l-ple membership needs no sweep and lives
in ``algebra``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter

from .algebra import NaryAlgebra
from .tensor import (
    RationalTensor,
    ShapeError,
    SizeGuardError,
    _acc,
    _Frozen,
    antisymmetrize,
    guard,
    scale,
    symmetrize,
)

ISOTYPIC_PERMUTATION_BUDGET = 10_000_000


class BudgetExceededError(SizeGuardError):
    """The permutation sum is out of the default compute budget."""


class YoungShape(_Frozen):
    """Two columns of lengths l-r and r, i.e. the partition (2^r, 1^(l-2r))."""

    __slots__ = ("l", "r")

    def __init__(self, l: int, r: int):
        if l < 1 or not 0 <= r <= l // 2:
            raise ShapeError(f"bad two-column shape l={l}, r={r}")
        self.l, self.r = l, r

    def partition(self) -> tuple:
        return (2,) * self.r + (1,) * (self.l - 2 * self.r)


class Tableau(_Frozen):
    """Filling of a two-column shape with box positions 1..l.

    column1/column2 list the positions (within the projected slot list) put
    in each column; row i pairs column1[i] with column2[i] for i < r.
    """

    __slots__ = ("shape", "column1", "column2")

    def __init__(self, shape: YoungShape, column1: tuple, column2: tuple):
        c1, c2 = tuple(column1), tuple(column2)
        if len(c1) != shape.l - shape.r or len(c2) != shape.r:
            raise ShapeError("column lengths do not match the shape")
        if sorted(c1 + c2) != list(range(1, shape.l + 1)):
            raise ShapeError("filling is not a bijection onto 1..l")
        self.shape, self.column1, self.column2 = shape, c1, c2

    @classmethod
    def canonical(cls, shape: YoungShape) -> "Tableau":
        return cls(
            shape,
            tuple(range(1, shape.l - shape.r + 1)),
            tuple(range(shape.l - shape.r + 1, shape.l + 1)),
        )


def gl_dimension(shape: YoungShape, d: int) -> int:
    """GL(d) dimension of a two-column pattern; 0 once the long column exceeds d."""
    l, r = shape.l, shape.r
    value = (
        math.comb(d + 1, r)
        * math.comb(d, l - r)
        * Fraction(l - 2 * r + 1, l - r + 1)
    )
    assert value.denominator == 1
    return int(value)


@functools.cache
def _mn(lam: tuple, mu: tuple) -> int:
    # Murnaghan-Nakayama on beta numbers; mu is consumed front to back.
    if not mu:
        return 1 if not lam else 0
    t, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted(bset - {b} | {nb}, reverse=True)
        newlam = (x - (k - 1 - pos) for pos, x in enumerate(newbeta))
        total += (-1) ** height * _mn(tuple(p for p in newlam if p > 0), rest)
    return total


def character(shape, cycle_type) -> int:
    """Symmetric-group character of a shape at a cycle type (exact integer)."""
    lam = shape.partition() if isinstance(shape, YoungShape) else tuple(shape)
    lam = tuple(sorted(lam, reverse=True))
    mu = tuple(sorted(cycle_type, reverse=True))
    if sum(lam) != sum(mu):
        raise ShapeError(f"cycle type {mu} does not partition {sum(lam)}")
    return _mn(lam, mu)


def _cycle_type(perm) -> tuple:
    unseen = set(range(len(perm)))
    lengths = []
    while unseen:
        j = unseen.pop()
        length = 1
        while perm[j] in unseen:
            j = perm[j]
            unseen.remove(j)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def primitive_project(t: RationalTensor, slots, tab: Tableau) -> RationalTensor:
    """Literal tableau projector: symmetrize the r row pairs, then
    antisymmetrize each column, all normalized."""
    slots = tuple(slots)
    if len(slots) != tab.shape.l:
        raise ShapeError(f"{len(slots)} slots for an l={tab.shape.l} tableau")
    out = t
    for i in range(tab.shape.r):
        pair = (slots[tab.column1[i] - 1], slots[tab.column2[i] - 1])
        out = symmetrize(out, pair, normalized=True)
    out = antisymmetrize(out, tuple(slots[p - 1] for p in tab.column1), normalized=True)
    if tab.shape.r > 1:
        out = antisymmetrize(out, tuple(slots[p - 1] for p in tab.column2), normalized=True)
    return out


def _class_sums(t: RationalTensor, slots: tuple, force: bool) -> dict:
    """{cycle type mu: sum of sigma.t over the sigma of type mu}, from one l! sweep."""
    l = len(slots)
    work = math.factorial(l) * max(t.nnz, 1)
    guard(work, "isotypic projection")
    if not force and work > ISOTYPIC_PERMUTATION_BUDGET:
        raise BudgetExceededError(
            f"isotypic projection: {work} operations exceed budget "
            f"{ISOTYPIC_PERMUTATION_BUDGET}; pass force=True to run"
        )
    positions = [s - 1 for s in slots]
    sums: dict = {}
    for perm in itertools.permutations(range(l)):
        source = list(range(t.rank))
        for j in range(l):
            source[positions[j]] = positions[perm[j]]
        # itemgetter of one index returns the bare item; rank 1 has only the identity
        image = itemgetter(*source) if t.rank > 1 else tuple
        acc = sums.setdefault(_cycle_type(perm), {})
        for key, val in zip(map(image, t.data), t.data.values()):
            acc[key] = acc.get(key, 0) + val
    return {mu: {key: val for key, val in part.items() if val} for mu, part in sums.items()}


def _project(t: RationalTensor, sums: dict, lam: tuple) -> RationalTensor:
    """(chi(id)/l!) sum_mu chi(mu) T_mu over the class sums T_mu of t."""
    acc: dict = {}
    for mu, part in sums.items():
        chi = character(lam, mu)
        if chi:
            for key, val in part.items():
                _acc(acc, key, chi * val)
    norm = Fraction(character(lam, (1,) * sum(lam)), math.factorial(sum(lam)))
    return scale(RationalTensor._trusted(t.shape, acc), norm)


def isotypic_project(t: RationalTensor, slots, shape,
                     force: bool = False) -> RationalTensor:
    """Central idempotent (chi(id)/l!) sum_sigma chi(sigma) sigma.t on the slots.

    Exact and filling-independent; zero output means t has no component of
    that symmetry type.  The l! permutation sweep is gated by the size guard
    and by a work budget; force lifts only the budget.
    """
    slots = tuple(slots)
    lam = shape.partition() if isinstance(shape, YoungShape) else tuple(shape)
    if sum(lam) != len(slots):
        raise ShapeError(f"shape {lam} does not fill {len(slots)} slots")
    return _project(t, _class_sums(t, slots, force), lam)


def classify_bracket(L: NaryAlgebra, force: bool = False):
    """Isotypic content of the bracket input slots over all two-column r.

    Returns [(r, nonzero, gl_dim)] for r = 0..floor(arity/2); every shape is
    projected from the class sums of one permutation sweep.
    """
    sums = _class_sums(L.f, tuple(range(1, L.n + 1)), force)
    shapes = [YoungShape(L.n, r) for r in range(L.n // 2 + 1)]
    return [(shape.r, bool(_project(L.f, sums, shape.partition()).data),
             gl_dimension(shape, L.d)) for shape in shapes]
