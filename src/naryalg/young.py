"""Two-column Young machinery for bracket-symmetry classification.

A bracket skew in its first n-1 and last n-2 slots decomposes over two-column
patterns indexed by r, the length of the second column.  Membership tests use
the central character idempotent (filling-independent); the literal
symmetrize-rows-then-antisymmetrize-columns projector of a single tableau is
kept as a separate operation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CheckReport, NaryAlgebra, all_of, check_filippov, check_skew
from .tensor import (
    RationalTensor,
    ShapeError,
    SizeGuardError,
    _acc,
    antisymmetrize,
    guard,
    scale,
    symmetrize,
)

ISOTYPIC_PERMUTATION_BUDGET = 10_000_000


class BudgetExceededError(SizeGuardError):
    """The permutation sum is out of the default compute budget."""


@dataclass(frozen=True)
class YoungShape:
    """Two columns of lengths l-r and r, i.e. the partition (2^r, 1^(l-2r))."""

    l: int
    r: int

    def __post_init__(self):
        if self.l < 1 or not 0 <= self.r <= self.l // 2:
            raise ShapeError(f"bad two-column shape l={self.l}, r={self.r}")

    def partition(self) -> tuple:
        return (2,) * self.r + (1,) * (self.l - 2 * self.r)


@dataclass(frozen=True)
class Tableau:
    """Filling of a two-column shape with box positions 1..l.

    column1/column2 list the positions (within the projected slot list) put
    in each column; row i pairs column1[i] with column2[i] for i < r.
    """

    shape: YoungShape
    column1: tuple
    column2: tuple

    def __post_init__(self):
        c1, c2 = tuple(self.column1), tuple(self.column2)
        object.__setattr__(self, "column1", c1)
        object.__setattr__(self, "column2", c2)
        if len(c1) != self.shape.l - self.shape.r or len(c2) != self.shape.r:
            raise ShapeError("column lengths do not match the shape")
        if sorted(c1 + c2) != list(range(1, self.shape.l + 1)):
            raise ShapeError("filling is not a bijection onto 1..l")

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


def _strip_zeros(parts) -> tuple:
    return tuple(p for p in parts if p > 0)


def _mn(lam: tuple, mu: tuple) -> int:
    # Murnaghan-Nakayama on beta numbers; mu is consumed front to back.
    if not mu:
        return 1 if not lam else 0
    t, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    bset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for j, x in enumerate(beta) if j != i), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = _strip_zeros(
            tuple(x - (k - 1 - pos) for pos, x in enumerate(newbeta))
        )
        total += (-1) ** height * _character_memo(newlam, rest)
    return total


_char_cache: dict = {}


def _character_memo(lam: tuple, mu: tuple) -> int:
    key = (lam, mu)
    if key not in _char_cache:
        _char_cache[key] = _mn(lam, mu)
    return _char_cache[key]


def character(shape, cycle_type) -> int:
    """Symmetric-group character of a shape at a cycle type (exact integer)."""
    lam = shape.partition() if isinstance(shape, YoungShape) else tuple(shape)
    lam = tuple(sorted(lam, reverse=True))
    mu = tuple(sorted(cycle_type, reverse=True))
    if sum(lam) != sum(mu):
        raise ShapeError(f"cycle type {mu} does not partition {sum(lam)}")
    return _character_memo(lam, mu)


@dataclass(frozen=True)
class SymmetricGroupCharacter:
    """A shape together with its full table of cycle-type character values."""

    partition: tuple
    table: dict

    @classmethod
    def for_shape(cls, shape) -> "SymmetricGroupCharacter":
        lam = shape.partition() if isinstance(shape, YoungShape) else tuple(shape)
        lam = tuple(sorted(lam, reverse=True))
        table = {mu: character(lam, mu) for mu in _partitions(sum(lam))}
        return cls(lam, table)

    @property
    def degree(self) -> int:
        """Value at the identity, the number of standard tableaux."""
        return self.table[(1,) * sum(self.partition)]


def _cycle_type(perm) -> tuple:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
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


def isotypic_project(t: RationalTensor, slots, shape,
                     force: bool = False) -> RationalTensor:
    """Central idempotent (chi(id)/l!) sum_sigma chi(sigma) sigma.t on the slots.

    Exact and filling-independent; zero output means t has no component of
    that symmetry type.  The l! permutation sweep is gated by the size guard
    and by a work budget; force lifts only the budget.
    """
    slots = tuple(slots)
    lam = shape.partition() if isinstance(shape, YoungShape) else tuple(shape)
    l = len(slots)
    if sum(lam) != l:
        raise ShapeError(f"shape {lam} does not fill {l} slots")
    work = math.factorial(l) * max(t.nnz, 1)
    guard(work, "isotypic projection")
    if not force and work > ISOTYPIC_PERMUTATION_BUDGET:
        raise BudgetExceededError(
            f"isotypic projection: {work} operations exceed budget "
            f"{ISOTYPIC_PERMUTATION_BUDGET}; pass force=True to run"
        )
    chi = SymmetricGroupCharacter.for_shape(lam).table
    chi_id = chi[(1,) * l]
    acc: dict = {}
    positions = [s - 1 for s in slots]
    for perm in itertools.permutations(range(l)):
        weight = chi[_cycle_type(perm)]
        if weight == 0:
            continue
        for key, val in t.data.items():
            sub = tuple(key[p] for p in positions)
            new = list(key)
            for j in range(l):
                new[positions[j]] = sub[perm[j]]
            _acc(acc, tuple(new), weight * val)
    norm = Fraction(chi_id, math.factorial(l))
    return scale(RationalTensor._trusted(t.shape, acc), norm)


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield ()
        return
    cap = n if cap is None else cap
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def classify_bracket(L: NaryAlgebra, force: bool = False):
    """Isotypic content of the bracket input slots over all two-column r.

    Returns [(r, nonzero, gl_dim)] for r = 0..floor(arity/2).
    """
    slots = range(1, L.n + 1)
    out = []
    for r in range(L.n // 2 + 1):
        shape = YoungShape(L.n, r)
        proj = isotypic_project(L.f, slots, shape, force=force)
        out.append((r, bool(proj.data), gl_dimension(shape, L.d)))
    return out


def is_lie_lple(L: NaryAlgebra, force: bool = False) -> CheckReport:
    """Odd arity l = 2n-3, block skews, FI, and purity at the r = n-2 pattern."""
    if L.n % 2 == 0 or L.n < 3:
        raise ShapeError(f"l-ple check needs odd arity >= 3, got {L.n}")
    n = (L.n + 3) // 2
    pre = all_of("lple", [
        check_skew(L, range(1, n)),
        check_skew(L, range(n, L.n + 1)),
        check_filippov(L),
    ])
    if not pre.passed:
        return pre
    for r, nonzero, _ in classify_bracket(L, force=force):
        if nonzero and r != n - 2:
            return CheckReport("lple", False, (r,), None,
                               detail=f"nonzero component at r={r} != {n - 2}")
    return pre
