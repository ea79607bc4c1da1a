"""Fundamental objects, adjoint endomorphisms and the associated Lie algebra.

A fundamental object is an (n-1)-tuple of vectors; its adjoint action is the
d x d matrix of the bracket with the last slot open.  Matrices here are plain
0-based lists of rows with exact entries; the commutator closure of the basis
adjoints gives the Lie algebra associated with the bracket.
"""

from __future__ import annotations

import itertools

from . import linalg
from .algebra import NaryAlgebra, _flat, _matrix_cols
from .tensor import ShapeError, _acc, _Frozen, _Record, guard


class FundamentalObject(_Frozen):
    """(n-1)-tuple of coordinate vectors over Q^d."""

    __slots__ = ("components",)

    def __init__(self, components: tuple):
        self.components = tuple(tuple(v) for v in components)


def basis_vector(d: int, i: int):
    if not 1 <= i <= d:
        raise ShapeError(f"basis index {i} out of 1..{d}")
    return tuple(1 if k == i - 1 else 0 for k in range(d))


def basis_object(L: NaryAlgebra, indices) -> FundamentalObject:
    indices = tuple(indices)
    if len(indices) != L.n - 1:
        raise ShapeError(f"need {L.n - 1} components, got {len(indices)}")
    return FundamentalObject(tuple(basis_vector(L.d, i) for i in indices))


def _validate(L: NaryAlgebra, x: FundamentalObject) -> None:
    if len(x.components) != L.n - 1:
        raise ShapeError(
            f"fundamental object has {len(x.components)} components, need {L.n - 1}"
        )
    for v in x.components:
        if len(v) != L.d:
            raise ShapeError(f"component length {len(v)} != dim {L.d}")


def ad_matrix(L: NaryAlgebra, x: FundamentalObject):
    """Operator matrix of ad_x: column b holds the coordinates of [x, e_b].

    With this convention composition of adjoint maps is plain matrix
    multiplication, so the End relation [ad_X, ad_Y] = ad_{X.Y} is a literal
    matrix identity.
    """
    _validate(L, x)
    d = L.d
    mat = linalg.zeros_matrix(d)
    for key, val in L.f.data.items():
        coeff = val
        for vec, idx in zip(x.components, key[: L.n - 1]):
            coeff = coeff * vec[idx - 1]
            if coeff == 0:
                break
        if coeff == 0:
            continue
        b, c = key[L.n - 1], key[L.n]
        mat[c - 1][b - 1] += coeff
    return mat


def basis_ad_matrix(L: NaryAlgebra, indices):
    return ad_matrix(L, basis_object(L, indices))


def compose(L: NaryAlgebra, x: FundamentalObject, y: FundamentalObject):
    """Composition law as a formal sum: sum_r (y_1, .., ad_x y_r, .., y_{n-1}).

    Returns a list of (coefficient, FundamentalObject) terms; terms whose
    replaced component is the zero vector are dropped.
    """
    _validate(L, x)
    _validate(L, y)
    adx = ad_matrix(L, x)
    d = L.d
    terms = []
    for r, yr in enumerate(y.components):
        image = tuple(
            sum(adx[c][b] * yr[b] for b in range(d)) for c in range(d)
        )
        if all(v == 0 for v in image):
            continue
        comps = y.components[:r] + (image,) + y.components[r + 1:]
        terms.append((1, FundamentalObject(comps)))
    return terms


def compose_sums(L: NaryAlgebra, xsum, ysum):
    """Bilinear extension of the composition law to formal sums."""
    out = []
    for cx, x in xsum:
        for cy, y in ysum:
            for ct, t in compose(L, x, y):
                out.append((cx * cy * ct, t))
    return out


def ad_of_sum(L: NaryAlgebra, terms):
    """Linear extension of ad to a formal sum of fundamental objects."""
    mat = linalg.zeros_matrix(L.d)
    for coeff, x in terms:
        if coeff == 0:
            continue
        for row, ad_row in zip(mat, ad_matrix(L, x)):
            for j, val in enumerate(ad_row):
                row[j] += coeff * val
    return mat


class LieClosure(_Record):
    __slots__ = ("basis", "dim", "from_generators")

    def __init__(self, basis: list, dim: int, from_generators: int):
        self.basis, self.dim, self.from_generators = basis, dim, from_generators


def _dense(mat: dict, d: int) -> list:
    """The d x d list of rows of a sparse 1-based {row: {col: value}} matrix."""
    rows = linalg.zeros_matrix(d)
    for i, row in mat.items():
        for j, val in row.items():
            rows[i - 1][j - 1] = val
    return rows


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba of sparse {row: {col: value}} matrices, zeros dropped."""
    out: dict = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, row in x.items():
            acc = out.setdefault(i, {})
            for k, u in row.items():
                for j, v in y.get(k, {}).items():
                    _acc(acc, j, sign * u * v)
    return {i: row for i, row in out.items() if row}


def lie_closure(L: NaryAlgebra) -> LieClosure:
    """Commutator closure of the basis adjoint matrices.

    Generators are the ad matrices of the basis (n-1)-tuples in L.ad_span(),
    which are exactly those, in lexicographic order, that are independent of
    the ones before them; commutators are added breadth-first until the span
    is stable.  The insertion order makes the returned basis deterministic.
    Matrices are kept and multiplied as sparse {row: {col: value}} dicts, and
    only densified on return.  A pair (i, j) with j < i both in the frontier
    is skipped: [b_j, b_i] was reduced earlier in the round, so its negative
    lies in the span.  Each round is guarded on its own work: one 2d^3
    product and one reduction against the basis per commutator.
    """
    d = L.d
    eb = linalg.EchelonBasis(d * d)
    basis = []

    def insert(mat: dict) -> bool:
        if eb.insert(_flat(mat, d)):
            basis.append(mat)
            return True
        return False

    for _, mrows in L.ad_span():
        insert(_matrix_cols(mrows))
    from_generators = len(basis)

    frontier = list(range(len(basis)))
    while frontier:
        guard(len(frontier) * len(basis) * (2 * d ** 3 + len(basis) * d * d),
              f"lie_closure({L.name})")
        # the frontier is the run of indices added in the last round
        first, fresh = frontier[0], []
        for i in frontier:
            for j in range(len(basis)):
                if j == i or first <= j < i:
                    continue
                comm = _commutator(basis[i], basis[j])
                if comm and insert(comm):
                    fresh.append(len(basis) - 1)
        frontier = fresh
    return LieClosure(basis=[_dense(mat, d) for mat in basis], dim=len(basis),
                      from_generators=from_generators)


def ad_kernel(L: NaryAlgebra):
    """Kernel of A -> ad_A on the span of basis (n-1)-tuples of indices.

    Returns (labels, vectors): labels lists all index tuples in lexicographic
    order and each vector holds the coefficients of one kernel basis element.
    There is one equation per (l, s), in sorted order, each a {column: value}
    map.  Guarded on the equations counted as dense and the kernel vectors.
    """
    d = L.d
    ncols = d ** (L.n - 1)
    heads = {key[-2:] for key in L.f.data}
    guard(ncols * (len(heads) + ncols), f"kernel({L.name})")
    rows: dict = {}
    for key, val in L.f.data.items():
        col = 0
        for i in key[:-2]:
            col = col * d + i - 1
        rows.setdefault(key[-2:], {})[col] = val
    vectors = linalg.nullspace([rows[k] for k in sorted(rows)], ncols)
    return list(itertools.product(range(1, d + 1), repeat=L.n - 1)), vectors


def centre(L: NaryAlgebra):
    """Basis of {y : [x_1, .., x_{n-1}, y] = 0 for all x}, as coordinate vectors.

    Solves (ad_A y)^s = 0 for the members A of L.ad_span() only: every ad_A
    is a combination of theirs, so the equations span the same row space,
    whose rref fixes the kernel basis.  Guarded on the equations counted as
    dense and the kernel vectors.
    """
    d = L.d
    cols = [_matrix_cols(mrows) for _, mrows in L.ad_span()]
    guard(d * (sum(map(len, cols)) + d), f"kernel({L.name})")
    return linalg.nullspace(({l - 1: val for l, val in col.items()}
                             for mcols in cols for col in mcols.values()), d)
