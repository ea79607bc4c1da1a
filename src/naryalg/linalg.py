"""Small exact linear-algebra helpers (Gaussian elimination over Q).

Vectors are lists/tuples of ints or Fractions, 0-based.  Nothing here is
clever: the matrices in play are at most a few hundred rows.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    pass


class EchelonBasis:
    """Incrementally maintained row-echelon basis of a rational vector space."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []          # reduced rows, each normalized to pivot 1
        self.pivots = []        # pivot column of rows[i]

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec reduced against the current basis (a fresh list)."""
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            coef = vec[piv]
            if coef:
                for j in range(piv, self.ncols):
                    if row[j]:
                        vec[j] -= coef * row[j]
        return vec

    def insert(self, vec) -> bool:
        """Reduce and insert; True if vec enlarged the span."""
        vec = self.reduce(vec)
        piv = next((j for j, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        inv = Fraction(1, 1) / vec[piv]
        row = [x * inv for x in vec]
        self.rows.append(row)
        self.pivots.append(piv)
        return True


def rank(rows, ncols=None) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    eb = EchelonBasis(ncols)
    for r in rows:
        eb.insert(r)
    return len(eb)


def rref(rows, ncols):
    """Reduced row-echelon form; returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = Fraction(1, 1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                coef = mat[i][c]
                mat[i] = [a - coef * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _null_vector(mat, pivots, fc, ncols):
    """Kernel vector of an rref matrix with free column fc set to 1."""
    vec = [Fraction(0)] * ncols
    vec[fc] = Fraction(1)
    for row, pc in zip(mat, pivots):
        vec[pc] = -row[fc]
    return vec


def nullspace(rows, ncols):
    """Basis of the right kernel {x : M x = 0}, deterministic order."""
    mat, pivots = rref(rows, ncols)
    return [_null_vector(mat, pivots, fc, ncols)
            for fc in range(ncols) if fc not in pivots]


def first_null_vector(rows, ncols):
    """nullspace(rows, ncols)[0] without building the rest; None if it is empty.

    rref is unique for a row space, so any rows spanning the same space give
    the same vector.
    """
    mat, pivots = rref(rows, ncols)
    taken = set(pivots)
    fc = next((c for c in range(ncols) if c not in taken), None)
    return None if fc is None else _null_vector(mat, pivots, fc, ncols)


def invert(matrix):
    """Exact inverse of a square matrix; raises SingularMatrixError."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def zeros_matrix(n, m=None):
    m = n if m is None else m
    return [[0] * m for _ in range(n)]
