"""Small exact linear-algebra helpers over Q.

Vectors are 0-based: lists or tuples of ints or Fractions, or {column: value}
maps of their nonzeros.  EchelonBasis is the one Gaussian elimination: rank,
nullspace and invert fill one and read it.  It stores each row as such a map
and subtracts rows through tensor._acc, so its work and memory follow the
nonzeros, not the column count; a dense input is converted once, on entry.
The kernel vectors and inverse rows it returns are dense lists of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .tensor import _acc


class SingularMatrixError(ValueError):
    pass


class EchelonBasis:
    """Incrementally maintained row-echelon basis of a rational vector space.

    Each row is a {column: value} map of its nonzeros, normalized to 1 at its
    pivot, the least column it stores.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []          # reduced rows, each normalized to pivot 1
        self.pivots = []        # pivot column of rows[i]

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec) -> dict:
        """vec, a {column: value} map or a dense sequence, reduced against the
        current basis: a fresh map of its nonzeros."""
        vec = _nonzeros(vec)
        for row, piv in zip(self.rows, self.pivots):
            coef = vec.get(piv)
            if coef:
                for j, x in row.items():
                    _acc(vec, j, -coef * x)
        return vec

    def insert(self, vec) -> bool:
        """Reduce and insert; True if vec enlarged the span."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        inv = Fraction(1, 1) / vec[piv]
        self.rows.append({j: x * inv for j, x in vec.items()})
        self.pivots.append(piv)
        return True

    def rref(self):
        """Reduced row-echelon form of the span: (rows, pivots), sorted by pivot.

        Back-substitutes the stored rows once, latest row first; a stored
        row is already zero at the pivots of the rows before it.
        """
        done = {}
        for row, piv in zip(reversed(self.rows), reversed(self.pivots)):
            row = dict(row)
            for p, other in done.items():
                coef = row.get(p)
                if coef:
                    for j, x in other.items():
                        _acc(row, j, -coef * x)
            done[piv] = row
        pivots = sorted(done)
        return [done[p] for p in pivots], pivots

    def null_vectors(self):
        """Kernel basis {x : row . x = 0 for every row}, one per free column.

        Each vector is 1 at its free column and 0 at the other free columns.
        """
        rows, pivots = self.rref()
        taken = set(pivots)
        for fc in range(self.ncols):
            if fc not in taken:
                vec = [Fraction(0)] * self.ncols
                vec[fc] = Fraction(1)
                for row, pc in zip(rows, pivots):
                    if fc in row:
                        vec[pc] = -row[fc]
                yield vec


def _nonzeros(vec) -> dict:
    """A fresh {column: value} map of the nonzeros of a map or a sequence."""
    return {j: x for j, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if x}


def _filled(rows, ncols) -> EchelonBasis:
    eb = EchelonBasis(ncols)
    for r in rows:
        eb.insert(r)
    return eb


def rank(rows, ncols=None) -> int:
    """Rank of the matrix with the given rows; ncols is needed for map rows."""
    rows = list(rows)
    if not rows:
        return 0
    return len(_filled(rows, len(rows[0]) if ncols is None else ncols))


def nullspace(rows, ncols):
    """Basis of the right kernel {x : M x = 0}, deterministic order."""
    return list(_filled(rows, ncols).null_vectors())


def invert(matrix):
    """Exact inverse of a square matrix of map or sequence rows; raises
    SingularMatrixError."""
    n = len(matrix)
    eb = _filled((_nonzeros(row) | {n + i: 1} for i, row in enumerate(matrix)), 2 * n)
    rows, pivots = eb.rref()
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [[row.get(j, Fraction(0)) for j in range(n, 2 * n)] for row in rows]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def zeros_matrix(n):
    return [[0] * n for _ in range(n)]
