"""Small exact linear-algebra helpers over Q.

Vectors are lists/tuples of ints or Fractions, 0-based.  EchelonBasis is the
one Gaussian elimination: rank, nullspace and invert fill one and read it.
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

    def rref(self):
        """Reduced row-echelon form of the span: (rows, pivots), sorted by pivot.

        Back-substitutes the stored rows once, latest row first; a stored
        row is already zero at the pivots of the rows before it.
        """
        done = {}
        for row, piv in zip(reversed(self.rows), reversed(self.pivots)):
            row = list(row)
            for p, other in done.items():
                coef = row[p]
                if coef:
                    for j in range(p, self.ncols):
                        if other[j]:
                            row[j] -= coef * other[j]
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
                    vec[pc] = -row[fc]
                yield vec


def _filled(rows, ncols) -> EchelonBasis:
    eb = EchelonBasis(ncols)
    for r in rows:
        eb.insert(r)
    return eb


def rank(rows, ncols=None) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    return len(_filled(rows, len(rows[0]) if ncols is None else ncols))


def nullspace(rows, ncols):
    """Basis of the right kernel {x : M x = 0}, deterministic order."""
    return list(_filled(rows, ncols).null_vectors())


def invert(matrix):
    """Exact inverse of a square matrix; raises SingularMatrixError."""
    n = len(matrix)
    eb = _filled((list(row) + [Fraction(int(i == j)) for j in range(n)]
                  for i, row in enumerate(matrix)), 2 * n)
    rows, pivots = eb.rref()
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in rows]


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
