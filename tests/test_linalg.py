"""The elimination engine against definitions that use no elimination.

Rank is the size of the largest nonzero minor (Leibniz determinants), and a
column is free when it does not raise the rank of the columns before it.
The rref kernel basis is the unique one with a vector per free column that
is 1 there and 0 at the other free columns.  Examples are derandomized.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naryalg import linalg

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)

entries = st.one_of(
    st.just(0),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def det(mat):
    k = len(mat)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = (-1) ** inversions
        for i, p in enumerate(perm):
            term *= mat[i][p]
        total += term
    return total


def minor_rank(rows, cols):
    """Size of the largest nonzero minor of rows restricted to cols."""
    for k in range(min(len(rows), len(cols)), 0, -1):
        for rsel in itertools.combinations(rows, k):
            for csel in itertools.combinations(cols, k):
                if det([[r[c] for c in csel] for r in rsel]):
                    return k
    return 0


@st.composite
def matrices(draw):
    """(rows, ncols, order): random rows, combinations of them, a row order."""
    ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=4))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        coefs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(ncols)])
    return rows, ncols, draw(st.permutations(range(len(rows))))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 4))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@PROPERTY
@given(matrices())
@example(([], 0, []))
@example(([], 3, []))
@example(([[0, 0, 0], [0, 0, 0]], 3, [1, 0]))
@example(([[1, 2], [2, 4], [3, 6]], 2, [2, 0, 1]))
@example(([[0, 1, 2, 0, 1]], 5, [0]))
def test_nullspace_is_the_rref_kernel_basis(matrix):
    rows, ncols, order = matrix
    cols = range(ncols)
    rank = minor_rank(rows, cols)
    free = [c for c in cols if minor_rank(rows, range(c + 1)) == minor_rank(rows, range(c))]
    basis = linalg.nullspace(rows, ncols)
    assert linalg.rank(rows, ncols) == rank
    assert len(basis) == ncols - rank == len(free)
    for fc, vec in zip(free, basis):
        assert len(vec) == ncols
        assert all(sum(r[j] * vec[j] for j in cols) == 0 for r in rows)
        assert [vec[c] for c in free] == [int(c == fc) for c in free]
    assert linalg.nullspace([rows[i] for i in order], ncols) == basis
    assert linalg.nullspace(rows[::-1], ncols) == basis


@PROPERTY
@given(square_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 1], [1, 0]])
def test_invert_is_a_left_inverse_or_raises(mat):
    n = len(mat)
    if minor_rank(mat, range(n)) < n:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(mat)
        return
    inverse = linalg.invert(mat)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert (linalg.mat_mul(inverse, mat) if n else inverse) == identity
