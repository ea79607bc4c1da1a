"""Basis changes of an algebra, shared by the tests that compare verdicts
and invariants across bases."""

import itertools

from naryalg import NaryAlgebra, RationalTensor, linalg


def change_basis(L, new_basis):
    """L in the basis e'_i = sum_j new_basis[i][j] e_j (rows are the new vectors)."""
    d, n = L.d, L.n
    inverse = linalg.invert(linalg.transpose(new_basis))
    data = {}
    for idx in itertools.product(range(d), repeat=n):
        out = [0] * d
        for key, val in L.f.data.items():
            coeff = val
            for i, j in zip(idx, key[:-1]):
                coeff *= new_basis[i][j - 1]
            out[key[-1] - 1] += coeff
        for k in range(d):
            val = sum(inverse[k][m] * out[m] for m in range(d))
            if val:
                data[tuple(i + 1 for i in idx) + (k + 1,)] = val
    return NaryAlgebra(f"{L.name}'", d, n, RationalTensor((d,) * (n + 1), data))
