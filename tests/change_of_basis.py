"""Basis changes and perturbations of an algebra, shared by the tests that
compare verdicts, invariants and reports across inputs."""

import itertools
import math
from fractions import Fraction

from naryalg import Metric, NaryAlgebra, RationalTensor, builtin, linalg


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


def rescale(L, t):
    """L in the basis e'_j = t[j-1] e_j, values stored as a loaded file stores
    them; a metric g becomes t_i t_j g_ij."""
    data = {}
    for key, val in L.f.data.items():
        val = Fraction(val * math.prod(t[i - 1] for i in key[:-1]), t[key[-1] - 1])
        data[key] = val.numerator if val.denominator == 1 else val
    metric = None
    if L.metric is not None:
        g = L.metric.entries
        metric = Metric([[t[i] * t[j] * g[i][j] for j in range(L.d)] for i in range(L.d)])
    return NaryAlgebra(f"{L.name}*t", L.d, L.n, RationalTensor(L.f.shape, data), metric)


def perturb(L, key, value):
    """L with the structure constant at key set to value, metric kept."""
    data = dict(L.f.data)
    data[key] = value
    return NaryAlgebra(f"{L.name}-perturbed", L.d, L.n, RationalTensor(L.f.shape, data), L.metric)


def perturbed_a4():
    """A_4 with one structure constant changed to 2 (breaks the FI)."""
    return perturb(builtin("A4"), (1, 2, 3, 4), 2)
