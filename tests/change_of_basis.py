"""Basis changes and perturbations of an algebra, shared by the tests that
compare verdicts, invariants and reports across inputs."""

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from naryalg import (
    Metric,
    NaryAlgebra,
    RationalTensor,
    antisymmetrize,
    builtin,
    corollary_self,
    direct_sum,
    linalg,
    zero_algebra,
)
from naryalg.tensor import _acc, _integral

from helpers import transpose


def change_basis(L, new_basis):
    """L in the basis e'_i = sum_j new_basis[i][j] e_j (rows are the new vectors).

    Expands each entry of f over the nonzeros of new_basis in its input slots
    and of the inverse transpose in its output slot.
    """
    d, n = L.d, L.n
    inverse = linalg.invert(transpose(new_basis))
    # new_vectors[j]: (i, x) with x = new_basis[i][j] != 0
    new_vectors = [[(i, row[j]) for i, row in enumerate(new_basis, 1) if row[j]]
                   for j in range(d)]
    outputs = [[(k, inverse[k - 1][m]) for k in range(1, d + 1) if inverse[k - 1][m]]
               for m in range(d)]
    data = {}
    for key, val in L.f.data.items():
        for combo in itertools.product(*(new_vectors[j - 1] for j in key[:-1])):
            idx = tuple(i for i, _ in combo)
            coeff = val * math.prod(x for _, x in combo)
            for k, y in outputs[key[-1] - 1]:
                _acc(data, idx + (k,), coeff * y)
    return NaryAlgebra(f"{L.name}'", d, n, RationalTensor((d,) * (n + 1), data))


def shears(d):
    """Two invertible non-diagonal rational d x d matrices (rows are new vectors)."""
    one = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    one[0][1] = Fraction(1, 2)
    one[d - 1][0] = Fraction(-2, 3)
    two = [[Fraction(i + 1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    two[1][2] = Fraction(3)
    two[2][0] = Fraction(-1, 3)
    two[d - 1][1] = Fraction(5, 4)
    return [one, two]


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


def _with_shears(name):
    """Makers of the builtin algebra name and of both its shears."""
    return {name: lambda: builtin(name)} | {
        f"{name}-shear{i}": (lambda P=P: change_basis(builtin(name), P))
        for i, P in enumerate(shears(builtin(name).d), 1)}


# The fixed algebras that the orbit-route differentials run on beside the
# block_skew_algebras strategy: skew runs of every shape, dense shears of
# them, a central summand, perturbed A4 (no skew run of two slots) and
# algebras with no entries.
ORBIT_FIXTURES = {
    **_with_shears("A4"), **_with_shears("cs-so4"), **_with_shears("a4-sum-a4"),
    "A4+zero(2,3)": lambda: direct_sum(builtin("A4"), zero_algebra(2, 3)),
    "perturbed-A4": perturbed_a4,
    "corollary_self(A5)": lambda: corollary_self(builtin("A5")),
    "zero(4,3)": lambda: zero_algebra(4, 3),
    "zero(5,2)": lambda: zero_algebra(5, 2),
}


def metrics(d):
    """Euclidean, Lorentzian and a non-diagonal rational metric on Q^d."""
    g = [[Fraction(2 * (i == j)) for j in range(d)] for i in range(d)]
    g[0][1] = g[1][0] = Fraction(1, 2)
    g[0][d - 1] = g[d - 1][0] = Fraction(-1, 3)
    return [Metric.euclidean(d), Metric.lorentzian(1, d - 1), Metric(g)]


@st.composite
def block_skew_algebras(draw, d):
    """A random sparse tensor antisymmetrized over a random run of input
    slots, then a skew-preserving and a skew-breaking perturbation of it."""
    n = draw(st.integers(2, 4))
    lo = draw(st.integers(1, n - 1))
    run = range(lo, draw(st.integers(lo + 1, n)) + 1)
    keys = st.tuples(*[st.integers(1, d)] * (n + 1))
    values = st.builds(lambda p, q: _integral(Fraction(p, q)),
                       st.integers(-3, 3).filter(bool), st.integers(1, 3))

    def skew(data):
        return antisymmetrize(RationalTensor((d,) * (n + 1), data), run).data

    base = skew(draw(st.dictionaries(keys, values, min_size=1, max_size=4)))
    preserving = dict(base)
    for key, val in skew({draw(keys): draw(values)}).items():
        _acc(preserving, key, val)
    breaking = dict(base)
    _acc(breaking, draw(keys), draw(values))
    return [NaryAlgebra(f"skew{lo}-{run[-1]}{tag}", d, n, RationalTensor((d,) * (n + 1), data))
            for tag, data in (("", base), ("+p", preserving), ("+b", breaking))]
