"""Numbers read off the elimination engine do not depend on the basis.

Each algebra is compared with itself under fixed rational shears: the Lie
closure, the adjoint span, the centre, the ad kernel and the Kasymov verdict
are basis-invariant, and a metric transforms as g -> P^T g P.
"""

from fractions import Fraction as F

import pytest

from naryalg import Metric, builtin, direct_sum, kasymov_nondegenerate, linalg, zero_algebra
from naryalg.adjoint import ad_kernel, centre, lie_closure

from change_of_basis import change_basis, shears
from helpers import transpose


def invariants(L):
    closure = lie_closure(L)
    return {
        "closure": (closure.dim, closure.from_generators),
        "ad_span": len(L.ad_span()),
        "centre": len(centre(L)),
        "ad_kernel": len(ad_kernel(L)[1]),
        "nondegenerate": kasymov_nondegenerate(L).passed,
    }


@pytest.mark.parametrize("make", [
    lambda: builtin("A4"), lambda: builtin("A5"), lambda: builtin("cs-so4"),
    lambda: direct_sum(builtin("A4"), zero_algebra(1, 3)),
], ids=["A4", "A5", "cs-so4", "A4+zero(1,3)"])
def test_engine_consumers_are_basis_invariant(make):
    L = make()
    expected = invariants(L)
    for P in shears(L.d):
        sheared = change_basis(L, P)
        assert sheared.f != L.f
        assert invariants(sheared) == expected


def test_metric_inverse_transforms_with_the_basis():
    g = [[F(2), F(1, 2), F(0), F(0)], [F(1, 2), F(1), F(0), F(-1, 3)],
         [F(0), F(0), F(3), F(0)], [F(0), F(-1, 3), F(0), F(5, 7)]]
    g_inv = Metric(g).inverse
    for P in shears(4):
        P_inv = linalg.invert(P)
        moved = linalg.mat_mul(linalg.mat_mul(transpose(P), g), P)
        expected = linalg.mat_mul(linalg.mat_mul(P_inv, g_inv), transpose(P_inv))
        assert [list(row) for row in Metric(moved).inverse] == expected
