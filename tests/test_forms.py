import itertools
from fractions import Fraction

import pytest

from naryalg import (
    RationalTensor,
    ad_matrix,
    basis_object,
    direct_sum,
    kasymov,
    mixed_trace,
    nondegenerate,
    scale,
    simple_filippov,
    zero_algebra,
)
from naryalg import AlgebraFileError, forms, linalg


def trace_of_ads(L1, L2, a_indices, b_indices):
    # independent oracle: explicit matrix product trace
    ma = ad_matrix(L1, basis_object(L1, a_indices))
    mb = ad_matrix(L2, basis_object(L2, b_indices))
    prod = linalg.mat_mul(ma, mb)
    return sum(prod[i][i] for i in range(L1.d))


def signed_delta_tensor(n, d):
    # -sum_{sigma in S_{n-1}} sgn(sigma) delta_{a_sigma(1) b_1}..delta_{a_sigma(n-1) b_{n-1}}
    from naryalg.tensor import _parity

    data = {}
    for b in itertools.product(range(1, d + 1), repeat=n - 1):
        for sigma in itertools.permutations(range(n - 1)):
            a = [0] * (n - 1)
            for i in range(n - 1):
                a[sigma[i]] = b[i]
            key = tuple(a) + b
            data[key] = data.get(key, 0) - _parity(sigma)
    return RationalTensor((d,) * (2 * (n - 1)), {k: v for k, v in data.items() if v})


class TestKasymov:
    def test_a4_spot_value_against_matrix_trace(self, a4):
        k = kasymov(a4)
        assert trace_of_ads(a4, a4, (1, 2), (1, 2)) == -2
        assert k.tensor.get((1, 2, 1, 2)) == -2

    def test_a4_matches_matrix_trace_everywhere(self, a4):
        k = kasymov(a4)
        for a in itertools.combinations(range(1, 5), 2):
            for b in itertools.product(range(1, 5), repeat=2):
                assert k.tensor.get(a + b) == trace_of_ads(a4, a4, a, b)

    def test_half_k_is_signed_delta_sum(self, a4):
        half = scale(kasymov(a4).tensor, Fraction(1, 2))
        assert half == signed_delta_tensor(3, 4)

    def test_abelian_gives_zero_form(self):
        assert not kasymov(zero_algebra(3, 3)).tensor.data

    def test_block_exchange_symmetry(self, a4, a5, cs, a4_sum_a4):
        for L in (a4, a5, cs, a4_sum_a4):
            k = kasymov(L).tensor
            half = L.n - 1
            for key, val in k.data.items():
                assert k.get(key[half:] + key[:half]) == val


class TestMixedTrace:
    def test_reduces_to_kasymov(self, a4):
        assert mixed_trace(a4, a4).tensor == kasymov(a4).tensor

    def test_a8_against_a4_sum_spot_value(self, a8, a4_sum_a4):
        k = mixed_trace(a8, a4_sum_a4)
        idx = (1, 2, 5, 6, 7, 8, 1, 2)
        assert trace_of_ads(a8, a4_sum_a4, idx[:6], idx[6:]) == -2
        assert k.tensor.get(idx) == -2

    def test_abelian_second_factor(self, a4):
        k = mixed_trace(a4, zero_algebra(4, 3))
        assert not k.tensor.data

    def test_half_mixed_is_signed_delta_for_simple_algebras(self):
        for n in (3, 4):
            L = simple_filippov(n, [1] * (n + 1))
            half = scale(mixed_trace(L, L).tensor, Fraction(1, 2))
            assert half == signed_delta_tensor(n, n + 1)


class TestNondegenerate:
    def test_simple_algebra_passes(self, a4):
        assert nondegenerate(kasymov(a4)).passed

    def test_zero_form_fails(self):
        report = nondegenerate(kasymov(zero_algebra(3, 3)))
        assert not report.passed
        assert report.witness is not None

    def test_central_summand_fails(self, a4):
        L = direct_sum(a4, zero_algebra(1, 3))
        report = nondegenerate(kasymov(L))
        assert not report.passed
        # the radical vector points along the central generator
        assert report.witness[4] != 0


class TestTraceFormIO:
    def test_round_trip(self, tmp_path, a4):
        k = kasymov(a4)
        path = tmp_path / "k.json"
        forms.save(k, path)
        loaded = forms.load(path)
        assert loaded.tensor == k.tensor
        assert (loaded.arity1, loaded.arity2) == (k.arity1, k.arity2)

    @pytest.mark.parametrize("entry", [
        {"val": "1"},
        {"in": 5, "val": "1"},
        {"in": ["a", 1], "val": "1"},
        {"in": [True, 2], "val": "1"},
    ], ids=["missing-in", "scalar-in", "string-index", "boolean-index"])
    def test_bad_entry_index_rejected(self, entry):
        obj = {"dim": 2, "slots": 2, "entries": [entry]}
        with pytest.raises(AlgebraFileError):
            forms.from_json_dict(obj)

    def test_non_integer_dim_rejected(self):
        obj = {"dim": "2", "slots": 2, "entries": [{"in": [1, 2], "val": "1"}]}
        with pytest.raises(AlgebraFileError):
            forms.from_json_dict(obj)
