import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import (
    ConstructionInput,
    RationalTensor,
    ad_matrix,
    associated_leibniz,
    basis_object,
    builtin,
    direct_sum,
    kasymov,
    kasymov_nondegenerate,
    mixed_trace,
    nondegenerate,
    scale,
    simple_filippov,
    zero_algebra,
)
from naryalg import AlgebraFileError, forms, linalg
from naryalg.tensor import SizeGuardError, contract

from change_of_basis import block_skew_algebras, change_basis, perturbed_a4, rescale, shears
from helpers import expansion


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


def assert_is_the_plain_contraction(l1, l2):
    """The orbit form equals the contraction of every entry of f and h, and
    holds one entry at the block-sorted key of each orbit."""
    k = mixed_trace(l1, l2)
    n, m = l1.n, l2.n
    plain = contract(l1.f, (n, n + 1), l2.f, (m + 1, m))
    assert k.tensor == plain
    assert list(k.tensor.data) == sorted(plain.data)
    assert expansion(k.tensor) == sorted(plain.data.items())
    assert k.tensor.orbits.data == {key: val for key, val in plain.data.items()
                                    if all(key[s] < key[s + 1] for lo, hi in k.tensor.runs
                                           for s in range(lo - 1, hi - 1))}


class TestOrbitTraceForm:
    """mixed_trace contracts one entry of f and h per orbit; its expansion is
    the plain contraction of every entry."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        for l1, l2 in itertools.product(algebras, repeat=2):
            assert_is_the_plain_contraction(l1, l2)

    @pytest.mark.parametrize("name", ["A4", "cs-so4", "A5"])
    def test_shears(self, name):
        L = builtin(name)
        for P in shears(L.d):
            sheared = change_basis(L, P)
            assert sheared.skew_runs() == L.skew_runs()
            assert_is_the_plain_contraction(sheared, sheared)
            assert_is_the_plain_contraction(sheared, L)

    def test_mixed_arities(self, a8, a4_sum_a4, seven_leibniz, a4, cs):
        assert_is_the_plain_contraction(a8, a4_sum_a4)
        assert_is_the_plain_contraction(a4_sum_a4, a8)
        assert_is_the_plain_contraction(seven_leibniz, a4_sum_a4)
        assert_is_the_plain_contraction(a4, cs)
        assert_is_the_plain_contraction(builtin("A5"), direct_sum(a4, zero_algebra(1, 3)))

    def test_no_run_of_two_slots(self, a4):
        bent = perturbed_a4()
        assert bent.skew_runs() == ((1, 1), (2, 2), (3, 3))
        assert kasymov(bent).tensor.runs == ((1, 1), (2, 2), (3, 3), (4, 4))
        for l1, l2 in itertools.product([bent, a4], repeat=2):
            assert_is_the_plain_contraction(l1, l2)

    def test_one_entry_per_orbit(self, a6):
        k = kasymov(a6)
        assert k.tensor.runs == ((1, 4), (5, 8))
        # C(6, 2) orbits, each of 4! x 4! entries
        assert (k.tensor.orbits.nnz, k.tensor.nnz) == (15, 15 * 24 * 24)

    def test_expansion_is_guarded(self, a6, monkeypatch):
        monkeypatch.setenv("NARY_SIZE_GUARD", "8639")
        k = kasymov(a6)
        with pytest.raises(SizeGuardError, match="trace form expansion: 8640"):
            k.tensor.data


class TestValueRule:
    """Integral values are ints and all others Fractions, also when the
    inputs carry non-integral values."""

    def test_forms_and_construction_on_rescaled_inputs(self, a4, a6, cs):
        r6, s6 = rescale(a6, (1, 2, 3, 4, 5, 6)), rescale(a6, (3, 1, 6, 2, 5, 4))
        r4, rcs = rescale(a4, (1, 2, 3, 4)), rescale(cs, (1, 2, 3, 4))
        tensors = [
            kasymov(r6).tensor,
            mixed_trace(r6, s6).tensor,
            associated_leibniz(ConstructionInput(r4, r4, r4.metric)).f,
            associated_leibniz(ConstructionInput(r4, rcs, r4.metric, Fraction(3, 2))).f,
        ]
        for t in tensors:
            assert all(type(v) is (int if v.denominator == 1 else Fraction)
                       for v in t.data.values())
        assert {type(v) for t in tensors for v in t.data.values()} == {int, Fraction}


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

    @pytest.mark.parametrize("decide", [kasymov_nondegenerate, lambda L: nondegenerate(kasymov(L))],
                             ids=["kasymov_nondegenerate", "nondegenerate"])
    def test_radical_witness_is_guarded(self, decide, monkeypatch):
        # a failing report holds a dense witness: 150 bytes for each of d = 4 coordinates
        L = zero_algebra(4, 3)
        monkeypatch.setenv("NARY_SIZE_GUARD", "600")
        assert decide(L).witness == (1, 0, 0, 0)
        monkeypatch.setenv("NARY_SIZE_GUARD", "599")
        with pytest.raises(SizeGuardError, match="radical witness of 4 coordinates, in bytes: 600"):
            decide(L)


def rescaled_a5():
    """A5 in the basis e'_j = j e_j: values such as 40/3."""
    return change_basis(builtin("A5"), [[j if i == j else 0 for j in range(1, 6)]
                                        for i in range(1, 6)])


def sheared_central_sum():
    """A4 + zero(1,3) in a basis whose radical vector is e'_5 - e'_1."""
    rows = [[int(i == j) for j in range(5)] for i in range(5)]
    rows[4][0] = 1
    return change_basis(direct_sum(builtin("A4"), zero_algebra(1, 3)), rows)


def dense_radical(k):
    """Reference: first kernel vector of the dense transposed flattened form."""
    d = k.d
    cols = sorted({key[1:] for key in k.tensor.data})
    rows = [[k.tensor.get((a,) + rest) for a in range(1, d + 1)] for rest in cols]
    radical = linalg.nullspace(rows or [[0] * d], d)
    return tuple(radical[0]) if radical else None


class TestKasymovNondegenerate:
    """The adjoint-span rank test against the materialized form."""

    @pytest.mark.parametrize("make", [
        lambda: builtin("A4"), lambda: builtin("A5"), lambda: builtin("A6"),
        lambda: builtin("cs-so4"), lambda: builtin("a4-sum-a4"), lambda: builtin("A1+3"),
        lambda: zero_algebra(4, 3),
        lambda: direct_sum(builtin("A4"), zero_algebra(2, 3)),
        rescaled_a5, sheared_central_sum,
    ], ids=["A4", "A5", "A6", "cs-so4", "a4-sum-a4", "A1+3", "zero(4,3)",
            "A4+zero(2,3)", "rescaled-A5", "sheared-A4+zero(1,3)"])
    def test_agrees_with_materialized_form(self, make):
        L = make()
        form = kasymov(L)
        expected = nondegenerate(form)
        assert expected.witness == dense_radical(form)
        got = kasymov_nondegenerate(L)
        assert (got.passed, got.witness) == (expected.passed, expected.witness)
        assert got.as_dict() == expected.as_dict()

    def test_degenerate_witnesses(self):
        assert kasymov_nondegenerate(direct_sum(builtin("A4"), zero_algebra(2, 3))).witness \
            == (0, 0, 0, 0, 1, 0)
        assert kasymov_nondegenerate(sheared_central_sum()).witness == (-1, 0, 0, 0, 1)
        assert any(v.denominator != 1 for v in rescaled_a5().f.data.values())

    def test_size_guard(self, monkeypatch):
        # A4: 4 groups A' = (a2,) x 6 span representatives x d = 4 -> 96
        L = builtin("A4")
        assert len(L.ad_span()) == 6
        monkeypatch.setenv("NARY_SIZE_GUARD", "96")
        assert kasymov_nondegenerate(L).passed
        monkeypatch.setenv("NARY_SIZE_GUARD", "95")
        with pytest.raises(SizeGuardError, match="Kasymov rank test"):
            kasymov_nondegenerate(L)


class TestTraceFormIO:
    def test_round_trip(self, tmp_path, a4):
        k = kasymov(a4)
        path = tmp_path / "k.json"
        forms.save(k, path)
        loaded = forms.load(path)
        assert loaded.tensor == k.tensor
        assert (loaded.arity1, loaded.arity2) == (k.arity1, k.arity2)

    def test_loaded_data_is_the_dict_read(self, tmp_path, a5):
        path = tmp_path / "k.json"
        forms.save(kasymov(a5), path)
        loaded = forms.load(path)
        assert loaded.tensor.nnz == 360
        tracemalloc.start()
        try:
            data = loaded.tensor.data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a second dict of 360 keys would take tens of kilobytes
        assert peak < 2000
        assert data is loaded.tensor.data and len(data) == 360

    @pytest.mark.parametrize("make", [
        lambda: builtin("A4"), lambda: builtin("A5"), lambda: builtin("A6"),
        lambda: zero_algebra(3, 3), perturbed_a4,
    ], ids=["A4", "A5", "A6", "zero(3,3)", "perturbed-A4"])
    def test_loaded_form_decides_like_the_built_one(self, make, tmp_path):
        k = kasymov(make())
        path = tmp_path / "k.json"
        forms.save(k, path)
        assert nondegenerate(forms.load(path)).as_dict() == nondegenerate(k).as_dict()

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

    @pytest.mark.parametrize("arities", [
        {"arity1": True, "arity2": "x"},
        {"arity1": 2.0, "arity2": 2},
        {"arity1": 3, "arity2": 1},
        {"arity1": 2, "arity2": 3},
        {"arity1": 3},
    ], ids=["bool-and-string", "float", "below-two", "wrong-sum", "implied-below-two"])
    def test_bad_arities_rejected(self, arities):
        obj = {"dim": 2, "slots": 2, **arities, "entries": []}
        with pytest.raises(AlgebraFileError, match="arity1/arity2"):
            forms.from_json_dict(obj)

    def test_arities_default_from_slots(self):
        k = forms.from_json_dict({"dim": 2, "slots": 5, "entries": []})
        assert (k.arity1, k.arity2) == (3, 4)

    def test_non_integer_dim_rejected(self):
        obj = {"dim": "2", "slots": 2, "entries": [{"in": [1, 2], "val": "1"}]}
        with pytest.raises(AlgebraFileError):
            forms.from_json_dict(obj)
