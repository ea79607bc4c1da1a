import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg.tensor import (
    OrbitTensor,
    RationalTensor,
    ShapeError,
    SizeGuardError,
    SlotPermutation,
    _integral,
    add,
    antisymmetrize,
    contract,
    is_zero,
    format_rational,
    kronecker_delta,
    levi_civita,
    parse_rational,
    permute,
    raise_lower,
    scale,
    symmetrize,
)
from naryalg.algebra import Metric

from change_of_basis import block_skew_algebras, metrics
from helpers import expansion, reference_permute, reference_raise_lower, reference_symmetrize


def inversion_parity(seq):
    # independent oracle: brute-force inversion count
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def generalized_delta(d, m):
    # det-expansion oracle: sum_sigma sgn(sigma) prod_i delta_{a_i b_sigma(i)}
    data = {}
    for a in itertools.product(range(1, d + 1), repeat=m):
        for sigma in itertools.permutations(range(m)):
            b = tuple(a[sigma[i]] for i in range(m))
            key = a + b
            sign = inversion_parity(sigma)
            data[key] = data.get(key, 0) + sign
    return RationalTensor((d,) * (2 * m), {k: v for k, v in data.items() if v})


def random_tensor(shape, seed, density=0.3):
    rng = random.Random(seed)
    data = {}
    for key in itertools.product(*(range(1, s + 1) for s in shape)):
        if rng.random() < density:
            data[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return RationalTensor(shape, data)


class TestLeviCivita:
    def test_d3_normalization_and_antisymmetry(self):
        eps = levi_civita(3)
        assert eps.get((1, 2, 3)) == 1
        assert eps.get((2, 1, 3)) == -1
        assert eps.get((1, 1, 2)) == 0

    def test_d4_one_transposition(self):
        assert levi_civita(4).get((1, 2, 4, 3)) == -1

    def test_d8_spot_value_against_inversion_count(self):
        idx = (1, 2, 5, 6, 7, 8, 3, 4)
        assert inversion_parity(idx) == 1
        assert levi_civita(8).get(idx) == 1

    def test_total_antisymmetry_d4(self):
        eps = levi_civita(4)
        for s in range(1, 4):
            assert is_zero(add(eps, permute(eps, SlotPermutation((s, s + 1), (s + 1, s)))))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            levi_civita(13)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_one_orbit_expands_to_every_permutation(self, d):
        eps = levi_civita(d)
        assert isinstance(eps, OrbitTensor) and eps.orbits.nnz == 1
        perms = list(itertools.permutations(range(1, d + 1)))
        assert list(eps.data.items()) == [(p, inversion_parity(p)) for p in perms]
        assert expansion(eps) == sorted(eps.data.items())


class TestRows:
    """rows() streams exactly the sorted entries, for a plain tensor and for
    an OrbitTensor, whose data is that expansion."""

    def test_plain_tensor(self):
        t = RationalTensor((3, 2, 4), {(3, 1, 4): Fraction(-1, 2), (1, 2, 1): 5, (1, 1, 3): 2})
        assert expansion(t) == sorted(t.data.items())
        assert all(len(head) == 1 and sign == 1 for head, sign, _ in t.rows())

    def test_orbit_tensor(self):
        # skew on slots 1..2 and on 3..5; one-slot run 6
        d = 4
        orbits = {(1, 3, 1, 2, 4, 2): 3, (2, 4, 1, 3, 4, 1): Fraction(-2, 3), (1, 2, 2, 3, 4, 4): 1}
        t = OrbitTensor(RationalTensor((d,) * 6, orbits), ((1, 2), (3, 5), (6, 6)))
        reference = antisymmetrize(antisymmetrize(RationalTensor((d,) * 6, orbits), (1, 2)),
                                   (3, 4, 5))
        assert t == reference
        assert list(t.data) == sorted(reference.data)
        assert expansion(t) == sorted(reference.data.items())
        assert t.nnz == 3 * 2 * 6

    def test_expansion_is_guarded(self, monkeypatch):
        t = OrbitTensor(RationalTensor((3,) * 3, {(1, 2, 3): 1}), ((1, 3),))
        monkeypatch.setenv("NARY_SIZE_GUARD", "5")
        with pytest.raises(SizeGuardError, match="trace form expansion: 6"):
            t.rows()
        with pytest.raises(SizeGuardError, match="trace form expansion: 6"):
            t.data
        monkeypatch.setenv("NARY_SIZE_GUARD", "6")
        assert t.nnz == 6


class TestContract:
    def test_eps_eps_two_slots_brute_force(self):
        eps = levi_civita(4)
        got = contract(eps, (3, 4), eps, (3, 4))
        # oracle: explicit sum over the 16 contracted index pairs
        for a, b, c, dd in itertools.product(range(1, 5), repeat=4):
            expect = sum(
                eps.get((a, b, u, v)) * eps.get((c, dd, u, v))
                for u in range(1, 5)
                for v in range(1, 5)
            )
            assert got.get((a, b, c, dd)) == expect
        assert got.get((1, 2, 1, 2)) == 2

    def test_contract_with_zero(self):
        eps = levi_civita(3)
        zero = RationalTensor((3, 3))
        assert is_zero(contract(eps, (1,), zero, (2,)))

    def test_delta_composes(self):
        delta = kronecker_delta(4)
        assert contract(delta, (2,), delta, (1,)) == delta

    def test_output_slot_order(self):
        t1 = RationalTensor((2, 3), {(1, 2): 5})
        t2 = RationalTensor((3, 4), {(2, 3): 7})
        got = contract(t1, (2,), t2, (1,))
        assert got.shape == (2, 4)
        assert got.get((1, 3)) == 35

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            contract(kronecker_delta(3), (1,), kronecker_delta(4), (1,))

    def test_contract_through_metric_uses_inverse(self):
        g = Metric.diag([-1, 1])
        e1 = RationalTensor((2,), {(1,): 1})
        got = contract(e1, (1,), raise_lower(e1, 1, g, "raise"), (1,))
        assert got.shape == ()
        assert got.get(()) == -1

    def test_eps_eps_trailing_contractions_equal_generalized_delta(self):
        for d in range(2, 6):
            eps = levi_civita(d)
            for k in range(1, d + 1):
                m = d - k
                slots = tuple(range(m + 1, d + 1))
                got = contract(eps, slots, eps, slots)
                import math

                expect = scale(generalized_delta(d, m), math.factorial(k))
                assert got == expect


# Nonzero ints and Fractions whose denominators repeat across entries.
exact_values = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([2, 3, 4, 6])),
)
# Symmetric, non-diagonal (except at d = 1), rational and invertible.
METRICS = {
    1: Metric([[Fraction(-2, 3)]]),
    2: Metric([[2, Fraction(1, 2)], [Fraction(1, 2), 1]]),
    3: Metric([[2, Fraction(1, 2), 0], [Fraction(1, 2), 1, 1], [0, 1, Fraction(-1, 3)]]),
}


@st.composite
def contraction_cases(draw):
    d = draw(st.integers(1, 3))
    r1, r2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(0, min(r1, r2)))
    slots1 = tuple(draw(st.permutations(range(1, r1 + 1)))[:k])
    slots2 = tuple(draw(st.permutations(range(1, r2 + 1)))[:k])

    def tensor(rank):
        keys = st.tuples(*[st.integers(1, d)] * rank)
        return RationalTensor((d,) * rank, draw(st.dictionaries(keys, exact_values, max_size=10)))

    metric = METRICS[d] if draw(st.booleans()) else None
    return tensor(r1), slots1, tensor(r2), slots2, metric


def reference_contract(t1, slots1, t2, slots2, metric=None):
    """Dense sum over every index, in Fractions: t1[.a.] t2[.b.] (g^-1)_ab."""
    d = t1.shape[0]
    free1 = [s for s in range(1, t1.rank + 1) if s not in slots1]
    free2 = [s for s in range(1, t2.rank + 1) if s not in slots2]
    indices = range(1, d + 1)

    def key(rank, free, slots, head, bound):
        out = [0] * rank
        for s, i in zip(list(free) + list(slots), head + bound):
            out[s - 1] = i
        return tuple(out)

    out = {}
    for head in itertools.product(indices, repeat=len(free1)):
        for tail in itertools.product(indices, repeat=len(free2)):
            total = Fraction(0)
            for a in itertools.product(indices, repeat=len(slots1)):
                for b in itertools.product(indices, repeat=len(slots2)) if metric else (a,):
                    weight = Fraction(1)
                    if metric:
                        for i, j in zip(a, b):
                            weight *= Fraction(metric.inverse[i - 1][j - 1])
                    total += (Fraction(t1.get(key(t1.rank, free1, slots1, head, a)))
                              * Fraction(t2.get(key(t2.rank, free2, slots2, tail, b))) * weight)
            if total:
                out[head + tail] = total
    return out


class TestContractDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(contraction_cases())
    def test_matches_fraction_reference(self, case):
        t1, slots1, t2, slots2, metric = case
        # with a metric, both contracted slots are lowered and joined
        # through the inverse metric: raise t2's slots first
        raised = t2
        for s2 in slots2 if metric else ():
            raised = raise_lower(raised, s2, metric, "raise")
        got = contract(t1, slots1, raised, slots2)
        assert got.data == reference_contract(t1, slots1, t2, slots2, metric)
        assert all(type(v) is (int if v.denominator == 1 else Fraction)
                   for v in got.data.values())


class TestConstructor:
    def test_public_constructor_validates_keys_and_drops_zeros(self):
        with pytest.raises(ShapeError, match="wrong rank"):
            RationalTensor((2, 2), {(1,): 1})
        for key in ((1, 3), (0, 1)):
            with pytest.raises(ShapeError, match="out of range"):
                RationalTensor((2, 2), {key: 1})
        t = RationalTensor((2, 2), {(1, 1): 0, (1, 2): Fraction(0), (2, 2): 5})
        assert t.data == {(2, 2): 5}


class TestSymmetrizers:
    def test_antisymmetrize_normalized_idempotent(self):
        t = random_tensor((2, 2, 3), seed=7)
        once = antisymmetrize(t, (1, 2), normalized=True)
        twice = antisymmetrize(once, (1, 2), normalized=True)
        assert once == twice
        assert once.get((1, 1, 2)) == 0

    def test_antisymmetrize_more_slots_than_dim(self):
        t = random_tensor((2, 2, 2), seed=3, density=0.9)
        assert is_zero(antisymmetrize(t, (1, 2, 3)))

    def test_antisymmetrize_fixes_eps(self):
        eps = levi_civita(3)
        assert antisymmetrize(eps, (1, 2, 3), normalized=True) == eps
        assert antisymmetrize(eps, (1, 2, 3)) == scale(eps, 6)

    def test_symmetrize_kills_eps(self):
        assert is_zero(symmetrize(levi_civita(3), (1, 2)))

    def test_symmetrize_fixes_delta(self):
        delta = kronecker_delta(3)
        assert symmetrize(delta, (1, 2), normalized=True) == delta

    def test_symmetrize_single_entry(self):
        t = RationalTensor((2, 2), {(1, 2): 1})
        got = symmetrize(t, (1, 2), normalized=True)
        assert got.get((1, 2)) == Fraction(1, 2)
        assert got.get((2, 1)) == Fraction(1, 2)

    def test_symmetrize_normalized_idempotent(self):
        t = random_tensor((3, 3, 2), seed=11)
        once = symmetrize(t, (1, 2), normalized=True)
        assert symmetrize(once, (1, 2), normalized=True) == once


class TestElementwise:
    def test_permute_transposition_negates_eps(self):
        eps = levi_civita(3)
        assert permute(eps, SlotPermutation((1, 2), (2, 1))) == scale(eps, -1)

    def test_permute_identity(self):
        t = random_tensor((2, 3), seed=1)
        assert permute(t, (1, 2)) == t

    def test_add_scale_is_zero(self):
        t = random_tensor((3, 3), seed=5)
        out = add(t, scale(t, -1))
        assert is_zero(out)
        assert out.data == {}

    def test_values_stay_reduced(self):
        t = RationalTensor((2,), {(1,): Fraction(2, 4)})
        assert t.get((1,)) == Fraction(1, 2)


class TestRaiseLower:
    def test_euclidean_identity(self):
        t = random_tensor((4, 4), seed=2)
        g = Metric.euclidean(4)
        assert raise_lower(t, 1, g, "lower") == t
        assert raise_lower(t, 1, g, "raise") == t

    def test_minkowski_flips_first_component(self):
        g = Metric.diag([-1, 1, 1, 1])
        e1 = RationalTensor((4,), {(1,): 1})
        assert raise_lower(e1, 1, g, "lower").get((1,)) == -1

    def test_round_trip(self):
        g = Metric([[2, 1, 0], [1, 3, 0], [0, 0, 1]])
        t = random_tensor((3, 3), seed=9)
        down = raise_lower(t, 2, g, "lower")
        assert raise_lower(down, 2, g, "raise") == t

    def test_singular_metric_rejected(self):
        with pytest.raises(ShapeError):
            Metric([[1, 1], [1, 1]])
        with pytest.raises(ShapeError, match="singular"):
            Metric.diag([1, 0, 1])

    def test_diagonal_inverse_matches_gauss_jordan(self):
        from naryalg import linalg

        for diag in ([1, -1, 1], [2, Fraction(1, 3), -5], [Fraction(-2, 7)]):
            g = Metric.diag(diag)
            expected = [[_integral(x) for x in row] for row in linalg.invert(g.entries)]
            assert [list(row) for row in g.inverse] == expected
            assert [type(x) for row in g.inverse for x in row] == \
                [type(x) for row in expected for x in row]

    def test_non_diagonal_inverse_is_guarded(self, monkeypatch):
        # Gauss-Jordan on a 2 x 4 augmented matrix: estimate 2 * 2^3 = 16
        monkeypatch.setenv("NARY_SIZE_GUARD", "16")
        Metric([[2, 1], [1, 3]])
        Metric.diag([2] * 100)
        monkeypatch.setenv("NARY_SIZE_GUARD", "15")
        with pytest.raises(SizeGuardError, match="metric inverse"):
            Metric([[2, 1], [1, 3]])


class TestIntegralValues:
    """Integral values are ints, all others Fractions."""

    def test_parse_rational_types(self):
        for text, value in (("4/2", 2), ("-3", -3), ("0/5", 0), ("-6/3", -2)):
            assert parse_rational(text) == value
            assert type(parse_rational(text)) is int
        assert parse_rational("1/2") == Fraction(1, 2)
        assert type(parse_rational("1/2")) is Fraction

    @pytest.mark.parametrize("text", ["1\n", "\u0661", "1/\u0662", " 1", "1 ", "+1", "1/0", ""])
    def test_parse_rational_rejects_non_literals(self, text):
        # a trailing newline and non-ASCII digits used to parse
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format_is_type_blind(self):
        assert format_rational(2) == format_rational(Fraction(2)) == "2"

    def test_integral_metric_and_inverse_are_ints(self):
        g = Metric.lorentzian(1, 3)
        assert all(type(x) is int for row in g.inverse for x in row)
        assert all(type(x) is int for row in g.entries for x in row)
        h = Metric([[Fraction(2), Fraction(1, 1)], [1, 1]])
        assert all(type(x) is int for row in h.entries + h.inverse for x in row)

    def test_non_integral_metric_inverse_stays_exact(self):
        g = Metric([[2, 0], [0, Fraction(1, 3)]])
        assert g.inverse == ((Fraction(1, 2), 0), (0, 3))
        assert type(g.inverse[0][0]) is Fraction and type(g.inverse[1][1]) is int

    def test_raise_keeps_integer_data_integral(self):
        g = Metric.lorentzian(1, 3)
        t = random_tensor((4, 4), seed=4, density=0.5)
        ints = RationalTensor(t.shape, {k: v.numerator for k, v in t.data.items()})
        assert all(type(v) is int for v in raise_lower(ints, 2, g, "raise").data.values())

    def test_fraction_factors_keep_integral_values_ints(self):
        from naryalg.young import YoungShape, isotypic_project

        eps = levi_civita(3)
        pair = RationalTensor((2, 2), {(1, 2): 2})
        for t, expected in (
            (antisymmetrize(eps, (1, 2, 3), normalized=True), eps.data),
            (isotypic_project(eps, (1, 2, 3), YoungShape(3, 0)), eps.data),
            (scale(eps, Fraction(2)), {k: 2 * v for k, v in eps.data.items()}),
            (symmetrize(pair, (1, 2), normalized=True), {(1, 2): 1, (2, 1): 1}),
        ):
            assert t.data == expected
            assert all(type(v) is int for v in t.data.values())


def assert_same_storage(t, expect: dict):
    """t.data has expect's keys in expect's storage order, and its values
    with their types (int against Fraction)."""
    assert list(t.data) == list(expect)
    assert [(v, type(v)) for v in t.data.values()] == [(v, type(v)) for v in expect.values()]


@st.composite
def tensors_and_slots(draw):
    """A tensor with small d (so its keys repeat indices) and two or more of
    its slots: a contiguous run or scattered slots in any order."""
    rank, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(1, d)] * rank)
    t = RationalTensor((d,) * rank, draw(st.dictionaries(keys, exact_values,
                                                         min_size=1, max_size=12)))
    if draw(st.booleans()):
        lo = draw(st.integers(1, rank - 1))
        slots = tuple(range(lo, draw(st.integers(lo + 1, rank)) + 1))
    else:
        slots = tuple(draw(st.permutations(range(1, rank + 1)))[:draw(st.integers(2, rank))])
    return t, slots


class TestKernelsAgainstListReferences:
    """The itemgetter kernels give the data of the list-based ones they
    replaced, key order included: _mismatch_report breaks ties by it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(tensors_and_slots(), st.booleans())
    def test_symmetrizers(self, case, normalized):
        t, slots = case
        assert_same_storage(antisymmetrize(t, slots, normalized),
                            reference_symmetrize(t, slots, normalized, True))
        assert_same_storage(symmetrize(t, slots, normalized),
                            reference_symmetrize(t, slots, normalized, False))

    def test_symmetrizers_on_repeated_indices(self):
        t = RationalTensor((3,) * 4, {(1, 1, 2, 3): 2, (2, 1, 1, 3): Fraction(-1, 2),
                                      (3, 2, 3, 1): 1, (1, 2, 1, 2): Fraction(4, 3)})
        for slots in ((1, 2, 3), (4, 1, 3), (2, 4)):
            for normalized in (False, True):
                assert_same_storage(antisymmetrize(t, slots, normalized),
                                    reference_symmetrize(t, slots, normalized, True))
                assert_same_storage(symmetrize(t, slots, normalized),
                                    reference_symmetrize(t, slots, normalized, False))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tensors_and_slots(), st.data())
    def test_permute(self, case, data):
        t, _ = case
        dest = tuple(data.draw(st.permutations(range(1, t.rank + 1))))
        assert_same_storage(permute(t, dest), reference_permute(t, dest))
        swap = SlotPermutation((1, t.rank), (t.rank, 1))
        assert_same_storage(permute(t, swap), reference_permute(t, swap.destination_map(t.rank)))

    def test_permute_rank_one(self):
        line = RationalTensor((3,), {(2,): Fraction(1, 2), (1,): 4})
        assert_same_storage(permute(line, (1,)), reference_permute(line, (1,)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(2, 3), st.data())
    def test_raise_lower(self, rank, d, data):
        keys = st.tuples(*[st.integers(1, d)] * rank)
        t = RationalTensor((d,) * rank, data.draw(st.dictionaries(keys, exact_values, max_size=10)))
        slot = data.draw(st.integers(1, rank))
        for metric in metrics(d):
            for direction in ("lower", "raise"):
                assert_same_storage(raise_lower(t, slot, metric, direction),
                                    reference_raise_lower(t, slot, metric, direction))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        for L in algebras:
            f, r = L.f, L.n + 1
            for slots in (range(1, L.n + 1), range(2, r + 1), (r, 1, 2)):
                slots = tuple(slots)
                for normalized in (False, True):
                    assert_same_storage(antisymmetrize(f, slots, normalized),
                                        reference_symmetrize(f, slots, normalized, True))
                    assert_same_storage(symmetrize(f, slots, normalized),
                                        reference_symmetrize(f, slots, normalized, False))
            dest = (*range(2, r + 1), 1)
            assert_same_storage(permute(f, dest), reference_permute(f, dest))
            for metric in metrics(L.d):
                for direction in ("lower", "raise"):
                    assert_same_storage(raise_lower(f, r, metric, direction),
                                        reference_raise_lower(f, r, metric, direction))
