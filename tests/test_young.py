import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import (
    BudgetExceededError,
    ConstructionInput,
    NaryAlgebra,
    RationalTensor,
    SlotPermutation,
    Tableau,
    YoungShape,
    add,
    antisymmetrize,
    associated_leibniz,
    builtin,
    character,
    classify_bracket,
    corollary_self,
    gl_dimension,
    is_lie_lple,
    is_lie_triple,
    is_zero,
    isotypic_project,
    permute,
    primitive_project,
    scale,
)
from naryalg import algebra, linalg, young
from naryalg.algebra import _impure_component

from helpers import partitions


def hook_content_dimension(partition, d):
    # independent oracle for GL(d) dimensions
    partition = tuple(partition)
    num = Fraction(1)
    for i, row_len in enumerate(partition):
        for j in range(row_len):
            col_len = sum(1 for r in partition if r > j)
            hook = (row_len - j) + (col_len - i) - 1
            num *= Fraction(d + j - i, hook)
    assert num.denominator == 1
    return int(num)


def hook_length_count(partition):
    # number of standard tableaux, n! / prod(hooks)
    n = sum(partition)
    prod = 1
    for i, row_len in enumerate(partition):
        for j in range(row_len):
            col_len = sum(1 for r in partition if r > j)
            prod *= (row_len - j) + (col_len - i) - 1
    return math.factorial(n) // prod


def random_tensor(shape, seed, density=0.4):
    rng = random.Random(seed)
    data = {}
    for key in itertools.product(*(range(1, s + 1) for s in shape)):
        if rng.random() < density:
            data[key] = rng.randint(-4, 4)
    return RationalTensor(shape, data)


class TestGlDimension:
    def test_frozen_examples(self):
        assert gl_dimension(YoungShape(3, 1), 4) == 20
        assert gl_dimension(YoungShape(3, 0), 4) == 4
        assert gl_dimension(YoungShape(5, 2), 5) == 75

    def test_against_hook_content(self):
        for l in range(1, 7):
            for r in range(l // 2 + 1):
                shape = YoungShape(l, r)
                for d in range(1, 7):
                    assert gl_dimension(shape, d) == hook_content_dimension(
                        shape.partition(), d
                    )

    def test_zero_when_column_exceeds_dimension(self):
        assert gl_dimension(YoungShape(3, 0), 2) == 0
        assert gl_dimension(YoungShape(5, 1), 3) == 0
        assert gl_dimension(YoungShape(5, 2), 3) != 0


class TestCharacter:
    def test_standard_tableaux_count_at_identity(self):
        assert character((2, 1), (1, 1, 1)) == 2
        assert character((2, 2, 1), (1, 1, 1, 1, 1)) == 5
        for l in range(1, 7):
            for r in range(l // 2 + 1):
                part = YoungShape(l, r).partition()
                assert character(part, (1,) * l) == hook_length_count(part)

    def test_sign_representation(self):
        from naryalg.tensor import _parity
        from naryalg.young import _cycle_type

        l = 4
        for perm in itertools.permutations(range(l)):
            assert character((1,) * l, _cycle_type(perm)) == _parity(perm)

    def test_character_table_degree(self):
        shape = YoungShape(5, 2)
        assert character(shape, (1,) * 5) == hook_length_count((2, 2, 1))
        assert character(shape, (5,)) == character((2, 2, 1), (5,))

    def test_orthogonality_of_characters(self):
        from naryalg.young import _cycle_type

        l = 4
        shapes = list(partitions(l))
        perms = list(itertools.permutations(range(l)))
        for lam in shapes:
            for mu in shapes:
                inner = sum(
                    character(lam, _cycle_type(p)) * character(mu, _cycle_type(p))
                    for p in perms
                )
                assert inner == (math.factorial(l) if lam == mu else 0)


class TestPrimitiveProjector:
    def test_a4_has_no_mixed_component(self, a4):
        tab = Tableau(YoungShape(3, 1), (1, 2), (3,))
        assert is_zero(primitive_project(a4.f, (1, 2, 3), tab))

    def test_cs_so4_mixed_component_survives(self, cs):
        tab = Tableau(YoungShape(3, 1), (1, 2), (3,))
        assert not is_zero(primitive_project(cs.f, (1, 2, 3), tab))

    def test_cs_so4_has_no_fully_antisymmetric_part(self, cs):
        tab = Tableau.canonical(YoungShape(3, 0))
        assert is_zero(primitive_project(cs.f, (1, 2, 3), tab))

    def test_zero_tensor(self):
        tab = Tableau.canonical(YoungShape(3, 1))
        assert is_zero(primitive_project(RationalTensor((2, 2, 2)), (1, 2, 3), tab))

    @pytest.mark.parametrize("n", [3, 4])
    def test_lple_bracket_selects_canonical_column(self, n):
        # the delta-form bracket survives only the filling whose first
        # column is exactly the n-1 fully skew slots
        from naryalg import builtin

        L = corollary_self(builtin(f"A{n + 1}"))
        l = L.n
        slots = tuple(range(1, l + 1))
        shape = YoungShape(l, n - 2)
        canonical = Tableau.canonical(shape)
        assert not is_zero(primitive_project(L.f, slots, canonical))
        a_slots = set(range(1, n))
        for col1 in itertools.combinations(range(1, l + 1), l - (n - 2)):
            if set(col1) == a_slots:
                continue
            col2 = tuple(p for p in range(1, l + 1) if p not in col1)
            tab = Tableau(shape, col1, col2)
            assert is_zero(primitive_project(L.f, slots, tab))


class TestIsotypicProjector:
    def test_a4_components(self, a4):
        assert isotypic_project(a4.f, (1, 2, 3), YoungShape(3, 0)) == a4.f
        assert is_zero(isotypic_project(a4.f, (1, 2, 3), YoungShape(3, 1)))

    def test_cs_so4_components(self, cs):
        assert isotypic_project(cs.f, (1, 2, 3), YoungShape(3, 1)) == cs.f
        assert is_zero(isotypic_project(cs.f, (1, 2, 3), YoungShape(3, 0)))

    def test_idempotent_and_commutes_with_permutations(self):
        t = random_tensor((3, 3, 3, 2), seed=5)
        for r in (0, 1):
            shape = YoungShape(3, r)
            p = isotypic_project(t, (1, 2, 3), shape)
            assert isotypic_project(p, (1, 2, 3), shape) == p
            swap = SlotPermutation((1, 2), (2, 1))
            assert permute(p, swap) == isotypic_project(
                permute(t, swap), (1, 2, 3), shape
            )

    def test_partition_of_unity_l3(self):
        for d in (2, 3, 4):
            t = random_tensor((d, d, d), seed=d)
            total = RationalTensor(t.shape)
            for lam in partitions(3):
                total = add(total, isotypic_project(t, (1, 2, 3), lam))
            assert total == t

    def test_rank_oracle_two_column_shapes(self):
        # rank of the projector on (Q^d)^x3 equals gl_dim x standard count
        for d in (3, 4):
            triples = list(itertools.product(range(1, d + 1), repeat=3))
            col = {idx: i for i, idx in enumerate(triples)}
            for r in (0, 1):
                shape = YoungShape(3, r)
                rows = [[0] * len(triples) for _ in triples]
                for j, idx in enumerate(triples):
                    image = isotypic_project(
                        RationalTensor((d, d, d), {idx: 1}), (1, 2, 3), shape
                    )
                    for key, val in image.data.items():
                        rows[col[key]][j] = val
                expected = gl_dimension(shape, d) * character(
                    shape.partition(), (1, 1, 1)
                )
                assert linalg.rank(rows, len(triples)) == expected

    def test_budget_gate(self, seven_leibniz):
        with pytest.raises(BudgetExceededError):
            classify_bracket(seven_leibniz)


class TestClassification:
    def test_a4(self, a4):
        assert [(r, nz) for r, nz, _ in classify_bracket(a4)] == [(0, True), (1, False)]

    def test_cs_so4(self, cs):
        assert [(r, nz) for r, nz, _ in classify_bracket(cs)] == [(0, False), (1, True)]

    def test_corollary_self_a4_matches_cs(self, a4, cs):
        out = corollary_self(a4)  # twice the cs-so4 bracket
        assert [(r, nz) for r, nz, _ in classify_bracket(out)] == [(0, False), (1, True)]

    def test_gl_dims_reported(self, a4):
        assert [dim for _, _, dim in classify_bracket(a4)] == [4, 20]

    def test_one_permutation_sweep_for_all_shapes(self, a6, monkeypatch):
        seen = []
        real = young._cycle_type
        monkeypatch.setattr(young, "_cycle_type", lambda perm: seen.append(perm) or real(perm))
        assert [(r, nz) for r, nz, _ in classify_bracket(a6)] == [
            (0, True), (1, False), (2, False)]
        assert len(seen) == math.factorial(5)  # once per permutation, not once per shape


def block_skew(d, l, seeds):
    """The arity-l tensor (l = 2n-3) made skew in input slots 1..n-1 and n..l."""
    n = (l + 3) // 2
    t = RationalTensor((d,) * (l + 1), seeds)
    return antisymmetrize(antisymmetrize(t, range(1, n)), range(n, l + 1))


def least_impure_r(t, l):
    """Reference: the least r != n-2 whose isotypic projection is nonzero."""
    n = (l + 3) // 2
    for r in range(n - 2):
        if not is_zero(isotypic_project(t, range(1, l + 1), YoungShape(l, r))):
            return r
    return None


@st.composite
def block_skew_cases(draw, l, d):
    n = (l + 3) // 2
    # a seed takes its first block from the front of a permutation and its
    # second block from a window starting at most n-1 further on, so the
    # indices inside each block are distinct and the blocks overlap in any amount
    seed = st.tuples(st.permutations(range(1, d + 1)),
                     st.integers(0, min(n - 1, d - n + 2)), st.integers(1, d))
    keys = draw(st.lists(seed, min_size=1, max_size=2))
    seeds = {(*p[:n - 1], *p[start:start + n - 2], s): draw(st.integers(-3, 3).filter(bool))
             for p, start, s in keys}
    coeffs = draw(st.lists(st.sampled_from([1, -1, 2, Fraction(-1, 3)]),
                           min_size=n - 1, max_size=n - 1))
    return block_skew(d, l, seeds), coeffs


class TestLieLple:
    @pytest.fixture(autouse=True)
    def no_antisymmetrized_tensor(self, monkeypatch):
        # purity asks only the gather whether an antisymmetrization is zero
        def refuse(*args, **kwargs):
            raise AssertionError("l-ple membership built an antisymmetrized tensor")

        monkeypatch.setattr(algebra, "antisymmetrize", refuse)

    @pytest.mark.parametrize("make", [
        lambda: builtin("cs-so4"),
        lambda: corollary_self(builtin("A6")),
        lambda: associated_leibniz(ConstructionInput(*[builtin("A7")] * 2, builtin("A7").metric)),
    ], ids=["cs-so4", "corollary_self(A6)", "A7xA7"])
    def test_pure_bracket_costs_one_gather(self, make, monkeypatch):
        gathers = []
        real = algebra._gather
        monkeypatch.setattr(algebra, "_gather", lambda *args: gathers.append(args) or real(*args))
        assert is_lie_lple(make()).passed
        assert len(gathers) == 1

    def test_cs_so4_passes_and_matches_triple(self, cs):
        assert is_lie_lple(cs).passed
        assert is_lie_lple(cs).passed == is_lie_triple(cs).passed

    def test_a4_fails_with_r0_component(self, a4):
        report = is_lie_lple(a4)
        assert not report.passed
        assert "r=0" in report.detail

    def test_even_arity_rejected(self, a5):
        with pytest.raises(Exception):
            is_lie_lple(a5)

    def test_arity_seven_passes_without_a_permutation_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("l-ple membership ran an isotypic sweep")

        monkeypatch.setattr(young, "_class_sums", refuse)
        assert is_lie_lple(corollary_self(builtin("A6"))).passed

    @pytest.mark.parametrize("l, d", [(3, 2), (3, 3), (3, 4), (5, 4), (5, 5), (5, 6)])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_purity_matches_the_isotypic_reference(self, l, d, data):
        # every mixture of the tensor's two-column components, so every
        # subset of components occurs
        t, coeffs = data.draw(block_skew_cases(l, d))
        n = (l + 3) // 2
        parts = [isotypic_project(t, range(1, l + 1), YoungShape(l, r)) for r in range(n - 1)]
        total = RationalTensor(t.shape)
        for part in parts:
            total = add(total, part)
        assert total == t
        live = [r for r, part in enumerate(parts) if not is_zero(part)]
        for size in range(len(live) + 1):
            for subset in itertools.combinations(live, size):
                mix = RationalTensor(t.shape)
                for r in subset:
                    mix = add(mix, scale(parts[r], coeffs[r]))
                assert _impure_component(mix, n) == least_impure_r(mix, l)

    @pytest.mark.parametrize("d, seed, r", [(5, (1, 2, 3, 4, 1, 2, 5, 1), 2),
                                            (6, (1, 2, 3, 4, 5, 6, 1, 2), 1)])
    def test_purity_at_arity_seven(self, d, seed, r):
        # the reference reads the isotypic projections of all shapes off one sweep
        t = block_skew(d, 7, {seed: 1})
        nonzero = [nz for _, nz, _ in classify_bracket(NaryAlgebra("t", d, 7, t))]
        assert _impure_component(t, 5) == next(k for k in range(3) if nonzero[k]) == r
