import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import (
    FundamentalObject,
    NaryAlgebra,
    ad_kernel,
    ad_matrix,
    ad_of_sum,
    basis_object,
    builtin,
    centre,
    compose,
    compose_sums,
    corollary_self,
    direct_sum,
    kasymov,
    kasymov_nondegenerate,
    lie_closure,
    nondegenerate,
    simple_filippov,
    zero_algebra,
)
from naryalg import forms, linalg
from naryalg.tensor import SizeGuardError

from change_of_basis import ORBIT_FIXTURES, block_skew_algebras, change_basis, perturbed_a4, shears
from helpers import commutator, mat_is_zero, transpose
from test_algebra import lexicographic_sweep


def random_object(L, rng):
    comps = tuple(
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(L.d))
        for _ in range(L.n - 1)
    )
    return FundamentalObject(comps)


class TestAdMatrix:
    def test_a4_e1e2_action(self, a4):
        mat = ad_matrix(a4, basis_object(a4, (1, 2)))
        # ad e3 = e4, ad e4 = -e3, ad e1 = ad e2 = 0
        assert [row[2] for row in mat] == [0, 0, 0, 1]
        assert [row[3] for row in mat] == [0, 0, -1, 0]
        assert all(row[0] == 0 for row in mat)
        assert all(row[1] == 0 for row in mat)

    def test_zero_component_gives_zero_matrix(self, a4):
        x = FundamentalObject(((1, 0, 0, 0), (0, 0, 0, 0)))
        assert mat_is_zero(ad_matrix(a4, x))

    def test_cs_so4_reproduces_rotation(self, cs):
        from naryalg import so_rotation_generators

        mat = ad_matrix(cs, basis_object(cs, (1, 2)))
        assert mat == so_rotation_generators(4)[(1, 2)]


class TestCompose:
    def test_so3_single_slot_reduces_to_bracket(self):
        a3 = simple_filippov(2, [1, 1, 1])
        terms = compose(a3, basis_object(a3, (1,)), basis_object(a3, (2,)))
        assert len(terms) == 1
        coeff, obj = terms[0]
        assert coeff == 1
        assert obj.components == ((0, 0, 1),)  # e3

    def test_zero_component_gives_empty_sum(self, a4):
        x = FundamentalObject(((0, 0, 0, 0), (0, 0, 0, 0)))
        y = basis_object(a4, (3, 4))
        assert compose(a4, x, y) == []

    def test_a4_example_terms(self, a4):
        x = basis_object(a4, (1, 2))
        y = basis_object(a4, (3, 4))
        terms = compose(a4, x, y)
        # (ad e3, e4) + (e3, ad e4) = ((e4, e4)) + ((e3, -e3))
        assert [t.components for _, t in terms] == [
            ((0, 0, 0, 1), (0, 0, 0, 1)),
            ((0, 0, 1, 0), (0, 0, -1, 0)),
        ]


class TestEndRelation:
    @pytest.mark.parametrize("fixture", ["a4", "a5"])
    def test_assoc_on_basis_objects(self, fixture, request):
        L = request.getfixturevalue(fixture)
        import itertools

        pairs = list(itertools.combinations(itertools.combinations(range(1, L.d + 1), L.n - 1), 2))
        for idx, idy in pairs[:12]:
            x, y = basis_object(L, idx), basis_object(L, idy)
            lhs = commutator(ad_matrix(L, x), ad_matrix(L, y))
            rhs = ad_of_sum(L, compose(L, x, y))
            assert lhs == rhs

    def test_assoc_on_random_objects(self, a4):
        rng = random.Random(20)
        for _ in range(5):
            x, y = random_object(a4, rng), random_object(a4, rng)
            lhs = commutator(ad_matrix(a4, x), ad_matrix(a4, y))
            assert lhs == ad_of_sum(a4, compose(a4, x, y))

    def test_commutator_antisymmetry(self, a4):
        rng = random.Random(21)
        x, y = random_object(a4, rng), random_object(a4, rng)
        lhs = ad_of_sum(a4, compose(a4, x, y))
        rhs = ad_of_sum(a4, compose(a4, y, x))
        assert lhs == [[-x for x in row] for row in rhs]

    def test_empty_sum_is_zero_matrix(self, a4):
        assert mat_is_zero(ad_of_sum(a4, []))

    @pytest.mark.parametrize("fixture", ["a4", "a5"])
    def test_non_associativity_identity(self, fixture, request):
        # X.(Y.Z) - (X.Y).Z = Y.(X.Z) at the level of ad images
        L = request.getfixturevalue(fixture)
        rng = random.Random(22)
        x = [(1, random_object(L, rng))]
        y = [(1, random_object(L, rng))]
        z = [(1, random_object(L, rng))]
        x_yz = compose_sums(L, x, compose_sums(L, y, z))
        xy_z = compose_sums(L, compose_sums(L, x, y), z)
        lhs = ad_of_sum(L, x_yz + [(-c, t) for c, t in xy_z])
        rhs = ad_of_sum(L, compose_sums(L, y, compose_sums(L, x, z)))
        assert lhs == rhs


class TestClosure:
    def test_simple_algebra_dims(self, a4, a5, a6):
        assert lie_closure(a4).dim == 6
        assert lie_closure(a5).dim == 10
        assert lie_closure(a6).dim == 15

    def test_zero_algebra(self):
        assert lie_closure(zero_algebra(3, 3)).dim == 0

    def test_euclidean_closure_is_antisymmetric(self, a4, a5):
        # M^T G + G M = 0 with G the euclidean metric
        for L in (a4, a5):
            G = L.metric.entries
            for mat in lie_closure(L).basis:
                minus_gm = [[-x for x in row] for row in linalg.mat_mul(G, mat)]
                assert linalg.mat_mul(transpose(mat), G) == minus_gm

    @pytest.mark.parametrize("n", [3, 4])
    def test_so_dual_identity(self, n):
        # L_{b1 b2} = -1/(n-1)! eps_{b1 b2}^{a1..a_{n-1}} ad_{a1..a_{n-1}}
        # must act as L_{b1 b2} e_c = -(d_{b1 c} e_{b2} - d_{b2 c} e_{b1})
        import itertools
        import math

        from naryalg import levi_civita
        from naryalg.adjoint import basis_ad_matrix

        L = simple_filippov(n, [1] * (n + 1))
        eps = levi_civita(n + 1)
        d = n + 1
        for b1, b2 in itertools.permutations(range(1, d + 1), 2):
            acc = linalg.zeros_matrix(d)
            for a in itertools.product(range(1, d + 1), repeat=n - 1):
                coeff = eps.get((b1, b2) + a)
                if coeff:
                    coeff = Fraction(-coeff, math.factorial(n - 1))
                    for row, ad_row in zip(acc, basis_ad_matrix(L, a)):
                        for j, val in enumerate(ad_row):
                            row[j] += coeff * val
            expect = linalg.zeros_matrix(d)
            expect[b2 - 1][b1 - 1] = -1
            expect[b1 - 1][b2 - 1] = 1
            assert acc == expect


def closure_over_all_generators(L):
    """Reference lie_closure: inserts the ad matrices of all basis tuples."""
    d = L.d
    eb = linalg.EchelonBasis(d * d)
    basis = []

    def insert(mat):
        if eb.insert([mat[i][j] for i in range(d) for j in range(d)]):
            basis.append(mat)
            return True
        return False

    rows = L.ad_rows()
    for indices in sorted(rows):
        mat = linalg.zeros_matrix(d)
        for b, row in rows[indices].items():
            for c, val in row.items():
                mat[c - 1][b - 1] = val
        insert(mat)
    from_generators = len(basis)
    frontier = list(range(len(basis)))
    while frontier:
        fresh = []
        for i in frontier:
            for j in range(len(basis)):
                if i == j:
                    continue
                comm = commutator(basis[i], basis[j])
                if not mat_is_zero(comm) and insert(comm):
                    fresh.append(len(basis) - 1)
        frontier = fresh
    return basis, from_generators


class TestClosureFromSpan:
    """lie_closure starts from the cached adjoint span, with the same result."""

    @pytest.mark.parametrize("name", ["A4", "A5", "A6", "cs-so4", "A1+3"])
    def test_same_as_all_generators(self, name):
        from naryalg import builtin

        L = builtin(name)
        closure = lie_closure(L)
        assert (closure.basis, closure.from_generators) == closure_over_all_generators(L)
        assert closure.from_generators == len(L.ad_span())

    def test_span_is_computed_once(self, monkeypatch):
        from naryalg import builtin

        L = builtin("A4")
        inserts = []
        real = linalg.EchelonBasis.insert

        def counted(self, vec):
            inserts.append(len(vec))
            return real(self, vec)

        monkeypatch.setattr(linalg.EchelonBasis, "insert", counted)
        lie_closure(L)
        first = len(inserts)
        lie_closure(L)
        # only the first call eliminates ad matrices: those of the 6 sorted
        # basis pairs i < j, not of all 12 ordered pairs
        assert len(L.ad_rows()) == 12
        assert first - (len(inserts) - first) == 6


def kasymov_rank_over_every_group(L):
    """Reference kasymov_nondegenerate for forms too large to build: the same
    columns, streamed for every A' = (a2..a_{n-1}) grouped from ad_rows()."""
    groups = {}
    for a_tuple, arows in L.ad_rows().items():
        groups.setdefault(a_tuple[1:], []).append((a_tuple[0], arows))

    def columns():
        for rest in sorted(groups):
            for _, brows in L.ad_span():
                col = [0] * L.d
                for first, arows in groups[rest]:
                    col[first - 1] = forms._trace_product(arows, brows)
                yield col

    return forms._rank_report(columns(), L.d)


def assert_orbit_adjoint_layer(L, kasymov_reference):
    """The ad span, the Kasymov rank test and the sparse closure against their
    full references; the first two never group all of f."""
    L = NaryAlgebra(L.name, L.d, L.n, L.f, L.metric)  # a fresh cache
    span, report, closure = L.ad_span(), kasymov_nondegenerate(L), lie_closure(L)
    assert "ad_rows" not in L._cache
    assert span == lexicographic_sweep(L)
    assert report == kasymov_reference(L)
    assert (closure.basis, closure.from_generators) == closure_over_all_generators(L)
    assert closure.dim == len(closure.basis)


def materialized_kasymov_rank(L):
    return nondegenerate(kasymov(L))


class TestOrbitAdjointLayer:
    """The adjoint layer built from block-sorted entries and sparse products
    gives the spans, verdicts and closures of the full sweeps."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        for L in algebras:
            assert_orbit_adjoint_layer(L, materialized_kasymov_rank)

    @pytest.mark.parametrize("make", [
        lambda: change_basis(builtin("A4"), shears(4)[0]),
        lambda: change_basis(builtin("A4"), shears(4)[1]),
        lambda: builtin("cs-so4"), lambda: corollary_self(builtin("A5")), perturbed_a4,
    ], ids=["A4-shear1", "A4-shear2", "cs-so4", "corollary_self(A5)", "perturbed-A4"])
    def test_fixtures(self, make):
        assert_orbit_adjoint_layer(make(), materialized_kasymov_rank)

    @pytest.mark.parametrize("fixture", ["a8", "seven_leibniz"])
    def test_large_fixtures(self, fixture, request):
        # their Kasymov forms have 14.5 M and 6.2 M entries: the reference
        # streams the same columns over every ad_rows() group instead
        assert_orbit_adjoint_layer(request.getfixturevalue(fixture),
                                   kasymov_rank_over_every_group)

    def test_commutator_rounds(self):
        # perturbed A4 is the fixture whose commutators leave the span of its
        # generators, so its closure depends on the frontier rounds
        closure = lie_closure(perturbed_a4())
        assert (closure.dim, closure.from_generators) == (15, 7)


class TestKernel:
    def test_a4_kernel_is_symmetric_part(self, a4):
        labels, basis = ad_kernel(a4)
        assert len(basis) == 10  # dim Sym^2 of a 4-space
        pos = {lab: i for i, lab in enumerate(labels)}
        for vec in basis:
            for (i, j) in labels:
                assert vec[pos[(i, j)]] == vec[pos[(j, i)]]

    def test_abelian_kernel_is_everything(self):
        labels, basis = ad_kernel(zero_algebra(3, 3))
        assert len(basis) == 9

    def test_central_summand_enters_kernel(self, a4):
        L = direct_sum(a4, zero_algebra(1, 3))
        labels, basis = ad_kernel(L)
        pos = {lab: i for i, lab in enumerate(labels)}
        # (e5, e1) maps to the zero endomorphism, so some kernel vector
        # involves the central generator
        span_cols = {lab for vec in basis for lab in labels if vec[pos[lab]] != 0}
        assert any(5 in lab for lab in span_cols)
        # and the whole span of pairs touching e5 lies in the kernel
        eb = linalg.EchelonBasis(len(labels))
        for vec in basis:
            eb.insert(vec)
        probe = [0] * len(labels)
        probe[pos[(5, 1)]] = 1
        assert not eb.insert(probe)

    def test_size_guard(self, a8):
        with pytest.raises(SizeGuardError):
            ad_kernel(a8)

    def test_size_guard_follows_the_environment(self, a4, monkeypatch):
        # 16 unknowns and 12 equations, one per (b, c) with b != c:
        # 16 * (12 + 16) = 448 dense entries
        monkeypatch.setenv("NARY_SIZE_GUARD", "447")
        with pytest.raises(SizeGuardError, match="kernel"):
            ad_kernel(a4)
        monkeypatch.setenv("NARY_SIZE_GUARD", "448")
        assert len(ad_kernel(a4)[1]) == 10

    def test_a7_is_within_the_default_guard(self, monkeypatch):
        # 7^5 = 16,807 unknowns; the elimination itself is stubbed out
        monkeypatch.delenv("NARY_SIZE_GUARD", raising=False)
        monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols: [])
        labels, vectors = ad_kernel(builtin("A7"))
        assert (len(labels), vectors) == (7 ** 5, [])


class TestCentre:
    def test_simple_algebra_has_trivial_centre(self, a4):
        assert centre(a4) == []

    def test_abelian_centre_is_everything(self):
        assert len(centre(zero_algebra(4, 3))) == 4

    def test_central_summand(self, a4):
        L = direct_sum(a4, zero_algebra(1, 3))
        basis = centre(L)
        assert len(basis) == 1
        assert basis[0][4] != 0
        assert all(basis[0][i] == 0 for i in range(4))


def dense_centre(L):
    """Reference centre: one dense equation per head (A, s) over all of f, in
    sorted order."""
    d = L.d
    rows = {}
    for key, val in L.f.data.items():
        rows.setdefault(key[:-2] + key[-1:], [0] * d)[key[-2] - 1] += val
    return linalg.nullspace([rows[k] for k in sorted(rows)], d)


def assert_centre_is_dense(L):
    L = NaryAlgebra(L.name, L.d, L.n, L.f, L.metric)  # a fresh cache
    basis, expected = centre(L), dense_centre(L)
    assert basis == expected
    assert [list(map(type, vec)) for vec in basis] == [list(map(type, vec)) for vec in expected]
    assert "ad_rows" not in L._cache


class TestCentreOnSpan:
    """The centre solved on the ad span members' equations is the kernel of
    the equations of every head."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        for L in algebras:
            assert_centre_is_dense(L)

    @pytest.mark.parametrize("make", ORBIT_FIXTURES.values(), ids=ORBIT_FIXTURES.keys())
    def test_fixtures(self, make):
        assert_centre_is_dense(make())

    def test_guard_counts_the_span_equations(self, monkeypatch):
        # A4's span has the 6 pairs i < j, each ad matrix nonzero in 2 rows:
        # 4 * (12 + 4) = 64 dense entries (4 * (24 + 4) over all 24 heads)
        L = builtin("A4")
        L.ad_span()
        monkeypatch.setenv("NARY_SIZE_GUARD", "63")
        with pytest.raises(SizeGuardError, match=r"kernel\(A4\): 64 exceeds size guard 63"):
            centre(L)
        monkeypatch.setenv("NARY_SIZE_GUARD", "64")
        assert centre(L) == []
