import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import (
    ConstructionError,
    ConstructionInput,
    Metric,
    NaryAlgebra,
    RationalTensor,
    ShapeError,
    UnknownFixtureError,
    associated_leibniz,
    builtin,
    check_cs3,
    check_filippov,
    check_generalized_metric_l,
    check_metricity,
    check_skew,
    contract,
    corollary_cs3,
    corollary_self,
    derivation_residual,
    direct_sum,
    epsilon_pair_form,
    is_lie_triple,
    is_zero,
    mixed_trace,
    raise_lower,
    scale,
    schouten_residual,
    simple_filippov,
    so_rotation_generators,
    trace_form,
    triple_from_lie,
    zero_algebra,
)

from naryalg import construct
from naryalg.tensor import OrbitTensor

from change_of_basis import block_skew_algebras, change_basis, metrics, perturbed_a4, shears
from helpers import expansion


def non_metric_3leibniz(d=2):
    # f_{a1 a2 b}^c = delta_{a1 a2} delta_b^c: fails metricity
    data = {}
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            data[(a, a, b, b)] = 1
    return NaryAlgebra("bad-cs", d, 3, RationalTensor((d,) * 4, data), Metric.euclidean(d))


class TestDerivationResidual:
    def test_self_pairing_is_the_fi(self, a4, a5):
        for L in (a4, a5):
            assert is_zero(derivation_residual(L, L))

    def test_a4_with_cs_so4(self, a4, cs):
        assert is_zero(derivation_residual(a4, cs))

    def test_metric_3_leibniz_derives_a5(self, a5):
        # A_4 plus a central direction is metric on the 5-dim space of A_5
        ext = builtin("A4")
        from naryalg import direct_sum

        h = direct_sum(ext, zero_algebra(1, 3))
        assert is_zero(derivation_residual(a5, h))

    def test_nonzero_for_non_derivation(self, a4):
        bad = non_metric_3leibniz(4)
        assert not is_zero(derivation_residual(a4, bad))


class TestSchouten:
    def test_cs_so4_instance(self, cs):
        assert is_zero(schouten_residual(cs))

    def test_holds_even_without_metricity_assumption(self):
        # the identity is pure pigeonhole: any h works once its trace term
        # is kept, including this non-antisymmetric one
        bad = non_metric_3leibniz(3)
        assert is_zero(schouten_residual(bad))


class TestAssociatedLeibniz:
    def test_a4_a4_values_and_half_scaling(self, a4, cs):
        out = associated_leibniz(ConstructionInput(a4, a4, a4.metric))
        assert out.n == 3
        low = out.lowered()
        assert low.get((1, 2, 1, 2)) == -2
        # the lowered constants are exactly the mixed trace tensor
        assert low == mixed_trace(a4, a4).tensor
        # half-scaled construction reproduces the cs-so4 bracket
        half = associated_leibniz(ConstructionInput(a4, a4, a4.metric, Fraction(1, 2)))
        assert half.f == cs.f

    def test_bracket_is_the_raised_mixed_trace_for_any_metric(self, a4, cs, a13):
        # g and its inverse cancel inside Tr(ad1 ad2), so the lowered bracket
        # is the scaled mixed trace form whatever the metric
        dense = Metric([[2, 1, 0, 0], [1, 3, 0, Fraction(1, 2)],
                        [0, 0, -1, 0], [0, Fraction(1, 2), 0, 5]])
        assert not dense.is_diagonal
        pairs = ((a4, cs, Fraction(1, 2)), (cs, a4, Fraction(3, 7)),
                 (a13, a4, 1), (perturbed_a4(), cs, -2))
        for g in (Metric.lorentzian(1, 3), dense):
            for l1, l2, p in pairs:
                out = associated_leibniz(ConstructionInput(l1, l2, g, Fraction(p)), force=True)
                assert out.lowered(g) == scale(mixed_trace(l1, l2).tensor, p)

    def test_postconditions_small_pairs(self, a4, a5):
        for L in (a4, a5):
            out = associated_leibniz(ConstructionInput(L, L, L.metric))
            assert check_filippov(out).passed
            assert check_metricity(out).passed

    def test_rejection_carries_failing_report(self, a4):
        bad = non_metric_3leibniz(4)
        with pytest.raises(ConstructionError) as exc:
            associated_leibniz(ConstructionInput(a4, bad, Metric.euclidean(4)))
        assert exc.value.report.witness is not None

    def test_force_skips_checks_and_marks_output(self, a4, tmp_path):
        from naryalg import load, save

        bad = non_metric_3leibniz(4)
        out = associated_leibniz(ConstructionInput(a4, bad, Metric.euclidean(4)), force=True)
        assert out.verified is False
        assert associated_leibniz(ConstructionInput(a4, a4, a4.metric)).verified is True
        path = tmp_path / "forced.json"
        save(out, path)
        assert load(path).verified is False


def plain_bracket(l1, l2, metric, prefactor):
    """The reference bracket from every entry of f and h: their contraction,
    scaled, with its last slot raised."""
    n, m = l1.n, l2.n
    glow = scale(contract(l1.f, (n, n + 1), l2.f, (m + 1, m)), prefactor)
    return raise_lower(glow, n + m - 2, metric, "raise")


def assert_is_the_plain_bracket(l1, l2):
    """The orbit bracket equals the reference on every entry, for every metric
    and prefactor, and its rows stream exactly its sorted entries."""
    for metric in metrics(l1.d):
        for p in (0, 1, Fraction(-3, 7)):
            out = associated_leibniz(ConstructionInput(l1, l2, metric, Fraction(p)), force=True)
            plain = plain_bracket(l1, l2, metric, p)
            assert isinstance(out.f, OrbitTensor)
            # nnz is exact and read from the orbits alone
            assert out.f.nnz == len(plain.data) and out.f._data is None
            assert expansion(out.f) == sorted(plain.data.items())
            assert out.f == plain
            assert all(type(v) is (int if v.denominator == 1 else Fraction)
                       for v in out.f.data.values())


class TestOrbitBracket:
    """associated_leibniz contracts one entry of f and of the raised, scaled
    h per orbit; its expansion is the plain construction on every entry."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(
        lambda d: st.tuples(block_skew_algebras(d), block_skew_algebras(d))))
    def test_block_skew_algebras(self, drawn):
        # sparse random pairs mostly contract to nothing; dense partners
        # on the same space make most brackets nonzero
        d = drawn[0][0].d
        partners = [builtin("A3")] if d == 3 else [builtin("A4"), builtin("cs-so4")]
        for l1, l2 in itertools.chain(itertools.product(*drawn),
                                      itertools.product(drawn[0], partners),
                                      itertools.product(partners, drawn[1])):
            if l1.n + l2.n - 3 >= 2:
                assert_is_the_plain_bracket(l1, l2)

    @pytest.mark.parametrize("name", ["A4", "cs-so4", "A5"])
    def test_shears(self, name):
        L = builtin(name)
        for P in shears(L.d):
            sheared = change_basis(L, P)
            assert_is_the_plain_bracket(sheared, sheared)
            assert_is_the_plain_bracket(L, sheared)

    def test_arity_two_second_factor(self, a4):
        so3 = direct_sum(builtin("A3"), zero_algebra(1, 2))
        assert so3.n == 2
        assert_is_the_plain_bracket(a4, so3)
        assert_is_the_plain_bracket(builtin("A5"), direct_sum(so3, zero_algebra(1, 2)))

    def test_run_less_inputs(self, a4, cs):
        bent = perturbed_a4()
        assert bent.skew_runs() == ((1, 1), (2, 2), (3, 3))
        for l1, l2 in ((bent, bent), (bent, a4), (a4, bent), (cs, bent)):
            assert_is_the_plain_bracket(l1, l2)

    def test_repr_expands_nothing(self):
        a7 = builtin("A7")
        out = associated_leibniz(ConstructionInput(a7, a7, a7.metric))
        assert repr(out) == "NaryAlgebra('assoc(A7,A7)', d=7, n=9, nnz=302400)"
        assert repr(out.f) == f"RationalTensor(shape={(7,) * 10}, nnz=302400)"
        assert out.f._data is None and out.f.orbits.nnz == 105

    def test_runs(self, a6, seven_leibniz):
        # X's runs, Y's runs within h's slots 1..m-2, and the output slot
        out = associated_leibniz(ConstructionInput(a6, a6, a6.metric))
        assert out.f.runs == ((1, 4), (5, 7), (8, 8))
        assert seven_leibniz.f.runs == ((1, 6), (7, 7), (8, 8))


class TestCorollaries:
    def test_self_a4_is_twice_cs_so4(self, a4, cs):
        out = corollary_self(a4)
        assert out.f == scale(cs.f, 2)
        assert check_generalized_metric_l(out).passed

    def test_self_a5_is_generalized_metric(self, a5):
        out = corollary_self(a5)
        assert out.n == 5
        assert check_generalized_metric_l(out).passed

    def test_cs3_with_a4_matches_self(self, a4):
        assert corollary_cs3(a4, a4).f == corollary_self(a4).f

    def test_cs3_against_metric_3lie_kills_full_antisymmetrization(self, a4):
        from naryalg import full_antisymmetrization

        assert is_zero(full_antisymmetrization(corollary_cs3(a4, a4)))

    def test_cs3_output_is_skew_in_first_block(self, a4):
        out = corollary_cs3(a4, a4)
        assert check_skew(out, range(1, out.n)).passed

    def test_a5_with_padded_a4(self, a5):
        from naryalg import direct_sum, full_antisymmetrization

        cs3 = direct_sum(builtin("A4"), zero_algebra(1, 3))
        out = corollary_cs3(a5, cs3)
        assert out.n == 4
        assert check_filippov(out).passed
        assert check_metricity(out).passed
        # metric 3-Lie second factor forces vanishing full antisymmetrization
        assert is_zero(full_antisymmetrization(out))

    def test_cs3_rejects_bad_second_factor(self, a5):
        with pytest.raises(ConstructionError):
            corollary_cs3(a5, non_metric_3leibniz(5))


class TestCheckCS3:
    def test_fixtures(self, a4, cs):
        assert check_cs3(a4).passed
        assert check_cs3(cs).passed
        assert not check_cs3(non_metric_3leibniz(3)).passed

    def test_wrong_arity(self, a5):
        assert not check_cs3(a5).passed


class TestTripleFromLie:
    def test_half_killing_gives_cs_so4(self, cs):
        gens = so_rotation_generators(4)
        out = triple_from_lie(gens, trace_form(gens, Fraction(1, 2)), Metric.euclidean(4))
        assert out.f == cs.f
        assert is_lie_triple(out).passed

    def test_epsilon_form_gives_a4(self, a4):
        gens = so_rotation_generators(4)
        out = triple_from_lie(gens, epsilon_pair_form(4), Metric.euclidean(4))
        assert out.f == a4.f

    @pytest.mark.parametrize("d", [5, 13])
    def test_epsilon_form_off_d4_is_empty_without_the_symbol(self, d, monkeypatch):
        # levi_civita(13) has 13! entries, over the size guard
        monkeypatch.setattr(construct, "levi_civita", lambda d: pytest.fail("built eps"))
        assert epsilon_pair_form(d) == {}

    def test_zero_form_gives_abelian(self):
        gens = so_rotation_generators(4)
        out = triple_from_lie(gens, {}, Metric.euclidean(4))
        assert is_zero(out.f)

    def test_asymmetric_form_rejected(self):
        gens = so_rotation_generators(4)
        form = {((1, 2), (1, 3)): Fraction(1)}
        with pytest.raises(Exception):
            triple_from_lie(gens, form, Metric.euclidean(4))

    def test_form_labels_must_be_pairs_in_range(self):
        gens = so_rotation_generators(4)
        for label in ((2, 1), (1, 5), (3, 3), (0, 1), (1, 2, 3)):
            with pytest.raises(ShapeError, match="not a pair"):
                triple_from_lie(gens, {(label, label): 1}, Metric.euclidean(4))

    def test_entries_extend_the_form_antisymmetrically(self):
        gens = so_rotation_generators(4)
        form = {((1, 2), (1, 2)): 3, ((1, 3), (2, 4)): Fraction(-1, 2),
                ((2, 4), (1, 3)): Fraction(-1, 2)}
        out = triple_from_lie(gens, form, Metric.euclidean(4))
        # reference: every index tuple, read through its sorted pairs
        expect = {}
        for a1, a2, b1, b2 in itertools.product(range(1, 5), repeat=4):
            p, q = tuple(sorted((a1, a2))), tuple(sorted((b1, b2)))
            if (p, q) in form:
                sign = (1 if a1 < a2 else -1) * (1 if b1 < b2 else -1)
                expect[(a1, a2, b1, b2)] = sign * form[(p, q)]
        assert out.f.data == expect

    def test_non_orthogonal_generator_rejected(self):
        gens = {(1, 2): [[1, 0], [0, 0]]}
        with pytest.raises(Exception):
            triple_from_lie(gens, {}, Metric.euclidean(2))


class TestBuiltins:
    def test_names(self):
        assert builtin("A4").name == "A4"
        assert builtin("A1+3").name == "A1+3"
        assert builtin("cs-so4").name == "cs-so4"
        assert builtin("a4-sum-a4").d == 8
        assert builtin("zero(4,3)").d == 4

    def test_a4_equals_simple_filippov(self):
        assert builtin("A4") == simple_filippov(3, [1, 1, 1, 1])

    def test_cs_so4_passes_triple(self, cs):
        assert is_lie_triple(cs).passed

    def test_seven_leibniz_equals_corollary(self, seven_leibniz, a8, a4_sum_a4):
        rebuilt = corollary_cs3(a8, a4_sum_a4, Metric.euclidean(8))
        assert seven_leibniz.f == rebuilt.f

    def test_unknown_name(self):
        with pytest.raises(UnknownFixtureError):
            builtin("B12")


class TestSevenLeibnizSparsity:
    def test_mixed_ideal_pairs_vanish(self, seven_leibniz):
        # the last two bracket slots cannot sit in different ideals
        for key in seven_leibniz.f.data:
            c7, c8 = key[6], key[7]
            assert (c7 <= 4) == (c8 <= 4)
