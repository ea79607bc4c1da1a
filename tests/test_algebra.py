import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import (
    AlgebraFileError,
    Metric,
    NaryAlgebra,
    RationalTensor,
    ShapeError,
    builtin,
    check_cyclic,
    check_derivation,
    check_filippov,
    check_full_antisym_lowered,
    check_generalized_metric_l,
    check_metricity,
    check_skew,
    check_symmetry_property,
    corollary_self,
    cyclic_sum,
    derivation_residual,
    direct_sum,
    filippov_residual,
    full_antisymmetrization,
    is_lie_lple,
    is_lie_nple,
    is_lie_triple,
    is_zero,
    levi_civita,
    load,
    save,
    scale,
    simple_filippov,
    zero_algebra,
)
from naryalg import algebra, linalg
from naryalg.algebra import (
    _mismatch_report,
    _zero_report,
    from_json_dict,
    to_json_dict,
)
from naryalg.tensor import _integral, add, antisymmetrize

from change_of_basis import (
    ORBIT_FIXTURES,
    block_skew_algebras,
    change_basis,
    metrics,
    perturb,
    perturbed_a4,
    shears,
)


class TestSimpleFilippov:
    def test_a4_top_entry(self, a4):
        assert a4.f.get((1, 2, 3, 4)) == 1

    def test_so3_brackets(self):
        a3 = simple_filippov(2, [1, 1, 1])
        assert a3.f.get((1, 2, 3)) == 1
        assert a3.f.get((2, 3, 1)) == 1
        assert a3.f.get((3, 1, 2)) == 1

    def test_lorentzian_sign_by_brute_force(self, a13):
        # oracle: f_{a1 a2 a3}^b = eta^{b a4} eps_{a1 a2 a3 a4}
        eps = levi_civita(4)
        eta = [-1, 1, 1, 1]
        for key in itertools.product(range(1, 5), repeat=4):
            expect = eta[key[3] - 1] * eps.get(key)
            assert a13.f.get(key) == expect
        assert a13.f.get((2, 3, 4, 1)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("minus", [0, 1])
    def test_axioms_exhaustive(self, n, minus):
        alg = simple_filippov(n, [-1] * minus + [1] * (n + 1 - minus))
        assert is_zero(filippov_residual(alg))
        assert check_skew(alg, range(1, n + 1)).passed
        assert check_metricity(alg).passed
        assert check_full_antisym_lowered(alg).passed


class TestDirectSum:
    def test_blocks(self, a4_sum_a4):
        assert a4_sum_a4.d == 8
        assert a4_sum_a4.f.get((1, 2, 3, 4)) == 1
        assert a4_sum_a4.f.get((5, 6, 7, 8)) == 1

    def test_mixed_entries_vanish(self, a4_sum_a4):
        for out in range(1, 9):
            assert a4_sum_a4.f.get((1, 2, 5, out)) == 0

    def test_zero_dimensional_summand_is_identity(self, a4):
        trivial = zero_algebra(0, 3)
        combined = direct_sum(a4, trivial)
        assert combined.f == a4.f
        assert combined.d == a4.d


def assert_reports_are_first_residual_entries(pairs):
    """check_derivation, and check_filippov on (L, L), against the
    materialized residual: same verdict, witness and residual."""
    for l1, l2 in pairs:
        full = derivation_residual(l1, l2)
        reports = [check_derivation(l1, l2)] + ([check_filippov(l1)] if l1 is l2 else [])
        for report in reports:
            expected = _zero_report(report.name, full.data)
            assert report.passed == expected.passed == is_zero(full)
            assert (report.witness, report.residual) == (expected.witness, expected.residual)
            if not report.passed:
                assert full.get(report.witness) == report.residual != 0


class TestFilippovIdentity:
    def test_zero_for_fixtures(self, a4, cs):
        assert is_zero(filippov_residual(a4))
        assert is_zero(filippov_residual(cs))
        assert is_zero(filippov_residual(zero_algebra(3, 3)))

    def test_perturbation_detected_with_witness(self):
        report = check_filippov(perturbed_a4())
        assert not report.passed
        assert report.witness is not None
        res = filippov_residual(perturbed_a4())
        assert res.get(report.witness) == report.residual != 0

    def test_span_path_agrees_with_full_residual(self, a4, cs, a4_sum_a4, a8):
        # the adjoint-span derivation check must agree with the materialized
        # residual, and check_derivation and check_filippov must give its
        # lexicographically first nonzero entry as the witness
        bad = perturbed_a4()
        assert_reports_are_first_residual_entries([
            (a4, a4), (cs, cs), (a4_sum_a4, a4_sum_a4), (bad, bad),
            (a4, cs), (a8, a4_sum_a4), (bad, cs), (a4, bad)])

    def test_span_route_is_guarded(self, a4, cs, monkeypatch):
        from naryalg import SizeGuardError

        # between the ad-span estimate of cs-so4 (6 x 4 x 4 = 96) and the
        # span check's estimate for (A4, cs-so4) (6 slices x 24 x 4 = 576)
        monkeypatch.setenv("NARY_SIZE_GUARD", "300")
        with pytest.raises(SizeGuardError, match="adjoint-span derivation check"):
            check_derivation(a4, cs)


@st.composite
def sparse_algebras(draw, d):
    """Arity 2-4 on Q^d with up to six random rational structure constants."""
    n = draw(st.integers(2, 4))
    keys = st.tuples(*[st.integers(1, d)] * (n + 1))
    values = st.builds(lambda p, q: _integral(Fraction(p, q)),
                       st.integers(-3, 3).filter(bool), st.integers(1, 3))
    data = draw(st.dictionaries(keys, values, max_size=6))
    return NaryAlgebra(f"random{n}", d, n, RationalTensor((d,) * (n + 1), data))


class TestDerivationReportDifferential:
    """The span check's report is the full residual's, on all ordered pairs."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(
        lambda d: st.lists(sparse_algebras(d), min_size=1, max_size=3)))
    def test_random_sparse_algebras(self, algebras):
        fixed = [perturbed_a4(), builtin("cs-so4")] if algebras[0].d == 4 else []
        assert_reports_are_first_residual_entries(itertools.product(algebras + fixed, repeat=2))

    def test_a4_sum_a4(self, a4_sum_a4):
        bad = perturb(a4_sum_a4, (5, 6, 7, 8), 3)
        assert_reports_are_first_residual_entries(itertools.product([a4_sum_a4, bad], repeat=2))


def lexicographic_sweep(L):
    """The adjoint span as a sweep over every ad row computes it."""
    d = L.d
    eb = linalg.EchelonBasis(d * d)
    reps = []
    for a_tuple, mrows in sorted(L.ad_rows().items()):
        vec = [0] * (d * d)
        for l, row in mrows.items():
            for s, val in row.items():
                vec[(l - 1) * d + (s - 1)] = val
        if eb.insert(vec):
            reps.append((a_tuple, mrows))
    return reps


def every_swap(rank, slots):
    """Moves exchanging each pair of adjacent listed (1-based) slots, none
    skipped: the full-swap reference for check_skew and fullanti."""
    slots = list(slots)
    moves = []
    for a, b in zip(slots, slots[1:]):
        move = list(range(rank))
        move[a - 1], move[b - 1] = b - 1, a - 1
        moves.append(move)
    return moves


def assert_orbit_routes(L):
    """orbit_part against a plain filter, and check_skew and fullanti against
    every swap, on every slot range and on three metrics."""
    for first, last in itertools.combinations_with_replacement(range(1, L.n + 1), 2):
        # runs cut to first..last, read straight off the full skew runs
        pairs = [s - 1 for lo, hi in L.skew_runs() for s in range(lo, hi)
                 if first <= s and s + 1 <= last]
        part = L.orbit_part(first, last)
        assert list(part.items()) == [(key, val) for key, val in L.f.data.items()
                                      if all(key[i] < key[i + 1] for i in pairs)]
        assert (part is L.f.data) == (not pairs)
        slots = range(first, last + 1)
        assert check_skew(L, slots) == _mismatch_report(L.f, "skew", every_swap(L.n + 1, slots), -1)
    for slots in ([L.n, 1], [1, 1, 2], range(L.n, 0, -1)):
        assert check_skew(L, slots) == _mismatch_report(L.f, "skew", every_swap(L.n + 1, slots), -1)
    for metric in metrics(L.d):
        every_slot = every_swap(L.n + 1, range(1, L.n + 2))
        assert check_full_antisym_lowered(L, metric) == _mismatch_report(
            L.lowered(metric), "fullanti", every_slot, -1)


class TestOrbitRoutes:
    """orbit_part is f at its block-sorted keys, and the scans that skip the
    swaps inside a skew run report what the scans over every swap report."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        for L in algebras:
            assert_orbit_routes(L)

    @pytest.mark.parametrize("make", ORBIT_FIXTURES.values(), ids=ORBIT_FIXTURES.keys())
    def test_fixtures(self, make):
        assert_orbit_routes(make())

    def test_runs_within(self):
        L = corollary_self(builtin("A6"))
        assert L.skew_runs() == ((1, 4), (5, 7))
        assert L.runs_within(1, 7) == L.skew_runs()
        assert L.runs_within(1, 4) == ((1, 4),)
        assert L.runs_within(3, 6) == ((3, 4), (5, 6))
        assert L.runs_within(5, 5) == ((5, 5),)

    def test_orbit_part_adds_no_cache_entry_without_a_run(self):
        L = perturbed_a4()
        assert L.orbit_part(1, 3) is L.f.data
        assert list(L._cache) == ["skew_runs"]


def pairwise_skew_runs(data: dict, n: int) -> tuple:
    """The skew runs by one pass over all of data per adjacent pair of input
    slots, each key with a < b looking up its partner: the scan skew_runs()
    replaced, kept as its reference."""
    def skew(k):
        ahead = 0
        for key, val in data.items():
            a, b = key[k], key[k + 1]
            if a < b:
                if data.get(key[:k] + (b, a) + key[k + 2:]) != -val:
                    return False
                ahead += 1
            elif a == b:
                return False
        return 2 * ahead == len(data)

    runs = [[1, 1]]
    for k in range(n - 1):
        if skew(k):
            runs[-1][1] = k + 2
        else:
            runs.append([k + 2, k + 2])
    return tuple(map(tuple, runs))


def filtered_part(data: dict, runs: tuple, first: int, last: int) -> dict:
    """data at the keys increasing inside each run cut to first..last, by one
    filter over all of data: the orbit_part that read no kept part."""
    pairs = [s - 1 for lo, hi in runs for s in range(lo, hi) if first <= s and s + 1 <= last]
    if not pairs:
        return data
    return {key: val for key, val in data.items() if all(key[i] < key[i + 1] for i in pairs)}


def assert_scan_is_pairwise(L):
    """skew_runs() and every orbit_part, in ascending and in descending order
    of the slot ranges, against the pairwise scan and the plain filter."""
    ranges = list(itertools.combinations_with_replacement(range(1, L.n + 1), 2))
    runs = pairwise_skew_runs(L.f.data, L.n)
    for order in (ranges, ranges[::-1]):
        fresh = NaryAlgebra(L.name, L.d, L.n, L.f, L.metric)
        for first, last in order:
            part, want = fresh.orbit_part(first, last), filtered_part(L.f.data, runs, first, last)
            assert list(part.items()) == list(want.items()), (L.name, first, last)
            assert (part is L.f.data) == (want is L.f.data)
        assert fresh.skew_runs() == runs


class CountingDict(dict):
    """A dict that counts its get and items calls."""

    def __init__(self, data):
        super().__init__(data)
        self.gets = self.scans = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)

    def items(self):
        self.scans += 1
        return super().items()


def counted(L) -> NaryAlgebra:
    return NaryAlgebra(L.name, L.d, L.n, RationalTensor._trusted(L.f.shape, CountingDict(L.f.data)))


def skew_in(d: int, n: int, runs, data: dict) -> NaryAlgebra:
    """The algebra on data antisymmetrized over each of runs in turn."""
    t = RationalTensor((d,) * (n + 1), data)
    for run in runs:
        t = antisymmetrize(t, run)
    return NaryAlgebra("hand", d, n, t)


HAND_CASES = {
    # slots 3, 4 repeat an index in keys the scan keeps for the pair
    "repeated": (lambda: skew_in(3, 4, [(1, 2, 3)], {(1, 2, 3, 3, 1): 1}), ((1, 3), (4, 4))),
    # (1, 2) has no partner (2, 1)
    "missing": (lambda: skew_in(2, 2, [], {(1, 2, 1): 1}), ((1, 1), (2, 2))),
    # every key with a < b finds its partner; only the counts differ
    "unpaired n=2": (lambda: skew_in(2, 2, [], {(1, 2, 1): 1, (2, 1, 1): -1, (2, 1, 2): 1}),
                     ((1, 1), (2, 2))),
    "unpaired n=4": (lambda: NaryAlgebra("hand", 5, 4, add(
        builtin("A5").f, skew_in(5, 4, [(1, 2, 3)], {(2, 3, 4, 1, 1): 1}).f)), ((1, 3), (4, 4))),
    "re-formed": (lambda: skew_in(4, 4, [(1, 2), (3, 4)], {(1, 2, 1, 3, 1): 1, (1, 3, 2, 4, 2): 2}),
                  ((1, 2), (3, 4))),
    "arity 2": (lambda: builtin("A3"), ((1, 2),)),
    "empty": (lambda: zero_algebra(4, 3), ((1, 3),)),
}


class TestShrinkingScan:
    """skew_runs() decides each pair of slots on the shrinking part, and
    orbit_part reads the part it leaves: the same runs and parts, in f's
    order, as the pairwise scan and the plain filter."""

    @pytest.mark.parametrize("name", ["A4", "A5", "A6", "A7", "A8", "cs-so4", "a4-sum-a4",
                                      "seven-leibniz", "zero(4,3)"])
    def test_builtins(self, name):
        assert_scan_is_pairwise(builtin(name))

    def test_corollary_self(self):
        assert_scan_is_pairwise(corollary_self(builtin("A5")))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras_and_their_shears(self, algebras):
        for L in algebras:
            assert_scan_is_pairwise(L)
            for P in shears(L.d):
                assert_scan_is_pairwise(change_basis(L, P))

    @pytest.mark.parametrize("name", HAND_CASES)
    def test_hand_cases(self, name):
        make, runs = HAND_CASES[name]
        L = make()
        assert L.skew_runs() == runs
        assert_scan_is_pairwise(L)

    @pytest.mark.parametrize("name, lookups, pairwise", [("A7", 6_825, 12_600),
                                                         ("A8", 54_768, 120_960)])
    def test_partner_lookups(self, name, lookups, pairwise):
        L = counted(builtin(name))
        L.skew_runs()
        assert L.f.data.gets == lookups
        data = CountingDict(L.f.data)
        pairwise_skew_runs(data, L.n)
        assert data.gets == pairwise

    def test_parts_on_slots_1_to_n_read_the_kept_part(self, a8, seven_leibniz, cs):
        for L in (counted(a8), counted(seven_leibniz), counted(cs)):
            L.skew_runs()
            scans = L.f.data.scans
            L.orbit_part(1, L.n - 1)
            L.orbit_part(1, L.n)
            assert L.f.data.scans == scans


class TestBlockRoute:
    """The FI, derivation and span checks on block-sorted keys give the
    reports and spans of the full sweeps."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        assert any(hi > lo for lo, hi in algebras[0].skew_runs())
        assert_reports_are_first_residual_entries(itertools.product(algebras, repeat=2))
        for L in algebras:
            assert L.ad_span() == lexicographic_sweep(L)

    @pytest.mark.parametrize("fixture", ["a8", "seven_leibniz", "cs", "corollary_self(A5)"])
    def test_ad_span_is_the_full_sweep(self, fixture, request):
        if fixture == "corollary_self(A5)":
            L = corollary_self(builtin("A5"))
        else:
            L = request.getfixturevalue(fixture)
        assert L.ad_span() == lexicographic_sweep(L)
        if L.d < 8:
            # a shear makes f dense while keeping every skew run
            for P in shears(L.d):
                sheared = change_basis(L, P)
                assert sheared.skew_runs() == L.skew_runs()
                assert sheared.ad_span() == lexicographic_sweep(sheared)

    def test_skew_runs(self, a8, seven_leibniz, cs):
        assert a8.skew_runs() == ((1, 7),)
        assert seven_leibniz.skew_runs() == ((1, 6), (7, 7))
        assert cs.skew_runs() == ((1, 2), (3, 3))
        assert corollary_self(builtin("A6")).skew_runs() == ((1, 4), (5, 7))
        assert perturbed_a4().skew_runs() == ((1, 1), (2, 2), (3, 3))

    def test_report_reads_one_entry_per_orbit(self, monkeypatch, seven_leibniz, a8, a4_sum_a4):
        sizes = []
        real = algebra._derivation_terms

        def counted(entries, *args):
            sizes.append(len(entries))
            return real(entries, *args)

        monkeypatch.setattr(algebra, "_derivation_terms", counted)
        # fresh copies: check_filippov answers a second call from its memo
        seven, a6 = (NaryAlgebra(L.name, L.d, L.n, L.f, L.metric)
                     for L in (seven_leibniz, builtin("A6")))
        # nnz over the size of one orbit of the skew runs' permutations
        for check, entries in ((lambda: check_filippov(seven), 17_280 // 720),
                               (lambda: check_derivation(a8, a4_sum_a4), 40_320 // 5_040),
                               (lambda: check_filippov(a6), 720 // 120)):
            sizes.clear()
            assert check().passed
            assert sizes and set(sizes) == {entries}
        # no skew run of two or more slots: every input is block-sorted
        sizes.clear()
        assert not check_filippov(perturbed_a4()).passed
        assert set(sizes) == {perturbed_a4().f.nnz}


class TestSkew:
    def test_a5_fully_skew(self, a5):
        assert check_skew(a5, range(1, 5)).passed

    def test_cs_first_two(self, cs):
        assert check_skew(cs, [1, 2]).passed

    def test_cs_full_range_fails_with_witness(self, cs):
        report = check_skew(cs, [1, 2, 3])
        assert not report.passed
        assert report.witness == (1, 2, 1, 2)

    @pytest.mark.parametrize("slots", [[], [0, 1], [1, 4], [4, 2]])
    def test_slots_outside_the_inputs_rejected(self, cs, slots):
        with pytest.raises(ShapeError, match="not within 1..3"):
            check_skew(cs, slots)


class TestMetricity:
    def test_a4(self, a4):
        assert check_metricity(a4).passed

    def test_cs(self, cs):
        assert check_metricity(cs).passed

    def test_symmetric_tensor_fails(self):
        # f_{ab}^c = delta_{ab} delta^{c1} on d=2: lowered form is symmetric
        data = {(1, 1, 1): 1, (2, 2, 1): 1}
        bad = NaryAlgebra("bad", 2, 2, RationalTensor((2, 2, 2), data), Metric.euclidean(2))
        report = check_metricity(bad)
        assert not report.passed
        assert report.witness == (1, 1, 1)

    def test_lowered_cache_is_keyed_by_metric_value(self):
        from naryalg import builtin

        a4 = builtin("A4")
        false_passes = 0
        for _ in range(1000):
            assert check_metricity(a4, Metric.euclidean(4)).passed
            false_passes += check_metricity(a4, Metric.lorentzian(1, 3)).passed
        assert false_passes == 0
        assert hash(Metric.euclidean(4)) == hash(Metric.diag([1, 1, 1, 1]))


    @pytest.mark.parametrize("metric, text", [
        (Metric.diag([1, -1]), "Metric.diag([1, -1])"),
        (Metric([[0, 1], [1, 0]]), "Metric(((0, 1), (1, 0)))"),
    ], ids=["diagonal", "dense"])
    def test_repr_evaluates_to_an_equal_metric(self, metric, text):
        assert repr(metric) == text
        assert eval(text, {"Metric": Metric}) == metric


class TestFullAntisymLowered:
    def test_a4(self, a4):
        assert check_full_antisym_lowered(a4).passed

    def test_cs_fails_at_pair_swap(self, cs):
        report = check_full_antisym_lowered(cs)
        assert not report.passed
        assert report.witness == (1, 2, 1, 2)

    def test_zero_algebra_passes(self):
        assert check_full_antisym_lowered(zero_algebra(3, 3)).passed


class TestSymmetryProperty:
    def test_a4(self, a4):
        assert check_symmetry_property(a4).passed

    def test_cs(self, cs):
        assert check_symmetry_property(cs).passed

    def test_any_metric_filippov(self, a5):
        # full antisymmetry makes the pair swap an even permutation
        assert check_symmetry_property(a5).passed

    def test_arity_two_rejected(self):
        with pytest.raises(Exception):
            check_symmetry_property(simple_filippov(2, [1, 1, 1]))


class TestGeneralizedMetric:
    def test_cs_so4_is_an_l3_case(self, cs):
        assert check_generalized_metric_l(cs).passed

    def test_even_arity_rejected(self, a5):
        with pytest.raises(Exception):
            check_generalized_metric_l(a5)


class TestCyclicAndTriple:
    def test_cs_cyclic_sum_vanishes(self, cs):
        assert is_zero(cyclic_sum(cs))

    def test_a4_full_antisymmetrization_is_six_f(self, a4):
        assert full_antisymmetrization(a4) == scale(a4.f, 6)

    def test_cs_is_triple(self, cs):
        assert is_lie_triple(cs).passed

    def test_a4_fails_cyclic_property(self, a4):
        # the cyclic rotation of three slots is even, so the cyclic sum of a
        # totally antisymmetric bracket is 3f != 0
        assert cyclic_sum(a4) == scale(a4.f, 3)
        report = is_lie_triple(a4)
        assert not report.passed
        assert report.detail == "failed cyclic"
        assert report.witness is not None

    def test_cyclic_iff_full_antisymmetrization_at_n3(self, a4, cs):
        for alg in (a4, cs):
            assert is_zero(cyclic_sum(alg)) == is_zero(full_antisymmetrization(alg))

    def test_cyclic_iff_full_antisymmetrization_at_n7(self, seven_leibniz):
        assert is_zero(cyclic_sum(seven_leibniz))
        assert is_zero(full_antisymmetrization(seven_leibniz))

    def test_nple_arity3_matches_triple(self, a4, cs, a13, a4_sum_a4):
        # at l = 3 both generalizations reduce to Lie triple systems
        skew_kept = perturb(perturb(cs, (1, 2, 3, 4), 1), (2, 1, 3, 4), -1)
        assert check_skew(skew_kept, (1, 2)).passed
        assert not is_zero(cyclic_sum(skew_kept))
        cases = (a4, cs, zero_algebra(4, 3), a13, a4_sum_a4, corollary_self(a4), skew_kept)
        verdicts = [is_lie_triple(alg).passed for alg in cases]
        assert verdicts == [False, True, True, False, False, True, False]
        for alg, triple in zip(cases, verdicts):
            assert is_lie_nple(alg).passed == triple
            assert is_lie_lple(alg).passed == triple


def assert_cyclic_report_is_the_sums(L):
    """check_cyclic reports the first nonzero entry of cyclic_sum(L)."""
    # a fresh copy: check_cyclic answers a second call from its memo
    fresh = NaryAlgebra(L.name, L.d, L.n, L.f, L.metric)
    assert check_cyclic(fresh) == _zero_report("cyclic", cyclic_sum(L).data)


class TestRotationLeastCyclic:
    """The cyclic verdict at rotation-least keys is the full cyclic sum's."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4]).flatmap(block_skew_algebras))
    def test_block_skew_algebras(self, algebras):
        for L in algebras:
            assert_cyclic_report_is_the_sums(L)

    @pytest.mark.parametrize("n, entries", [
        (3, {(1, 1, 1, 2): 1}),                          # stabilizer of order 3
        (4, {(1, 2, 1, 2, 1): 1}),                       # order 2
        (4, {(2, 1, 2, 1, 1): Fraction(1, 2), (1, 2, 1, 2, 1): 1, (1, 1, 2, 2, 2): -1}),
        (4, {(2, 1, 2, 1, 1): 1, (1, 2, 1, 2, 1): -1}),  # the orbit cancels
        (2, {(2, 2, 1): 3, (1, 2, 2): 1, (2, 1, 2): -1}),
    ])
    def test_inputs_with_a_rotation_stabilizer(self, n, entries):
        L = NaryAlgebra("stabilized", 2, n, RationalTensor((2,) * (n + 1), entries))
        assert_cyclic_report_is_the_sums(L)

    def test_fixtures(self, a4, a5, cs, a4_sum_a4, seven_leibniz, a8):
        for L in (a4, a5, cs, a4_sum_a4, seven_leibniz, a8, perturbed_a4(),
                  perturb(seven_leibniz, (1, 2, 3, 4, 5, 6, 7, 8), 1)):
            assert_cyclic_report_is_the_sums(L)


class TestImplication:
    def test_symmetry_plus_first_block_skew_imply_metricity(self, a4, a5, cs, a4_sum_a4):
        for alg in (a4, a5, cs, a4_sum_a4):
            sym = check_symmetry_property(alg).passed
            skew = check_skew(alg, range(1, alg.n)).passed
            if sym and skew:
                assert check_metricity(alg).passed


class TestFileFormat:
    def test_round_trip(self, tmp_path, a4, cs, a13):
        for alg in (a4, cs, a13):
            path = tmp_path / f"{alg.name}.json"
            save(alg, path)
            assert load(path) == alg

    def test_loaded_values_are_ints_where_integral(self, tmp_path, a4, cs):
        scaled = NaryAlgebra(
            "A4-scaled", 4, 3,
            RationalTensor(a4.f.shape, {k: v * Fraction(3, 2) * (k[0] % 2 + 1)
                                        for k, v in a4.f.data.items()}),
            Metric([[Fraction(i + 1, 2) if i == j else 0 for j in range(4)] for i in range(4)]),
        )
        for alg in (a4, cs, scaled):
            path = tmp_path / "in.json"
            save(alg, path)
            loaded = load(path)
            for val in [*loaded.f.data.values(), *sum(loaded.metric.entries, ())]:
                assert type(val) is (int if val.denominator == 1 else Fraction)
            again = tmp_path / "again.json"
            save(loaded, again)
            assert again.read_bytes() == path.read_bytes()
        assert {type(v) for v in load(path).f.data.values()} == {int, Fraction}

    def test_verified_survives_round_trip(self, tmp_path, a4):
        path = tmp_path / "a4.json"
        check_filippov(a4)
        save(a4, path)
        assert "verified" not in to_json_dict(a4)
        loaded = load(path)
        assert loaded.verified is True
        loaded.verified = False
        save(loaded, path)
        assert load(path).verified is False

    def test_non_boolean_verified_rejected(self):
        obj = {"name": "x", "dim": 2, "arity": 2, "verified": "no", "entries": []}
        with pytest.raises(AlgebraFileError):
            from_json_dict(obj)

    def test_boolean_index_rejected(self):
        obj = {"name": "x", "dim": 2, "arity": 2,
               "entries": [{"in": [True, 2], "out": 1, "val": "1"}]}
        with pytest.raises(AlgebraFileError):
            from_json_dict(obj)

    @pytest.mark.parametrize("field, value", [
        ("dim", True), ("arity", True), ("metric", {"diag": [True, 1]}),
    ])
    def test_boolean_size_rejected(self, field, value):
        obj = {"name": "x", "dim": 2, "arity": 2, "entries": []}
        obj[field] = value
        with pytest.raises(AlgebraFileError):
            from_json_dict(obj)

    def test_zero_index_rejected(self):
        obj = {"name": "x", "dim": 2, "arity": 2,
               "entries": [{"in": [0, 1], "out": 1, "val": "1"}]}
        with pytest.raises(AlgebraFileError):
            from_json_dict(obj)

    def test_duplicate_entry_rejected(self):
        ent = {"in": [1, 2], "out": 1, "val": "1"}
        obj = {"name": "x", "dim": 2, "arity": 2, "entries": [ent, dict(ent)]}
        with pytest.raises(AlgebraFileError):
            from_json_dict(obj)

    def test_malformed_value_rejected(self):
        for bad in ("1.5", "1/0"):
            obj = {"name": "x", "dim": 2, "arity": 2,
                   "entries": [{"in": [1, 2], "out": 1, "val": bad}]}
            with pytest.raises(AlgebraFileError):
                from_json_dict(obj)

    def test_omitted_entries_are_zero(self):
        obj = {"name": "x", "dim": 2, "arity": 2, "entries": []}
        assert is_zero(from_json_dict(obj).f)

    def test_serialization_is_deterministic(self, a4):
        assert to_json_dict(a4) == to_json_dict(a4)


class TestSampledFI:
    def test_passes_on_fixture(self, a4):
        from naryalg import filippov_sampled

        assert filippov_sampled(a4, samples=500, seed=7).passed

    def test_detects_perturbation(self):
        from naryalg import filippov_sampled

        report = filippov_sampled(perturbed_a4(), samples=4000, seed=7)
        assert not report.passed
