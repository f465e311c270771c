from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpositivity.errors import Degenerate, NotPolynomial
from qpositivity.landau import (
    LandauVerdict,
    _descending_tuples,
    _holds,
    b_table_size,
    canonicalize,
    enumerate_tuples,
    floor_sum,
    landau_check,
)
from qpositivity.qfactor import TupleSpec, ratio_exponents, scaled_ratios

sides = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(
    lambda v: tuple(sorted(v, reverse=True))
)
tuple_specs = st.builds(TupleSpec, sides, sides)
wide_sides = st.lists(st.integers(1, 40), min_size=1, max_size=4).map(
    lambda v: tuple(sorted(v, reverse=True))
)


def reference_landau(t: TupleSpec) -> LandauVerdict:
    """The criterion by the rational route: every k/d over all entries, sorted.

    Kept as an independent oracle for landau_check, which visits only the
    denominator breakpoints, unsorted and in integers.
    """
    points = sorted({Fraction(k, d) for d in (*t.a, *t.b) for k in range(d)})
    min_value, min_point = 0, Fraction(0)
    for x in points:
        v = floor_sum(t, x)
        if v < min_value:
            min_value, min_point = v, x
    if min_value < 0:
        return LandauVerdict(holds=False, witness=min_point, min_value=min_value)
    drop = t.sum_b - t.sum_a
    if drop <= 0:
        return LandauVerdict(holds=True, witness=None, min_value=min_value)
    shifts = min_value // drop + 1
    return LandauVerdict(
        holds=False, witness=min_point + shifts, min_value=min_value - shifts * drop
    )


class TestFloorSum:
    def test_zero_at_origin(self):
        for t in (TupleSpec((2,), (1, 1)), TupleSpec((1, 1), (2,))):
            assert floor_sum(t, Fraction(0)) == 0

    def test_known_point(self):
        assert floor_sum(TupleSpec((1, 1), (2,)), Fraction(1, 2)) == -1

    def test_integer_points_measure_imbalance(self):
        t = TupleSpec((3,), (1, 1))
        for k in range(4):
            assert floor_sum(t, Fraction(k)) == k * (t.sum_a - t.sum_b)


class TestLandauCheck:
    def test_super_catalan_holds(self):
        assert landau_check(TupleSpec((2, 2), (1, 2, 1))).holds

    def test_central_binomial_holds(self):
        v = landau_check(TupleSpec((2,), (1, 1)))
        assert v.holds and v.witness is None and v.min_value == 0

    def test_known_failure(self):
        v = landau_check(TupleSpec((1, 1), (2,)))
        assert not v.holds
        assert v.witness == Fraction(1, 2)
        assert v.min_value == -1

    def test_big_tuple_holds(self):
        assert landau_check(TupleSpec((30, 1), (15, 10, 6))).holds

    def test_sum_deficient_side_fails_beyond_first_period(self):
        v = landau_check(TupleSpec((1,), (1, 1)))
        assert not v.holds
        assert v.witness == 1
        assert v.min_value == -1

    def test_verdict_consistency(self):
        # holds <=> no witness <=> min_value >= 0
        for t in (
            TupleSpec((4,), (3, 1)),
            TupleSpec((5, 2), (4, 2, 1)),
            TupleSpec((2, 1), (3,)),
        ):
            v = landau_check(t)
            assert v.holds == (v.witness is None) == (v.min_value >= 0)


@given(st.one_of(tuple_specs, st.builds(TupleSpec, wide_sides, wide_sides)))
@example(TupleSpec((2,), (1, 1, 1)))  # sum-deficient, f >= 0 on [0, 1)
@example(TupleSpec((3,), (2, 2)))  # sum-deficient, f < 0 on [0, 1)
@example(TupleSpec((9, 6), (8, 7)))  # f = -1 first at 1/7, also at 5/8, 3/4, 7/8
def test_verdict_matches_rational_reference(t):
    # balanced, unbalanced and sum-deficient pairs alike
    assert landau_check(t) == reference_landau(t)


@given(tuple_specs)
def test_failing_witness_actually_goes_negative(t):
    v = landau_check(t)
    if v.holds:
        return
    assert floor_sum(t, v.witness) == v.min_value
    assert v.min_value < 0


@given(tuple_specs)
def test_witness_denominator_divides_an_entry(t):
    v = landau_check(t)
    if v.witness is None:
        return
    d = v.witness.denominator
    assert any(x % d == 0 for x in (*t.a, *t.b))


@settings(max_examples=60)
@given(tuple_specs)
def test_holding_verdict_spot_checked_on_a_grid(t):
    # independent of the breakpoint shortcut: entries are at most 9, so a
    # grid with denominator lcm(1..9) = 2520 hits every jump point of f
    v = landau_check(t)
    if not v.holds:
        return
    den = 2520
    assert all(floor_sum(t, Fraction(k, den)) >= 0 for k in range(2 * den + 1))


@settings(max_examples=60)
@given(tuple_specs, st.integers(1, 6))
def test_verdict_matches_scaled_cyclotomic_exponents(t, n):
    holds = landau_check(t).holds
    if holds:
        assert min(ratio_exponents(t.scaled(n)).values(), default=0) >= 0


@given(tuple_specs)
def test_decide_only_scan_matches_verdict(t):
    holds = landau_check(t).holds
    assert _holds(t.a, t.b) == holds
    # the scan order follows b's, so an ascending b must not change the verdict
    assert _holds(t.a, t.b[::-1]) == holds


class TestDecideOnly:
    def test_known_failure(self):
        assert not _holds((1, 1), (2,))

    def test_big_tuple_holds(self):
        assert _holds((30, 1), (15, 10, 6))

    def test_sum_deficient_pair_fails(self):
        # f >= 0 on the first period; the deficit shows only beyond it
        assert not _holds((2,), (1, 1, 1))


class TestCanonicalize:
    def test_multiset_cancellation(self):
        c = canonicalize(TupleSpec((2, 3, 2), (3, 1, 2)))
        assert c.spec == TupleSpec((2,), (1,))

    def test_sorts_descending(self):
        c = canonicalize(TupleSpec((2, 4), (1, 2, 3)))
        assert c.spec == TupleSpec((4,), (3, 1))

    def test_fully_cancelling_is_degenerate(self):
        with pytest.raises(Degenerate) as info:
            canonicalize(TupleSpec((2,), (2,)))
        assert info.value.canonical == TupleSpec((1,), (1,))

    def test_last_pair_kept_when_a_side_would_empty(self):
        c = canonicalize(TupleSpec((4, 2), (2,)))
        assert c.spec == TupleSpec((4, 2), (2,))
        assert not c.primitive

    def test_kept_pair_is_the_smallest_common_entry(self):
        c = canonicalize(TupleSpec((5, 3), (5, 3, 2)))
        assert c.spec == TupleSpec((3,), (3, 2))

    def test_padding_free_verdict_for_extra_unit_denominator(self):
        # b exceeds a by a single 1, so every scaled ratio is 1/[n]!.
        c = canonicalize(TupleSpec((1,), (1, 1)))
        assert c.spec == TupleSpec((1,), (1, 1))
        assert not landau_check(c.spec).holds

    def test_primitivity_flag(self):
        assert canonicalize(TupleSpec((3,), (2, 1))).primitive
        assert not canonicalize(TupleSpec((4,), (2, 2))).primitive


@given(tuple_specs)
def test_landau_invariant_under_canonicalization(t):
    try:
        c = canonicalize(t)
    except Degenerate:
        assert landau_check(t).holds
        return
    assert landau_check(t).holds == landau_check(c.spec).holds


class TestEnumerate:
    def test_b_table_size_counts_the_table(self):
        for r in range(1, 6):
            for s in range(1, 7):
                for bound in range(2, 26):
                    table = _descending_tuples(s, bound, bound - r)
                    assert b_table_size(r, s, bound) == sum(1 for _ in table), (r, s, bound)
        # enumerate-landau's search, the (4,5) and (5,6) censuses, and one far past them
        sizes = [b_table_size(*case) for case in ((2, 3, 30), (4, 5, 64), (5, 6, 64))]
        assert sizes == [785, 92_785, 203_177]
        assert b_table_size(11, 12, 64) == 951_529

    def test_small_balanced_family(self):
        ts = list(enumerate_tuples(1, 2, 4, balanced_only=True))
        assert ts == [
            TupleSpec((2,), (1, 1)),
            TupleSpec((3,), (2, 1)),
            TupleSpec((4,), (3, 1)),
        ]

    def test_imprimitive_pairs_are_filtered_out(self):
        ts = list(enumerate_tuples(1, 2, 4, balanced_only=True))
        assert TupleSpec((4,), (2, 2)) not in ts
        assert TupleSpec((2,), (1, 1)) in ts

    def test_minimal_bound(self):
        assert list(enumerate_tuples(1, 2, 2, balanced_only=True)) == [TupleSpec((2,), (1, 1))]

    def test_all_outputs_are_canonical_and_pass(self):
        for t in enumerate_tuples(2, 3, 8, balanced_only=True):
            assert t.a == tuple(sorted(t.a, reverse=True))
            assert t.b == tuple(sorted(t.b, reverse=True))
            assert not set(t.a) & set(t.b)
            assert landau_check(t).holds

    def test_lexicographic_order_without_duplicates(self):
        ts = enumerate_tuples(1, 2, 10, balanced_only=True)
        keys = [(t.a, t.b) for t in ts]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_unbalanced_mode_allows_smaller_denominator_sums(self):
        ts = list(enumerate_tuples(1, 1, 4, balanced_only=False))
        assert TupleSpec((3,), (2,)) in ts  # [3n]!/[2n]! is always a polynomial
        assert all(t.sum_b <= t.sum_a for t in ts)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            enumerate_tuples(0, 1, 4, balanced_only=True)
        with pytest.raises(ValueError):
            enumerate_tuples(1, 1, 1, balanced_only=True)

    @pytest.mark.parametrize("r, s", [(1, 2), (2, 3)])
    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("primitive", [True, False])
    def test_matches_brute_force_through_reference(self, r, s, balanced, primitive):
        # every disjoint descending pair with both sums <= 14, no pruning at all
        top = 14

        def descending(size):
            return combinations_with_replacement(range(top, 0, -1), size)

        passing = set()
        for a in descending(r):
            for b in descending(s):
                if sum(a) > top or sum(b) > top or set(a) & set(b):
                    continue
                if balanced and sum(a) != sum(b):
                    continue
                if primitive and gcd(*a, *b) != 1:
                    continue
                if reference_landau(TupleSpec(a, b)).holds:
                    passing.add((a, b))
        for bound in range(2, top + 1):
            expected = sorted(p for p in passing if sum(p[0]) <= bound)
            got = list(enumerate_tuples(r, s, bound, balanced))
            assert got == sorted(got)
            if not primitive:
                # the criterion is invariant under scaling, so the filtered-out
                # pairs are exactly the scale-ups of the primitive ones
                got = sorted(t.scaled(g) for t in got for g in range(1, bound // t.sum_a + 1))
            assert [(t.a, t.b) for t in got] == expected

    def test_enumerated_tuples_sweep_cleanly(self):
        ts = list(enumerate_tuples(1, 2, 6, balanced_only=True))
        ts += enumerate_tuples(2, 3, 6, balanced_only=True)
        for t in ts:
            try:
                list(scaled_ratios(t, 10))
            except NotPolynomial as exc:  # pragma: no cover - would be a bug
                pytest.fail(f"enumerated tuple {t} failed to sweep: {exc}")


def _desc(*entries):
    return tuple(sorted(entries, reverse=True))


def bober_family(t: TupleSpec) -> str:
    """The family of a balanced canonical pair, by arithmetic on its entries alone.

    binomial: (x+y)/(x, y); A: (2x, 2y)/(x, y, x+y); B: (2x, y)/(x, 2y, x-y)
    with x > y; anything else is sporadic.
    """
    a, b = t.a, t.b
    if len(a) == 1 and len(b) == 2 and a[0] == sum(b):
        return "binomial"
    if len(a) == 2 and len(b) == 3:
        if a[0] % 2 == 0 and a[1] % 2 == 0:
            x, y = a[0] // 2, a[1] // 2
            if b == _desc(x, y, x + y):
                return "A"
        for two_x, y in ((a[0], a[1]), (a[1], a[0])):
            x = two_x // 2
            if two_x % 2 == 0 and x > y and b == _desc(x, 2 * y, x - y):
                return "B"
    return "sporadic"


def _coprime_pairs(largest):
    return [(x, y) for x in range(1, largest + 1) for y in range(1, x + 1) if gcd(x, y) == 1]


# Bober's sporadic ratios with |b| = |a| + 1, as (a, b), in enumeration order.
SPORADIC_2_3 = (
    ((9, 1), (5, 3, 2)), ((9, 2), (6, 4, 1)), ((9, 4), (8, 3, 2)), ((10, 6), (9, 5, 2)),
    ((12, 1), (6, 4, 3)), ((12, 1), (8, 3, 2)), ((12, 2), (7, 4, 3)), ((12, 2), (9, 4, 1)),
    ((12, 3), (6, 5, 4)), ((12, 3), (8, 6, 1)), ((12, 5), (10, 4, 3)), ((14, 1), (7, 5, 3)),
    ((14, 3), (9, 7, 1)), ((15, 1), (8, 5, 3)), ((15, 1), (9, 5, 2)), ((15, 2), (10, 4, 3)),
    ((15, 2), (10, 6, 1)), ((15, 4), (8, 6, 5)), ((15, 4), (12, 5, 2)), ((15, 7), (14, 5, 3)),
    ((18, 1), (9, 6, 4)), ((18, 2), (9, 6, 5)), ((18, 4), (12, 9, 1)), ((20, 1), (10, 7, 4)),
    ((20, 1), (10, 8, 3)), ((20, 3), (10, 9, 4)), ((20, 3), (12, 10, 1)), ((24, 1), (12, 8, 5)),
    ((30, 1), (15, 10, 6)),
)
SPORADIC_3_4 = (
    ((10, 6, 1), (7, 5, 3, 2)), ((12, 3, 2), (6, 6, 4, 1)), ((14, 6, 4), (12, 7, 3, 2)),
    ((15, 6, 1), (12, 5, 3, 2)), ((18, 3, 2), (9, 7, 6, 1)), ((18, 4, 3), (9, 8, 6, 2)),
    ((18, 5, 3), (10, 9, 6, 1)), ((20, 3, 2), (10, 8, 6, 1)), ((20, 6, 1), (12, 10, 3, 2)),
    ((20, 7, 2), (14, 10, 4, 1)), ((20, 9, 6), (18, 10, 4, 3)), ((24, 4, 1), (12, 8, 7, 2)),
    ((24, 4, 3), (12, 9, 8, 2)), ((24, 5, 2), (12, 10, 8, 1)), ((24, 7, 4), (14, 12, 8, 1)),
    ((30, 3, 2), (15, 10, 6, 4)), ((30, 5, 3), (15, 10, 7, 6)), ((30, 5, 3), (15, 12, 10, 1)),
    ((30, 5, 4), (15, 10, 8, 6)), ((30, 5, 4), (15, 12, 10, 2)), ((30, 9, 5), (18, 15, 10, 1)),
)
SPORADIC_4_5 = (((24, 9, 6, 4), (18, 12, 8, 3, 2)), ((30, 5, 3, 2), (15, 10, 8, 6, 1)))
SPORADIC = SPORADIC_2_3 + SPORADIC_3_4 + SPORADIC_4_5


class TestBoberCensus:
    """An oracle from outside the code: Bober's classification of integral
    factorial ratios (J. Bober, "Factorial ratios, hypergeometric series, and a
    family of step functions", J. London Math. Soc. 79, 2009), building on
    Beukers and Heckman (Invent. Math. 95, 1989).  A balanced ratio with
    r + s = 3 is a binomial coefficient; one with (r, s) = (2, 3) lies in the
    two-parameter family A or B or is one of finitely many sporadic ratios.

    The families are generated here from their parameters (coprime x >= y for
    the binomial family; coprime x > y with x != 2y for A and B, which keeps
    the two sides disjoint) and must appear in the enumeration; what is left
    over is the sporadic part.

    Bober counts 52 sporadic ratios in all.  The enumerations here find 29 with
    (r, s) = (2, 3) to sum 40, 21 with (3, 4) to sum 48 and 2 with (4, 5) to
    sum 44 (every (3, 4) and (4, 5) pair is sporadic), and 29 + 21 + 2 = 52, so
    the census is closed: no larger sum bound can add one.
    """

    def test_one_by_two_is_the_binomial_family(self):
        got = list(enumerate_tuples(1, 2, 30, balanced_only=True))
        assert {bober_family(t) for t in got} == {"binomial"}
        family = {TupleSpec((x + y,), (x, y)) for x, y in _coprime_pairs(29) if x + y <= 30}
        assert set(got) == family

    def test_two_by_three_census(self):
        out = list(enumerate_tuples(2, 3, 40, balanced_only=True))
        assert len(set(out)) == len(out)
        got = set(out)
        census = Counter(bober_family(t) for t in got)
        assert census == {"A": 62, "B": 78, "sporadic": 29}
        pairs = [(x, y) for x, y in _coprime_pairs(40) if x > y and x != 2 * y]
        family_a = {TupleSpec((2 * x, 2 * y), _desc(x, y, x + y)) for x, y in pairs}
        family_b = {TupleSpec((2 * x, y), _desc(x, 2 * y, x - y)) for x, y in pairs}
        assert {t for t in got if bober_family(t) == "A"} == {
            t for t in family_a if t.sum_a <= 40
        }
        # (6, 2)/(4, 3, 1) is A at (3, 1) and B at (3, 2); it counts as A
        assert family_a & family_b == {TupleSpec((6, 2), (4, 3, 1))}
        assert {t for t in got if bober_family(t) == "B"} == {
            t for t in family_b - family_a if t.sum_a <= 40
        }
        sporadic = [t for t in got if bober_family(t) == "sporadic"]
        assert max(sporadic, key=lambda t: t.sum_a) == TupleSpec((30, 1), (15, 10, 6))
        assert sorted(sporadic) == [TupleSpec(a, b) for a, b in SPORADIC_2_3]

    def test_three_by_four_census(self):
        got = enumerate_tuples(3, 4, 48, balanced_only=True)
        assert [(t.a, t.b) for t in got] == list(SPORADIC_3_4)

    def test_four_by_five_census(self):
        got = enumerate_tuples(4, 5, 44, balanced_only=True)
        assert [(t.a, t.b) for t in got] == list(SPORADIC_4_5)

    def test_sporadic_total_is_bobers(self):
        assert (len(SPORADIC_2_3), len(SPORADIC_3_4), len(SPORADIC_4_5)) == (29, 21, 2)
        assert 29 + 21 + 2 == len(set(SPORADIC)) == 52

    def test_pinned_ratios_are_integral_by_plain_factorials(self):
        # math.factorial alone: no code of the package is involved
        for a, b in SPORADIC:
            assert len(b) == len(a) + 1 and sum(a) == sum(b)
            assert not set(a) & set(b) and gcd(*a, *b) == 1
            for n in range(1, 5):
                num = prod(factorial(n * x) for x in a)
                den = prod(factorial(n * x) for x in b)
                assert num % den == 0, (a, b, n)

    def test_no_negative_coefficient_on_the_sporadic_census(self):
        # the paper's positivity conjecture on all 52; README records n <= 20
        for a, b in SPORADIC:
            for n, poly in enumerate(scaled_ratios(TupleSpec(a, b), 8), start=1):
                assert min(poly.coeffs) >= 0, (a, b, n)
