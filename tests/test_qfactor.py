import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpositivity import identities, landau, qfactor
from qpositivity.errors import NotPolynomial
from qpositivity.polyring import IntPoly, cyclotomic, to_image
from qpositivity.qfactor import (
    TupleSpec,
    classical_ratio,
    d_polynomial,
    d_polynomial_naive,
    q_binomial,
    q_factorial,
    ratio_chain,
    ratio_exponents,
    scaled_ratios,
)

entry = st.integers(1, 10)
tuple_specs = st.builds(
    TupleSpec,
    st.lists(entry, min_size=1, max_size=3).map(lambda v: tuple(sorted(v, reverse=True))),
    st.lists(entry, min_size=1, max_size=3).map(lambda v: tuple(sorted(v, reverse=True))),
)
# b_j <= a_j entry by entry: a polynomial for every n, and unbalanced unless a == b
dominated_specs = st.lists(st.tuples(entry, entry), min_size=1, max_size=3).map(
    lambda pairs: TupleSpec(
        tuple(sorted((max(p) for p in pairs), reverse=True)),
        tuple(sorted((min(p) for p in pairs), reverse=True)),
    )
)


class TestTupleSpec:
    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            TupleSpec((), (1,))
        with pytest.raises(ValueError):
            TupleSpec((1,), ())

    def test_rejects_non_positive_entries(self):
        with pytest.raises(ValueError):
            TupleSpec((1, 0), (1,))
        with pytest.raises(ValueError):
            TupleSpec((2,), (-1,))

    def test_scaled(self):
        t = TupleSpec((2, 1), (3,))
        assert t.scaled(4) == TupleSpec((8, 4), (12,))
        assert t.scaled(1) == t

    def test_sums(self):
        t = TupleSpec((30, 1), (15, 10, 6))
        assert t.sum_a == 31
        assert t.sum_b == 31
        assert t.max_entry == 30

    def test_sides_are_coerced_to_tuples(self):
        t = TupleSpec([2, 1], [3])
        assert t.a == (2, 1)
        assert t.b == (3,)

    def test_pickle_round_trip(self):
        t = TupleSpec((30, 1), (15, 10, 6))
        back = pickle.loads(pickle.dumps(t))
        assert back == t
        assert type(back) is TupleSpec

    def test_repr(self):
        assert repr(TupleSpec([2, 1], [3])) == "TupleSpec(a=(2, 1), b=(3,))"

    def test_ordered_by_a_then_b(self):
        ts = [TupleSpec((3,), (1, 1)), TupleSpec((2,), (1, 1)), TupleSpec((3,), (2,))]
        assert sorted(ts) == [ts[1], ts[0], ts[2]]


# Each record type of the package: a maker of one instance, a field name,
# and whether it hashes.
RECORDS = {
    "TupleSpec": (lambda: TupleSpec([2, 1], [3]), "a", True),
    "LandauVerdict": (lambda: landau.landau_check(TupleSpec((2,), (1, 1, 1))), "witness", True),
    "CanonicalTuple": (lambda: landau.canonicalize(TupleSpec((6, 2), (4, 3, 1, 2))), "spec", True),
    "PositivityReport": (lambda: identities.positivity_report(IntPoly([1, -1, 1])), "degree", True),
}


@pytest.mark.parametrize("make, field, hashable", RECORDS.values(), ids=list(RECORDS))
class TestRecords:
    def test_attributes_cannot_be_assigned(self, make, field, hashable):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_give_equal_records(self, make, field, hashable):
        assert make() == make()
        if hashable:
            assert hash(make()) == hash(make())


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0) == IntPoly.one()

    def test_three(self):
        assert q_factorial(3) == IntPoly([1, 2, 2, 1])

    def test_at_one_is_factorial(self):
        for n in range(9):
            assert q_factorial(n).evaluate(1) == math.factorial(n)

    def test_degree(self):
        for n in range(12):
            assert q_factorial(n).degree == n * (n - 1) // 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial(-1)


class TestQInteger:
    """[n]_q = 1 + q + ... + q^(n-1), reached as the quotient [n]!/[n-1]!."""

    @staticmethod
    def quotient(n):
        return q_factorial(n).divide_exact(q_factorial(n - 1))

    def test_values(self):
        assert self.quotient(1) == IntPoly([1])
        assert self.quotient(3) == IntPoly([1, 1, 1])
        for n in range(1, 12):
            assert self.quotient(n) == IntPoly((1,) * n)

    def test_at_one(self):
        assert self.quotient(4).evaluate(1) == 4
        for n in range(1, 12):
            assert self.quotient(n).evaluate(1) == n


class TestQBinomial:
    def test_four_choose_two(self):
        assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])

    def test_edge_cases(self):
        assert q_binomial(5, 0) == IntPoly.one()
        assert q_binomial(3, 5) == IntPoly.zero()
        assert q_binomial(3, -1) == IntPoly.zero()

    def test_at_one_is_binomial(self):
        for n in range(31):
            for m in range(n + 1):
                assert q_binomial(n, m).evaluate(1) == math.comb(n, m)

    def test_symmetry_in_m(self):
        for n in range(31):
            for m in range(n + 1):
                assert q_binomial(n, m) == q_binomial(n, n - m)

    def test_degree(self):
        for n in range(16):
            for m in range(n + 1):
                assert q_binomial(n, m).degree == m * (n - m)

    def test_coefficients_symmetric_and_unimodal(self):
        for n in range(21):
            for m in range(n + 1):
                cs = q_binomial(n, m).coeffs
                assert cs == cs[::-1], (n, m)
                mid = len(cs) // 2
                assert all(cs[i] <= cs[i + 1] for i in range(mid)), (n, m)

    def test_agrees_with_factorial_ratio(self):
        for n in range(1, 16):
            for m in range(1, n):
                t = TupleSpec((n,), (n - m, m))
                assert q_binomial(n, m) == d_polynomial(t), (n, m)

    def test_deep_triangle_does_not_recurse(self, monkeypatch):
        monkeypatch.setattr(identities, "_IMAGES", {})
        n = sys.getrecursionlimit() + 200
        image = to_image(IntPoly((1,) * n).coeffs, 64)
        assert identities._binomial_image(n, 1, 64) == image
        assert identities._binomial_image(n, n - 1, 64) == image

    @pytest.mark.parametrize("seed", range(5))
    def test_fill_is_independent_of_request_order(self, monkeypatch, seed):
        monkeypatch.setattr(identities, "_IMAGES", {})
        pairs = [(n, m) for n in range(2, 22) for m in range(1, n)]
        random.Random(seed).shuffle(pairs)
        for n, m in pairs:
            image = to_image(d_polynomial(TupleSpec((n,), (m, n - m))).coeffs, 64)
            assert identities._binomial_image(n, m, 64) == image, (n, m)


class TestRatioExponents:
    def test_central_binomial(self):
        assert ratio_exponents(TupleSpec((4,), (2, 2))) == {3: 1, 4: 1}

    def test_identical_tuples(self):
        assert ratio_exponents(TupleSpec((7,), (7,))) == {}

    def test_negative_exponent(self):
        assert ratio_exponents(TupleSpec((1, 1), (2,))) == {2: -1}

    def test_formula(self):
        t = TupleSpec((6, 5), (4, 3, 2))
        e = ratio_exponents(t)
        for ell in range(2, 7):
            expected = sum(x // ell for x in t.a) - sum(x // ell for x in t.b)
            assert e.get(ell, 0) == expected


class TestDPolynomial:
    def test_super_catalan_1_1(self):
        assert d_polynomial(TupleSpec((2, 2), (1, 2, 1))) == IntPoly([1, 1])

    def test_super_catalan_2_1(self):
        assert d_polynomial(TupleSpec((4, 2), (2, 3, 1))) == IntPoly([1, 1, 1, 1])

    def test_trivial(self):
        assert d_polynomial(TupleSpec((9,), (9,))) == IntPoly.one()

    def test_not_polynomial_carries_smallest_ell(self):
        with pytest.raises(NotPolynomial) as info:
            d_polynomial(TupleSpec((1, 1), (2,)))
        assert info.value.ell == 2

    def test_degree_formula(self):
        for t in (
            TupleSpec((4,), (2, 2)),
            TupleSpec((6, 4), (5, 3, 2)),
            TupleSpec((30, 1), (15, 10, 6)),
        ):
            expected = (
                sum(x * (x - 1) for x in t.a) - sum(x * (x - 1) for x in t.b)
            ) // 2
            assert d_polynomial(t).degree == expected


class TestDPolynomialNaive:
    def test_central_binomial(self):
        assert d_polynomial_naive(TupleSpec((4,), (2, 2))) == IntPoly([1, 1, 2, 1, 1])

    def test_trivial(self):
        assert d_polynomial_naive(TupleSpec((1,), (1,))) == IntPoly.one()

    def test_not_polynomial(self):
        with pytest.raises(NotPolynomial):
            d_polynomial_naive(TupleSpec((1, 1), (2,)))


@settings(max_examples=150)
@given(tuple_specs)
def test_routes_agree(t):
    try:
        fast = d_polynomial(t)
    except NotPolynomial:
        with pytest.raises(NotPolynomial):
            d_polynomial_naive(t)
        return
    assert fast == d_polynomial_naive(t)
    assert fast.degree == t.degree


@settings(max_examples=150)
@given(tuple_specs)
def test_cyclotomic_factorization_matches(t):
    try:
        poly = d_polynomial(t)
    except NotPolynomial:
        return
    product = IntPoly.one()
    for ell, e in ratio_exponents(t).items():
        product = product * cyclotomic(ell) ** e
    assert product == poly


@settings(max_examples=150)
@given(tuple_specs)
def test_q1_matches_classical_ratio(t):
    expected = classical_ratio(t)
    try:
        value = d_polynomial(t).evaluate(1)
    except NotPolynomial:
        return
    assert Fraction(value) == expected


@settings(max_examples=100)
@given(tuple_specs)
def test_classical_ratio_against_factorials(t):
    num = math.prod(math.factorial(x) for x in t.a)
    den = math.prod(math.factorial(x) for x in t.b)
    assert classical_ratio(t) == Fraction(num, den)


class TestClassicalRatio:
    def test_super_catalan_values(self):
        assert classical_ratio(TupleSpec((2, 2), (1, 2, 1))) == 2
        assert classical_ratio(TupleSpec((4, 2), (2, 3, 1))) == 4

    def test_non_integer(self):
        assert classical_ratio(TupleSpec((1, 1), (2,))) == Fraction(1, 2)


class TestSweep:
    def test_central_binomials(self):
        polys = list(scaled_ratios(TupleSpec((2, 1), (1, 1, 1)), 2))
        assert polys == [IntPoly([1, 1]), IntPoly([1, 1, 2, 1, 1])]

    def test_trivial_family(self):
        assert list(scaled_ratios(TupleSpec((1,), (1,)), 6)) == [IntPoly.one()] * 6

    def test_degree_270_family(self):
        (poly,) = scaled_ratios(TupleSpec((30, 1), (15, 10, 6)), 1)
        assert poly.degree == 270
        assert min(poly.coeffs) >= 0

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(tuple_specs, dominated_specs))
    @example(TupleSpec((6, 1, 1), (5, 3)))  # a polynomial at n = 1 only
    @example(TupleSpec((9, 2, 2), (7, 3)))  # a polynomial at n = 1 and 2 only
    def test_chain_matches_the_per_n_route(self, t):
        n_max = 5
        expected, failure = [], None
        for n in range(1, n_max + 1):
            try:
                expected.append(d_polynomial(t.scaled(n)))
            except NotPolynomial as exc:
                failure = (n, exc.ell)
                break
        if failure is None:
            assert list(scaled_ratios(t, n_max)) == expected
        else:
            with pytest.raises(NotPolynomial) as info:
                list(scaled_ratios(t, n_max))
            assert (info.value.n, info.value.ell) == failure
            if expected:
                assert list(scaled_ratios(t, len(expected))) == expected
        for n, poly in enumerate(expected[:2], start=1):
            assert poly == d_polynomial_naive(t.scaled(n))

    def test_failure_reports_the_n(self):
        # polynomial at n=1 (the 6th cyclotomic polynomial) but the scaled
        # tuple (12,2,2)/(10,6) has a negative exponent at ell=5
        t = TupleSpec((6, 1, 1), (5, 3))
        assert list(scaled_ratios(t, 1)) == [IntPoly([1, -1, 1])]
        with pytest.raises(NotPolynomial) as info:
            list(scaled_ratios(t, 4))
        assert (info.value.n, info.value.ell) == (2, 3)

    def test_the_kernel_tags_its_failure_with_the_n(self):
        t = TupleSpec((6, 1, 1), (5, 3))
        chain = scaled_ratios(t, 4)
        assert next(chain) == IntPoly([1, -1, 1])
        with pytest.raises(NotPolynomial) as info:
            next(chain)
        assert (info.value.n, info.value.ell) == (2, 3)
        # the message is d_polynomial's own; the n travels as an attribute only
        with pytest.raises(NotPolynomial) as direct:
            d_polynomial(t.scaled(2))
        assert str(info.value) == str(direct.value)
        assert str(info.value) == "ratio (12, 2, 2)/(10, 6) is not a polynomial: exponent of Phi_3 is -1"


# Tuples whose chain steps, at n <= 3, reach each grouping of the passes.
CHAIN_PATHS = {
    # (1 - q^2)/(1 - q) = 1 + q at n = 1, twice; sum(a) > sum(b), so the (1 - q) power is negative
    "pair at k=1, unbalanced": TupleSpec((3, 2), (1,)),
    # unbalanced, pairing k = 2 and 3 at n = 2 and 3
    "unbalanced": TupleSpec((2, 2), (1,)),
    # k = 2 at n = 1, then k = 4, 5, 6 and 7, 8, 9, beside stride divisions
    "pairs at n >= 2": TupleSpec((6, 1), (3, 2, 2)),
    # short strides alone: k = 2 into size 3, then k = 3 into size 5 (k > size/2 each time)
    "one block, size - k < k": TupleSpec((2,), (1, 1)),
    # k = 3 into size 9 (strides of 3), k = 4 into 9 (of 3 and 2), 5 and 6 into 19 (of 4 and 3)
    "blocks, size not a multiple of k": TupleSpec((4,), (2, 2)),
}


class TestChainPaths:
    @pytest.mark.parametrize("t", CHAIN_PATHS.values(), ids=list(CHAIN_PATHS))
    def test_each_step_matches_the_naive_route(self, t):
        for n, poly in enumerate(scaled_ratios(t, 3), start=1):
            assert poly == d_polynomial_naive(t.scaled(n)), n

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(tuple_specs, dominated_specs).filter(lambda t: landau.landau_check(t).holds))
    @example(TupleSpec((2, 1), (1, 1, 1)))  # balanced; the a- and b-ranges overlap at every n
    @example(TupleSpec((3, 1), (3,)))  # equal entries: their breakpoints cancel
    def test_landau_tuples_match_the_naive_route(self, t):
        for n, poly in enumerate(scaled_ratios(t, 3), start=1):
            assert poly == d_polynomial_naive(t.scaled(n)), n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_gaussian_row_divides_near_the_series_size(self, n):
        # [n over m] grows from [n over m-1] by dividing by 1 - q^m; at m = n - 2
        # the series holds m(n-m)//2 + 1 = m + 1 terms, so k = m is size - 1
        row = [TupleSpec((n,), (m, n - m)) for m in range(1, n)]
        assert list(ratio_chain(row)) == [d_polynomial_naive(t) for t in row]


@st.composite
def spec_walks(draw):
    """A dominated spec, then up to five more, each one or two entry edits from the last.

    An edit appends an entry to a side, replaces one, or drops one, so
    degrees go up and down, and a later spec need not be a polynomial.
    """
    walk = [draw(dominated_specs)]
    for _ in range(draw(st.integers(1, 5))):
        sides = [list(walk[-1].a), list(walk[-1].b)]
        for _ in range(draw(st.integers(1, 2))):
            side = sides[draw(st.integers(0, 1))]
            i = draw(st.integers(0, len(side)))
            if i == len(side):
                side.append(draw(entry))
            elif len(side) > 1 and draw(st.booleans()):
                del side[i]
            else:
                side[i] = draw(entry)
        walk.append(TupleSpec(*sides))
    return walk


def _smallest_negative_ell(t):
    """The least ell with sum(a_i // ell) < sum(b_j // ell), by the floor sum itself."""
    ells = range(2, t.max_entry + 1)
    return next(ell for ell in ells if sum(x // ell for x in t.a) < sum(x // ell for x in t.b))


class TestRatioChain:
    @settings(max_examples=150, deadline=None)
    @given(spec_walks(), st.booleans())
    # a non-polynomial spec in the middle: 1/(1 + q), after and before a Gaussian
    @example([TupleSpec((4,), (2, 2)), TupleSpec((1, 1), (2,)), TupleSpec((4,), (2, 2))], False)
    @example([TupleSpec((4,), (2, 2)), TupleSpec((1, 1), (2,)), TupleSpec((4,), (2, 2))], True)
    def test_each_ratio_matches_the_naive_route(self, walk, seeded):
        start = (walk[0], d_polynomial_naive(walk[0])) if seeded else None
        specs = walk[1:] if seeded else walk
        expected = []
        for t in specs:
            try:
                expected.append(d_polynomial_naive(t))
            except NotPolynomial:
                break
        chain = ratio_chain(specs, start)
        assert list(itertools.islice(chain, len(expected))) == expected
        if len(expected) == len(specs):
            assert next(chain, None) is None
        else:
            with pytest.raises(NotPolynomial) as info:
                next(chain)
            bad = specs[len(expected)]
            assert (info.value.n, info.value.ell) == (len(expected) + 1, _smallest_negative_ell(bad))

    def test_a_failure_in_the_middle_names_its_index_and_ell(self):
        specs = [TupleSpec((4,), (2, 2)), TupleSpec((6, 1, 1), (5, 3)), TupleSpec((12, 2, 2), (10, 6))]
        chain = ratio_chain([*specs, TupleSpec((4,), (2, 2))])
        assert next(chain) == IntPoly([1, 1, 2, 1, 1])
        assert next(chain) == IntPoly([1, -1, 1])
        with pytest.raises(NotPolynomial) as info:
            next(chain)
        assert (info.value.n, info.value.ell) == (3, 3)

    def test_a_start_seeds_d_polynomial(self):
        # [10 over 4] from [10 over 3] (two factors), and down from [10 over 5]
        for m in (3, 5):
            start = (TupleSpec((10,), (m, 10 - m)), q_binomial(10, m))
            assert d_polynomial(TupleSpec((10,), (4, 6)), start) == d_polynomial_naive(
                TupleSpec((10,), (4, 6))
            )

    def test_the_polynomiality_check_names_no_ell_on_success(self, monkeypatch):
        # ratio_exponents only names a failing ell; a chain of polynomials never calls it
        def no_call(t):
            raise AssertionError("ratio_exponents called on a polynomial")

        monkeypatch.setattr(qfactor, "ratio_exponents", no_call)
        assert list(scaled_ratios(TupleSpec((30, 1), (15, 10, 6)), 3))[0].degree == 270
