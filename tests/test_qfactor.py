import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpositivity import qfactor
from qpositivity.errors import NotPolynomial
from qpositivity.polyring import IntPoly, cyclotomic
from qpositivity.qfactor import (
    TupleSpec,
    classical_ratio,
    d_n_sweep,
    d_polynomial,
    d_polynomial_naive,
    q_binomial,
    q_factorial,
    q_integer,
    ratio_exponents,
)

entry = st.integers(1, 10)
tuple_specs = st.builds(
    TupleSpec,
    st.lists(entry, min_size=1, max_size=3).map(lambda v: tuple(sorted(v, reverse=True))),
    st.lists(entry, min_size=1, max_size=3).map(lambda v: tuple(sorted(v, reverse=True))),
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


class TestQInteger:
    def test_values(self):
        assert q_integer(1) == IntPoly([1])
        assert q_integer(3) == IntPoly([1, 1, 1])

    def test_at_one(self):
        assert q_integer(4).evaluate(1) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            q_integer(0)


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
        monkeypatch.setattr(qfactor, "_QBINOM", {})
        n = sys.getrecursionlimit() + 200
        assert q_binomial(n, 1) == q_binomial(n, n - 1) == q_integer(n)

    @pytest.mark.parametrize("seed", range(5))
    def test_fill_is_independent_of_request_order(self, monkeypatch, seed):
        monkeypatch.setattr(qfactor, "_QBINOM", {})
        pairs = [(n, m) for n in range(2, 22) for m in range(1, n)]
        random.Random(seed).shuffle(pairs)
        for n, m in pairs:
            assert q_binomial(n, m) == d_polynomial(TupleSpec((n,), (m, n - m))), (n, m)


class TestRatioExponents:
    def test_central_binomial(self):
        e = ratio_exponents(TupleSpec((4,), (2, 2)))
        assert e.exponents == {3: 1, 4: 1}
        assert e.smallest_negative() is None

    def test_identical_tuples(self):
        assert ratio_exponents(TupleSpec((7,), (7,))).exponents == {}

    def test_negative_exponent(self):
        e = ratio_exponents(TupleSpec((1, 1), (2,)))
        assert e.exponents == {2: -1}
        assert e.smallest_negative() == 2

    def test_formula(self):
        t = TupleSpec((6, 5), (4, 3, 2))
        e = ratio_exponents(t)
        for ell in range(2, 7):
            expected = sum(x // ell for x in t.a) - sum(x // ell for x in t.b)
            assert e.exponents.get(ell, 0) == expected


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
    for ell, e in ratio_exponents(t).exponents.items():
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
        polys = d_n_sweep(TupleSpec((2, 1), (1, 1, 1)), 2)
        assert polys == [IntPoly([1, 1]), IntPoly([1, 1, 2, 1, 1])]

    def test_trivial_family(self):
        assert d_n_sweep(TupleSpec((1,), (1,)), 6) == [IntPoly.one()] * 6

    def test_degree_270_family(self):
        poly = d_n_sweep(TupleSpec((30, 1), (15, 10, 6)), 1)[0]
        assert poly.degree == 270
        assert min(poly.coeffs) >= 0

    def test_failure_reports_the_n(self):
        # polynomial at n=1 (the 6th cyclotomic polynomial) but the scaled
        # tuple (12,2,2)/(10,6) has a negative exponent at ell=5
        t = TupleSpec((6, 1, 1), (5, 3))
        assert d_n_sweep(t, 1)[0] == IntPoly([1, -1, 1])
        with pytest.raises(NotPolynomial) as info:
            d_n_sweep(t, 4)
        assert info.value.n == 2
