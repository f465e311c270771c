import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpositivity.errors import NotDivisible
from qpositivity.polyring import IntPoly, _mul_packed, _mul_schoolbook, cyclotomic

small_coeffs = st.lists(st.integers(-9, 9), max_size=12)
wide_coeffs = st.lists(st.integers(-(10**25), 10**25), max_size=10)


def poly(*cs):
    return IntPoly(cs)


class TestBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_zero_polynomial_has_no_degree(self):
        assert IntPoly().degree is None
        assert not IntPoly()

    def test_degree_is_length_minus_one(self):
        assert poly(1, 0, 3).degree == 2
        assert IntPoly.one().degree == 0

    def test_constructors(self):
        assert IntPoly.zero() == IntPoly()
        assert IntPoly.one() == poly(1)
        assert IntPoly.monomial(3) == poly(0, 0, 0, 1)

    def test_equality_coerces_integers(self):
        assert poly(7) == 7
        assert IntPoly() == 0
        assert poly(1, 1) != 2


class TestArithmetic:
    def test_add_cancellation(self):
        assert poly(1, 1) + poly(1, -1) == poly(2)
        assert (poly(1, -2, 3) + poly(-1, 2, -3)).coeffs == ()
        assert (poly(1, 2) - poly(1, 2)).coeffs == ()

    def test_add_identity(self):
        p = poly(3, 0, -2)
        assert IntPoly.zero() + p == p

    def test_add_disjoint_supports(self):
        assert poly(1, 0, 1) + poly(0, 1) == poly(1, 1, 1)

    def test_int_operands(self):
        assert poly(1, 2) + 3 == 3 + poly(1, 2) == poly(4, 2)
        assert poly(5, 1) - 5 == poly(0, 1)
        assert 5 - poly(5, 1) == -poly(0, 1) == poly(0, -1)

    def test_mul_difference_of_squares(self):
        assert poly(1, 1) * poly(1, -1) == poly(1, 0, -1)

    def test_mul_gaussian_factorization(self):
        assert poly(1, 1, 1) * poly(1, 0, 1) == poly(1, 1, 2, 1, 1)

    def test_mul_by_zero(self):
        assert poly(1, 2, 3) * IntPoly.zero() == IntPoly.zero()

    def test_mul_degrees_add(self):
        p, r = poly(1, 0, 0, 2), poly(-1, 5)
        assert (p * r).degree == p.degree + r.degree

    def test_scalar_multiplication(self):
        assert 3 * poly(1, -1) == poly(3, -3)
        assert poly(1, -1) * -1 == poly(-1, 1)

    def test_pow(self):
        assert poly(1, 1) ** 3 == poly(1, 3, 3, 1)
        assert poly(2, 1) ** 0 == IntPoly.one()
        assert poly(2, 1) ** 1 == poly(2, 1)
        assert IntPoly.one() ** 5 == IntPoly.one()

    def test_divide_geometric_series(self):
        top = IntPoly([-1, 0, 0, 0, 1])  # q^4 - 1
        assert top.divide_exact(poly(-1, 1)) == poly(1, 1, 1, 1)

    def test_divide_exact_simple(self):
        assert poly(1, 0, -1).divide_exact(poly(1, 1)) == poly(1, -1)

    def test_divide_not_divisible(self):
        with pytest.raises(NotDivisible):
            poly(1, 1).divide_exact(poly(1, 0, 1))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).divide_exact(IntPoly.zero())

    def test_shift(self):
        assert poly(1, 2).shifted(2) == poly(0, 0, 1, 2)
        with pytest.raises(ValueError):
            poly(1).shifted(-1)

    def test_evaluate(self):
        assert poly(1, 1, 1).evaluate(1) == 3
        assert poly(1, 1).evaluate(0) == 1
        assert poly(1, 1, 2, 1, 1).evaluate(1) == 6
        assert poly(1, -2, 1).evaluate(-3) == 16


@given(small_coeffs, small_coeffs)
def test_mul_commutes(a, b):
    assert IntPoly(a) * IntPoly(b) == IntPoly(b) * IntPoly(a)


@given(small_coeffs, small_coeffs, small_coeffs)
def test_mul_distributes_over_add(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(small_coeffs, small_coeffs)
def test_divide_undoes_multiply(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    if not pb:
        return
    assert (pa * pb).divide_exact(pb) == pa


@given(wide_coeffs, wide_coeffs)
def test_divide_undoes_multiply_wide_coefficients(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    if not pb:
        return
    assert (pa * pb).divide_exact(pb) == pa


@given(small_coeffs, small_coeffs, st.integers(-50, 50))
def test_evaluate_is_multiplicative(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert (pa * pb).evaluate(x) == pa.evaluate(x) * pb.evaluate(x)


@given(small_coeffs, small_coeffs, st.integers(-50, 50))
def test_evaluate_is_additive(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert (pa + pb).evaluate(x) == pa.evaluate(x) + pb.evaluate(x)


@settings(max_examples=25)
@given(
    st.lists(st.integers(-(10**8), 10**8), min_size=1, max_size=80),
    st.lists(st.integers(-(10**8), 10**8), min_size=1, max_size=80),
)
def test_packed_multiplication_matches_schoolbook(a, b):
    ta, tb = tuple(a), tuple(b)
    if not any(ta) or not any(tb):
        return
    assert _mul_packed(ta, tb) == _mul_schoolbook(ta, tb)


def test_packed_multiplication_large_random():
    # exercise the packed path on operands big enough that IntPoly.__mul__
    # actually selects it, including negatives and lopsided magnitudes
    rng = random.Random(20260814)
    for _ in range(5):
        a = [rng.randint(-(10**40), 10**40) for _ in range(rng.randint(40, 120))]
        b = [rng.randint(-(10**3), 10**3) for _ in range(rng.randint(40, 120))]
        assert _mul_packed(tuple(a), tuple(b)) == _mul_schoolbook(tuple(a), tuple(b))
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(
            IntPoly(_mul_schoolbook(tuple(a), tuple(b))).coeffs
        )


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65])
@pytest.mark.parametrize("length", [1, 3, 255, 256])
def test_packed_multiplication_at_the_width_limits(bits, length):
    # Every magnitude is the largest of its bit length, so the middle
    # coefficient of the square product reaches the bound the slot width is
    # sized from, and against a one-term operand every coefficient reaches it.
    top = 2**bits - 1
    for sign_a, sign_b in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        a = (sign_a * top,) * length
        for b in [(sign_b * top,) * length, (sign_b * top,)]:
            assert _mul_packed(a, b) == _mul_schoolbook(a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_packed_multiplication_on_byte_boundaries(k):
    # Magnitudes 2**(8k-1) fill k bytes exactly; one less fits in k bytes
    # with the top bit clear.
    edge = 2 ** (8 * k - 1)
    operands = [
        (edge,) * 33,
        (-edge,) * 33,
        (edge, -edge) * 16,
        (-edge, 0, edge - 1, 1 - edge) * 8,
        (edge - 1,) * 40,
    ]
    for a in operands:
        for b in operands:
            assert _mul_packed(a, b) == _mul_schoolbook(a, b)


class TestCyclotomic:
    def test_first_cases(self):
        assert cyclotomic(1) == poly(-1, 1)
        assert cyclotomic(2) == poly(1, 1)
        assert cyclotomic(3) == poly(1, 1, 1)
        assert cyclotomic(4) == poly(1, 0, 1)
        assert cyclotomic(6) == poly(1, -1, 1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_over_divisors_is_q_to_n_minus_1(self):
        for n in range(1, 201):
            prod = IntPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            expected = IntPoly([-1] + [0] * (n - 1) + [1])
            assert prod == expected, n

    def test_value_at_1_detects_prime_powers(self):
        def prime_power_base(n):
            p = 2
            while p * p <= n:
                if n % p == 0:
                    while n % p == 0:
                        n //= p
                    return p if n == 1 else None
                p += 1
            return n  # n prime

        for ell in range(2, 201):
            base = prime_power_base(ell)
            expected = base if base is not None else 1
            assert cyclotomic(ell).evaluate(1) == expected, ell

    def test_degree_is_euler_totient(self):
        def totient(n):
            return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)

        def _gcd(x, y):
            while y:
                x, y = y, x % y
            return x

        for ell in (1, 2, 12, 30, 97, 105):
            assert cyclotomic(ell).degree == totient(ell)

    def test_phi_105_has_coefficient_minus_2(self):
        # smallest index whose cyclotomic polynomial has a coefficient
        # outside {-1, 0, 1}
        assert min(cyclotomic(105).coeffs) == -2
