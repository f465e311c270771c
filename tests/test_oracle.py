"""Oracles from outside the package: sympy's cyclotomic polynomials, products and division.

sympy is in the `test` extra.  Coefficients are compared as plain tuples of
ints, with no package code on sympy's side.  Each check also asks `IntPoly`'s
own equality to agree: equal to sympy's answer, unequal to it with one
coefficient changed.  So an equality that always holds, which the package's
own two-route checks (`fast == naive`) cannot see, fails here.
"""

from collections import Counter

import pytest

from qpositivity import identities
from qpositivity.landau import TupleSpec
from qpositivity.polyring import IntPoly, cyclotomic
from qpositivity.qfactor import d_polynomial, q_binomial
from test_landau import SPORADIC_2_3, SPORADIC_4_5

sympy = pytest.importorskip("sympy")
Q = sympy.Symbol("q")


def _assert_same(ours: IntPoly, theirs) -> None:
    """ours has the coefficients of the sympy Poly theirs, and IntPoly's equality agrees."""
    expected = tuple(int(c) for c in reversed(theirs.all_coeffs()))
    assert tuple(ours.coeffs) == expected
    assert ours == IntPoly(expected)
    assert ours != IntPoly((*expected[:-1], expected[-1] + 1))


def _product(exponents: Counter):
    """prod (1 - q^k) over the multiset of k, as a sympy Poly over ZZ built by sympy alone."""
    factors = [sympy.Poly.from_list([-1, *[0] * (k - 1), 1], Q)
               for k in sorted(exponents.elements())] or [sympy.Poly(1, Q)]
    while len(factors) > 1:  # pairwise, so the operands grow together
        pairs = zip(factors[::2], [*factors[1::2], sympy.Poly(1, Q)])
        factors = [left * right for left, right in pairs]
    return factors[0]


def _ratio(a, b, n):
    """(numerator, denominator) of prod [n a_i]_q! / prod [n b_j]_q!, common factors cancelled.

    Each [m]_q! is prod (1 - q^k) / (1 - q) over k <= m; the tuples here are
    balanced (sum a = sum b), so the (1 - q) factors cancel and are left out.
    """
    top = Counter(k for x in a for k in range(1, n * x + 1))
    bottom = Counter(k for x in b for k in range(1, n * x + 1))
    return _product(top - bottom), _product(bottom - top)


@pytest.mark.parametrize("ell", range(1, 61))
def test_cyclotomic_is_sympys(ell):
    _assert_same(cyclotomic(ell), sympy.cyclotomic_poly(ell, Q, polys=True))


CASES = [(a, b, n) for a, b in SPORADIC_2_3 for n in (1, 2)] + [(a, b, 1) for a, b in SPORADIC_4_5]


@pytest.mark.parametrize("a, b, n", CASES, ids=[f"{a}/{b}, n={n}" for a, b, n in CASES])
def test_d_polynomial_times_the_denominator_is_the_numerator(a, b, n):
    top, bottom = _ratio(a, b, n)
    ours = d_polynomial(TupleSpec(a, b).scaled(n))
    assert sympy.Poly.from_list(list(reversed(ours.coeffs)), Q) * bottom == top


@pytest.mark.parametrize("a, b", [(a, b) for a, b, n in CASES if n == 1])
def test_d_polynomial_is_sympys_exact_quotient(a, b):
    # n = 1 only: sympy's dense division takes about 1 s for one tuple at n = 2
    top, bottom = _ratio(a, b, 1)
    _assert_same(d_polynomial(TupleSpec(a, b)), top.exquo(bottom))


@pytest.mark.parametrize("dropped", [False, True], ids=["memos-kept", "after-drop-memos"])
def test_q_binomial_times_the_denominator_is_the_numerator(dropped):
    # [n over m] = [n]! / ([m]! [n-m]!) for n <= 16, the sizes `qpos identities` reaches
    if dropped:
        identities.drop_memos()
    for n in range(17):
        for m in range(n + 1):
            top, bottom = _ratio((n,), (m, n - m), 1)
            ours = q_binomial(n, m)
            assert sympy.Poly.from_list(list(reversed(ours.coeffs)), Q) * bottom == top, (n, m)
