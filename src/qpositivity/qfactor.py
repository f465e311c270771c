"""q-integers, q-factorials, Gaussian polynomials and factorial-ratio polynomials.

A factorial ratio is named by a pair of positive-integer tuples (a, b): the
numerator carries the factorials of the a-entries, the denominator those of
the b-entries.  Its q-analogue replaces every factorial by a q-factorial; the
result, when it is a polynomial at all, factors over the integers as a product
of cyclotomic polynomials Phi_ell (ell >= 2) with exponents given by a floor
sum.  Those exponents decide polynomiality; the polynomial itself is built
from the identity [x]! = prod_{k<=x} (1 - q^k) / (1 - q)^x.

Two independent routes compute the same polynomial and act as oracles for one
another:

* ``d_polynomial``      — the low half of the ratio as a truncated power
                          series in the factors (1 - q^k), mirrored (the fast
                          path);
* ``d_polynomial_naive``— multiply the numerator q-factorials, then exactly
                          divide by each denominator q-factorial in turn.

``classical_ratio`` is the q=1 shadow, assembled from prime valuations of the
ordinary factorials, again independently of both polynomial routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .errors import NotDivisible, NotPolynomial
from .polyring import IntPoly


@dataclass(frozen=True)
class TupleSpec:
    """A pair of positive-integer tuples naming a factorial ratio.

    Both sides must be nonempty; a ratio with an empty denominator is written
    with b = (1,) since [1]! = 1.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if not self.a or not self.b:
            raise ValueError("both tuple sides must be nonempty")
        if any(x < 1 for x in self.a) or any(x < 1 for x in self.b):
            raise ValueError("tuple entries must be positive integers")

    def scaled(self, n: int) -> TupleSpec:
        """The tuple with every entry multiplied by n."""
        if n < 1:
            raise ValueError("scale must be >= 1")
        return TupleSpec(tuple(x * n for x in self.a), tuple(x * n for x in self.b))

    @property
    def sum_a(self) -> int:
        return sum(self.a)

    @property
    def sum_b(self) -> int:
        return sum(self.b)

    @property
    def degree(self) -> int:
        """Degree of the ratio polynomial: sum C(a_i, 2) - sum C(b_j, 2)."""
        return sum(x * (x - 1) // 2 for x in self.a) - sum(x * (x - 1) // 2 for x in self.b)

    @property
    def max_entry(self) -> int:
        return max(max(self.a), max(self.b))


@dataclass(frozen=True)
class CycloExponents:
    """Exponent of Phi_ell in a factorial ratio, for every ell with a nonzero one.

    Indices ell run over 2..max_ell; anything above max_ell (the largest tuple
    entry) is zero and is not stored, and neither are interior zeros.
    """

    exponents: dict[int, int]
    max_ell: int

    def smallest_negative(self) -> int | None:
        neg = [ell for ell, e in self.exponents.items() if e < 0]
        return min(neg) if neg else None


def q_integer(n: int) -> IntPoly:
    """The q-analogue of n: 1 + q + ... + q**(n-1).  Requires n >= 1."""
    if n < 1:
        raise ValueError("q_integer is defined for n >= 1")
    return IntPoly((1,) * n)


_QFACT: list[IntPoly] = [IntPoly.one()]


def q_factorial(n: int) -> IntPoly:
    """The q-factorial: product of q_integer(i) for i = 1..n (1 for n = 0).

    Degree is n(n-1)/2.  Memoized; values are immutable and shared.
    """
    if n < 0:
        raise ValueError("q_factorial is defined for n >= 0")
    while len(_QFACT) <= n:
        _QFACT.append(_QFACT[-1] * q_integer(len(_QFACT)))
    return _QFACT[n]


_QBINOM: dict[tuple[int, int], IntPoly] = {}


def q_binomial(n: int, m: int) -> IntPoly:
    """The Gaussian polynomial, by the q-Pascal recurrence.

    [n, m] = [n-1, m-1] + q**m * [n-1, m], with [n, 0] = [n, n] = 1.
    Returns the zero polynomial when m < 0 or m > n.  Memoized on (n, m); a
    miss fills the missing entries of the parallelogram 0 <= j <= m,
    0 <= i - j <= n - m that [n, m] depends on, row by row and without
    recursion, so deep triangles cannot overflow the interpreter stack.
    """
    if n < 0:
        raise ValueError("q_binomial upper index must be >= 0")
    if m < 0 or m > n:
        return IntPoly.zero()
    memo = _QBINOM
    if (n, m) in memo:
        return memo[n, m]
    for i in range(n + 1):
        for j in range(max(0, i - n + m), min(i, m) + 1):
            if (i, j) not in memo:
                memo[i, j] = (
                    memo[i - 1, j - 1] + memo[i - 1, j].shifted(j) if 0 < j < i else IntPoly.one()
                )
    return memo[n, m]


def ratio_exponents(t: TupleSpec) -> CycloExponents:
    """Cyclotomic exponents of the ratio: e_ell = sum(a_i//ell) - sum(b_j//ell)."""
    mx = t.max_entry
    exps: dict[int, int] = {}
    a, b = t.a, t.b
    for ell in range(2, mx + 1):
        e = sum(x // ell for x in a) - sum(x // ell for x in b)
        if e:
            exps[ell] = e
    return CycloExponents(exps, mx)


def d_polynomial(t: TupleSpec) -> IntPoly:
    """The ratio as a polynomial, built as a truncated power series.

    The ratio is prod_k (1 - q^k)^{c_k} times (1 - q)^{sum(b) - sum(a)}, with
    c_k = #{a_i >= k} - #{b_j >= k}.  As a product of Phi_ell with ell >= 2
    it is palindromic, so only its coefficients below q^{deg//2 + 1} are
    computed and the rest are mirrored.  Modulo that power of q, multiplying
    by (1 - q^k) is one shifted subtract and dividing by it is k stride-k
    running sums; no polynomial multiplication takes place.

    Raises NotPolynomial (carrying the smallest offending ell) when some
    cyclotomic exponent is negative.
    """
    ce = ratio_exponents(t)
    bad = ce.smallest_negative()
    if bad is not None:
        raise NotPolynomial(
            f"ratio {t.a}/{t.b} is not a polynomial: exponent of Phi_{bad} is "
            f"{ce.exponents[bad]}",
            ell=bad,
        )
    degree = t.degree
    series = [1] + [0] * (degree // 2)
    size = len(series)
    # (k, power of 1 - q^k); factors with k >= size are 1 modulo q^size
    powers = [
        (k, sum(x >= k for x in t.a) - sum(x >= k for x in t.b))
        for k in range(1, min(t.max_entry + 1, size))
    ]
    if powers:
        powers[0] = (1, powers[0][1] + t.sum_b - t.sum_a)
    # Multiplying first, then dividing largest k first, keeps intermediates small.
    for k, e in powers:
        for _ in range(e):
            series[k:] = map(sub, series[k:], series[:-k])
    for k, e in reversed(powers):
        for _ in range(-e):
            for r in range(k):
                series[r::k] = accumulate(series[r::k])
    return IntPoly(series + series[: degree + 1 - size][::-1])


def d_polynomial_naive(t: TupleSpec) -> IntPoly:
    """Oracle route: multiply numerator q-factorials, divide denominator ones in turn.

    Raises NotPolynomial as soon as an exact division fails; this is how a
    non-polynomial ratio announces itself on this route.
    """
    poly = IntPoly.one()
    for x in t.a:
        poly = poly * q_factorial(x)
    for x in t.b:
        try:
            poly = poly.divide_exact(q_factorial(x))
        except NotDivisible as exc:
            raise NotPolynomial(
                f"ratio {t.a}/{t.b} is not a polynomial: division by [{x}]! fails"
            ) from exc
    return poly


def _primes_upto(n: int) -> list[int]:
    """Simple sieve up to n inclusive."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def _factorial_valuation(n: int, p: int) -> int:
    """Order of the prime p in n!: floor(n/p) + floor(n/p^2) + ..."""
    total = 0
    pk = p
    while pk <= n:
        total += n // pk
        pk *= p
    return total


def classical_ratio(t: TupleSpec) -> Fraction:
    """The ordinary factorial ratio as an exact rational in lowest terms.

    Assembled prime by prime from factorial valuations, so non-integral ratios
    come back as honest fractions rather than errors; the result is an integer
    exactly when every prime valuation is >= 0.
    """
    num = 1
    den = 1
    for p in _primes_upto(t.max_entry):
        v = sum(_factorial_valuation(x, p) for x in t.a) - sum(
            _factorial_valuation(x, p) for x in t.b
        )
        if v > 0:
            num *= p**v
        elif v < 0:
            den *= p**-v
    return Fraction(num, den)


def d_n_sweep(t: TupleSpec, n_max: int) -> list[IntPoly]:
    """The scaled ratio polynomial for every n = 1..n_max.

    The caller is expected to have checked the integrality criterion; if it
    does not hold, the n at which a cyclotomic exponent first goes negative
    raises NotPolynomial carrying that n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = []
    for n in range(1, n_max + 1):
        try:
            out.append(d_polynomial(t.scaled(n)))
        except NotPolynomial as exc:
            raise NotPolynomial(f"at n={n}: {exc}", ell=exc.ell, n=n) from None
    return out
