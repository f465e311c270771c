"""q-integers, q-factorials, Gaussian polynomials and factorial-ratio polynomials.

A factorial ratio is named by a pair of positive-integer tuples (a, b), a
``landau.TupleSpec``: the numerator carries the factorials of the a-entries,
the denominator those of the b-entries.  Its q-analogue replaces every
factorial by a q-factorial; the result, when it is a polynomial at all,
factors over the integers as a product of cyclotomic polynomials Phi_ell
(ell >= 2) with exponents given by a floor sum.  Those exponents decide
polynomiality; the polynomial itself is built from the identity
[x]! = prod_{k<=x} (1 - q^k) / (1 - q)^x.

Two independent routes compute the same polynomial and act as oracles for one
another:

* ``d_polynomial``      — the low half of the ratio as a truncated power
                          series in the factors (1 - q^k), mirrored (the fast
                          path): the first step of ``scaled_ratios``, the
                          one series kernel, which grows each D_n of a sweep
                          from D_{n-1};
* ``d_polynomial_naive``— multiply the numerator q-factorials, then exactly
                          divide by each denominator q-factorial in turn.

``q_binomial`` is the factorial ratio (n)/(m, n-m) by ``d_polynomial``; the
identity checks reach Gaussian polynomials by the q-Pascal recurrence instead.

``classical_ratio`` is the q=1 shadow, assembled from prime valuations of the
ordinary factorials, again independently of both polynomial routes.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, pairwise, repeat
from operator import add, floordiv, sub
from typing import TYPE_CHECKING, Iterator

from .errors import NotDivisible, NotPolynomial
from .landau import TupleSpec
from .polyring import IntPoly

if TYPE_CHECKING:
    from fractions import Fraction


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


@cache
def q_binomial(n: int, m: int) -> IntPoly:
    """The Gaussian polynomial [n]! / ([m]! [n-m]!), built by `d_polynomial`.

    The zero polynomial when m < 0 or m > n.  Cached: `r_poly` asks for the
    same entries again and again.
    """
    if n < 0:
        raise ValueError("q_binomial upper index must be >= 0")
    if m < 0 or m > n:
        return IntPoly.zero()
    if m in (0, n):
        return IntPoly.one()
    return d_polynomial(TupleSpec((n,), (m, n - m)))


def ratio_exponents(t: TupleSpec) -> dict[int, int]:
    """Cyclotomic exponents of the ratio: e_ell = sum(a_i//ell) - sum(b_j//ell).

    Keyed by ell in 2..the largest tuple entry (every exponent above it is
    zero); zero exponents are not stored.
    """
    ells = range(2, t.max_entry + 1)
    exps = repeat(0)
    for xs, op in ((t.a, add), (t.b, sub)):
        for x in xs:
            exps = map(op, exps, map(floordiv, repeat(x), ells))
    return {ell: e for ell, e in zip(ells, exps) if e}


def scaled_ratios(t: TupleSpec, n_max: int) -> Iterator[IntPoly]:
    """D_n, the ratio of t.scaled(n), for n = 1..n_max, each grown from D_{n-1}.

    With D_0 = 1, D_n / D_{n-1} is prod_k (1 - q^k)^{c_k} (1 - q)^{sum(b) - sum(a)},
    where c_k counts the a-entries x with (n-1)x < k <= nx less the same count
    over b (at n = 1, c_k = #{a_i >= k} - #{b_j >= k}).  As a product of Phi_ell
    with ell >= 2, D_n is palindromic, so only its coefficients below
    q^{deg//2 + 1} are computed, from D_{n-1}'s, and the rest are mirrored.
    Modulo that power of q, multiplying by (1 - q^k) is one shifted subtract and
    dividing by it is a running sum along each residue class mod k; no
    polynomial multiplication.

    The powers c_k are read off the breakpoints of the entry ranges: each
    a-entry adds +1 at the start (n-1)x + 1 of its range and -1 just past
    its end, each b-entry the opposite, so c_k is constant between two
    consecutive breakpoints.  A walk over the sorted breakpoints keeps that
    running level and stores each nonzero run at once with `dict.fromkeys`,
    so the Python-level work grows with the number of entries, not of k.

    Every step is exact in the ring of power series truncated at that power,
    where the factors commute and each (1 - q^k) is a unit, so neither the
    grouping nor the order of the passes can change the result:

    * a denominator (1 - q^k) and a numerator (1 - q^2k) of the same step
      cancel to 1 + q^k, one shifted add in place of a subtract pass and a
      division (18% of the element operations of `qpos enumerate --r 2 --s 3
      --sum-bound 16 --balanced --sweep-n 6`, whose tuples often hold both
      x and 2x);
    * a division runs the running sums stride by stride (k slices of about
      size/k) when k*k < size, and otherwise block by block, adding each
      k-block to the next (about size/k slices of k), so that the loop has
      the fewer and longer slices either way.

    Seeding and mirroring are exact only while D_n is a polynomial, so every n
    is checked by `ratio_exponents` first: the first failing n raises
    NotPolynomial, carrying that n and the smallest offending ell.
    """
    seed = [1]
    for n in range(1, n_max + 1):
        s = t.scaled(n)
        exps = ratio_exponents(s)
        bad = min((ell for ell, e in exps.items() if e < 0), default=None)
        if bad is not None:
            raise NotPolynomial(
                f"ratio {s.a}/{s.b} is not a polynomial: exponent of Phi_{bad} is {exps[bad]}",
                ell=bad,
                n=n,
            )
        size = s.degree // 2 + 1
        series = seed[:size] + [0] * (size - len(seed))
        # breakpoints of the entry ranges, cut at size: factors with k >= size
        # are 1 modulo q^size
        steps: dict[int, int] = {}
        for xs, sign in ((t.a, 1), (t.b, -1)):
            for x in xs:
                lo, hi = (n - 1) * x + 1, min(n * x + 1, size)
                if lo < hi:
                    steps[lo] = steps.get(lo, 0) + sign
                    steps[hi] = steps.get(hi, 0) - sign
        # power of 1 - q^k, keyed in ascending k; only nonzero runs are stored
        powers = {1: 0}
        level = 0
        for lo, hi in pairwise(sorted(steps)):
            level += steps[lo]
            if level:
                powers.update(dict.fromkeys(range(lo, hi), level))
        powers[1] += t.sum_b - t.sum_a
        # (1 - q^2k) / (1 - q^k) = 1 + q^k: one pass in place of two
        for k in powers:
            pairs = min(-powers[k], powers.get(2 * k, 0))
            if pairs > 0:
                powers[k] += pairs
                powers[2 * k] -= pairs
                for _ in range(pairs):
                    series[k:] = map(add, series[k:], series[:-k])
        # Multiplying first, then dividing largest k first, keeps intermediates small.
        for k in powers:
            for _ in range(powers[k]):
                series[k:] = map(sub, series[k:], series[:-k])
        for k in reversed(powers):
            for _ in range(-powers[k]):
                if k * k < size:
                    for r in range(k):
                        series[r::k] = accumulate(series[r::k])
                else:
                    for j in range(k, size, k):
                        series[j : j + k] = map(add, series[j : j + k], series[j - k : j])
        seed = series + series[: s.degree + 1 - size][::-1]
        yield IntPoly(seed)


def d_polynomial(t: TupleSpec) -> IntPoly:
    """The ratio as a polynomial: the first item of `scaled_ratios`, which see."""
    return next(scaled_ratios(t, 1))


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
    from fractions import Fraction

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
