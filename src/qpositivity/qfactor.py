"""q-factorials, Gaussian polynomials and factorial-ratio polynomials.

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
                          series in the factors (1 - q^k), mirrored: one
                          step of ``ratio_chain``, the one series kernel,
                          which grows each ratio from its neighbour's;
* ``d_polynomial_naive``— multiply the numerator q-factorials, then exactly
                          divide by each denominator q-factorial in turn.

``q_binomial`` is the factorial ratio (n)/(m, n-m) by ``d_polynomial``; the
identity checks reach Gaussian polynomials by the q-Pascal recurrence instead.

``classical_ratio`` is the q=1 shadow, assembled from prime valuations of the
ordinary factorials, again independently of both polynomial routes.
"""

from __future__ import annotations

from itertools import accumulate, pairwise, repeat
from operator import add, floordiv, sub
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import NotDivisible, NotPolynomial
from .landau import TupleSpec
from .polyring import IntPoly

if TYPE_CHECKING:
    from fractions import Fraction


_QFACT: list[IntPoly] = [IntPoly.one()]


def q_factorial(n: int) -> IntPoly:
    """The q-factorial: product of 1 + q + ... + q**(i-1) for i = 1..n (1 for n = 0).

    Degree is n(n-1)/2.  Memoized; values are immutable and shared.
    """
    if n < 0:
        raise ValueError("q_factorial is defined for n >= 0")
    while len(_QFACT) <= n:
        _QFACT.append(_QFACT[-1] * IntPoly((1,) * len(_QFACT)))
    return _QFACT[n]


_QBINOM: dict[tuple[int, int], IntPoly] = {}


def q_binomial(n: int, m: int) -> IntPoly:
    """The Gaussian polynomial [n]! / ([m]! [n-m]!), built by `d_polynomial`.

    The zero polynomial when m < 0 or m > n.  Memoized in `_QBINOM`, since
    `r_poly` asks for the same entries again and again; a miss grows
    [n over m] from [n over m-1] when that one is memoized.
    """
    if n < 0:
        raise ValueError("q_binomial upper index must be >= 0")
    if m < 0 or m > n:
        return IntPoly.zero()
    if m in (0, n):
        return IntPoly.one()
    if (n, m) not in _QBINOM:
        prev = _QBINOM.get((n, m - 1))
        start = prev and (TupleSpec((n,), (m - 1, n - m + 1)), prev)
        _QBINOM[n, m] = d_polynomial(TupleSpec((n,), (m, n - m)), start)
    return _QBINOM[n, m]


def _exponents(t: TupleSpec) -> Iterator[int]:
    """The exponents of `ratio_exponents`, zeros included, for ell = 2, 3, ... lazily."""
    ells = range(2, t.max_entry + 1)
    exps = repeat(0)
    for xs, op in ((t.a, add), (t.b, sub)):
        for x in xs:
            exps = map(op, exps, map(floordiv, repeat(x), ells))
    return exps


def ratio_exponents(t: TupleSpec) -> dict[int, int]:
    """Cyclotomic exponents of the ratio: e_ell = sum(a_i//ell) - sum(b_j//ell).

    Keyed by ell in 2..the largest tuple entry (every exponent above it is
    zero); zero exponents are not stored.
    """
    return {ell: e for ell, e in enumerate(_exponents(t), start=2) if e}


def ratio_chain(specs: Iterable[TupleSpec], start: tuple | None = None) -> Iterator[IntPoly]:
    """The ratio of each spec in turn, each grown from the one before it.

    The first grows from start, a pair (spec, its ratio), or else from 1.
    With D' the ratio of the spec p before spec s, D_s / D' is
    prod_k (1 - q^k)^{c_k} (1 - q)^{-e}: c_k counts the entries >= k of s.a
    and p.b less those of s.b and p.a, and e sums those entries with the same
    signs.  Index neighbours differ in few factors: about sum(a) + sum(b) for
    D_n and D_{n-1} (`scaled_ratios`), two for [n over m] and [n over m-1].
    A product of Phi_ell with ell >= 2 is palindromic, so only the
    coefficients below q^{deg//2 + 1} are computed, from D''s, and the rest
    are mirrored.  Modulo that power of q, multiplying by (1 - q^k) is one
    shifted subtract and dividing by it is a running sum along each residue
    class mod k; no polynomial multiplication.

    c_k is read off breakpoints: each entry x adds its sign at 1 and takes it
    back at x + 1.  A walk over the sorted breakpoints keeps that running
    level and stores each nonzero run at once with `dict.fromkeys`, so the
    Python-level work grows with the number of entries, not of k.

    Every step is exact in the ring of power series truncated at that power,
    where the factors commute and each (1 - q^k) is a unit, so neither the
    grouping nor the order of the passes can change the result.  So a
    denominator (1 - q^k) and a numerator (1 - q^2k) of the same step cancel
    to 1 + q^k, one shifted add in place of a subtract pass and a division
    (18% of the element operations of `qpos enumerate --r 2 --s 3
    --sum-bound 16 --balanced --sweep-n 6`, whose tuples often hold both x
    and 2x).  A division takes k slices, one per residue class, whatever k
    is; a k near size leaves most of them one or two terms long.

    Seeding and mirroring are exact only while every ratio is a polynomial,
    so each spec is first checked by one C-level min over its exponents; the
    first failing one raises NotPolynomial with its index n (from 1) and the
    smallest offending ell.
    """
    (pa, pb), poly = start or (((), ()), IntPoly.one())
    seed = poly.coeffs
    for n, s in enumerate(specs, start=1):
        if min(_exponents(s), default=0) < 0:
            exps = ratio_exponents(s)
            bad = min(ell for ell, e in exps.items() if e < 0)
            msg = f"ratio {s.a}/{s.b} is not a polynomial: exponent of Phi_{bad} is {exps[bad]}"
            raise NotPolynomial(msg, ell=bad, n=n)
        size = s.degree // 2 + 1
        series = [*seed[:size], *repeat(0, size - len(seed))]
        # breakpoints, cut at size: factors with k >= size are 1 modulo q^size
        steps = {1: len(s.a) - len(s.b) - len(pa) + len(pb)}
        for xs, sign in ((s.a, -1), (s.b, 1), (pa, 1), (pb, -1)):
            for x in xs:
                hi = min(x + 1, size)
                steps[hi] = steps.get(hi, 0) + sign
        # power of 1 - q^k, keyed in ascending k; only nonzero runs are stored
        powers = {1: 0}
        level = 0
        for lo, hi in pairwise(sorted(steps)):
            level += steps[lo]
            if level:
                powers.update(dict.fromkeys(range(lo, hi), level))
        powers[1] += s.sum_b - s.sum_a + sum(pa) - sum(pb)
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
                for r in range(k):
                    series[r::k] = accumulate(series[r::k])
        seed = series + series[: s.degree + 1 - size][::-1]
        yield IntPoly(seed)
        pa, pb = s


def scaled_ratios(t: TupleSpec, n_max: int) -> Iterator[IntPoly]:
    """D_n, the ratio of t.scaled(n), for n = 1..n_max: `ratio_chain`, which see."""
    return ratio_chain(map(t.scaled, range(1, n_max + 1)))


def d_polynomial(t: TupleSpec, start: tuple[TupleSpec, IntPoly] | None = None) -> IntPoly:
    """The ratio as a polynomial, grown from start if given: `ratio_chain`, which see."""
    return next(ratio_chain((t,), start))


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
