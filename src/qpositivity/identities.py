"""The named q-identities, each computed by at least two independent routes.

Every function here is an exact polynomial computation; equalities between
routes (direct factorial ratio vs. recurrence vs. alternating sum) are what
the test suite and the `identities` CLI command verify.  A mismatch means an
implementation bug, never numerical noise, so the checks use `==` on
coefficient tuples.

Alternating sums written over k in (-inf, inf) are clamped to the finite
window where the Gaussian factors are nonzero.  binom(k, 2) for negative k
is k*(k-1)/2, so binom(-1, 2) = 1; Python's ** on -1 with a negative
exponent returns a float, which is why signs are taken from k's parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

from .errors import IdentityViolation, NotDivisible
from .polyring import IntPoly
from .qfactor import TupleSpec, d_polynomial, q_binomial

__all__ = [
    "PositivityReport",
    "super_catalan_q_direct",
    "super_catalan_q_recurrence",
    "von_szily_q",
    "von_szily_classical",
    "b_poly_direct",
    "b_poly_recurrence",
    "chu_vandermonde_check",
    "e_main_check",
    "q_binomial_theorem_check",
    "r_poly",
    "borwein_sum",
    "positivity_report",
]


@dataclass(frozen=True)
class PositivityReport:
    """Coefficient-level facts about one polynomial.

    `degree` is None for the zero polynomial.  `is_symmetric` means
    c_i = c_{deg-i}; `is_unimodal` means the coefficients weakly rise to a
    peak and then weakly fall.  Both are computed from the coefficients,
    never assumed from provenance.
    """

    degree: int | None
    negative_positions: tuple[int, ...]
    is_positive: bool
    is_symmetric: bool
    is_unimodal: bool


def positivity_report(p: IntPoly) -> PositivityReport:
    cs = p.coeffs
    negatives = tuple(i for i, c in enumerate(cs) if c < 0)
    falling = False
    unimodal = True
    for prev, cur in zip(cs, cs[1:]):
        if cur < prev:
            falling = True
        elif cur > prev and falling:
            unimodal = False
            break
    return PositivityReport(
        degree=p.degree,
        negative_positions=negatives,
        is_positive=not negatives,
        is_symmetric=cs == cs[::-1],
        is_unimodal=unimodal,
    )


def _ratio_spec(num, den) -> TupleSpec:
    """TupleSpec from raw index lists, dropping zero entries.

    [0]! = 1 contributes nothing, but TupleSpec only allows positive
    entries; an emptied side becomes (1,) for the same reason.
    """
    a = tuple(x for x in num if x) or (1,)
    b = tuple(x for x in den if x) or (1,)
    return TupleSpec(a, b)


def _check_nm(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")


# --- super Catalan polynomials -------------------------------------------


def super_catalan_q_direct(n: int, m: int) -> IntPoly:
    """A_{n,m}(q) = [2n]![2m]! / ([n]![n+m]![m]!) as a factorial ratio."""
    _check_nm(n, m)
    return d_polynomial(_ratio_spec((2 * n, 2 * m), (n, n + m, m)))


def super_catalan_q_recurrence(n: int, m: int) -> IntPoly:
    """A_{n,m}(q) by the index-gap recurrence

        A_{n,n+p} = sum_{k<=p/2} A_{n,k} *
                    sum_{j=k}^{p-k} q^{k(n+k)+j(n+j)} [p over 2k][p-2k over j-k]

    with A_{n,n} = A_{n,0} = [2n over n] and the symmetry A_{n,m} = A_{m,n}.
    Recursing on A_{n,k} strictly decreases (min, gap) lexicographically:
    k < n shrinks the minimum, and k >= n has gap k - n <= p/2 < p.
    """
    _check_nm(n, m)
    return _a_recur(min(n, m), max(n, m))


def _gap_sum(n: int, p: int, k: int) -> IntPoly:
    """sum_{j=k}^{p-k} q^{k(n+k)+j(n+j)} [p-2k over j-k], shared by both recurrences."""
    total = IntPoly.zero()
    for j in range(k, p - k + 1):
        total = total + q_binomial(p - 2 * k, j - k).shifted(k * (n + k) + j * (n + j))
    return total


@cache
def _a_recur(lo: int, hi: int) -> IntPoly:
    if lo == 0 or lo == hi:
        return q_binomial(2 * hi, hi)
    n, p = lo, hi - lo
    total = IntPoly.zero()
    for k in range(p // 2 + 1):
        total = total + _a_recur(min(n, k), max(n, k)) * q_binomial(p, 2 * k) * _gap_sum(n, p, k)
    return total


def von_szily_q(n: int, m: int) -> IntPoly:
    """A_{n,m}(q) via the q-von-Szily alternating sum

        q^{-nm} * sum_k (-1)^k q^{binom(k,2)} [2n over n+k] [2m over m+k].

    The raw sum must be divisible by q^{nm}; the prefactor is realized as an
    exponent shift after checking that the nm lowest coefficients vanish.
    """
    _check_nm(n, m)
    total = IntPoly.zero()
    for k in range(-min(n, m), min(n, m) + 1):
        term = (q_binomial(2 * n, n + k) * q_binomial(2 * m, m + k)).shifted(
            k * (k - 1) // 2
        )
        total = total + (-term if k % 2 else term)
    shift = n * m
    if shift == 0:
        return total
    cs = total.coeffs
    if len(cs) <= shift or any(cs[:shift]):
        raise IdentityViolation(
            f"von Szily sum for (n, m) = ({n}, {m}) is not divisible by q^{shift}"
        )
    return IntPoly(cs[shift:])


def von_szily_classical(n: int, m: int) -> int:
    """The q = 1 super Catalan number as the classical alternating sum."""
    _check_nm(n, m)
    return sum(
        (-1 if k % 2 else 1) * comb(2 * n, n + k) * comb(2 * m, m + k)
        for k in range(-min(n, m), min(n, m) + 1)
    )


# --- the B family ---------------------------------------------------------


def _check_b_args(n: int, m: int) -> None:
    _check_nm(n, m)
    if m > n:
        raise ValueError(f"B_(n,m) requires n >= m, got n={n}, m={m}")


def b_poly_direct(n: int, m: int) -> IntPoly:
    """B_{n,m}(q) = [2n]![m]! / ([n]![2m]![n-m]!), defined for n >= m."""
    _check_b_args(n, m)
    return d_polynomial(_ratio_spec((2 * n, m), (n, 2 * m, n - m)))


def b_poly_recurrence(n: int, m: int) -> IntPoly:
    """B_{n,m}(q) by the companion recurrence (base m, offset p = n - m):

        B_{n+p,n} = sum_{k<=p/2} B_{n+k,n} *
            sum_{j=k}^{p-k} q^{k(n+k)+j(n+j)} [2n+p over 2n+2k][p-2k over j-k]

    with B_{n,n} = 1.  Terminates since k <= p/2 < p.
    """
    _check_b_args(n, m)
    return _b_recur(m, n - m)


@cache
def _b_recur(n: int, p: int) -> IntPoly:
    if p == 0:
        return IntPoly.one()
    total = IntPoly.zero()
    for k in range(p // 2 + 1):
        total = total + _b_recur(n, k) * q_binomial(2 * n + p, 2 * n + 2 * k) * _gap_sum(n, p, k)
    return total


# --- classical summation identities, checked as polynomial equalities -----


def chu_vandermonde_check(a: int, b: int, c: int) -> bool:
    """[a+b over c] = sum_k q^{k(b-c+k)} [a over k] [b over c-k].

    k is clamped to [max(0, c-b), min(a, c)], where both factors are nonzero;
    there the exponent k(b-c+k) is never negative.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("indices must be non-negative")
    lhs = q_binomial(a + b, c)
    rhs = IntPoly.zero()
    for k in range(max(0, c - b), min(a, c) + 1):
        rhs = rhs + (q_binomial(a, k) * q_binomial(b, c - k)).shifted(
            k * (b - c + k)
        )
    return lhs == rhs


def e_main_check(n: int, p: int) -> bool:
    """The double Chu-Vandermonde expansion of [2n+2p over p].

    Checks both displayed equalities: the single sum over j and its further
    expansion where [n+p over p-j] is split by a second Chu-Vandermonde.
    """
    _check_nm(n, p)
    lhs = q_binomial(2 * n + 2 * p, p)
    single = IntPoly.zero()
    double = IntPoly.zero()
    for j in range(p + 1):
        outer = q_binomial(n + p, j)
        single = single + (outer * q_binomial(n + p, p - j)).shifted(j * (n + j))
        inner = IntPoly.zero()
        for k in range(min(j, p - j) + 1):
            inner = inner + (
                q_binomial(j, k) * q_binomial(n + p - j, p - j - k)
            ).shifted(k * (n + k))
        double = double + (outer * inner).shifted(j * (n + j))
    return lhs == single == double


def q_binomial_theorem_check(n: int) -> bool:
    """prod_{i<n} (1 + t q^i) = sum_m q^{binom(m,2)} [n over m] t^m.

    The product is expanded t-degree by t-degree (each row an IntPoly in q)
    and compared against the closed form.  For n <= 12 each row is also
    cross-checked against the subset-sum interpretation
    sum over m-subsets I of {0..n-1} of q^{sum(I)} by direct enumeration.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rows = [IntPoly.one()]
    for i in range(n):
        nxt = [IntPoly.zero() for _ in range(len(rows) + 1)]
        for m, row in enumerate(rows):
            nxt[m] = nxt[m] + row
            nxt[m + 1] = nxt[m + 1] + row.shifted(i)
        rows = nxt
    for m, row in enumerate(rows):
        if row != q_binomial(n, m).shifted(m * (m - 1) // 2):
            return False
    if n <= 12:
        for m in range(n + 1):
            counts: dict[int, int] = {}
            for subset in combinations(range(n), m):
                e = sum(subset)
                counts[e] = counts.get(e, 0) + 1
            oracle = IntPoly(
                [counts.get(e, 0) for e in range(max(counts) + 1)]
            )
            if oracle != rows[m]:
                return False
    return True


# --- alternating sums beyond von Szily ------------------------------------


def r_poly(n: int, m: int, r: int, s: int) -> IntPoly:
    """R_{n,m;r,s}(q): the alternating sum with powered Gaussian factors,

        sum_k (-1)^k q^{binom(k,2)} [2n over n+k]^r [2m over m+k]^s,

    exactly divided by A_{n,m}(q).  R_{n,m;1,1} = q^{nm}.
    """
    _check_nm(n, m)
    if r < 1 or s < 1:
        raise ValueError("powers r, s must be positive")
    total = IntPoly.zero()
    for k in range(-min(n, m), min(n, m) + 1):
        term = (
            q_binomial(2 * n, n + k) ** r * q_binomial(2 * m, m + k) ** s
        ).shifted(k * (k - 1) // 2)
        total = total + (-term if k % 2 else term)
    try:
        return total.divide_exact(super_catalan_q_direct(n, m))
    except NotDivisible as exc:
        raise IdentityViolation(
            f"powered von Szily sum for (n, m, r, s) = ({n}, {m}, {r}, {s}) "
            f"is not a multiple of A_({n},{m})"
        ) from exc


def borwein_sum(n: int) -> IntPoly:
    """sum_k (-1)^k q^{binom(k,2) + 4k^2} [2n over n+3k], k in [-n/3, n/3]."""
    if n < 0:
        raise ValueError("n must be non-negative")
    total = IntPoly.zero()
    for k in range(-(n // 3), n // 3 + 1):
        term = q_binomial(2 * n, n + 3 * k).shifted(k * (k - 1) // 2 + 4 * k * k)
        total = total + (-term if k % 2 else term)
    return total
