"""The named q-identities, each computed by at least two independent routes.

Every function here is an exact polynomial computation; equalities between
routes (direct factorial ratio vs. recurrence vs. alternating sum) are what
the test suite and the `identities` CLI command verify.  A mismatch means an
implementation bug, never numerical noise.

The factorial-ratio routes (`super_catalan_q_direct`, `b_poly_direct` and
`q_binomial`) use only the q-factorial product formula, by
`qfactor.ratio_chain`: each grows a polynomial from an index neighbour built
on the same route, never from an image, a recurrence, or A_{m,n} for A_{n,m}.

The sums and recurrences are computed in the Kronecker image: a polynomial P
stands for the one integer P(2**W), so products are int products,
multiplying by q**k is a shift by W*k bits and sums are int sums.  P -> P(2**W)
is a ring map, so each computed image is the image of the polynomial the
code denotes.  The checks compare images with `==` and never decode them;
functions that return an IntPoly read its coefficients back as the signed
W-bit digits of the image.  `r_poly`'s von Szily sum stays a second route:
its Gaussians come from the factorial ratio `q_binomial`, not the q-Pascal
fill, and it ends in an exact IntPoly division by the factorial-ratio A.

Equal images mean equal polynomials once W is wide enough: if every
coefficient of P and of Q is below 2**(W-1) in absolute value, the lowest
nonzero coefficient c_j of P - Q has 0 < |c_j| < 2**W, so
P(2**W) - Q(2**W) = 2**(W*j) * (c_j + 2**W * r) is not zero.  Every check
derives W from coefficient bounds that never use the image:

* a side given as an IntPoly (the factorial-ratio routes): its largest
  |coefficient|;
* a sum of products of Gaussian polynomials has non-negative coefficients,
  so its value at q = 1, a sum of products of `math.comb`, bounds them;
* an alternating sum is bounded by the sum of its terms' values at q = 1;
* the A and B recurrences have non-negative coefficients too; their value
  at q = 1 is the same recurrence run at W = 0, since 2**0 = 1.

W is rounded up to a multiple of 32, and each W has its own image q-Pascal
memo.  At `qpos identities --max-n` <= 16 two widths occur: the
Chu-Vandermonde row, every inner sum of the double row and the q-binomial
theorem are bounded by C(32, 16) < 2**30, so they run at W = 32; the double
row's single sums, bounded by C(64, 16) < 2**49, run at W = 64; the super
Catalan and B rows run at 32 or 64 by case, the largest bound being
Sum_k C(32, 16+k)**2 = C(64, 32) < 2**61.  The command clears the memos
after each row, so at most one row's memos are held at once.  `r_poly`
shares no memo, so its widths are only rounded up to whole bytes.

Alternating sums written over k in (-inf, inf) are clamped to the finite
window where the Gaussian factors are nonzero.  binom(k, 2) for negative k
is k*(k-1)/2, so binom(-1, 2) = 1; Python's ** on -1 with a negative
exponent returns a float, which is why signs are taken from k's parity.

The von Szily and Borwein sums are folded: their k and -k terms carry the
same Gaussian product (as [N over M] = [N over N-M]) and the same sign, and
binom(-k, 2) = binom(k, 2) + k, so each pair is one product p times
q^{binom(k,2)} (1 + q^k), an identity of polynomials.  The q = 1 oracle
`von_szily_classical` and the width bound `_szily_bound` still read every k.
The Chu-Vandermonde sum with a = b is folded the same way: its k and c - k
terms share the product [a over k][a over c-k].
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from .errors import IdentityViolation, NotDivisible
from .landau import TupleSpec
from .polyring import IntPoly, PositivityReport, from_image, positivity_report, to_image
from .qfactor import d_polynomial, q_binomial, ratio_chain


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


# --- the Kronecker image ---------------------------------------------------

# W -> the q-Pascal memo of Gaussian polynomials at q = 2**W.
_IMAGES: dict[int, dict[tuple[int, int], int]] = {}


def _binomial_image(n: int, m: int, w: int) -> int:
    """[n over m] at q = 2**w; 0 when m < 0 or m > n.

    By the q-Pascal recurrence [i, j] = [i-1, j-1] + q**j [i-1, j], with
    [i, 0] = [i, i] = 1: a miss fills, row by row and without recursion, the
    missing entries of the parallelogram 0 <= j <= m, 0 <= i - j <= n - m.
    A hit is one lookup; the memo never holds an entry with m < 0 or m > n.
    """
    try:
        return _IMAGES[w][n, m]
    except KeyError:
        if m < 0 or m > n:
            return 0
    memo = _IMAGES.setdefault(w, {})
    for i in range(n + 1):
        for j in range(max(0, i - n + m), min(i, m) + 1):
            if (i, j) not in memo:
                memo[i, j] = memo[i - 1, j - 1] + (memo[i - 1, j] << w * j) if 0 < j < i else 1
    return memo[n, m]


def _width(*bounds: int, unit: int = 32) -> int:
    """The least multiple of unit with 2**(W-1) above every bound."""
    return (max(bounds).bit_length() // unit + 1) * unit


def _respaced(x: int, w: int, wide: int, count: int) -> int:
    """x, the image at q = 2**w of count coefficients in [0, 2**w), at q = 2**wide."""
    digits, out = x.to_bytes(count * w // 8, "little"), bytearray(count * wide // 8)
    for i in range(w // 8):
        out[i :: wide // 8] = digits[i :: w // 8]
    return int.from_bytes(out, "little")


# IntPoly -> (its image at its own byte width, that width), for `r_poly`
_ENCODED: dict[IntPoly, tuple[int, int]] = {}


def _image(p: IntPoly, w: int) -> int:
    """p at q = 2**w, its coefficients in [0, 2**(w-1)): encoded once per value, re-spaced."""
    if p not in _ENCODED:
        own = _width(max(p.coeffs), unit=8)
        _ENCODED[p] = to_image(p.coeffs, own), own
    x, own = _ENCODED[p]
    return x if own == w else _respaced(x, own, w, len(p))


def _max_abs(p: IntPoly) -> int:
    return max(map(abs, p.coeffs), default=0)


def _decode(x: int, w: int) -> IntPoly:
    """The polynomial with image x at q = 2**w, all |coefficients| below 2**(w-1).

    With the top digit nonzero and every digit below 2**(w-1) in absolute
    value, a d-digit image has between w*(d-1) and w*d - 1 bits, which gives
    d.
    """
    if not x:
        return IntPoly.zero()
    return IntPoly(from_image(x, w, abs(x).bit_length() // w + 1))


# --- super Catalan polynomials -------------------------------------------


_A_MEMO: dict[tuple[int, int], IntPoly] = {}


def super_catalan_q_direct(n: int, m: int) -> IntPoly:
    """A_{n,m}(q) = [2n]![2m]! / ([n]![n+m]![m]!) as a factorial ratio.

    Memoized in `_A_MEMO`, as the check and `r_poly` both need it; a miss
    grows from A_{n,m-1} or A_{n-1,m} when one is memoized.
    """
    _check_nm(n, m)
    if (n, m) not in _A_MEMO:
        spec = lambda i, j: _ratio_spec((2 * i, 2 * j), (i, i + j, j))
        near = [(spec(*k), _A_MEMO[k]) for k in ((n, m - 1), (n - 1, m)) if k in _A_MEMO]
        _A_MEMO[n, m] = d_polynomial(spec(n, m), near[0] if near else None)
    return _A_MEMO[n, m]


def super_catalan_q_recurrence(n: int, m: int) -> IntPoly:
    """A_{n,m}(q) by the index-gap recurrence

        A_{n,n+p} = sum_{k<=p/2} A_{n,k} *
                    sum_{j=k}^{p-k} q^{k(n+k)+j(n+j)} [p over 2k][p-2k over j-k]

    with A_{n,n} = A_{n,0} = [2n over n] and the symmetry A_{n,m} = A_{m,n}.
    Recursing on A_{n,k} strictly decreases (min, gap) lexicographically:
    k < n shrinks the minimum, and k >= n has gap k - n <= p/2 < p.
    """
    _check_nm(n, m)
    lo, hi = min(n, m), max(n, m)
    w = _width(_a_recur(lo, hi, 0))
    return _decode(_a_recur(lo, hi, w), w)


def _gap_sum(n: int, p: int, k: int, w: int) -> int:
    """sum_{j=k}^{p-k} q^{k(n+k)+j(n+j)} [p-2k over j-k], shared by both recurrences."""
    return sum(
        _binomial_image(p - 2 * k, j - k, w) << w * (k * (n + k) + j * (n + j))
        for j in range(k, p - k + 1)
    )


@cache
def _a_recur(lo: int, hi: int, w: int) -> int:
    if lo == 0 or lo == hi:
        return _binomial_image(2 * hi, hi, w)
    n, p = lo, hi - lo
    return sum(
        _a_recur(min(n, k), max(n, k), w) * _binomial_image(p, 2 * k, w) * _gap_sum(n, p, k, w)
        for k in range(p // 2 + 1)
    )


def _szily_sum(n: int, m: int, w: int, term) -> int:
    """sum_k (-1)^k q^{binom(k,2)} [2n over n+k]^r [2m over m+k]^s at q = 2**w.

    term(k) is the image at q = 2**w of the k-th product of Gaussians,
    [2n over n+k]^r [2m over m+k]^s, for 0 <= k <= min(n, m).

    The k and -k terms are summed as one: [N over M] = [N over N-M] gives
    them the same product p of Gaussians, (-1)^(-k) = (-1)^k the same sign,
    and binom(-k, 2) = binom(k, 2) + k, so together they are
    (-1)^k q^{binom(k,2)} (p + q^k p), exactly.  Each |k| costs one product.
    """
    total = term(0)
    for k in range(1, min(n, m) + 1):
        p = term(k)
        pair = (p + (p << w * k)) << w * (k * (k - 1) // 2)
        total = total - pair if k % 2 else total + pair
    return total


def _szily_bound(n: int, m: int, r: int, s: int) -> int:
    """The terms of `_szily_sum` at q = 1, summed without their signs."""
    return sum(
        comb(2 * n, n + k) ** r * comb(2 * m, m + k) ** s
        for k in range(-min(n, m), min(n, m) + 1)
    )


def _von_szily_image(n: int, m: int, w: int) -> int:
    """The von Szily sum divided by q^{nm}, at q = 2**w.

    With every coefficient of the sum below 2**(w-1) in absolute value, its
    image is divisible by 2**(w*nm) exactly when its nm lowest coefficients
    vanish (the argument of the module docstring, against Q = 0).
    """
    total = _szily_sum(
        n, m, w, lambda k: _binomial_image(2 * n, n + k, w) * _binomial_image(2 * m, m + k, w)
    )
    shift = w * n * m
    if shift and (not total or total & ((1 << shift) - 1)):
        raise IdentityViolation(
            f"von Szily sum for (n, m) = ({n}, {m}) is not divisible by q^{n * m}"
        )
    return total >> shift


def von_szily_q(n: int, m: int) -> IntPoly:
    """A_{n,m}(q) via the q-von-Szily alternating sum

        q^{-nm} * sum_k (-1)^k q^{binom(k,2)} [2n over n+k] [2m over m+k].

    The raw sum must be divisible by q^{nm}: IdentityViolation is raised
    unless its nm lowest coefficients vanish.
    """
    _check_nm(n, m)
    w = _width(_szily_bound(n, m, 1, 1))
    return _decode(_von_szily_image(n, m, w), w)


def von_szily_classical(n: int, m: int) -> int:
    """The q = 1 super Catalan number as the classical alternating sum."""
    _check_nm(n, m)
    return sum(
        (-1 if k % 2 else 1) * comb(2 * n, n + k) * comb(2 * m, m + k)
        for k in range(-min(n, m), min(n, m) + 1)
    )


def super_catalan_check(n: int, m: int) -> bool:
    """A_{n,m}(q) three ways: the factorial ratio equals the recurrence and
    the von Szily sum, is symmetric in (n, m), and takes the classical
    alternating sum's value at q = 1.

    Raises IdentityViolation when the von Szily sum is not divisible by q^{nm}.
    """
    _check_nm(n, m)
    direct = super_catalan_q_direct(n, m)
    lo, hi = min(n, m), max(n, m)
    w = _width(_max_abs(direct), _a_recur(lo, hi, 0), _szily_bound(n, m, 1, 1))
    return (
        to_image(direct.coeffs, w) == _a_recur(lo, hi, w) == _von_szily_image(n, m, w)
        and direct == super_catalan_q_direct(m, n)
        and direct.evaluate(1) == von_szily_classical(n, m)
    )


# --- the B family ---------------------------------------------------------


def _check_b_args(n: int, m: int) -> None:
    _check_nm(n, m)
    if m > n:
        raise ValueError(f"B_(n,m) requires n >= m, got n={n}, m={m}")


_B_LAST: dict[tuple[int, int], IntPoly] = {}


def b_poly_direct(n: int, m: int) -> IntPoly:
    """B_{n,m}(q) = [2n]![m]! / ([n]![2m]![n-m]!) for n >= m, grown from `_B_LAST` if of row n."""
    _check_b_args(n, m)
    spec = lambda i, j: _ratio_spec((2 * i, j), (i, 2 * j, i - j))
    start = next(((spec(*k), p) for k, p in _B_LAST.items() if k[0] == n), None)
    poly = d_polynomial(spec(n, m), start)
    _B_LAST.clear()
    _B_LAST[n, m] = poly
    return poly


def b_poly_recurrence(n: int, m: int) -> IntPoly:
    """B_{n,m}(q) by the companion recurrence (base m, offset p = n - m):

        B_{n+p,n} = sum_{k<=p/2} B_{n+k,n} *
            sum_{j=k}^{p-k} q^{k(n+k)+j(n+j)} [2n+p over 2n+2k][p-2k over j-k]

    with B_{n,n} = 1.  Terminates since k <= p/2 < p.
    """
    _check_b_args(n, m)
    w = _width(_b_recur(m, n - m, 0))
    return _decode(_b_recur(m, n - m, w), w)


@cache
def _b_recur(n: int, p: int, w: int) -> int:
    if p == 0:
        return 1
    return sum(
        _b_recur(n, k, w) * _binomial_image(2 * n + p, 2 * n + 2 * k, w) * _gap_sum(n, p, k, w)
        for k in range(p // 2 + 1)
    )


def b_poly_check(n: int, m: int) -> bool:
    """B_{n,m}(q) as the factorial ratio equals the companion recurrence."""
    direct = b_poly_direct(n, m)
    w = _width(_max_abs(direct), _b_recur(m, n - m, 0))
    return to_image(direct.coeffs, w) == _b_recur(m, n - m, w)


# --- classical summation identities, checked as polynomial equalities -----


def chu_vandermonde_check(a: int, b: int, c: int) -> bool:
    """[a+b over c] = sum_k q^{k(b-c+k)} [a over k] [b over c-k].

    k is clamped to [max(0, c-b), min(a, c)], where both factors are nonzero;
    there the exponent k(b-c+k) is never negative.  Both sides take the value
    C(a+b, c) at q = 1, the right one by the classical Vandermonde identity,
    so that one number bounds the coefficients of both.

    With a = b the window is symmetric about c/2 and the sum is folded: the
    k and c - k terms share the product p = [a over k][a over c-k], and their
    exponents k(a-c+k) and (c-k)(a-k) differ by a(c-2k), so together they are
    q^{k(a-c+k)} (p + q^{a(c-2k)} p).  Each k < c/2 costs one product, and the
    middle term k = c/2, for even c <= 2a, is added once.  The left side is
    still the q-Pascal image of [2a over c].
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("indices must be non-negative")
    lo, hi = max(0, c - b), min(a, c)
    w = _width(comb(a + b, c))
    term = lambda k: _binomial_image(a, k, w) * _binomial_image(b, c - k, w)
    if a != b:
        rhs = sum(term(k) << w * k * (b - c + k) for k in range(lo, hi + 1))
    else:
        rhs = 0
        for k in range(lo, c // 2 + 1):
            p = term(k)
            if 2 * k < c:
                p += p << w * a * (c - 2 * k)
            rhs += p << w * k * (a - c + k)
    return _binomial_image(a + b, c, w) == rhs


def e_main_check(n: int, p: int) -> bool:
    """The double Chu-Vandermonde expansion of [2n+2p over p].

    The single sum [2n+2p over p] = sum_j q^{j(n+j)} [n+p over j] [n+p over p-j]
    is `chu_vandermonde_check(n+p, n+p, p)`.  The double sum splits each
    [n+p over p-j] by a second Chu-Vandermonde, sum_k q^{k(n+k)} [j over k]
    [n+p-j over p-j-k], which is `chu_vandermonde_check(j, n+p-j, p-j)`.
    Checking the single sum and every inner sum against the Gaussian it
    expands implies the double equality, since the double sum is then the
    single sum term by term; and a wrong inner sum cannot cancel against
    another inside the total.
    """
    _check_nm(n, p)
    return chu_vandermonde_check(n + p, n + p, p) and all(
        chu_vandermonde_check(j, n + p - j, p - j) for j in range(p + 1)
    )


def q_binomial_theorem_check(n: int) -> bool:
    """prod_{i<n} (1 + t q^i) = sum_m q^{binom(m,2)} [n over m] t^m.

    The product is expanded t-degree by t-degree (each row a polynomial in q)
    and compared against the closed form.  For n <= 12 each row is also
    cross-checked against the subset-sum interpretation
    sum over m-subsets I of {0..n-1} of q^{sum(I)} by direct enumeration.
    Every row's coefficients are bounded by its value C(n, m) at q = 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    w = _width(comb(n, n // 2))
    rows = [1]
    for i in range(n):
        nxt = [0] * (len(rows) + 1)
        for m, row in enumerate(rows):
            nxt[m] += row
            nxt[m + 1] += row << w * i
        rows = nxt
    for m, row in enumerate(rows):
        if row != _binomial_image(n, m, w) << w * (m * (m - 1) // 2):
            return False
    if n <= 12:
        for m in range(n + 1):
            oracle = sum(1 << w * sum(subset) for subset in combinations(range(n), m))
            if oracle != rows[m]:
                return False
    return True


# --- alternating sums beyond von Szily ------------------------------------


def r_poly(n: int, m: int, r: int, s: int) -> IntPoly:
    """R_{n,m;r,s}(q): the alternating sum with powered Gaussian factors,

        sum_k (-1)^k q^{binom(k,2)} [2n over n+k]^r [2m over m+k]^s,

    exactly divided by A_{n,m}(q).  R_{n,m;1,1} = q^{nm}.

    The sum is taken in the image at the byte width W of `_szily_bound` and
    decoded once.  Powers are taken over IntPoly, where widths are tight.
    Their coefficients are non-negative, so each of a product a*b is at most
    max(a) times b's value at q = 1: a*b is the product of `_image`s at that
    byte width, re-spaced to W, as the tail terms need far fewer bits than W.
    """
    _check_nm(n, m)
    if r < 1 or s < 1:
        raise ValueError("powers r, s must be positive")
    w = _width(_szily_bound(n, m, r, s), unit=8)

    def term(k):
        a, b = q_binomial(2 * n, n + k) ** r, q_binomial(2 * m, m + k) ** s
        own = _width(max(a.coeffs) * comb(2 * m, m + k) ** s, unit=8)
        return _respaced(_image(a, own) * _image(b, own), own, w, len(a) + len(b) - 1)

    try:
        return _decode(_szily_sum(n, m, w, term), w).divide_exact(super_catalan_q_direct(n, m))
    except NotDivisible as exc:
        raise IdentityViolation(
            f"powered von Szily sum for (n, m, r, s) = ({n}, {m}, {r}, {s}) "
            f"is not a multiple of A_({n},{m})"
        ) from exc


def borwein_sum(n: int) -> IntPoly:
    """sum_k (-1)^k q^{binom(k,2) + 4k^2} [2n over n+3k], k in [-n/3, n/3].

    Folded as `_szily_sum` is: the k and -k terms share the Gaussian
    [2n over n+3k] = [2n over n-3k] and the sign, and their shifts are
    binom(k,2) + 4k^2 and binom(k,2) + k + 4k^2.  Each row-2n Gaussian is read
    once, so it bypasses `q_binomial`'s memo, which would only hold it: the
    row is one `ratio_chain`, each Gaussian grown from the one before.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    row = ratio_chain(_ratio_spec((2 * n,), (n + 3 * k, n - 3 * k)) for k in range(n // 3 + 1))
    total = next(row)
    for k, p in enumerate(row, start=1):
        pair = (p + p.shifted(k)).shifted(k * (k - 1) // 2 + 4 * k * k)
        total = total - pair if k % 2 else total + pair
    return total
