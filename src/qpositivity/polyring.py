"""Exact dense polynomial arithmetic over the integers, cyclotomics, positivity reports.

A polynomial is a dense coefficient sequence: ``coeffs[i]`` is the (arbitrary
precision) integer coefficient of q^i.  The sequence never ends in a zero, and
the zero polynomial is the empty sequence, so ``degree`` is ``len(coeffs) - 1``
for nonzero polynomials and undefined (``None``) for zero.

Multiplication is schoolbook below a size threshold.  Above it, it is Kronecker
substitution: both operands become one Python int each, their images at
q = 2**w (`to_image`), and one big-int product replaces the whole
convolution; `from_image` reads the product's coefficients back.  Both paths
are exact; the packed path is checked against schoolbook by the property
tests.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import functools
from operator import add, le, neg
from typing import Iterable, NamedTuple

from .errors import NotDivisible

# Use schoolbook while len(p) * len(r) is below this; packing overhead loses
# on small operands.
_PACKED_MIN_AREA = 1024


class IntPoly:
    """Dense polynomial in q with integer coefficients.

    >>> IntPoly([1, 1]) * IntPoly([1, -1])
    IntPoly([1, 0, -1])
    >>> IntPoly([1, 1, 1]).evaluate(1)
    3
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> IntPoly:
        return _ZERO

    @classmethod
    def one(cls) -> IntPoly:
        return _ONE

    @classmethod
    def monomial(cls, exponent: int) -> IntPoly:
        """The polynomial ``q**exponent``."""
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * exponent + (1,))

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([*map(add, a, b), *a[len(b) :]])

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(map(neg, self.coeffs))

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other: int) -> IntPoly:
        return (-self) + other

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) * len(b) < _PACKED_MIN_AREA:
            return IntPoly(_mul_schoolbook(a, b))
        return IntPoly(_mul_packed(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = base if result is _ONE else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shifted(self, k: int) -> IntPoly:
        """Multiply by q**k (k >= 0): shift all exponents up by k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if not self.coeffs:
            return _ZERO
        return IntPoly((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        """Exact evaluation at an integer point by Horner's scheme."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide_exact(self, other: IntPoly) -> IntPoly:
        """Return s with self = other * s, or raise NotDivisible.

        Division runs from the leading coefficient down; it aborts as soon as
        a quotient coefficient fails to be an integer, and checks that the
        full remainder vanishes.
        """
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self.coeffs
        if not a:
            return _ZERO
        la, lb = len(a), len(b)
        if la < lb:
            raise NotDivisible(f"degree {la - 1} < degree {lb - 1}")
        lead = b[-1]
        rem = list(a)
        quot = [0] * (la - lb + 1)
        for i in range(la - lb, -1, -1):
            c = rem[i + lb - 1]
            if c == 0:
                continue
            qc, r = divmod(c, lead)
            if r:
                raise NotDivisible("leading coefficient is not divisible")
            quot[i] = qc
            seg = rem[i : i + lb]
            rem[i : i + lb] = [x - qc * y for x, y in zip(seg, b)]
        if any(rem[: lb - 1]):
            raise NotDivisible("nonzero remainder")
        return IntPoly(quot)

    def __repr__(self) -> str:
        if len(self.coeffs) <= 17:
            return f"IntPoly({list(self.coeffs)})"
        return f"<IntPoly degree={self.degree} min={min(self.coeffs)} max={max(self.coeffs)}>"


_ZERO = IntPoly()
_ONE = IntPoly((1,))


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    if len(a) > len(b):
        a, b = b, a
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, c in enumerate(a):
        if c == 0:
            continue
        seg = out[i : i + lb]
        out[i : i + lb] = [x + c * y for x, y in zip(seg, b)]
    return out


def _mul_packed(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The product of a and b by Kronecker substitution: one product of images."""
    # Every product coefficient is a sum of at most min(len(a), len(b))
    # products, so its magnitude is below 2**(bits - 1), which `from_image`
    # needs of every digit.
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    w = (bits + 7) // 8 * 8
    return from_image(to_image(a, w) * to_image(b, w), w, len(a) + len(b) - 1)


def _offsets(w: int, count: int) -> int:
    """2**(w-1) in each of count w-bit digits."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * count, "little")


def to_image(cs: tuple[int, ...], w: int) -> int:
    """The value at q = 2**w of the coefficients cs (lowest first), in offset binary.

    w is a multiple of 8 and every |c| is below 2**(w-1).  Each c is
    written as the unsigned little-endian w-bit digit c + 2**(w-1), and the
    offsets of all digits are subtracted at once.
    """
    half = 1 << (w - 1)
    packed = b"".join([(c + half).to_bytes(w // 8, "little") for c in cs])
    return int.from_bytes(packed, "little") - _offsets(w, len(cs))


def from_image(x: int, w: int, count: int) -> list[int]:
    """The count signed w-bit digits of x, lowest first: the inverse of to_image.

    Adding the offsets back puts every digit c as c + 2**(w-1) in its own w
    bits, with no carry between digits, provided every |c| is below
    2**(w-1).  The overflow guard: an x that does not fit count digits
    raises OverflowError.
    """
    width = w // 8
    half = 1 << (w - 1)
    raw = (x + _offsets(w, count)).to_bytes(count * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


@functools.cache
def cyclotomic(ell: int) -> IntPoly:
    """The cyclotomic polynomial Phi_ell(q).

    Computed as (q**ell - 1) exactly divided by Phi_d over the proper divisors
    d of ell; no rational intermediates.  Memoized for the life of the process
    (concurrent duplicate computation is idempotent).

    >>> cyclotomic(1)
    IntPoly([-1, 1])
    >>> cyclotomic(6)
    IntPoly([1, -1, 1])
    """
    if ell < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if ell == 1:
        return IntPoly((-1, 1))
    poly = IntPoly((-1,) + (0,) * (ell - 1) + (1,))
    for d in range(1, ell):
        if ell % d == 0:
            poly = poly.divide_exact(cyclotomic(d))
    return poly


class PositivityReport(NamedTuple):
    """Coefficient-level facts about one polynomial.

    `degree` is None for the zero polynomial, and `min_coeff` is 0 for it.
    `is_symmetric` means c_i = c_{deg-i}; `is_unimodal` means the
    coefficients weakly rise to a peak and then weakly fall.  Both are
    computed from the coefficients, never assumed from provenance.
    """

    degree: int | None
    negative_positions: tuple[int, ...]
    is_positive: bool
    is_symmetric: bool
    is_unimodal: bool
    min_coeff: int


def positivity_report(p: IntPoly) -> PositivityReport:
    cs = p.coeffs
    # min is one C-level pass; the positions are looked for only when there are some
    least = min(cs, default=0)
    negatives = tuple(i for i, c in enumerate(cs) if c < 0) if least < 0 else ()
    symmetric = cs == cs[::-1]
    if symmetric:
        # the high half mirrors the low half, which must weakly rise up to the middle
        low = cs[: len(cs) // 2 + 1]
        unimodal = all(map(le, low, low[1:]))
    else:
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
        is_symmetric=symmetric,
        is_unimodal=unimodal,
        min_coeff=least,
    )
