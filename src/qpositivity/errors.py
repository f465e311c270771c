"""Exception types shared across the package."""

from __future__ import annotations


class QPositivityError(Exception):
    """Base class for all package-specific errors."""


class NotDivisible(QPositivityError):
    """Exact polynomial division left a nonzero remainder."""


class NotPolynomial(QPositivityError):
    """A factorial ratio is not a polynomial.

    `ell` is the index of a cyclotomic factor with negative exponent when the
    failure was detected by the cyclotomic exponent check (None on the
    naive-division route); `n` is the scale at which `qfactor.scaled_ratios`
    found the failure, counted from the tuple it was given (so always 1 from
    `d_polynomial`), and None on the naive-division route.
    """

    def __init__(self, message: str, ell: int | None = None, n: int | None = None):
        super().__init__(message)
        self.ell = ell
        self.n = n


class IdentityViolation(QPositivityError):
    """A machine-verified identity failed to check out.

    Every identity this package verifies is proven, so seeing this exception
    means an implementation bug, never bad input.
    """


class Degenerate(QPositivityError):
    """Both sides of a tuple cancelled completely; the ratio is identically 1.

    `canonical` holds the conventional representation of that ratio.
    """

    def __init__(self, message: str, canonical=None):
        super().__init__(message)
        self.canonical = canonical
