"""Exact q-series positivity toolkit.

Integer-coefficient polynomial arithmetic, q-factorial ratios and their
cyclotomic factorizations, the floor-sum integrality criterion, and
machine verification of the classical q-identities built from them.
"""

from .errors import (
    Degenerate,
    IdentityViolation,
    NotDivisible,
    NotPolynomial,
    QPositivityError,
)
from .identities import (
    PositivityReport,
    b_poly_check,
    b_poly_direct,
    b_poly_recurrence,
    borwein_sum,
    chu_vandermonde_check,
    e_main_check,
    positivity_report,
    q_binomial_theorem_check,
    r_poly,
    super_catalan_check,
    super_catalan_q_direct,
    super_catalan_q_recurrence,
    von_szily_classical,
    von_szily_q,
)
from .landau import (
    CanonicalTuple,
    LandauVerdict,
    canonicalize,
    enumerate_tuples,
    floor_sum,
    landau_check,
)
from .polyring import IntPoly, cyclotomic
from .qfactor import (
    TupleSpec,
    classical_ratio,
    d_polynomial,
    d_polynomial_naive,
    q_binomial,
    q_factorial,
    q_integer,
    ratio_exponents,
    scaled_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalTuple",
    "Degenerate",
    "IdentityViolation",
    "IntPoly",
    "LandauVerdict",
    "NotDivisible",
    "NotPolynomial",
    "PositivityReport",
    "QPositivityError",
    "TupleSpec",
    "b_poly_check",
    "b_poly_direct",
    "b_poly_recurrence",
    "borwein_sum",
    "canonicalize",
    "chu_vandermonde_check",
    "classical_ratio",
    "cyclotomic",
    "d_polynomial",
    "d_polynomial_naive",
    "e_main_check",
    "enumerate_tuples",
    "floor_sum",
    "landau_check",
    "positivity_report",
    "q_binomial",
    "q_binomial_theorem_check",
    "q_factorial",
    "q_integer",
    "r_poly",
    "ratio_exponents",
    "scaled_ratios",
    "super_catalan_check",
    "super_catalan_q_direct",
    "super_catalan_q_recurrence",
    "von_szily_classical",
    "von_szily_q",
]
