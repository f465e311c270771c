"""The record form of a polynomial, shared by every command that builds one.

Imported only by the code that builds a polynomial, together with polyring.
"""

from __future__ import annotations

from .polyring import IntPoly, positivity_report


def poly_stats(poly: IntPoly, full: bool) -> dict:
    """Degree, term count and positivity report of poly; with full, its coefficients too.

    Coefficients, and min_coeff, are decimal strings: they routinely exceed 64 bits.
    """
    cs = poly.coeffs
    report = positivity_report(poly)
    stats = {
        "degree": report.degree,
        "num_terms": len(cs) - cs.count(0),
        "min_coeff": str(report.min_coeff),
        "is_positive": report.is_positive,
        "is_symmetric": report.is_symmetric,
        "is_unimodal": report.is_unimodal,
        "negative_positions": list(report.negative_positions),
    }
    if full:
        if report.is_symmetric:
            # the high half mirrors the low half, so each string is made once and shared
            low = [str(c) for c in cs[: (len(cs) + 1) // 2]]
            stats["coefficients"] = low + low[: len(cs) // 2][::-1]
        else:
            stats["coefficients"] = [str(c) for c in cs]
    return stats
