"""Exact q-series positivity toolkit.

Integer-coefficient polynomial arithmetic, q-factorial ratios and their
cyclotomic factorizations, the floor-sum integrality criterion, and
machine verification of the classical q-identities built from them.

Every public name is loaded from its module on first use (PEP 562), so
`import qpositivity`, which `python -m qpositivity` runs first, loads no
submodule, and each CLI command loads only the modules it runs.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "errors": "Degenerate IdentityViolation NotDivisible NotPolynomial QPositivityError",
    "identities": (
        "b_poly_check b_poly_direct b_poly_recurrence borwein_sum chu_vandermonde_check"
        " e_main_check q_binomial_theorem_check r_poly super_catalan_check"
        " super_catalan_q_direct super_catalan_q_recurrence von_szily_classical von_szily_q"
    ),
    "landau": (
        "CanonicalTuple LandauVerdict TupleSpec canonicalize enumerate_tuples floor_sum"
        " landau_check"
    ),
    "polyring": "IntPoly PositivityReport cyclotomic positivity_report",
    "qfactor": (
        "classical_ratio d_polynomial d_polynomial_naive q_binomial q_factorial ratio_chain"
        " ratio_exponents scaled_ratios"
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
