"""The identity commands: identities, borwein and rpoly.

`cli` imports this module only when one of them runs.  Each command imports
`identities` (and with it qfactor, polyring and landau) when it runs, and
looks its checks up there at each call, so a rebound check is the one run.

identities refuses --max-n above MAX_IDENTITY_N, borwein refuses --n-max above
MAX_BORWEIN_N, and rpoly refuses r*n**2 + s*m**2 (a bound on the degree of its
alternating sum) above MAX_RPOLY_SIZE.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterator

from .cli import _UsageError, _record
from .errors import IdentityViolation

MAX_IDENTITY_N = 16
MAX_BORWEIN_N = 40
MAX_RPOLY_SIZE = 4_000


def _verdict(check, *case) -> bool:
    """check(*case), an IdentityViolation counting as a failed case."""
    try:
        return check(*case)
    except IdentityViolation:
        return False


def _once_per_pair(check):
    """A check symmetric in (n, m), run once per unordered pair {n, m}."""
    once = cache(lambda lo, hi: _verdict(check, lo, hi))
    return lambda n, m: once(min(n, m), max(n, m))


def cmd_identities(args) -> Iterator[dict]:
    from . import identities as ids
    from .polyring import IntPoly

    if args.max_n > MAX_IDENTITY_N:
        raise _UsageError(f"--max-n is capped at {MAX_IDENTITY_N}")
    echo = {"max_n": args.max_n}
    span = range(args.max_n + 1)
    # (name, case keys, cases, check): built on each call, so the checks are
    # whatever identities binds now, and the cases are generated lazily.  The
    # pair memos last this call.  They are exact: super_catalan_check demands
    # direct(n, m) == direct(m, n), and both rows' other legs only swap factors.
    table = [
        ("super-catalan-three-way", ("n", "m"), itertools.product(span, span),
         _once_per_pair(ids.super_catalan_check)),
        ("b-recurrence", ("n", "m"), ((n, m) for n in span for m in range(n + 1)),
         ids.b_poly_check),
        ("chu-vandermonde", ("a", "b", "c"), itertools.product(span, span, span),
         ids.chu_vandermonde_check),
        ("double-chu-vandermonde", ("n", "p"), itertools.product(span, span), ids.e_main_check),
        ("q-binomial-theorem", ("n",), itertools.product(span), ids.q_binomial_theorem_check),
        ("r-unit-shift", ("n", "m"), itertools.product(span, span),
         _once_per_pair(lambda n, m: ids.r_poly(n, m, 1, 1) == IntPoly.monomial(n * m))),
    ]
    for row, (name, keys, cases, check) in enumerate(table):
        failures, count = [], 0
        for count, case in enumerate(cases, start=1):
            if not _verdict(check, *case):
                failures.append(dict(zip(keys, case)))
        # A memo lives until the last row that reads it (`identities.MEMOS`);
        # an image memo one row, lest it be held beside the next row's widths.
        # The R row divides only by A_{n,m} with n <= m, so it builds no A.
        ids.drop_memos([later[0] for later in table[row + 1 :]])
        ids._IMAGES.clear()
        if name == "super-catalan-three-way":
            for key in [key for key in ids._A_MEMO if key[0] > key[1]]:
                del ids._A_MEMO[key]
        status = "ok" if not failures else "identity-violation"
        payload = {"identity": name, "cases": count, "failures": failures}
        yield _record("identities", dict(echo, identity=name), status, payload)


def cmd_borwein(args) -> Iterator[dict]:
    from .identities import borwein_sum
    from .stats import poly_stats

    if args.n_max > MAX_BORWEIN_N:
        raise _UsageError(f"--n-max is capped at {MAX_BORWEIN_N}")
    echo = {"n_max": args.n_max}
    for n in range(args.n_max + 1):
        payload = dict(n=n, **poly_stats(borwein_sum(n), args.full))
        status = "ok" if payload["is_positive"] else "negative-found"
        yield _record("borwein", dict(echo, n=n), status, payload)


def cmd_rpoly(args) -> Iterator[dict]:
    from .identities import r_poly
    from .stats import poly_stats

    size = args.r * args.n**2 + args.s * args.m**2
    if size > MAX_RPOLY_SIZE:
        raise _UsageError(f"r*n^2 + s*m^2 is {size}, above the cap of {MAX_RPOLY_SIZE}")
    echo = {"n": args.n, "m": args.m, "r": args.r, "s": args.s}
    try:
        poly = r_poly(args.n, args.m, args.r, args.s)
    except IdentityViolation as exc:
        payload = dict(echo, reason=str(exc))
        yield _record("rpoly", echo, "identity-violation", payload)
        return
    payload = dict(echo, **poly_stats(poly, full=True))
    status = "ok" if payload["is_positive"] else "negative-found"
    yield _record("rpoly", echo, status, payload)
