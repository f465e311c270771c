"""The tuple-family commands: landau, dpoly, sweep and enumerate.

`cli` imports this module only when one of them runs.  Of the package, it
loads only `errors` and `landau` with it; qfactor, polyring and `stats` are
imported by the code that builds a D_n, so `landau` and a plain `enumerate`
never load them.

dpoly, sweep and enumerate --sweep-n refuse, as a usage error and before any
other work (sweep's Landau verdict included), any D_n whose degree
sum(C(n*a_i, 2)) - sum(C(n*b_j, 2)) or whose largest entry exceeds
MAX_DEGREE, and landau refuses a tuple whose largest entry does; enumerate
refuses a b-table above MAX_B_TUPLES, counted before any is made.
"""

from __future__ import annotations

import os
from typing import Iterator

from .cli import _UsageError, _record, _set_digit_limit
from .errors import Degenerate, NotPolynomial
from .landau import TupleSpec, b_table_size, canonicalize, enumerate_tuples, landau_check

MAX_SUM_BOUND = 64
MAX_B_TUPLES = 250_000
MAX_DEGREE = 250_000


def _check_degree(spec: TupleSpec, n: int) -> None:
    """Refuse D_n of spec above MAX_DEGREE, before anything is built.

    Both its degree and its largest entry are capped: the Landau scan and
    `ratio_exponents` take time linear in the largest entry, whatever the
    degree.
    """
    scaled = spec.scaled(n)
    if scaled.degree > MAX_DEGREE:
        raise _UsageError(
            f"D_{n} of a={list(spec.a)}, b={list(spec.b)} has degree {scaled.degree},"
            f" above the cap of {MAX_DEGREE}"
        )
    _check_entry(scaled)


def _check_entry(spec: TupleSpec) -> None:
    """Refuse spec if its largest entry is above MAX_DEGREE."""
    if spec.max_entry > MAX_DEGREE:
        raise _UsageError(
            f"a={list(spec.a)}, b={list(spec.b)} has largest entry {spec.max_entry},"
            f" above the cap of {MAX_DEGREE}"
        )


def _resolve_spec(a, b, raw: bool):
    """(spec, canonicalization info) honoring --raw; Degenerate means D = 1."""
    given = TupleSpec(a, b)
    if raw:
        return given, {"canonical_a": list(given.a), "canonical_b": list(given.b)}
    try:
        canon = canonicalize(given)
    except Degenerate as exc:
        spec = exc.canonical
        return spec, {
            "canonical_a": list(spec.a),
            "canonical_b": list(spec.b),
            "degenerate": True,
        }
    return canon.spec, {
        "canonical_a": list(canon.spec.a),
        "canonical_b": list(canon.spec.b),
        "primitive": canon.primitive,
    }


def cmd_landau(args) -> Iterator[dict]:
    echo = {"a": list(args.a), "b": list(args.b), "raw": args.raw}
    spec, info = _resolve_spec(args.a, args.b, args.raw)
    _check_entry(spec)
    verdict = landau_check(spec)
    payload = dict(info)
    payload.update(
        holds=verdict.holds,
        witness=str(verdict.witness) if verdict.witness is not None else None,
        min_value=verdict.min_value,
    )
    # a failing criterion means some scaling yields a non-polynomial ratio
    status = "ok" if verdict.holds else "not-polynomial"
    yield _record("landau", echo, status, payload)


def cmd_dpoly(args) -> Iterator[dict]:
    from .qfactor import classical_ratio, d_polynomial
    from .stats import poly_stats

    echo = {"a": list(args.a), "b": list(args.b), "n": args.n, "raw": args.raw}
    spec, info = _resolve_spec(args.a, args.b, args.raw)
    _check_degree(spec, args.n)
    try:
        poly = d_polynomial(spec.scaled(args.n))
    except NotPolynomial as exc:
        payload = dict(info, n=args.n, reason=str(exc), smallest_failing_ell=exc.ell)
        yield _record("dpoly", echo, "not-polynomial", payload)
        return
    stats = poly_stats(poly, full=True)
    value_at_1 = poly.evaluate(1)
    classical = classical_ratio(spec.scaled(args.n))
    payload = dict(info, n=args.n, **stats)
    payload.update(
        value_at_1=str(value_at_1),
        classical_ratio=str(classical),
        q1_agrees=classical == value_at_1,
    )
    status = "ok" if stats["is_positive"] else "negative-found"
    yield _record("dpoly", echo, status, payload)


def _map(fn, tasks: list, jobs: int) -> Iterator:
    """(fn(task) for task in tasks) on min(jobs, len(tasks), CPUs) workers; no pool for one."""
    # More workers than CPUs gain nothing, and a fork pool starts them all at the first submit.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # Imported here, so that a one-job run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


def _d_rows(spec: TupleSpec, n_max: int, full: bool):
    """Stats rows of D_n of spec for n = 1..n_max, each D_n dropped once its row is made."""
    from .qfactor import scaled_ratios
    from .stats import poly_stats

    for n, poly in enumerate(scaled_ratios(spec, n_max), start=1):
        yield dict(n=n, **poly_stats(poly, full))


def cmd_sweep(args) -> Iterator[dict]:
    echo = {"a": list(args.a), "b": list(args.b), "n_max": args.n_max, "raw": args.raw}
    spec, info = _resolve_spec(args.a, args.b, args.raw)
    _check_degree(spec, args.n_max)
    verdict = landau_check(spec)
    if not verdict.holds:
        payload = dict(
            info,
            reason="tuple fails the floor-sum criterion",
            witness=str(verdict.witness),
            min_value=verdict.min_value,
        )
        yield _record("sweep", echo, "not-polynomial", payload)
        return
    for row in _d_rows(spec, args.n_max, args.full):
        status = "ok" if row["is_positive"] else "negative-found"
        yield _record("sweep", dict(echo, n=row["n"]), status, row)
        del row  # else the printed row stays alive while the next D_n is built


def _tuple_sweep_record(task: tuple) -> dict:
    echo, a, b, n_max, full = task
    _set_digit_limit(0)  # a worker started by spawn or forkserver has not run main
    per_n = list(_d_rows(TupleSpec(a, b), n_max, full))
    negative_ns = [row["n"] for row in per_n if not row["is_positive"]]
    payload = {
        "a": list(a),
        "b": list(b),
        "sweep_n": n_max,
        "all_positive": not negative_ns,
        "negative_ns": negative_ns,
        "per_n": per_n,
    }
    status = "ok" if not negative_ns else "negative-found"
    return _record("enumerate", dict(echo), status, payload)


def cmd_enumerate(args) -> Iterator[dict]:
    if args.sum_bound > MAX_SUM_BOUND:
        raise _UsageError(f"--sum-bound is capped at {MAX_SUM_BOUND}")
    if args.sum_bound < 2:
        raise _UsageError("--sum-bound must be >= 2")
    size = b_table_size(args.r, args.s, args.sum_bound)
    if size > MAX_B_TUPLES:
        raise _UsageError(f"the search holds {size} b-tuples, above the cap of {MAX_B_TUPLES}")
    echo = {
        "r": args.r,
        "s": args.s,
        "sum_bound": args.sum_bound,
        "balanced": args.balanced,
        "sweep_n": args.sweep_n,
    }
    tuples = enumerate_tuples(args.r, args.s, args.sum_bound, balanced_only=args.balanced)
    if args.sweep_n is None:
        for t in tuples:
            yield _record("enumerate", dict(echo), "ok", {"a": list(t.a), "b": list(t.b)})
        return
    tuples = list(tuples)
    for t in tuples:
        _check_degree(t, args.sweep_n)
    tasks = [(echo, t.a, t.b, args.sweep_n, args.full) for t in tuples]
    yield from _map(_tuple_sweep_record, tasks, args.jobs)
