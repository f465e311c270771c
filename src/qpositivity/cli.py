"""Command-line interface.

Every subcommand emits line-delimited JSON records (or a CSV projection)
with the stable shape

    {"command": ..., "input": {...}, "status": ..., "payload": {...},
     "elapsed_ms": ...}

where status is one of ok, not-polynomial, negative-found,
identity-violation.  Coefficient values are decimal strings; they routinely
exceed 64 bits.  Exit codes: 0 for success (including not-polynomial, which
is an answer, not an error), 1 for usage errors and for a reader that closes
stdout early (the run then stops quietly and writes no --out file), 2 when a
negative coefficient was found, 3 on an internal identity violation.

Each record is printed and flushed as soon as it is made.  Its elapsed_ms is
the time from the previous record (or the start of the command) to this one:
under --jobs 1 the time spent making it, under a worker pool the wait a
reader sees.  Output is deterministic; `--no-timing` drops the elapsed_ms
field so two runs can be compared byte for byte.  `--out DIR` writes each
record, as it is printed, as a JSON line of a temp file in DIR, then a last
line with the key (command, parameters, package version, record schema), and
renames the file to a name hashed from the key.  A later identical invocation
replays the file (stored elapsed_ms included) once it has checked that every
line but the last is a record of the command's shape and the last is its key;
any other file is recomputed and overwritten.  A run that stops early (usage
error, exception, closed stdout, Ctrl-C, SIGTERM) leaves no file; under
--out, SIGTERM exits with status 143 (128 + 15).  Only a signal that ends
the process outright (SIGKILL) can leave a `.tmp-*` file, which is never
replayed.  Coefficients of any size are printed: the run lifts CPython's
int -> str digit limit and restores it when it returns.  The modules only
--out and --format csv use (hashlib, signal, tempfile, csv), and the
package's own qfactor, polyring and identities, are imported on demand by the
code that calls them, so `landau` and a plain `enumerate` never load them.

dpoly, sweep and enumerate --sweep-n refuse, as a usage error and before any
other work (sweep's Landau verdict included), any D_n whose degree
sum(C(n*a_i, 2)) - sum(C(n*b_j, 2)) or whose largest entry exceeds MAX_DEGREE,
and landau refuses a tuple whose largest entry does; enumerate refuses a
b-table above MAX_B_TUPLES, counted before any is made; borwein refuses
--n-max above MAX_BORWEIN_N, and rpoly refuses r*n**2 + s*m**2 (a bound on the
degree of its alternating sum) above MAX_RPOLY_SIZE.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from functools import cache
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .errors import Degenerate, IdentityViolation, NotPolynomial
from .landau import TupleSpec, b_table_size, canonicalize, enumerate_tuples, landau_check

if TYPE_CHECKING:
    from .polyring import IntPoly

MAX_SUM_BOUND = 64
MAX_B_TUPLES = 250_000
MAX_DEGREE = 250_000
MAX_IDENTITY_N = 16
MAX_BORWEIN_N = 40
MAX_RPOLY_SIZE = 4_000
# Bumped whenever the record layout changes, so --out never replays an old shape.
_CACHE_SCHEMA = 2

_STATUS_EXIT = {"ok": 0, "not-polynomial": 0, "negative-found": 2, "identity-violation": 3}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("entries must be positive integers")
    return values


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    common.add_argument("--out", metavar="DIR", help="persist/reuse results under DIR")
    common.add_argument("--jobs", type=_positive, default=os.cpu_count() or 1)
    common.add_argument("--no-timing", action="store_true", help="omit elapsed_ms")
    full = argparse.ArgumentParser(add_help=False)
    full.add_argument("--full", action="store_true", help="include coefficient lists")
    raw = argparse.ArgumentParser(add_help=False)
    raw.add_argument("--raw", action="store_true", help="skip tuple canonicalization")

    parser = _Parser(prog="qpos", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("landau", parents=[common, raw], help="decide the floor-sum criterion")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)

    p = sub.add_parser("dpoly", parents=[common, raw], help="one factorial-ratio polynomial")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)
    p.add_argument("--n", type=_positive, required=True)

    p = sub.add_parser("sweep", parents=[common, full, raw], help="D_n for n = 1..n-max")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)
    p.add_argument("--n-max", type=_positive, required=True)

    p = sub.add_parser("enumerate", parents=[common, full], help="tuple families, optional sweep")
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--s", type=_positive, required=True)
    p.add_argument("--sum-bound", type=_positive, required=True)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--sweep-n", type=_positive)

    p = sub.add_parser("identities", parents=[common], help="cross-check every identity")
    p.add_argument("--max-n", type=_non_negative, required=True)

    p = sub.add_parser("borwein", parents=[common, full], help="Borwein-type sums, n = 0..n-max")
    p.add_argument("--n-max", type=_positive, required=True)

    p = sub.add_parser("rpoly", parents=[common], help="the factored alternating sum R")
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--m", type=_non_negative, required=True)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--s", type=_positive, required=True)

    return parser


# --- record helpers --------------------------------------------------------


def _poly_stats(poly: IntPoly, full: bool) -> dict:
    from .polyring import positivity_report

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


def _record(command: str, input_echo: dict, status: str, payload: dict) -> dict:
    return {"command": command, "input": input_echo, "status": status, "payload": payload}


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


# --- subcommands -----------------------------------------------------------


def _cmd_landau(args) -> Iterator[dict]:
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


def _cmd_dpoly(args) -> Iterator[dict]:
    from .qfactor import classical_ratio, d_polynomial

    echo = {"a": list(args.a), "b": list(args.b), "n": args.n, "raw": args.raw}
    spec, info = _resolve_spec(args.a, args.b, args.raw)
    _check_degree(spec, args.n)
    try:
        poly = d_polynomial(spec.scaled(args.n))
    except NotPolynomial as exc:
        payload = dict(info, n=args.n, reason=str(exc), smallest_failing_ell=exc.ell)
        yield _record("dpoly", echo, "not-polynomial", payload)
        return
    stats = _poly_stats(poly, full=True)
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

    for n, poly in enumerate(scaled_ratios(spec, n_max), start=1):
        yield dict(n=n, **_poly_stats(poly, full))


def _cmd_sweep(args) -> Iterator[dict]:
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


def _cmd_enumerate(args) -> Iterator[dict]:
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


def _cmd_identities(args) -> Iterator[dict]:
    from .identities import (
        b_poly_check,
        chu_vandermonde_check,
        e_main_check,
        q_binomial_theorem_check,
        r_poly,
        super_catalan_check,
    )
    from .polyring import IntPoly

    if args.max_n > MAX_IDENTITY_N:
        raise _UsageError(f"--max-n is capped at {MAX_IDENTITY_N}")
    echo = {"max_n": args.max_n}
    span = range(args.max_n + 1)
    # (name, case keys, cases, check): built on each call, so the checks are
    # whatever identities binds now, and the cases are generated lazily.
    # The pair memos last this call.  They are exact: super_catalan_check demands
    # direct(n, m) == direct(m, n), and both rows' other legs only swap factors.
    table = [
        ("super-catalan-three-way", ("n", "m"), itertools.product(span, span),
         _once_per_pair(super_catalan_check)),
        ("b-recurrence", ("n", "m"), ((n, m) for n in span for m in range(n + 1)),
         b_poly_check),
        ("chu-vandermonde", ("a", "b", "c"), itertools.product(span, span, span),
         chu_vandermonde_check),
        ("double-chu-vandermonde", ("n", "p"), itertools.product(span, span), e_main_check),
        ("q-binomial-theorem", ("n",), itertools.product(span), q_binomial_theorem_check),
        ("r-unit-shift", ("n", "m"), itertools.product(span, span),
         _once_per_pair(lambda n, m: r_poly(n, m, 1, 1) == IntPoly.monomial(n * m))),
    ]
    for name, keys, cases, check in table:
        failures, count = [], 0
        for count, case in enumerate(cases, start=1):
            if not _verdict(check, *case):
                failures.append(dict(zip(keys, case)))
        status = "ok" if not failures else "identity-violation"
        payload = {"identity": name, "cases": count, "failures": failures}
        yield _record("identities", dict(echo, identity=name), status, payload)


def _cmd_borwein(args) -> Iterator[dict]:
    from .identities import borwein_sum

    if args.n_max > MAX_BORWEIN_N:
        raise _UsageError(f"--n-max is capped at {MAX_BORWEIN_N}")
    echo = {"n_max": args.n_max}
    for n in range(args.n_max + 1):
        payload = dict(n=n, **_poly_stats(borwein_sum(n), args.full))
        status = "ok" if payload["is_positive"] else "negative-found"
        yield _record("borwein", dict(echo, n=n), status, payload)


def _cmd_rpoly(args) -> Iterator[dict]:
    from .identities import r_poly

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
    payload = dict(echo, **_poly_stats(poly, full=True))
    status = "ok" if payload["is_positive"] else "negative-found"
    yield _record("rpoly", echo, status, payload)


_DISPATCH = {
    "landau": _cmd_landau,
    "dpoly": _cmd_dpoly,
    "sweep": _cmd_sweep,
    "enumerate": _cmd_enumerate,
    "identities": _cmd_identities,
    "borwein": _cmd_borwein,
    "rpoly": _cmd_rpoly,
}


class _UsageError(Exception):
    pass


# --- output ----------------------------------------------------------------

_CSV_FIELDS = ("n", "degree", "num_terms", "min_coeff", "is_positive")


def _csv_rows(rec: dict) -> list[dict]:
    """Per-polynomial projection of one record; none if it has no coefficient stats."""
    payload = rec["payload"]
    rows = payload.get("per_n", [payload] if "degree" in payload else [])
    return [{k: row.get(k) for k in _CSV_FIELDS} for row in rows]


def _emit(rec: dict, writer, no_timing: bool) -> None:
    """Print one record, as CSV rows through writer if there is one, and flush it."""
    if writer is not None:
        writer.writerows(_csv_rows(rec))
    else:
        if no_timing:
            rec = {k: v for k, v in rec.items() if k != "elapsed_ms"}
        print(json.dumps(rec, sort_keys=True))
    sys.stdout.flush()


# Flags that shape only how a run is printed or scheduled, never its records.
_NOT_KEYED = {"command", "format", "out", "jobs", "no_timing"}


def _cache_key(args) -> dict:
    """Every parsed option that can change the records, as JSON-ready values."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in vars(args).items()
        if key not in _NOT_KEYED
    }


def _is_record(rec, command: str) -> bool:
    return (isinstance(rec, dict) and rec.get("command") == command
            and rec.get("status") in _STATUS_EXIT
            and isinstance(rec.get("input"), dict) and isinstance(rec.get("payload"), dict))


def _stored_run(path: str, key: bytes, command: str) -> Iterator[dict | None]:
    """None once the run stored at path is checked whole, then its records.

    Whole: every line is a record of command's shape (see `_record`) but the
    last, which is key; else ValueError.  The check reads a line at a time, the
    replay each line by one read(): readline's small reads leave a larger heap.
    """
    with open(path, "rb") as handle:
        line, lengths = b"", []
        for line in handle:
            if line == key or not _is_record(json.loads(line), command):
                break
            lengths.append(len(line))
        if line != key or next(handle, b""):
            raise ValueError(f"{path} is not a whole {command} run")
        yield None
        handle.seek(0)
        for length in lengths:
            yield json.loads(handle.read(length).decode())


def _set_digit_limit(limit: int) -> int | None:
    """Set CPython's int -> str digit limit (0: none); the old one, None before 3.11."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return None
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return old


def main(argv=None) -> int:
    # The digits are the answer, so no size of coefficient may end the run in a ValueError.
    old = _set_digit_limit(0)
    try:
        return _run(argv)
    finally:
        if old is not None:
            _set_digit_limit(old)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    records = out_path = None
    if args.out:
        import hashlib

        key = json.dumps({"command": args.command, "params": _cache_key(args),
                          "schema": _CACHE_SCHEMA, "version": __version__}, sort_keys=True) + "\n"
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            msg = f"cannot use --out {args.out} as a directory: {exc.strerror}"
            print(f"qpos {args.command}: error: {msg}", file=sys.stderr)
            return 1
        out_path = os.path.join(args.out, f"{args.command}-{digest}.jsonl")
        stored = _stored_run(out_path, key.encode(), args.command)
        try:
            # The whole file is checked before any of it is printed, so a torn one prints nothing.
            next(stored)
            records, out_path = stored, None
        except (OSError, ValueError):
            pass
    if records is None:
        records = _DISPATCH[args.command](args)
    try:
        # Every usage check runs before a command's first record, so pull that first.
        started = time.perf_counter()
        first = list(itertools.islice(records, 1))
    except _UsageError as exc:
        print(f"qpos {args.command}: error: {exc}", file=sys.stderr)
        return 1
    writer = None
    if args.format == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_FIELDS)
    worst, tmp, old_term = 0, None, None
    try:
        if out_path is not None:
            import signal
            import tempfile

            try:  # SIGTERM's default action would skip the finally that unlinks tmp
                old_term = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
            except ValueError:  # not the main thread, which alone may set handlers
                pass
            fd, tmp = tempfile.mkstemp(dir=args.out, prefix=".tmp-", suffix=".jsonl")
            store = os.fdopen(fd, "w", encoding="utf-8")
        if writer is not None:
            writer.writeheader()
        for rec in itertools.chain(first, records):
            # A replayed record keeps the time stored with it.
            rec.setdefault("elapsed_ms", int((time.perf_counter() - started) * 1000))
            worst = max(worst, _STATUS_EXIT[rec["status"]])
            if tmp is not None:
                print(json.dumps(rec, sort_keys=True), file=store)
            _emit(rec, writer, args.no_timing)
            del rec  # a --full record is large: free it before the next is made
            started = time.perf_counter()
        if tmp is not None:
            # The key goes last: it marks the file whole.
            with store:
                store.write(key)
            os.replace(tmp, out_path)
            tmp = None
    except BrokenPipeError:
        # The reader closed stdout: stop, and keep the exit-time flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if old_term is not None:
            signal.signal(signal.SIGTERM, old_term)
        if tmp is not None:
            store.close()
            os.unlink(tmp)
    return worst


if __name__ == "__main__":
    sys.exit(main())
