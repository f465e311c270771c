"""Command-line interface.

Every subcommand emits line-delimited JSON records (or a CSV projection)
with the stable shape

    {"command": ..., "input": {...}, "status": ..., "payload": {...},
     "elapsed_ms": ...}

where status is one of ok, not-polynomial, negative-found,
identity-violation.  Coefficient values are decimal strings; they routinely
exceed 64 bits.  Exit codes: 0 for success (including not-polynomial, which
is an answer, not an error), 1 for usage errors, 2 when a negative
coefficient was found, 3 on an internal identity violation.

Output is deterministic; `--no-timing` drops the elapsed_ms field so two
runs can be compared byte for byte.  `--out DIR` persists the run as one
JSON file keyed by a hash of the command and its parameters, and a later
identical invocation replays the stored records instead of recomputing.  The
key also holds the package version and the record schema, so a file written
by another version is not replayed.  The file is written atomically; one that
cannot be read back, whose stored key differs, or whose records lack the shape
above is recomputed and overwritten.

dpoly, sweep and enumerate --sweep-n refuse, as a usage error and before any
other work (sweep's Landau verdict included), any D_n whose degree
sum(C(n*a_i, 2)) - sum(C(n*b_j, 2)) exceeds MAX_DEGREE; borwein refuses
--n-max above MAX_BORWEIN_N, and rpoly refuses r*n**2 + s*m**2 (a bound on the
degree of its alternating sum) above MAX_RPOLY_SIZE.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .errors import Degenerate, IdentityViolation, NotPolynomial
from .identities import (
    b_poly_check,
    borwein_sum,
    chu_vandermonde_check,
    e_main_check,
    positivity_report,
    q_binomial_theorem_check,
    r_poly,
    super_catalan_check,
)
from .landau import canonicalize, enumerate_tuples, landau_check
from .polyring import IntPoly
from .qfactor import TupleSpec, classical_ratio, d_polynomial

MAX_SUM_BOUND = 64
MAX_DEGREE = 250_000
MAX_IDENTITY_N = 16
MAX_BORWEIN_N = 40
MAX_RPOLY_SIZE = 4_000
# Bumped whenever the record layout changes, so --out never replays an old shape.
_CACHE_SCHEMA = 1

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
    common.add_argument("--full", action="store_true", help="include coefficient lists")
    common.add_argument("--raw", action="store_true", help="skip tuple canonicalization")

    parser = _Parser(prog="qpos", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("landau", parents=[common], help="decide the floor-sum criterion")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)

    p = sub.add_parser("dpoly", parents=[common], help="one factorial-ratio polynomial")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)
    p.add_argument("--n", type=_positive, required=True)

    p = sub.add_parser("sweep", parents=[common], help="D_n for n = 1..n-max")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)
    p.add_argument("--n-max", type=_positive, required=True)

    p = sub.add_parser("enumerate", parents=[common], help="tuple families, optional sweep")
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--s", type=_positive, required=True)
    p.add_argument("--sum-bound", type=_positive, required=True)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--sweep-n", type=_positive)

    p = sub.add_parser("identities", parents=[common], help="cross-check every identity")
    p.add_argument("--max-n", type=_non_negative, required=True)

    p = sub.add_parser("borwein", parents=[common], help="Borwein-type sums for n = 0..n-max")
    p.add_argument("--n-max", type=_positive, required=True)

    p = sub.add_parser("rpoly", parents=[common], help="the factored alternating sum R")
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--m", type=_non_negative, required=True)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--s", type=_positive, required=True)

    return parser


# --- record helpers --------------------------------------------------------


def _poly_stats(poly: IntPoly, full: bool) -> dict:
    report = positivity_report(poly)
    stats = {
        "degree": report.degree,
        "num_terms": sum(1 for c in poly.coeffs if c),
        "min_coeff": str(min(poly.coeffs, default=0)),
        "is_positive": report.is_positive,
        "is_symmetric": report.is_symmetric,
        "is_unimodal": report.is_unimodal,
        "negative_positions": list(report.negative_positions),
    }
    if full:
        stats["coefficients"] = [str(c) for c in poly.coeffs]
    return stats


def _record(command: str, input_echo: dict, status: str, payload: dict, started: float) -> dict:
    return {
        "command": command,
        "input": input_echo,
        "status": status,
        "payload": payload,
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }


def _check_degree(spec: TupleSpec, n: int) -> None:
    """Refuse D_n of spec above MAX_DEGREE, before anything is built."""
    degree = spec.scaled(n).degree
    if degree > MAX_DEGREE:
        raise _UsageError(
            f"D_{n} of a={list(spec.a)}, b={list(spec.b)} has degree {degree},"
            f" above the cap of {MAX_DEGREE}"
        )


def _resolve_spec(a, b, raw: bool):
    """(spec, canonicalization info) honoring --raw; Degenerate means D = 1."""
    given = TupleSpec(tuple(a), tuple(b))
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


def _cmd_landau(args) -> list[dict]:
    started = time.perf_counter()
    echo = {"a": list(args.a), "b": list(args.b), "raw": args.raw}
    spec, info = _resolve_spec(args.a, args.b, args.raw)
    verdict = landau_check(spec)
    payload = dict(info)
    payload.update(
        holds=verdict.holds,
        witness=str(verdict.witness) if verdict.witness is not None else None,
        min_value=verdict.min_value,
    )
    # a failing criterion means some scaling yields a non-polynomial ratio
    status = "ok" if verdict.holds else "not-polynomial"
    return [_record("landau", echo, status, payload, started)]


def _cmd_dpoly(args) -> list[dict]:
    started = time.perf_counter()
    echo = {"a": list(args.a), "b": list(args.b), "n": args.n, "raw": args.raw}
    spec, info = _resolve_spec(args.a, args.b, args.raw)
    _check_degree(spec, args.n)
    try:
        poly = d_polynomial(spec.scaled(args.n))
    except NotPolynomial as exc:
        payload = dict(info, n=args.n, reason=str(exc), smallest_failing_ell=exc.ell)
        return [_record("dpoly", echo, "not-polynomial", payload, started)]
    stats = _poly_stats(poly, full=True)
    value_at_1 = poly.evaluate(1)
    classical = classical_ratio(spec.scaled(args.n))
    payload = dict(info, n=args.n, **stats)
    payload.update(
        value_at_1=str(value_at_1),
        classical_ratio=str(classical),
        q1_agrees=Fraction(value_at_1) == classical,
    )
    status = "ok" if stats["is_positive"] else "negative-found"
    return [_record("dpoly", echo, status, payload, started)]


def _map(fn, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks] on min(jobs, len(tasks)) workers; no pool for one."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # Imported here, so that a one-job run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _d_stats(a, b, n: int, full: bool) -> dict:
    """The stats row of D_n of a/b; the one builder of both sweep record types."""
    return dict(n=n, **_poly_stats(d_polynomial(TupleSpec(a, b).scaled(n)), full))


def _sweep_record(task: tuple) -> dict:
    echo, a, b, n, full = task
    started = time.perf_counter()
    payload = _d_stats(a, b, n, full)
    status = "ok" if payload["is_positive"] else "negative-found"
    return _record("sweep", dict(echo, n=n), status, payload, started)


def _cmd_sweep(args) -> list[dict]:
    started = time.perf_counter()
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
        return [_record("sweep", echo, "not-polynomial", payload, started)]
    tasks = [(echo, spec.a, spec.b, n, args.full) for n in range(1, args.n_max + 1)]
    return _map(_sweep_record, tasks, args.jobs)


def _tuple_sweep_record(task: tuple) -> dict:
    echo, a, b, n_max, full = task
    started = time.perf_counter()
    per_n = [_d_stats(a, b, n, full) for n in range(1, n_max + 1)]
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
    return _record("enumerate", dict(echo), status, payload, started)


def _cmd_enumerate(args) -> list[dict]:
    if args.sum_bound > MAX_SUM_BOUND:
        raise _UsageError(f"--sum-bound is capped at {MAX_SUM_BOUND}")
    if args.sum_bound < 2:
        raise _UsageError("--sum-bound must be >= 2")
    echo = {
        "r": args.r,
        "s": args.s,
        "sum_bound": args.sum_bound,
        "balanced": args.balanced,
        "sweep_n": args.sweep_n,
    }
    started = time.perf_counter()
    tuples = enumerate_tuples(args.r, args.s, args.sum_bound, balanced_only=args.balanced)
    if args.sweep_n is None:
        records = []
        for t in tuples:
            payload = {"a": list(t.a), "b": list(t.b)}
            records.append(_record("enumerate", dict(echo), "ok", payload, started))
            started = time.perf_counter()
        return records
    for t in tuples:
        _check_degree(t, args.sweep_n)
    tasks = [(echo, t.a, t.b, args.sweep_n, args.full) for t in tuples]
    return _map(_tuple_sweep_record, tasks, args.jobs)


def _cmd_identities(args) -> list[dict]:
    if args.max_n > MAX_IDENTITY_N:
        raise _UsageError(f"--max-n is capped at {MAX_IDENTITY_N}")
    echo = {"max_n": args.max_n}
    span = range(args.max_n + 1)
    # (name, case keys, cases, check): built on each call, so the checks are
    # whatever the module globals hold now, and the cases are generated lazily.
    table = [
        ("super-catalan-three-way", ("n", "m"), itertools.product(span, span),
         super_catalan_check),
        ("b-recurrence", ("n", "m"), ((n, m) for n in span for m in range(n + 1)),
         b_poly_check),
        ("chu-vandermonde", ("a", "b", "c"), itertools.product(span, span, span),
         chu_vandermonde_check),
        ("double-chu-vandermonde", ("n", "p"), itertools.product(span, span), e_main_check),
        ("q-binomial-theorem", ("n",), itertools.product(span), q_binomial_theorem_check),
        ("r-unit-shift", ("n", "m"), itertools.product(span, span),
         lambda n, m: r_poly(n, m, 1, 1) == IntPoly.monomial(n * m)),
    ]
    records = []
    for name, keys, cases, check in table:
        started = time.perf_counter()
        failures, count = [], 0
        for count, case in enumerate(cases, start=1):
            try:
                ok = check(*case)
            except IdentityViolation:
                ok = False
            if not ok:
                failures.append(dict(zip(keys, case)))
        status = "ok" if not failures else "identity-violation"
        payload = {"identity": name, "cases": count, "failures": failures}
        records.append(_record("identities", dict(echo, identity=name), status, payload, started))
    return records


def _cmd_borwein(args) -> list[dict]:
    if args.n_max > MAX_BORWEIN_N:
        raise _UsageError(f"--n-max is capped at {MAX_BORWEIN_N}")
    echo = {"n_max": args.n_max}
    records = []
    for n in range(args.n_max + 1):
        started = time.perf_counter()
        payload = dict(n=n, **_poly_stats(borwein_sum(n), args.full))
        status = "ok" if payload["is_positive"] else "negative-found"
        records.append(_record("borwein", dict(echo, n=n), status, payload, started))
    return records


def _cmd_rpoly(args) -> list[dict]:
    size = args.r * args.n**2 + args.s * args.m**2
    if size > MAX_RPOLY_SIZE:
        raise _UsageError(f"r*n^2 + s*m^2 is {size}, above the cap of {MAX_RPOLY_SIZE}")
    started = time.perf_counter()
    echo = {"n": args.n, "m": args.m, "r": args.r, "s": args.s}
    try:
        poly = r_poly(args.n, args.m, args.r, args.s)
    except IdentityViolation as exc:
        payload = dict(echo, reason=str(exc))
        return [_record("rpoly", echo, "identity-violation", payload, started)]
    payload = dict(echo, **_poly_stats(poly, full=True))
    status = "ok" if payload["is_positive"] else "negative-found"
    return [_record("rpoly", echo, status, payload, started)]


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


def _exit_code(records: list[dict]) -> int:
    return max((_STATUS_EXIT[rec["status"]] for rec in records), default=0)


def _csv_rows(records: list[dict]):
    """Per-polynomial projection; records without coefficient stats are skipped."""
    for rec in records:
        payload = rec["payload"]
        if "per_n" in payload:
            yield from ({k: row.get(k) for k in _CSV_FIELDS} for row in payload["per_n"])
        elif "degree" in payload:
            yield {k: payload.get(k) for k in _CSV_FIELDS}


def _emit(records: list[dict], fmt: str, no_timing: bool) -> None:
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for row in _csv_rows(records):
            writer.writerow(row)
        return
    for rec in records:
        if no_timing:
            rec = {k: v for k, v in rec.items() if k != "elapsed_ms"}
        print(json.dumps(rec, sort_keys=True))


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
    return (
        isinstance(rec, dict)
        and rec.get("command") == command
        and isinstance(rec.get("input"), dict)
        and isinstance(rec.get("payload"), dict)
        and rec.get("status") in _STATUS_EXIT
    )


def _load_records(path: str, key: dict) -> list[dict] | None:
    """The records cached at path under key; None if missing, unreadable or malformed.

    The stored command, params, schema and version must equal key's, and
    every record must have the shape `_record` gives it.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            blob = json.load(handle)
        records = blob["records"]
        if (
            all(blob[name] == value for name, value in key.items())
            and isinstance(records, list)
            and all(_is_record(rec, key["command"]) for rec in records)
        ):
            return records
    except (OSError, ValueError, LookupError, TypeError):
        pass
    return None


def _store(path: str, blob: dict) -> None:
    """Write blob as JSON through a temp file in path's directory, then os.replace it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_path = None
    if args.out:
        key = {
            "command": args.command,
            "params": _cache_key(args),
            "schema": _CACHE_SCHEMA,
            "version": __version__,
        }
        digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            msg = f"cannot use --out {args.out} as a directory: {exc.strerror}"
            print(f"qpos {args.command}: error: {msg}", file=sys.stderr)
            return 1
        out_path = os.path.join(args.out, f"{args.command}-{digest}.json")
        records = _load_records(out_path, key)
        if records is not None:
            _emit(records, args.format, args.no_timing)
            return _exit_code(records)
    try:
        records = _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"qpos {args.command}: error: {exc}", file=sys.stderr)
        return 1
    if out_path is not None:
        _store(out_path, dict(key, records=records))
    _emit(records, args.format, args.no_timing)
    return _exit_code(records)


if __name__ == "__main__":
    sys.exit(main())
