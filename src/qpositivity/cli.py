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
field so two runs can be compared byte for byte.  `--out DIR` persists the
records and replays them on an identical invocation (see `store`).
Coefficients of any size are printed: the run lifts CPython's int -> str
digit limit and restores it when it returns.

This module holds only the parser, the record loop and the output; it imports
no other module of the package.  Each command's code is imported when the
command runs:

* landau, dpoly, sweep, enumerate: `tuple_commands`, which imports `landau`;
  dpoly, sweep and enumerate --sweep-n also import qfactor, polyring and
  `stats` when they build a D_n, so `landau` and a plain `enumerate` never
  load them;
* identities, borwein, rpoly: `identity_commands`, then `identities` (with
  qfactor, polyring and landau); borwein and rpoly also import `stats`;
* --out: `store` (with hashlib, signal and tempfile); --format csv: csv, and
  for sweep's rows `tuple_commands`, which resolves the tuple they are of.

The size caps that refuse a run as a usage error before any work sit beside
the checks that apply them, in `tuple_commands` and `identity_commands`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

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


class _UsageError(Exception):
    pass


def _record(command: str, input_echo: dict, status: str, payload: dict) -> dict:
    return {"command": command, "input": input_echo, "status": status, "payload": payload}


def _lazy(module: str, name: str):
    """The command `name` of `module`, which is imported only when the command runs."""

    def command(args):
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(args)

    return command


_DISPATCH = {
    command: _lazy(module, f"cmd_{command}")
    for module, commands in (("tuple_commands", "landau dpoly sweep enumerate"),
                             ("identity_commands", "identities borwein rpoly"))
    for command in commands.split()
}


# --- output ----------------------------------------------------------------

_CSV_FIELDS = ("a", "b", "n", "degree", "num_terms", "min_coeff", "is_positive")


def _csv_tuple(rec: dict) -> tuple:
    """(a, b), the tuple a record's rows were computed for; () if the record names none."""
    payload = rec["payload"]
    if rec["command"] == "enumerate":
        return payload["a"], payload["b"]
    if rec["command"] == "dpoly":
        return payload["canonical_a"], payload["canonical_b"]
    if rec["command"] == "sweep":
        # sweep's records echo the tuple as given: resolve it as the sweep did
        from .tuple_commands import _resolve_spec

        echo = rec["input"]
        spec, _ = _resolve_spec(echo["a"], echo["b"], echo["raw"])
        return spec.a, spec.b
    return ()


def _csv_rows(rec: dict) -> list[dict]:
    """Per-polynomial rows of one record (none without coefficient stats); a, b as "30,1"."""
    payload = rec["payload"]
    rows = payload.get("per_n", [payload] if "degree" in payload else [])
    if not rows:
        return []
    tuple_columns = {col: ",".join(map(str, side)) for col, side in zip("ab", _csv_tuple(rec))}
    return [dict(tuple_columns, **{k: row.get(k) for k in _CSV_FIELDS[2:]}) for row in rows]


def _emit(rec: dict, writer, no_timing: bool, line: str | None) -> None:
    """Print one record (line: its timed JSON, if the store made it) or its CSV rows; flush."""
    if writer is not None:
        writer.writerows(_csv_rows(rec))
    elif no_timing:
        print(json.dumps({k: v for k, v in rec.items() if k != "elapsed_ms"}, sort_keys=True))
    else:
        print(line or json.dumps(rec, sort_keys=True))
    sys.stdout.flush()


def _stamped(records, started: float):
    """(record, None), with elapsed_ms since the last was handled; the store fills in its line.

    A replayed record keeps its own elapsed_ms.
    """
    for rec in records:
        rec.setdefault("elapsed_ms", int((time.perf_counter() - started) * 1000))
        yield rec, None
        del rec  # a --full record is large: free it before the next is made
        started = time.perf_counter()


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
    store = records = None
    try:
        if args.out:
            from .store import Store

            store = Store(args)
            # The whole file is checked before any of it is printed, so a torn one prints nothing.
            records = store.replay()
        if records is None:
            records = _DISPATCH[args.command](args)
        else:
            store = None  # a replayed run is already stored
        # Every usage check runs before a command's first record, so pull that first.
        started = time.perf_counter()
        first = list(itertools.islice(records, 1))
    except _UsageError as exc:
        print(f"qpos {args.command}: error: {exc}", file=sys.stderr)
        return 1
    records = _stamped(itertools.chain(first, records), started)
    if store is not None:
        records = store.persist(records)
    writer = None
    if args.format == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_FIELDS)
    worst = 0
    try:
        if writer is not None:
            writer.writeheader()
        for rec, line in records:
            worst = max(worst, _STATUS_EXIT[rec["status"]])
            _emit(rec, writer, args.no_timing, line)
            del rec, line
    except BrokenPipeError:
        # The reader closed stdout: stop, and keep the exit-time flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        records.close()  # under --out, a run that stops here removes its temp file
    return worst


if __name__ == "__main__":
    # Run the package's copy of this module, the one the command modules import.
    from qpositivity.cli import main

    sys.exit(main())
