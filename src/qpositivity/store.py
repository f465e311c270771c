"""The --out store: one file per invocation, replayed when it is whole.

`cli` imports this module only under --out.  The file is named from a hash of
the key (command, parameters, package version, record schema).  A run writes
each record to a temp file in DIR as one JSON line, flushed before the record
is printed, then a last line with the key, and renames the temp file to the
hashed name.  A later identical invocation replays the file (stored
elapsed_ms included) once it has checked that every line but the last is a
record of the command's shape and the last is its key; any other file is
recomputed and overwritten.  A run that stops early (usage error, exception,
closed stdout, Ctrl-C, SIGTERM) leaves no file, and SIGTERM exits with status
143 (128 + 15).  Only a signal that ends the process outright (SIGKILL) can
leave a `.tmp-*` file; it is never replayed, and it holds every record
printed before the kill as a whole line.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import tempfile
from typing import Iterator

from . import __version__
from .cli import _STATUS_EXIT, _UsageError

# Bumped whenever the record layout changes, so --out never replays an old shape.
_CACHE_SCHEMA = 2

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

    Whole: every line is a record of command's shape (see `cli._record`) but
    the last, which is key; else ValueError.  The check reads a line at a time,
    the replay each line by one read(): readline's small reads leave a larger heap.
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


class Store:
    """The --out file of one invocation: its key, its path, its replay and its writing."""

    def __init__(self, args):
        self.dir, self.command = args.out, args.command
        self.key = json.dumps({"command": args.command, "params": _cache_key(args),
                               "schema": _CACHE_SCHEMA, "version": __version__},
                              sort_keys=True).encode() + b"\n"
        digest = hashlib.sha256(self.key).hexdigest()[:16]
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot use --out {args.out} as a directory: {exc.strerror}")
        self.path = os.path.join(args.out, f"{args.command}-{digest}.jsonl")

    def replay(self) -> Iterator[dict] | None:
        """The stored records, or None unless the whole file checks out before any is read."""
        stored = _stored_run(self.path, self.key, self.command)
        try:
            next(stored)
        except (OSError, ValueError):
            return None
        return stored

    def persist(self, records: Iterator[tuple]) -> Iterator[tuple[dict, str]]:
        """(record, its JSON line) for each (record, _), the line written whole and flushed first.

        `cli` prints that same line on a timed JSON run, so a record is serialized once.
        Once records run out, the key goes last, marking the file whole, and the
        temp file is renamed to the stored path.  Closed or stopped early, this
        removes the temp file.
        """
        old_term = tmp = None
        try:
            try:  # SIGTERM's default action would skip the finally that unlinks tmp
                old_term = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
            except ValueError:  # not the main thread, which alone may set handlers
                pass
            fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=".tmp-", suffix=".jsonl")
            with open(fd, "wb") as handle:
                for rec, _ in records:
                    # Flushed before it is printed: a record printed before a kill is whole here.
                    # Two writes, so that no third copy of a large line (line + "\n") is made.
                    line = json.dumps(rec, sort_keys=True)
                    handle.write(line.encode())
                    handle.write(b"\n")
                    handle.flush()
                    yield rec, line
                    del rec, line  # a --full record is large: free it before the next is made
                handle.write(self.key)
            os.replace(tmp, self.path)
            tmp = None
        finally:
            if old_term is not None:
                signal.signal(signal.SIGTERM, old_term)
            if tmp is not None:
                os.unlink(tmp)
