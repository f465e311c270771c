"""The --out store: one file per invocation, replayed when it is whole.

`cli` imports this module only under --out.  The file is named from a CRC-32
of the key (command, parameters, package version, record schema).  A run
writes each record to a temp file in DIR as one JSON line, in the bounded
pieces `cli` prints, flushed before the record is printed; then a last line
with the key and the CRC-32 of every record byte before it; and renames the
temp file to the hashed name.  A later identical invocation replays the file
(stored elapsed_ms included) once it has read it whole in blocks and found
that last line, so a file cut short, edited or written for another key is
recomputed and overwritten; no line is parsed for this check.  The replay
copies each stored line in blocks (under --no-timing without its elapsed_ms
field); only --format csv parses a stored line.  A CRC, not a hash from
hashlib: hashlib maps OpenSSL, about 3.5 MiB of a run's peak, and the digest
guards against torn and edited files, not against a forger, who could write
the matching digest of any kind.

A run that stops early (usage error, exception, closed stdout, Ctrl-C,
SIGTERM) leaves no file, and SIGTERM exits with status 143 (128 + 15).  Only a
signal that ends the process outright (SIGKILL) can leave a `.tmp-*` file; it
is never replayed, and it holds every record printed before the kill as a
whole line.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import zlib
from typing import Iterator

from . import __version__
from .cli import _BATCH, _STATUS_EXIT, _UsageError, _layout, _pieces, _write

# Bumped whenever the record layout changes, so --out never replays an old shape.
_CACHE_SCHEMA = 3

# Flags that shape only how a run is printed or scheduled, never its records.
_NOT_KEYED = {"command", "format", "out", "jobs", "no_timing"}

# Under sort_keys, status is a record's last key: its line ends with one of these.
_ENDINGS = {f'"status": "{status}"}}\n'.encode(): status for status in _STATUS_EXIT}
_TAIL = max(map(len, _ENDINGS))


def _cache_key(args) -> dict:
    """Every parsed option that can change the records, as JSON-ready values."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in vars(args).items()
        if key not in _NOT_KEYED
    }


def _stored_run(path: str, key_line, csv: bool) -> Iterator:
    """None once the run stored at path is checked whole, then (record, pieces) per record.

    Whole: the file is ASCII record lines, then key_line(their CRC-32),
    and each line ends with a known status; else ValueError.  The check reads
    the file in blocks, and each line's last bytes for its status.  The replay
    gives a stand-in holding only the status and the line's pieces, read in
    blocks; under csv, the parsed record and no pieces.
    """
    with open(path, "rb") as handle:
        body = os.fstat(handle.fileno()).st_size - len(key_line(0))
        crc, ends, offset = 0, [], 0
        while offset < body:
            block = handle.read(min(_BATCH, body - offset))
            if not block or not block.isascii():
                raise ValueError(f"{path} changed while read, or holds a byte no record holds")
            crc = zlib.crc32(block, crc)
            at = block.find(b"\n")
            while at >= 0:
                ends.append(offset + at + 1)
                at = block.find(b"\n", at + 1)
            offset += len(block)
        if (ends[-1] if ends else 0) != body or handle.read() != key_line(crc):
            raise ValueError(f"{path} is not a whole run for its key")
        statuses, start = [], 0
        for end in ends:
            handle.seek(max(start, end - _TAIL))
            tail = handle.read(end - handle.tell())
            status = next((s for ending, s in _ENDINGS.items() if tail.endswith(ending)), None)
            if status is None:
                raise ValueError(f"{path} holds a line without a status")
            statuses.append(status)
            start = end
        yield None
        handle.seek(0)
        start = 0
        for end, status in zip(ends, statuses):
            if csv:
                yield json.loads(handle.read(end - start)), None
            else:
                yield {"status": status}, _blocks(handle, end - start)
            start = end


def _blocks(handle, length: int) -> Iterator[str]:
    """The next length bytes of handle, as strings of at most _BATCH characters."""
    while length > 0:
        block = handle.read(min(_BATCH, length))
        if not block:
            raise ValueError(f"{handle.name} was cut short while it was replayed")
        length -= len(block)
        yield block.decode("ascii")


class Store:
    """The --out file of one invocation: its key, its path, its replay and its writing."""

    def __init__(self, args):
        self.dir, self.csv = args.out, args.format == "csv"
        key = json.dumps({"command": args.command, "crc32": "", "params": _cache_key(args),
                          "schema": _CACHE_SCHEMA, "version": __version__}, sort_keys=True)
        # The last line is this key with the CRC-32 of the records filled in.
        self._key_head, _, self._key_tail = key.partition('"crc32": "')
        digest = f"{zlib.crc32(key.encode()):08x}"
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot use --out {args.out} as a directory: {exc.strerror}")
        self.path = os.path.join(args.out, f"{args.command}-{digest}.jsonl")

    def _key_line(self, crc: int) -> bytes:
        return f'{self._key_head}"crc32": "{crc:08x}{self._key_tail}\n'.encode()

    def replay(self) -> Iterator[tuple] | None:
        """The stored (record, pieces), or None unless the whole file checks out first."""
        stored = _stored_run(self.path, self._key_line, self.csv)
        try:
            next(stored)
        except (OSError, ValueError):
            return None
        return stored

    def persist(self, records: Iterator[tuple]) -> Iterator[tuple]:
        """(record, pieces of its timed line) for each (record, _), the line written and flushed first.

        The line is laid out once, and its pieces are made again for `cli` to print,
        so no copy of it is kept.  Once records run out, the key goes last, marking
        the file whole, and the temp file is renamed to the stored path.  Closed or
        stopped early, this removes the temp file.
        """
        old_term = tmp = None
        try:
            try:  # SIGTERM's default action would skip the finally that unlinks tmp
                old_term = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
            except ValueError:  # not the main thread, which alone may set handlers
                pass
            fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=".tmp-", suffix=".jsonl")
            crc = 0
            with open(fd, "wb") as handle:

                def write(text: str) -> None:
                    nonlocal crc
                    data = text.encode()
                    crc = zlib.crc32(data, crc)
                    handle.write(data)

                for rec, _ in records:
                    layout = _layout(rec)
                    # Flushed before it is printed: a record printed before a kill is whole here.
                    _write(_pieces(layout), write)
                    handle.flush()
                    yield rec, _pieces(layout)
                    del rec, layout  # a --full record is large: free it before the next is made
                handle.write(self._key_line(crc))
            os.replace(tmp, self.path)
            tmp = None
        finally:
            if old_term is not None:
                signal.signal(signal.SIGTERM, old_term)
            if tmp is not None:
                os.unlink(tmp)
