"""Spawner: runs each measured child and reports what it measured, one JSON line per request.

Why a separate process: on Linux a child's ``ru_maxrss`` also counts the
memory of the process it was spawned from (the pre-exec address space),
so children spawned by the benchmark's controller, which grows while it
verifies outputs, would report the controller's size instead of their own.
This process stays small (start it with ``python3 -I -S``; it imports only
the modules below) and never holds a child's output in memory.

Protocol, over stdin/stdout: a request line ``{"argv": [...], "out": path}``
runs argv with the spawner's own cwd and environment, streams the child's
stdout into ``path`` and answers with one line holding exit_code, wall_s,
cpu_s, first_record_s, peak_rss_mib, stdout_bytes, sha256 and stderr.  EOF
on stdin ends the spawner.
"""

import hashlib
import json
import os
import sys
import time


def run(argv, out_path):
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    digest = hashlib.sha256()
    size = 0
    first_record = None
    started = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    with open(out_r, "rb", buffering=0) as out, open(err_r, "rb") as err, open(out_path, "wb") as sink:
        while chunk := out.read(1 << 16):
            if first_record is None and b"\n" in chunk:
                first_record = time.perf_counter() - started
            digest.update(chunk)
            size += len(chunk)
            sink.write(chunk)
        # stderr carries at most an error message or the trace summary,
        # well under a pipe buffer, so reading it after stdout cannot block.
        stderr = err.read()
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "first_record_s": wall if first_record is None else first_record,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "stdout_bytes": size,
        "sha256": digest.hexdigest(),
        "stderr": stderr.decode(errors="replace"),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["out"])), flush=True)


if __name__ == "__main__":
    main()
