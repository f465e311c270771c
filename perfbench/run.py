"""Benchmark of the qpos CLI: end-to-end metrics per workload, or per-layer metrics when traced.

Run from anywhere; the package is taken from ``src/`` next to this directory::

    python3 perfbench/run.py --workload positivity-sweep --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seconds 44

Load is one closed-loop client: each sample is a fresh
``python -m qpositivity <args> --jobs 1 --no-timing`` child, started only after
the previous one exited, so every sample pays the CLI's cold caches as a user
does.  Children run until the next one would end past ``--seconds`` (at least
MIN_ROUNDS of them).  Children are started by the small ``spawn.py``
process, which times them and reads their resource use from each child's
own rusage (``os.wait4``).  Every child's stdout is verified.

Each round runs one set-up spawn, then the fixed ``calibrate.py`` task, then
the workload child; one more calibration task ends the run.  The timing
metrics (``wall_rel``, ``cpu_rel``, ``first_record_rel``) are the median over
rounds of the child's time divided by the mean time of the calibration tasks
just before and just after it.  A shared machine's speed
swings by a third or more for tens of seconds at a time; the calibration
task, run seconds before the child, swings with it, so the ratio keeps only
what the code under test changes.  The times in seconds are printed in the
table and the detail line.

``--trace 1`` alternates plain children with children run under
``tracing.py`` and reports the per-layer metrics instead; each traced stdout
must be byte-identical to the plain one.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it are tables (median, quartiles and
sample count of each metric, then of the times in seconds) and a JSON detail
line with the environment.
The exit status is 0 only when every output verified.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from tracing import metric_names
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "first_record_rel": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in (*metric_names(), "cli.stdout_bytes", "trace.overhead_s"):
        stat = name.rsplit(".", 1)[1]
        units[name] = "B" if stat == "stdout_bytes" else "s" if stat.endswith("_s") else "count"
    return units


@dataclass
class Child:
    """One finished child process and what the spawner measured of it."""

    exit_code: int
    wall_s: float
    cpu_s: float
    first_record_s: float
    peak_rss_mib: float
    stdout_bytes: int
    sha256: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """The ``spawn.py`` process that starts every measured child (see there for why).

    A child's stdout lands in a file under a private directory of the
    checkout, removed again by ``close``.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.stdout_path = self.workdir / "stdout"

    def run(self, argv: list[str]) -> Child:
        self.proc.stdin.write(json.dumps({"argv": argv, "out": str(self.stdout_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        return Child(**json.loads(line))

    def stdout(self) -> bytes:
        """Stdout of the last child run."""
        return self.stdout_path.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    return {
        "backend": "gmpy2" if importlib.util.find_spec("gmpy2") else "python-int",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "note": "the big-int backend alone can move times several-fold; "
                "compare results only between runs with the same backend",
    }


def summary(values: list[float], unit: str) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "p25": quartiles[0],
        "p75": quartiles[2],
        "samples": len(values),
        "unit": unit,
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seconds: int, trace: bool, spawner: Spawner) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.spawner = spawner
        self.problems: dict[str, list[str]] = {}  # stdout sha256 -> verifier problems
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _record(self, child: Child, expected_sha256: str | None = None) -> bool:
        """Count the workload child just run; True when its output verified."""
        self.attempted += 1
        if child.exit_code != 0:
            problems = [f"exit code {child.exit_code}: {child.stderr[-500:]}"]
        elif expected_sha256 is not None and child.sha256 != expected_sha256:
            problems = ["traced stdout differs from the untraced stdout"]
        else:
            if child.sha256 not in self.problems:
                self.problems[child.sha256] = self.workload.check(self.spawner.stdout())
            problems = self.problems[child.sha256]
        if problems:
            self.failed += 1
            self.failures.extend(problems[:5])
        return not problems

    def _calibrate(self) -> Child:
        """Run the calibration task once and check its output."""
        child = self.spawner.run([sys.executable, "-I", "-S", str(HERE / "calibrate.py")])
        if child.exit_code != 0 or self.spawner.stdout().decode().strip() != calibrate.CHECKSUM:
            raise RuntimeError(f"calibration task failed: {child.stderr[-500:]}")
        return child

    def measure(self) -> tuple[dict, dict]:
        """Run children for the time budget; return (metric summaries, detail)."""
        run = self.spawner.run
        setup_argv = [sys.executable, "-c", "import qpositivity.cli"]
        run(setup_argv)  # writes the bytecode cache, as a user's first run does
        setup: list[float] = []
        plain_argv = [sys.executable, "-m", "qpositivity", *self.workload.argv]
        traced_argv = [sys.executable, str(HERE / "tracing.py"), *self.workload.argv]
        calib: list[Child] = []
        plain: list[Child] = []
        traced: list[Child] = []
        layers: list[dict] = []
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            # One set-up spawn per round rather than a burst of them: a shared
            # machine's speed drifts over tens of seconds, and a burst would
            # sample only one moment of it.  setup_s stays in seconds.
            setup.append(run(setup_argv).wall_s)
            calib.append(self._calibrate())
            child = run(plain_argv)
            self._record(child)
            plain.append(child)
            if self.trace:
                tchild = run(traced_argv)
                if self._record(tchild, expected_sha256=child.sha256):
                    layer = json.loads(tchild.stderr.splitlines()[-1])
                    layer["cli.stdout_bytes"] = tchild.stdout_bytes
                    layers.append(layer)
                    traced.append(tchild)
            now = time.perf_counter()
            if len(plain) >= MIN_ROUNDS and (now - started) + (now - round_started) > self.seconds:
                break
        calib.append(self._calibrate())

        detail = {
            "workload": self.workload.name,
            "argv": list(self.workload.argv),
            "env": environment(),
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / self.attempted,
            "failures": self.failures[:20],
            "stdout_sha256": plain[0].sha256,
            "stdout_matches_reference": plain[0].sha256 == self.workload.reference_sha256,
        }
        # Each workload child against the mean of the calibration tasks run
        # just before and just after it.
        calib_wall = [(k.wall_s + k_next.wall_s) / 2 for k, k_next in zip(calib, calib[1:])]
        calib_cpu = [(k.cpu_s + k_next.cpu_s) / 2 for k, k_next in zip(calib, calib[1:])]
        end_to_end = {
            "wall_rel": [c.wall_s / k for c, k in zip(plain, calib_wall)],
            "cpu_rel": [c.cpu_s / k for c, k in zip(plain, calib_cpu)],
            "first_record_rel": [c.first_record_s / k for c, k in zip(plain, calib_wall)],
            "peak_rss_mib": [c.peak_rss_mib for c in plain],
            "setup_s": setup,
            "ok_frac": [1 - self.failed / self.attempted],
        }
        summaries = {name: summary(values, END_TO_END_UNITS[name]) for name, values in end_to_end.items()}
        seconds = {
            "wall_s": [c.wall_s for c in plain],
            "cpu_s": [c.cpu_s for c in plain],
            "first_record_s": [c.first_record_s for c in plain],
            "calibrate.wall_s": [k.wall_s for k in calib],
            "calibrate.cpu_s": [k.cpu_s for k in calib],
        }
        detail["seconds"] = {name: summary(values, "s") for name, values in seconds.items()}
        if self.trace:
            units = per_layer_units()
            per_layer = {}
            if layers:
                for name in metric_names() + ["cli.stdout_bytes"]:
                    per_layer[name] = summary([layer[name] for layer in layers], units[name])
                overhead = statistics.median(c.wall_s for c in traced) - detail["seconds"]["wall_s"]["median"]
                per_layer["trace.overhead_s"] = summary([overhead], "s")
            detail["end_to_end"] = summaries
            summaries = per_layer
        return summaries, detail


def print_table(workload: str, summaries: dict) -> None:
    print(f"# {workload}")
    for name, s in summaries.items():
        print(
            f"{name:45s} median {s['median']:<14.6g} {s['unit']:6s} "
            f"p25 {s['p25']:<12.6g} p75 {s['p75']:<12.6g} n={s['samples']}"
        )


def result_line(correct: bool, attempted: int, failed: int, summaries: dict) -> str:
    metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in summaries.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="recorded; the workloads are exhaustive")
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qpositivity" / "cli.py").is_file():
        print(f"perfbench: no qpositivity package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        spawner = Spawner()
        try:
            run = Run(WORKLOADS[name], args.seconds, bool(args.trace), spawner)
            summaries, detail = run.measure()
        finally:
            spawner.close()
        detail["seed"] = args.seed
        print_table(name, summaries)
        print_table(f"{name}: times in seconds", detail["seconds"])
        print(json.dumps({"detail": detail}, sort_keys=True))
        for problem in detail["failures"]:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        if not detail["stdout_matches_reference"]:
            print(f"perfbench: {name}: stdout differs from the recorded reference digest", file=sys.stderr)
        correct = correct and run.failed == 0
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        combined.update({prefix + metric: s for metric, s in summaries.items()})
    print(result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
