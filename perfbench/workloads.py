"""The benchmark's workloads and the verifiers that check their output.

The verifiers use only the standard library (``math.factorial``, ``math.comb``
and integer arithmetic), never qpositivity, so a defect in the code under test
cannot vouch for its own output.  Each returns a list of problems; an empty
list means the output is correct.

Every workload is an exhaustive enumeration with fixed arguments, so the
benchmark's seed does not change its inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))

# Pinned for every child: one worker keeps the numbers independent of the
# scheduler and of the CLI's default pool size; no elapsed_ms keeps stdout
# byte-identical between runs.
COMMON_ARGS = ("--jobs", "1", "--no-timing")

SWEEP_N = 6
LANDAU_SUM_BOUND = 30
IDENTITY_MAX_N = 13


def _exact_ratio(a, b) -> int | None:
    """prod(a_i!) / prod(b_j!) when it is an integer, else None."""
    num = math.prod(math.factorial(x) for x in a)
    den = math.prod(math.factorial(x) for x in b)
    quotient, remainder = divmod(num, den)
    return None if remainder else quotient


def _tuple_list(records: list[dict]) -> list[list[list[int]]]:
    return [[rec["payload"]["a"], rec["payload"]["b"]] for rec in records]


def verify_positivity_sweep(records: list[dict], sweep_n: int = SWEEP_N) -> list[str]:
    """Every D_n is palindromic and nonnegative, with the degree and q=1 value of the ratio."""
    problems = []
    if _tuple_list(records) != REFERENCE["positivity-sweep"]["tuples"]:
        problems.append("tuple list differs from the committed list")
    for rec in records:
        payload = rec["payload"]
        a, b = payload["a"], payload["b"]
        if rec["status"] != "ok":
            problems.append(f"{a}/{b}: status {rec['status']!r}")
        rows = payload["per_n"]
        if [row["n"] for row in rows] != list(range(1, sweep_n + 1)):
            problems.append(f"{a}/{b}: scalings are not n = 1..{sweep_n}")
        for row in rows:
            n = row["n"]
            label = f"{a}/{b} at n={n}"
            coeffs = [int(c) for c in row["coefficients"]]
            degree = sum(math.comb(n * x, 2) for x in a) - sum(math.comb(n * x, 2) for x in b)
            if len(coeffs) - 1 != degree:
                problems.append(f"{label}: degree {len(coeffs) - 1}, expected {degree}")
            if coeffs != coeffs[::-1]:
                problems.append(f"{label}: not palindromic")
            if any(c < 0 for c in coeffs):
                problems.append(f"{label}: negative coefficient")
            expected = _exact_ratio([n * x for x in a], [n * x for x in b])
            if sum(coeffs) != expected:
                problems.append(f"{label}: coefficient sum is not the factorial ratio {expected}")
    return problems


def verify_enumerate_landau(records: list[dict]) -> list[str]:
    """The committed tuple list, each ratio an integer at n = 1..4."""
    problems = []
    tuples = _tuple_list(records)
    if tuples != REFERENCE["enumerate-landau"]["tuples"]:
        problems.append("tuple list differs from the committed list")
    for rec in records:
        if rec["status"] != "ok":
            problems.append(f"{rec['payload']}: status {rec['status']!r}")
    for a, b in tuples:
        for n in range(1, 5):
            if _exact_ratio([n * x for x in a], [n * x for x in b]) is None:
                problems.append(f"{a}/{b}: ratio at n={n} is not an integer")
    return problems


def expected_identity_cases(max_n: int) -> dict[str, int]:
    """Case count of each identity check over indices 0..max_n."""
    m = max_n + 1
    return {
        "super-catalan-three-way": m * m,
        "b-recurrence": m * (m + 1) // 2,
        "chu-vandermonde": m**3,
        "double-chu-vandermonde": m * m,
        "q-binomial-theorem": m,
        "r-unit-shift": m * m,
    }


def verify_identities(records: list[dict], max_n: int = IDENTITY_MAX_N) -> list[str]:
    """Six identity records, each ok with no failures and the full case count."""
    problems = []
    cases = {rec["payload"]["identity"]: rec["payload"]["cases"] for rec in records}
    if len(records) != 6 or cases != expected_identity_cases(max_n):
        problems.append(f"identity case counts {cases}")
    for rec in records:
        if rec["status"] != "ok" or rec["payload"]["failures"]:
            problems.append(f"{rec['payload']['identity']}: status {rec['status']!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    verify: Callable[[list[dict]], list[str]]

    @property
    def argv(self) -> tuple[str, ...]:
        return (*self.cli_args, *COMMON_ARGS)

    @property
    def reference_sha256(self) -> str:
        return REFERENCE[self.name]["sha256"]

    def check(self, stdout: bytes) -> list[str]:
        """Problems with one child's stdout; unparseable output is one problem."""
        try:
            records = [json.loads(line) for line in stdout.splitlines()]
            return self.verify(records)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "positivity-sweep",
            ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "16", "--balanced",
             "--sweep-n", str(SWEEP_N), "--full"),
            verify_positivity_sweep,
        ),
        Workload(
            "enumerate-landau",
            ("enumerate", "--r", "2", "--s", "3", "--sum-bound", str(LANDAU_SUM_BOUND), "--balanced"),
            verify_enumerate_landau,
        ),
        Workload(
            "identities",
            ("identities", "--max-n", str(IDENTITY_MAX_N)),
            verify_identities,
        ),
    )
}
