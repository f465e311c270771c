"""Tests of the benchmark itself: verifiers, self-time accounting, tracing, names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import tracing
from workloads import (
    IDENTITY_MAX_N,
    REFERENCE,
    WORKLOADS,
    expected_identity_cases,
    verify_enumerate_landau,
    verify_identities,
    verify_positivity_sweep,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cli_records(*args: str) -> list[dict]:
    out = subprocess.run(
        [sys.executable, "-m", "qpositivity", *args, "--jobs", "1", "--no-timing"],
        env=run.child_env(), capture_output=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


@pytest.fixture(scope="module")
def sweep_records():
    """The positivity-sweep tuples at n = 1 only, which keeps the CLI call short."""
    return cli_records("enumerate", "--r", "2", "--s", "3", "--sum-bound", "16", "--balanced",
                       "--sweep-n", "1", "--full")


class TestVerifiers:
    def test_sweep_accepts_real_output(self, sweep_records):
        assert verify_positivity_sweep(sweep_records, sweep_n=1) == []

    def test_sweep_rejects_one_changed_coefficient(self, sweep_records):
        records = copy.deepcopy(sweep_records)
        coeffs = records[-1]["payload"]["per_n"][0]["coefficients"]
        middle = len(coeffs) // 2
        coeffs[middle] = str(int(coeffs[middle]) + 1)
        assert verify_positivity_sweep(records, sweep_n=1)

    def test_sweep_rejects_a_missing_tuple(self, sweep_records):
        assert verify_positivity_sweep(sweep_records[1:], sweep_n=1)

    def landau_records(self, tuples):
        return [{"status": "ok", "payload": {"a": a, "b": b}} for a, b in tuples]

    def test_landau_accepts_reference(self):
        tuples = REFERENCE["enumerate-landau"]["tuples"]
        assert verify_enumerate_landau(self.landau_records(tuples)) == []

    def test_landau_rejects_a_non_integral_ratio(self):
        tuples = copy.deepcopy(REFERENCE["enumerate-landau"]["tuples"])
        tuples[0][1][0] += 1  # a larger denominator entry breaks integrality
        problems = verify_enumerate_landau(self.landau_records(tuples))
        assert any("not an integer" in p for p in problems)

    def identity_records(self, max_n):
        return [
            {"status": "ok", "payload": {"identity": name, "cases": cases, "failures": []}}
            for name, cases in expected_identity_cases(max_n).items()
        ]

    def test_identity_case_counts(self):
        assert list(expected_identity_cases(16).values()) == [289, 153, 4913, 289, 17, 289]
        assert verify_identities(self.identity_records(IDENTITY_MAX_N)) == []

    def test_identities_reject_a_failure(self):
        records = self.identity_records(IDENTITY_MAX_N)
        records[2]["payload"]["failures"] = [{"a": 0, "b": 0, "c": 0}]
        assert verify_identities(records)

    def test_identities_reject_a_short_run(self):
        assert verify_identities(self.identity_records(IDENTITY_MAX_N - 1))

    def test_malformed_output_is_a_problem(self):
        assert WORKLOADS["identities"].check(b"not json\n")


class TestSelfTimes:
    def test_nested_tree(self):
        # root [0, 10]
        #   a [1, 4]        with child g [2, 3]
        #   b [3, 6]        overlaps a: the union of a and b covers [1, 6]
        #   c [8, 12]       runs past root: only [8, 10] counts against root
        names = ["root", "a", "g", "b", "c"]
        starts = [0.0, 1.0, 2.0, 3.0, 8.0]
        ends = [10.0, 4.0, 3.0, 6.0, 12.0]
        parents = [-1, 0, 1, 0, 0]
        got = tracing.self_times(names, starts, ends, parents)
        assert got == {
            "root": (1, 3.0),
            "a": (1, 2.0),
            "g": (1, 1.0),
            "b": (1, 3.0),
            "c": (1, 4.0),
        }

    def test_repeated_names_sum(self):
        got = tracing.self_times(["p", "x", "x"], [0.0, 1.0, 5.0], [10.0, 2.0, 7.0], [-1, 0, 0])
        assert got == {"p": (1, 7.0), "x": (2, 3.0)}

    def test_tracer_reports_every_metric(self):
        tracer = tracing.Tracer()
        outer = tracer.begin("cli.main")
        tracer.end(tracer.begin("polyring.add"))
        tracer.end(outer)
        metrics = tracer.metrics()
        assert list(metrics) == tracing.metric_names()
        assert metrics["polyring.add.calls"] == 1
        assert metrics["polyring.mul_large.calls"] == 0


def test_traced_cli_output_is_unchanged():
    args = ["identities", "--max-n", "3", "--jobs", "1", "--no-timing"]
    env = run.child_env()
    plain = subprocess.run([sys.executable, "-m", "qpositivity", *args], env=env, capture_output=True, check=True)
    traced = subprocess.run([sys.executable, str(Path(tracing.__file__)), *args], env=env, capture_output=True,
                            check=True)
    assert traced.stdout == plain.stdout
    metrics = json.loads(traced.stderr.splitlines()[-1])
    assert list(metrics) == tracing.metric_names()
    assert metrics["identities.r_poly.self_s"] > 0
    assert metrics["polyring.mul_small.calls"] > 0


class TestNames:
    def test_every_name_is_well_formed(self):
        declared = [w["name"] for w in BENCHMARK["workloads"]]
        declared += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        produced = list(WORKLOADS) + list(run.END_TO_END_UNITS) + list(run.per_layer_units())
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared + produced)
        assert len(set(declared)) == len(declared)

    def test_benchmark_json_matches_the_code(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_spawned_child_reports_its_own_peak_rss():
    ballast = bytearray(64 << 20)  # the controller's size must not leak into the child's figure
    spawner = run.Spawner()
    try:
        child = spawner.run([sys.executable, "-c", "print('x' * 10)"])
        assert spawner.stdout() == b"xxxxxxxxxx\n"
    finally:
        spawner.close()
    assert not spawner.workdir.exists()
    assert len(ballast) and child.exit_code == 0
    assert child.peak_rss_mib < 48
    assert child.stdout_bytes == 11 and 0 < child.first_record_s <= child.wall_s


def test_calibration_task_prints_its_checksum():
    out = subprocess.run([sys.executable, "-I", "-S", calibrate.__file__], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == calibrate.CHECKSUM
