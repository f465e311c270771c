import hashlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import qpositivity
from qpositivity import (
    cli, identities, identity_commands, qfactor, store, tuple_commands,
)
from qpositivity.errors import IdentityViolation
from qpositivity.landau import TupleSpec
from qpositivity.polyring import IntPoly
from qpositivity.stats import poly_stats


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


def run_raw(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


STALE = {"payload": {"stale": True}}

# Modules `import qpositivity.cli` must not load: the record machinery of
# dataclasses, the --out and --format csv modules, the worker pool, and
# fractions (with decimal), which only a Landau verdict or a q=1 ratio builds.
LAZY = ("dataclasses", "inspect", "hashlib", "_hashlib", "csv", "tempfile", "signal",
        "concurrent.futures.process", "multiprocessing", "fractions", "decimal")
# The package's modules that a command which builds no polynomial must not load.
POLYNOMIAL_MODULES = ("qpositivity.qfactor", "qpositivity.polyring", "qpositivity.identities")
# The package's modules that landau and a plain enumerate load, besides cli.
TUPLE_PATH = ("errors", "landau", "tuple_commands")
# The package's own source directory, so that a `python -S` child finds it.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def _edit_cache(records=None, **key):
    """A corruption that updates the stored key (the last line), and each record with `records`."""

    def corrupt(text):
        *recs, stored = map(json.loads, text.splitlines())
        stored.update(key)
        for rec in recs:
            rec.update(records or {})
        return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in (*recs, stored))

    return corrupt


def _with_records(*lines):
    """A corruption that replaces the stored records by lines, keeping the key line."""
    return lambda text: "".join(line + "\n" for line in lines) + text.splitlines(True)[-1]


def _flip_digit(text):
    """A corruption that changes one digit of the first stored coefficient, keeping the JSON valid."""
    at = text.index('"coefficients": ["') + len('"coefficients": ["')
    at += text[at] == "-"
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


def _stored(path):
    """The records (without elapsed_ms) and the key stored at path."""
    *recs, key = map(json.loads, path.read_text().splitlines())
    for rec in recs:
        del rec["elapsed_ms"]
    return recs, key


def _child_peak(*args):
    """(exit code, peak RSS in KiB) of `python -m qpositivity *args`.

    A launcher of its own reaps the child: Linux counts the address space a
    child was spawned from in its ru_maxrss, and the test process may be large.
    """
    launcher = (
        "import os, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'qpositivity', *sys.argv[1:]]\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *args], capture_output=True, text=True, timeout=120
    )
    code, maxrss_kib = map(int, proc.stdout.split())
    return code, maxrss_kib


def _stdout_digest(argv):
    """sha256 of a successful child's stdout, read in chunks so a long run is never held whole."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    return digest.hexdigest()


# A sweep whose --full records run to megabytes each (its n = 20 file is about 110 MB).
BIG_SWEEP = ("sweep", "--a", "30,1", "--b", "15,10,6", "--full", "--jobs", "1")
# Its first six rows: the last two lines (317 and 546 KB) are longer than one write.
SWEEP_6 = (*BIG_SWEEP, "--n-max", "6")
# sha256 of SWEEP_6's stdout under --no-timing, as printed when each line was made whole.
SWEEP_6_SHA256 = "c8ebad503cbd978b053afa96cab2a48276da539b4946d1c6f65e14311b800d08"
# A D_1 with a negative coefficient: its run exits 2.
NEGATIVE_DPOLY = ("dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1")


def _counting(monkeypatch, command):
    """Count the runs of command that compute, not replay, their records."""
    calls = []
    compute = cli._DISPATCH[command]

    def counted(parsed):
        calls.append(parsed)
        return compute(parsed)

    monkeypatch.setitem(cli._DISPATCH, command, counted)
    return calls


class TestLandauCommand:
    def test_holds(self, capsys):
        code, recs = run_cli(capsys, "landau", "--a", "30,1", "--b", "15,10,6")
        assert code == 0
        (rec,) = recs
        assert rec["command"] == "landau"
        assert rec["status"] == "ok"
        assert rec["payload"]["holds"] is True
        assert rec["payload"]["witness"] is None

    def test_fails_with_witness(self, capsys):
        code, recs = run_cli(capsys, "landau", "--a", "1,1", "--b", "2")
        assert code == 0  # a failing verdict is an answer, not an error
        (rec,) = recs
        assert rec["status"] == "not-polynomial"
        assert rec["payload"]["witness"] == "1/2"
        assert rec["payload"]["min_value"] == -1

    def test_canonicalization_reported(self, capsys):
        _, recs = run_cli(capsys, "landau", "--a", "2,3", "--b", "3,1,1")
        assert recs[0]["payload"]["canonical_a"] == [2]
        assert recs[0]["payload"]["canonical_b"] == [1, 1]

    def test_degenerate_tuple(self, capsys):
        code, recs = run_cli(capsys, "landau", "--a", "5", "--b", "5")
        assert code == 0
        assert recs[0]["payload"]["degenerate"] is True
        assert recs[0]["payload"]["holds"] is True


class TestDpolyCommand:
    def test_central_gaussian(self, capsys):
        code, recs = run_cli(capsys, "dpoly", "--a", "2,1", "--b", "1,1,1", "--n", "2")
        assert code == 0
        payload = recs[0]["payload"]
        assert payload["coefficients"] == ["1", "1", "2", "1", "1"]
        assert payload["value_at_1"] == "6"
        assert payload["classical_ratio"] == "6"
        assert payload["q1_agrees"] is True

    def test_not_polynomial(self, capsys):
        code, recs = run_cli(capsys, "dpoly", "--a", "1,1", "--b", "2", "--n", "1")
        assert code == 0
        assert recs[0]["status"] == "not-polynomial"
        assert recs[0]["payload"]["smallest_failing_ell"] == 2
        assert recs[0]["payload"]["reason"] == (
            "ratio (1, 1)/(2,) is not a polynomial: exponent of Phi_2 is -1"
        )

    def test_negative_coefficient_exits_2(self, capsys):
        code, recs = run_cli(capsys, "dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1")
        assert code == 2
        assert recs[0]["status"] == "negative-found"
        assert recs[0]["payload"]["coefficients"] == ["1", "-1", "1"]
        assert recs[0]["payload"]["negative_positions"] == [1]


class TestPolyStats:
    @pytest.mark.parametrize(
        "coeffs",
        [[1, 3, 6, 3, 1], [2, 10**30, 10**30, 2], [1, 2], [], [7]],
        ids=["odd palindrome", "even palindrome", "not a palindrome", "zero", "constant"],
    )
    def test_coefficients_are_the_decimal_strings(self, coeffs):
        stats = poly_stats(IntPoly(coeffs), full=True)
        assert stats["coefficients"] == [str(c) for c in coeffs]

    def test_num_terms_skips_interior_zeros(self):
        assert poly_stats(IntPoly([1, 0, 0, 1]), full=False)["num_terms"] == 2


class TestSweepCommand:
    def test_one_record_per_n(self, capsys):
        code, recs = run_cli(capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "4")
        assert code == 0
        assert [rec["payload"]["n"] for rec in recs] == [1, 2, 3, 4]
        assert all(rec["payload"]["is_positive"] for rec in recs)
        assert recs[1]["payload"]["degree"] == 4

    def test_landau_failing_tuple_refused(self, capsys):
        code, recs = run_cli(capsys, "sweep", "--a", "1,1", "--b", "2", "--n-max", "5")
        assert code == 0
        (rec,) = recs
        assert rec["status"] == "not-polynomial"
        assert rec["payload"]["witness"] == "1/2"

    def test_full_flag_adds_coefficients(self, capsys):
        _, lean = run_cli(capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "2")
        _, full = run_cli(capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "2", "--full")
        assert "coefficients" not in lean[0]["payload"]
        assert full[1]["payload"]["coefficients"] == ["1", "1", "2", "1", "1"]

    def test_single_task_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one task needs no worker pool")

        # _map imports the pool class when it needs one, so patch its home
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code, recs = run_cli(
            capsys,
            "enumerate", "--r", "1", "--s", "2", "--sum-bound", "2", "--balanced",
            "--sweep-n", "3", "--jobs", "4",
        )
        assert code == 0
        (rec,) = recs
        assert [row["n"] for row in rec["payload"]["per_n"]] == [1, 2, 3]

    def test_sweep_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("sweep grows one chain in-process")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        code, recs = run_cli(capsys, "sweep", "--a", "3", "--b", "2,1", "--n-max", "6", "--jobs", "4")
        assert code == 0
        assert [rec["payload"]["n"] for rec in recs] == [1, 2, 3, 4, 5, 6]

    def test_pool_is_capped_at_the_cpu_count(self, capsys, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        args = ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "16", "--balanced",
                "--sweep-n", "1", "--no-timing")
        code, pooled = run_raw(capsys, *args, "--jobs", "64")
        assert code == 0
        assert len(pooled.splitlines()) > 2  # more tasks than CPUs
        assert sizes == [2]
        assert pooled == run_raw(capsys, *args, "--jobs", "1")[1]
        assert sizes == [2]

    def test_importing_the_cli_loads_no_worker_pool(self):
        code = (
            "import sys, qpositivity.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_importing_the_cli_loads_no_output_only_module(self):
        # -S: no site, whose own imports could load (or hide) any of these
        code = f"import sys, qpositivity.cli; print(sorted(set({LAZY!r}) & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_importing_the_package_loads_no_submodule(self):
        code = "import sys, qpositivity; print([m for m in sys.modules if 'qpositivity.' in m])"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["landau", "--a", "30,1", "--b", "15,10,6"],
            ["enumerate", "--r", "2", "--s", "3", "--sum-bound", "12", "--balanced"],
        ],
        ids=["import", "landau", "enumerate"],
    )
    def test_polynomial_free_runs_load_no_polynomial_module(self, argv):
        run = "" if argv is None else f"cli.main({argv!r} + ['--jobs', '1']); "
        code = (
            f"import sys, qpositivity.cli as cli; {run}"
            f"print(sorted(set({POLYNOMIAL_MODULES!r}) & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (None, ()),
            (["--help"], ()),
            (["sweep", "--help"], ()),
            (["landau", "--a", "30,1", "--b", "15,10,6"], TUPLE_PATH),
            (["enumerate", "--r", "2", "--s", "3", "--sum-bound", "12", "--balanced"],
             TUPLE_PATH),
            (["landau", "--a", "2", "--b", "1,1", "--out", "OUT"], (*TUPLE_PATH, "store")),
            (["dpoly", "--a", "2", "--b", "1,1", "--n", "2"],
             (*TUPLE_PATH, "polyring", "qfactor", "stats")),
            (["identities", "--max-n", "2"],
             ("errors", "identities", "identity_commands", "landau", "polyring", "qfactor")),
            (["rpoly", "--n", "1", "--m", "1", "--r", "1", "--s", "1"],
             ("errors", "identities", "identity_commands", "landau", "polyring", "qfactor",
              "stats")),
        ],
        ids=["import", "help", "command-help", "landau", "enumerate", "out", "dpoly",
             "identities", "rpoly"],
    )
    def test_each_run_loads_only_its_modules(self, tmp_path, argv, modules):
        # the package, the cli, and the given modules: no other command's module, no store
        # without --out, and nothing that builds a polynomial in a run that builds none
        if argv is not None:
            argv = [str(tmp_path) if arg == "OUT" else arg for arg in argv]
        run = "pass" if argv is None else f"cli.main({argv!r} + ['--jobs', '1'])"
        code = (
            "import sys, qpositivity.cli as cli\n"
            f"try:\n    {run}\nexcept SystemExit:  # --help exits\n    pass\n"
            "print(sorted(m for m in sys.modules if m.startswith('qpositivity.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = sorted(f"qpositivity.{name}" for name in ("cli", *modules))
        assert proc.stdout.splitlines()[-1] == repr(loaded)

    def test_every_public_name_resolves(self):
        # a fresh interpreter, so each name is looked up through the package's lazy hook
        code = (
            "import qpositivity; names = {}; exec('from qpositivity import *', names); "
            "print(sorted(set(qpositivity.__all__) ^ set(names) - {'__builtins__'}), "
            "all(getattr(qpositivity, n) is names[n] for n in qpositivity.__all__))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] True\n"

    def test_unknown_public_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qpositivity.no_such_name
        with pytest.raises(ImportError):
            from qpositivity import no_such_name  # noqa: F401

    def test_jobs_flag_gives_identical_records(self, capsys, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        # two workers even on a one-CPU machine, so the pool path really runs
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        args = ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "8", "--balanced",
                "--sweep-n", "4", "--no-timing")
        _, seq = run_raw(capsys, *args, "--jobs", "1")
        _, par = run_raw(capsys, *args, "--jobs", "2")
        assert sizes == [2]
        assert seq == par

    def test_csv_projection(self, capsys):
        code, out = run_raw(
            capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "3", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,n,degree,num_terms,min_coeff,is_positive"
        assert lines[1:] == ['2,"1,1",1,1,2,1,True', '2,"1,1",2,4,5,1,True',
                             '2,"1,1",3,9,10,1,True']

    @pytest.mark.parametrize("raw", [(), ("--raw",)], ids=["canonical", "raw"])
    def test_csv_rows_name_the_tuple_dpoly_names(self, capsys, raw):
        # sweep echoes 1,2 / 1,1,1 as given; unless --raw its rows are of 2 / 1,1
        argv = ("--a", "1,2", "--b", "1,1,1", "--format", "csv", *raw)
        _, sweep = run_raw(capsys, "sweep", *argv, "--n-max", "3")
        dpoly = [run_raw(capsys, "dpoly", *argv, "--n", str(n))[1].splitlines()[1]
                 for n in (1, 2, 3)]
        assert sweep.splitlines()[1:] == dpoly
        assert dpoly[0].startswith('"1,2","1,1,1",' if raw else '2,"1,1",')


class TestEnumerateCommand:
    def test_lists_tuples(self, capsys):
        code, recs = run_cli(
            capsys, "enumerate", "--r", "1", "--s", "2", "--sum-bound", "4", "--balanced"
        )
        assert code == 0
        pairs = [(tuple(r["payload"]["a"]), tuple(r["payload"]["b"])) for r in recs]
        assert pairs == [((2,), (1, 1)), ((3,), (2, 1)), ((4,), (3, 1))]

    def test_sweeping_each_tuple(self, capsys):
        code, recs = run_cli(
            capsys,
            "enumerate",
            "--r", "1", "--s", "2", "--sum-bound", "4", "--balanced",
            "--sweep-n", "3",
        )
        assert code == 0
        assert all(rec["payload"]["all_positive"] for rec in recs)
        assert [row["n"] for row in recs[0]["payload"]["per_n"]] == [1, 2, 3]

    @pytest.mark.parametrize("full", [(), ("--full",)], ids=["stats", "full"])
    def test_per_n_rows_are_sweep_payloads(self, capsys, full):
        _, recs = run_cli(
            capsys,
            "enumerate",
            "--r", "2", "--s", "3", "--sum-bound", "8", "--balanced",
            "--sweep-n", "4", "--jobs", "1", *full,
        )
        payload = recs[-1]["payload"]
        a, b = (",".join(map(str, payload[key])) for key in ("a", "b"))
        _, sweep = run_cli(
            capsys, "sweep", "--a", a, "--b", b, "--n-max", "4", "--jobs", "1", *full
        )
        assert payload["per_n"] == [rec["payload"] for rec in sweep]

    def test_csv_rows_name_their_tuple(self, capsys):
        import csv

        argv = ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "9", "--balanced",
                "--sweep-n", "3", "--jobs", "1", "--no-timing")
        _, recs = run_cli(capsys, *argv)
        _, out = run_raw(capsys, *argv, "--format", "csv")
        rows = list(csv.DictReader(out.splitlines()))
        expected = [
            {"a": ",".join(map(str, rec["payload"]["a"])),
             "b": ",".join(map(str, rec["payload"]["b"])),
             **{k: str(row[k]) for k in ("n", "degree", "num_terms", "min_coeff", "is_positive")}}
            for rec in recs
            for row in rec["payload"]["per_n"]
        ]
        assert len({(row["a"], row["b"]) for row in rows}) == len(recs) > 1
        assert rows == expected

    def test_sum_bound_cap(self, capsys):
        code = cli.main(
            ["enumerate", "--r", "1", "--s", "2", "--sum-bound", "65", "--balanced"]
        )
        assert code == 1
        assert "capped" in capsys.readouterr().err

    def test_sum_bound_one_is_a_usage_error(self, capsys):
        code = cli.main(["enumerate", "--r", "1", "--s", "2", "--sum-bound", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "--sum-bound must be >= 2" in captured.err
        assert captured.out == ""


class TestDegreeGuard:
    def test_oversized_dpoly_refused_quickly(self):
        # degree 972000: building it would run for minutes
        proc = subprocess.run(
            [sys.executable, "-m", "qpositivity",
             "dpoly", "--a", "30,1", "--b", "15,10,6", "--n", "60"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "degree 972000" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--a", "30,1", "--b", "15,10,6", "--n-max", "31"),
            ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "31", "--balanced",
             "--sweep-n", "31"),
            ("sweep", "--a", "10000000", "--b", "9999999,4472", "--n-max", "1"),
        ],
        ids=["sweep", "enumerate", "sweep-entry"],
    )
    def test_refused_before_building(self, capsys, monkeypatch, argv):
        def no_build(*args, **kwargs):
            raise AssertionError("nothing above the cap may be built")

        def no_scan(*args, **kwargs):
            raise AssertionError("D must be sized before the Landau scan")

        monkeypatch.setattr(qfactor, "d_polynomial", no_build)
        monkeypatch.setattr(tuple_commands, "landau_check", no_scan)
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"above the cap of {tuple_commands.MAX_DEGREE}" in captured.err

    def test_cap_is_inclusive(self):
        # D_500 of (2)/(1,1) has degree 500**2 = MAX_DEGREE exactly
        tuple_commands._check_degree(TupleSpec((2,), (1, 1)), 500)
        with pytest.raises(cli._UsageError):
            tuple_commands._check_degree(TupleSpec((2,), (1, 1)), 501)

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (("dpoly", "--a", "100000000", "--b", "99999999,14142", "--n", "1"), 100000000),
            (("dpoly", "--raw", "--a", "10000000,2", "--b", "10000000,1,1", "--n", "1"),
             10000000),
            (("landau", "--a", "1,1", "--b", "10000000"), 10000000),
        ],
        ids=["dpoly", "dpoly-degree-1", "landau"],
    )
    def test_large_entry_refused_quickly(self, argv, entry):
        # the degree is within the cap, but the scans over the entries
        # would run for seconds to minutes
        proc = subprocess.run(
            [sys.executable, "-m", "qpositivity", *argv],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"largest entry {entry}, above the cap of {tuple_commands.MAX_DEGREE}" in proc.stderr

    def test_entry_cap_is_inclusive(self, capsys):
        top, over = TupleSpec((250000,), (249999, 706)), TupleSpec((250001,), (250000, 707))
        assert over.degree == 429
        tuple_commands._check_degree(top, 1)
        with pytest.raises(cli._UsageError):
            tuple_commands._check_degree(over, 1)
        assert cli.main(["landau", "--a", "250000", "--b", "249999,706"]) == 0
        assert cli.main(["landau", "--a", "250001", "--b", "250000,707"]) == 1
        capsys.readouterr()


class TestIdentitiesCommand:
    def test_all_pass(self, capsys):
        code, recs = run_cli(capsys, "identities", "--max-n", "3")
        assert code == 0
        names = [rec["payload"]["identity"] for rec in recs]
        assert names == [
            "super-catalan-three-way",
            "b-recurrence",
            "chu-vandermonde",
            "double-chu-vandermonde",
            "q-binomial-theorem",
            "r-unit-shift",
        ]
        assert all(rec["status"] == "ok" for rec in recs)
        assert all(rec["payload"]["failures"] == [] for rec in recs)

    def test_max_n_zero_trivial_bases(self, capsys):
        code, recs = run_cli(capsys, "identities", "--max-n", "0")
        assert code == 0
        assert all(rec["status"] == "ok" for rec in recs)

    def test_cap(self, capsys):
        assert cli.main(["identities", "--max-n", "17"]) == 1
        capsys.readouterr()

    def test_failing_and_raising_checks_are_reported(self, capsys, monkeypatch):
        def fails_once(a, b, c):
            return (a, b, c) != (1, 0, 1)

        def raises_once(n, p):
            if (n, p) == (0, 1):
                raise IdentityViolation("forced for the test")
            return True

        monkeypatch.setattr(identities, "chu_vandermonde_check", fails_once)
        monkeypatch.setattr(identities, "e_main_check", raises_once)
        code, recs = run_cli(capsys, "identities", "--max-n", "1")
        assert code == 3
        by_name = {rec["payload"]["identity"]: rec for rec in recs}
        chu = by_name.pop("chu-vandermonde")
        assert chu["status"] == "identity-violation"
        assert chu["payload"]["cases"] == 8
        assert chu["payload"]["failures"] == [{"a": 1, "b": 0, "c": 1}]
        double = by_name.pop("double-chu-vandermonde")
        assert double["status"] == "identity-violation"
        assert double["payload"]["cases"] == 4
        assert double["payload"]["failures"] == [{"n": 0, "p": 1}]
        assert all(rec["status"] == "ok" for rec in by_name.values())

    def test_symmetric_rows_check_each_pair_once(self, capsys, monkeypatch):
        calls = {"super_catalan_check": [], "r_poly": []}
        for name, seen in calls.items():
            def counted(*args, real=getattr(identities, name), seen=seen):
                seen.append(args[:2])
                return real(*args)

            monkeypatch.setattr(identities, name, counted)
        code, recs = run_cli(capsys, "identities", "--max-n", "4")
        assert code == 0
        pairs = [(n, m) for n in range(5) for m in range(n, 5)]
        assert calls == {"super_catalan_check": pairs, "r_poly": pairs}
        by_name = {rec["payload"]["identity"]: rec["payload"] for rec in recs}
        assert by_name["super-catalan-three-way"]["cases"] == 25
        assert by_name["r-unit-shift"]["cases"] == 25


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("borwein", "--n-max", "80"),
                f"--n-max is capped at {identity_commands.MAX_BORWEIN_N}",
            ),
            (
                ("rpoly", "--n", "40", "--m", "40", "--r", "3", "--s", "3"),
                f"is 9600, above the cap of {identity_commands.MAX_RPOLY_SIZE}",
            ),
        ],
        ids=["borwein", "rpoly"],
    )
    def test_oversized_run_refused_quickly(self, argv, message):
        # unrefused, each of these runs for seconds and takes hundreds of MiB
        proc = subprocess.run(
            [sys.executable, "-m", "qpositivity", *argv],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert message in proc.stderr

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(identities, "borwein_sum", lambda n: IntPoly.one())
        monkeypatch.setattr(identities, "r_poly", lambda n, m, r, s: IntPoly.one())
        top = str(identity_commands.MAX_BORWEIN_N)
        assert cli.main(["borwein", "--n-max", top]) == 0
        assert cli.main(["borwein", "--n-max", str(identity_commands.MAX_BORWEIN_N + 1)]) == 1
        # 10 * 20**2 == MAX_RPOLY_SIZE
        assert cli.main(["rpoly", "--n", "20", "--m", "0", "--r", "10", "--s", "1"]) == 0
        assert cli.main(["rpoly", "--n", "20", "--m", "1", "--r", "10", "--s", "1"]) == 1
        capsys.readouterr()

    def test_b_table_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(tuple_commands, "enumerate_tuples", lambda *args, **kwargs: iter(()))
        argv = ["enumerate", "--r", "5", "--s", "6", "--sum-bound", "64"]
        assert cli.main(argv) == 0  # 203,177 b-tuples, under the cap
        monkeypatch.setattr(tuple_commands, "MAX_B_TUPLES", 203_177)
        assert cli.main(argv) == 0
        monkeypatch.setattr(tuple_commands, "MAX_B_TUPLES", 203_176)
        assert cli.main(argv) == 1
        assert "203177 b-tuples, above the cap of 203176" in capsys.readouterr().err

    def test_oversized_b_table_refused_before_it_is_built(self, capsys, monkeypatch):
        # unrefused, it tables 951,529 b-tuples (about 154 MiB, 4 s) before its first pair
        def build(*args, **kwargs):
            raise AssertionError("the b-table was built")

        monkeypatch.setattr(tuple_commands, "enumerate_tuples", build)
        started = time.process_time()
        assert cli.main(["enumerate", "--r", "11", "--s", "12", "--sum-bound", "64"]) == 1
        assert time.process_time() - started < 0.1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"951529 b-tuples, above the cap of {tuple_commands.MAX_B_TUPLES}" in err


class TestBorweinAndRpoly:
    def test_borwein(self, capsys):
        code, recs = run_cli(capsys, "borwein", "--n-max", "5")
        assert code == 0
        assert [rec["payload"]["n"] for rec in recs] == list(range(6))
        assert all(rec["payload"]["is_positive"] for rec in recs)

    def test_borwein_at_the_cap_stays_small(self):
        code, maxrss_kib = _child_peak("borwein", "--n-max", "40")
        assert code == 0
        assert maxrss_kib < 48 * 1024

    def test_rpoly_unit(self, capsys):
        code, recs = run_cli(capsys, "rpoly", "--n", "1", "--m", "1", "--r", "1", "--s", "1")
        assert code == 0
        assert recs[0]["payload"]["coefficients"] == ["0", "1"]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit before 3.11"
    )
    def test_coefficients_above_the_digit_limit_are_printed(self, capsys):
        # R_{1,1;r,s} = (1 + q)^(r+s-1) - 1, whose middle coefficient C(2200, 1100) has 661 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, recs = run_cli(capsys, "rpoly", "--n", "1", "--m", "1", "--r", "2200", "--s", "1")
            restored = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert restored == 640
        expected = [math.comb(2200, i) for i in range(2201)]
        expected[0] = 0
        assert len(str(max(expected))) > 640
        assert recs[0]["payload"]["coefficients"] == [str(c) for c in expected]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit before 3.11"
    )
    def test_pool_task_lifts_the_digit_limit(self):
        # a pool worker started by spawn or forkserver runs the task without running main
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rec = tuple_commands._tuple_sweep_record(({}, (2,), (1, 1), 1, True))
            lifted = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(limit)
        assert lifted == 0
        assert rec["payload"]["per_n"][0]["coefficients"] == ["1", "1"]

    def test_rpoly_violation_exits_3(self, capsys, monkeypatch):
        def boom(n, m, r, s):
            raise IdentityViolation("forced for the test")

        monkeypatch.setattr(identities, "r_poly", boom)
        code, recs = run_cli(capsys, "rpoly", "--n", "2", "--m", "2", "--r", "2", "--s", "2")
        assert code == 3
        assert recs[0]["status"] == "identity-violation"


class TestUsageErrors:
    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["landau", "--a", "2"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_malformed_list(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["landau", "--a", "2,x", "--b", "1"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_zero_entry(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["landau", "--a", "0", "--b", "1"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 1
        capsys.readouterr()


# The smallest valid arguments of each command, and the commands that read
# --full (the coefficient lists) and --raw (no canonicalization).
MINIMAL_ARGS = {
    "landau": ("--a", "2", "--b", "1,1"),
    "dpoly": ("--a", "2", "--b", "1,1", "--n", "1"),
    "sweep": ("--a", "2", "--b", "1,1", "--n-max", "1"),
    "enumerate": ("--r", "1", "--s", "2", "--sum-bound", "4"),
    "identities": ("--max-n", "1"),
    "borwein": ("--n-max", "1"),
    "rpoly": ("--n", "1", "--m", "1", "--r", "1", "--s", "1"),
}
TAKES = {"--full": ("sweep", "enumerate", "borwein"), "--raw": ("landau", "dpoly", "sweep")}
FLAG_PAIRS = [(command, flag) for flag in TAKES for command in MINIMAL_ARGS]


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "command, flag", [pair for pair in FLAG_PAIRS if pair[0] not in TAKES[pair[1]]]
    )
    def test_a_flag_the_command_ignores_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as info:
            cli.main([command, *MINIMAL_ARGS[command], flag, "--no-timing"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "command, flag", [pair for pair in FLAG_PAIRS if pair[0] in TAKES[pair[1]]]
    )
    def test_a_flag_the_command_reads_parses(self, command, flag):
        args = cli._build_parser().parse_args([command, *MINIMAL_ARGS[command], flag])
        assert getattr(args, flag[2:]) is True
        assert store._cache_key(args)[flag[2:]] is True

    @pytest.mark.parametrize("command", MINIMAL_ARGS)
    def test_the_out_key_holds_only_flags_the_command_takes(self, command):
        args = cli._build_parser().parse_args([command, *MINIMAL_ARGS[command]])
        for flag, commands in TAKES.items():
            assert (flag[2:] in store._cache_key(args)) == (command in commands)


# Every option of each command, as its --help lists them.
COMMON_OPTIONS = ("--help", "--format", "--out", "--jobs", "--no-timing")
OPTIONS = {
    "landau": ("--raw", "--a", "--b"),
    "dpoly": ("--raw", "--a", "--b", "--n"),
    "sweep": ("--full", "--raw", "--a", "--b", "--n-max"),
    "enumerate": ("--full", "--r", "--s", "--sum-bound", "--balanced", "--sweep-n"),
    "identities": ("--max-n",),
    "borwein": ("--full", "--n-max"),
    "rpoly": ("--n", "--m", "--r", "--s"),
}


class TestHelp:
    def test_top_level_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(OPTIONS) + "}" in out
        for command in OPTIONS:
            assert re.search(rf"^    {command} ", out, re.MULTILINE), command

    @pytest.mark.parametrize("command", OPTIONS)
    def test_command_help_lists_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {*COMMON_OPTIONS, *OPTIONS[command]}
        assert out.startswith(f"usage: qpos {command} [-h]")


class TestDeterminismAndCaching:
    def test_no_timing_output_is_reproducible(self, capsys):
        args = ("sweep", "--a", "3", "--b", "2,1", "--n-max", "5", "--no-timing")
        _, first = run_raw(capsys, *args)
        _, second = run_raw(capsys, *args)
        assert first == second
        assert "elapsed_ms" not in first

    @pytest.mark.parametrize(
        "argv",
        [("landau", "--a", "2", "--b", "1,1"), ("sweep", "--a", "2", "--b", "1,1", "--n-max", "3")],
        ids=["landau", "sweep"],
    )
    def test_timing_present_by_default(self, capsys, argv):
        _, recs = run_cli(capsys, *argv)
        assert recs
        for rec in recs:
            assert isinstance(rec["elapsed_ms"], int)
            assert rec["elapsed_ms"] >= 0

    def test_out_dir_persists_and_replays(self, capsys, tmp_path, monkeypatch):
        args = (
            "sweep", "--a", "2", "--b", "1,1", "--n-max", "3",
            "--no-timing", "--out", str(tmp_path),
        )
        code, first = run_raw(capsys, *args)
        assert code == 0
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].name.startswith("sweep-")

        def boom(_args):
            raise AssertionError("cache should have been used")

        monkeypatch.setitem(cli._DISPATCH, "sweep", boom)
        code, second = run_raw(capsys, *args)
        assert code == 0
        assert second == first

    def test_timed_out_run_serializes_each_record_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", counted)
        code, out = run_raw(capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "4", "--full",
                            "--out", str(tmp_path))
        assert code == 0
        (path,) = tmp_path.iterdir()
        stored = path.read_text().splitlines()
        # one per record and one for the key; each stored line is the printed one
        assert len(calls) == 4 + 1
        assert out.splitlines() == stored[:-1]

    def test_lazy_output_modules_in_a_fresh_interpreter(self, tmp_path):
        # A fresh -S interpreter: no module pytest loaded can stand in for a
        # missing import of csv, zlib or tempfile on this path.
        argv = [sys.executable, "-S", "-m", "qpositivity", "dpoly", "--a", "2", "--b", "1,1",
                "--n", "3", "--format", "csv", "--out", str(tmp_path)]
        first = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=SRC_ENV)
        assert first.returncode == 0, first.stderr
        (stored,) = tmp_path.iterdir()
        written = stored.stat()
        second = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=SRC_ENV)
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout
        assert first.stdout.splitlines()[0] == ",".join(cli._CSV_FIELDS)
        # replayed: a recomputed run would os.replace the file with a new one
        (again,) = tmp_path.iterdir()
        assert (again.stat().st_ino, again.stat().st_mtime_ns) == (
            written.st_ino, written.st_mtime_ns)

    def test_out_dir_distinguishes_inputs(self, capsys, tmp_path):
        base = ("sweep", "--a", "2", "--b", "1,1", "--out", str(tmp_path))
        run_raw(capsys, *base, "--n-max", "2")
        run_raw(capsys, *base, "--n-max", "3")
        assert len(list(tmp_path.iterdir())) == 2

    def test_output_only_flags_replay_one_file(self, capsys, tmp_path, monkeypatch):
        args = ("sweep", "--a", "2", "--b", "1,1", "--n-max", "3", "--out", str(tmp_path))
        run_raw(capsys, *args)
        (path,) = tmp_path.iterdir()

        def boom(_args):
            raise AssertionError("cache should have been used")

        monkeypatch.setitem(cli._DISPATCH, "sweep", boom)
        # two --jobs values, so one of them differs from the default
        for extra in (("--jobs", "1"), ("--jobs", "7"), ("--format", "csv"), ("--no-timing",)):
            assert run_raw(capsys, *args, *extra)[0] == 0
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "",
            lambda text: "[]",
            _with_records('{"status": "bogus"}'),
            _with_records('{"status": "ok"}'),
            _edit_cache(records={"command": "sweep"}),
            _edit_cache(records={"input": None}),
            _edit_cache(records={"payload": []}),
            # well-formed records stored under another key
            _edit_cache(STALE, version="0.0.0-other"),
            _edit_cache(STALE, schema=0),
            _edit_cache(STALE, command="sweep"),
            _edit_cache(STALE, params={"a": [2], "b": [1, 1], "n": 1, "raw": False}),
            # well-formed, under the right key, but not the bytes the run wrote
            _flip_digit,
        ],
        ids=[
            "truncated",
            "empty",
            "no-records",
            "bad-status",
            "bare-record",
            "record-of-another-command",
            "input-not-a-dict",
            "payload-not-a-dict",
            "stored-version-differs",
            "stored-schema-differs",
            "stored-command-differs",
            "stored-params-differ",
            "flipped-coefficient-digit",
        ],
    )
    def test_corrupt_cache_is_recomputed(self, capsys, tmp_path, corrupt):
        args = ("dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1", "--no-timing")
        fresh = run_raw(capsys, *args)
        cached = run_raw(capsys, *args, "--out", str(tmp_path))
        assert cached == fresh
        (path,) = tmp_path.iterdir()
        whole = _stored(path)
        path.write_text(corrupt(path.read_text()))
        assert run_raw(capsys, *args, "--out", str(tmp_path)) == fresh
        assert list(tmp_path.iterdir()) == [path]
        assert _stored(path) == whole

    def test_bare_record_is_recomputed_for_csv(self, capsys, tmp_path):
        args = ("dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1", "--format", "csv")
        fresh = run_raw(capsys, *args)
        assert run_raw(capsys, *args, "--out", str(tmp_path)) == fresh
        (path,) = tmp_path.iterdir()
        path.write_text(_with_records('{"status": "ok"}')(path.read_text()))
        assert run_raw(capsys, *args, "--out", str(tmp_path)) == fresh
        assert _stored(path)[0][0]["payload"]

    @pytest.mark.parametrize(
        "cut", [0, 1, 2, 3, "mid-record", "mid-key", "key-without-newline"]
    )
    def test_proper_prefix_is_recomputed(self, capsys, tmp_path, monkeypatch, cut):
        args = (
            "sweep", "--a", "2", "--b", "1,1", "--n-max", "3",
            "--no-timing", "--out", str(tmp_path),
        )
        fresh = run_raw(capsys, *args)
        (path,) = tmp_path.iterdir()
        whole, text = _stored(path), path.read_text()
        lines = text.splitlines(True)
        assert len(lines) == 4  # three records, then the key
        if isinstance(cut, int):  # at a line boundary
            prefix = "".join(lines[:cut])
        else:
            end = {"mid-record": len(lines[0]) // 2, "mid-key": len(text) - len(lines[-1]) // 2,
                   "key-without-newline": len(text) - 1}[cut]
            prefix = text[:end]
        path.write_text(prefix)
        calls = _counting(monkeypatch, "sweep")
        assert run_raw(capsys, *args) == fresh
        assert len(calls) == 1
        assert list(tmp_path.iterdir()) == [path]
        assert _stored(path) == whole

    @pytest.mark.parametrize(
        "name, value", [("__version__", "0.0.0-other"), ("_CACHE_SCHEMA", 0)]
    )
    def test_cache_from_another_version_is_not_replayed(
        self, capsys, tmp_path, monkeypatch, name, value
    ):
        args = (
            "sweep", "--a", "2", "--b", "1,1", "--n-max", "3",
            "--no-timing", "--out", str(tmp_path),
        )
        first = run_raw(capsys, *args)
        (old,) = tmp_path.iterdir()
        monkeypatch.setattr(store, name, value)
        calls = _counting(monkeypatch, "sweep")
        assert run_raw(capsys, *args) == first
        assert len(calls) == 1
        assert len(list(tmp_path.iterdir())) == 2
        assert old.exists()

    def test_replayed_exit_code_preserved(self, capsys, tmp_path):
        args = (
            "dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1",
            "--no-timing", "--out", str(tmp_path),
        )
        assert run_raw(capsys, *args)[0] == 2
        assert run_raw(capsys, *args)[0] == 2  # replayed from disk

    @pytest.mark.parametrize("output", [(), ("--no-timing",), ("--format", "csv")],
                             ids=["timed", "no-timing", "csv"])
    @pytest.mark.parametrize("argv, code", [(SWEEP_6, 0), (NEGATIVE_DPOLY, 2)],
                             ids=["sweep", "negative-found"])
    def test_replay_prints_what_the_run_printed(self, capsys, tmp_path, monkeypatch, argv, code,
                                                output):
        args = (*argv, *output, "--out", str(tmp_path))
        computed = run_raw(capsys, *args)
        assert computed[0] == code
        calls = _counting(monkeypatch, argv[0])
        assert run_raw(capsys, *args) == computed
        assert calls == []

    @pytest.mark.parametrize("target", ["taken", "taken/sub"])
    def test_out_that_is_not_a_directory_is_refused(self, capsys, tmp_path, monkeypatch, target):
        (tmp_path / "taken").write_text("keep\n")

        def boom(_args):
            raise AssertionError("nothing should be computed")

        monkeypatch.setitem(cli._DISPATCH, "landau", boom)
        code = cli.main(["landau", "--a", "2", "--b", "1,1", "--out", str(tmp_path / target)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("qpos landau: error: cannot use --out")
        assert (tmp_path / "taken").read_text() == "keep\n"

    def test_out_keeps_no_copy_of_the_run(self, tmp_path):
        argv = (*BIG_SWEEP, "--n-max", "16")
        stored = (*argv, "--out", str(tmp_path))
        code, bare = _child_peak(*argv)
        assert code == 0
        code, writing = _child_peak(*stored)
        assert code == 0
        # about 0.99x (30.2 against 30.5 MiB): the file gets the same bounded pieces as
        # stdout; a sha256 from hashlib, which maps OpenSSL, made it 1.145x
        assert writing < 1.15 * bare
        (path,) = tmp_path.iterdir()
        written = path.stat()
        code, replaying = _child_peak(*stored)
        assert code == 0
        # about 0.51x (15.6 MiB): the check and the replay read blocks and parse no line
        assert replaying < 1.25 * bare
        # replayed: a recomputed run would os.replace the file with a new one
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (
            written.st_ino, written.st_mtime_ns)

    def test_stopped_run_stores_nothing(self, capsys, tmp_path, monkeypatch):
        out = ("--out", str(tmp_path))
        assert cli.main(["enumerate", "--r", "2", "--s", "3", "--sum-bound", "65", *out]) == 1
        compute = cli._DISPATCH["sweep"]

        def failing(parsed):
            yield from itertools.islice(compute(parsed), 1)
            raise RuntimeError("failed after the first record")

        monkeypatch.setitem(cli._DISPATCH, "sweep", failing)
        with pytest.raises(RuntimeError):
            cli.main(["sweep", "--a", "2", "--b", "1,1", "--n-max", "3", *out])
        assert list(tmp_path.iterdir()) == []


class _Recording:
    """A stream that keeps each write, forwarding it to handle if one is given."""

    def __init__(self, handle=None):
        self.handle, self.writes = handle, []

    def write(self, data):
        self.writes.append(data)
        return len(data) if self.handle is None else self.handle.write(data)

    def flush(self):
        if self.handle is not None:
            self.handle.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def _line(rec):
    """The pieces of rec's JSON line, joined."""
    return "".join(cli._pieces(cli._layout(rec)))


def _write_bound(lines):
    """The longest write the piece writer may make for these JSON lines: a batch and one chunk."""
    recs = [json.loads(line) for line in lines]
    longest = max(len(c) for rec in recs for c in rec["payload"].get("coefficients", ""))
    return cli._BATCH + cli._CHUNK * (longest + len('", "'))


# One argv of every command, each record of which is checked piece by piece.
EVERY_COMMAND = [
    ("landau", "--a", "30,1", "--b", "15,10,6"),
    ("landau", "--a", "3", "--b", "2,2"),
    NEGATIVE_DPOLY,
    ("dpoly", "--a", "4", "--b", "3", "--n", "2"),
    ("sweep", "--a", "30,1", "--b", "15,10,6", "--n-max", "3", "--full"),
    ("sweep", "--a", "2", "--b", "1,1", "--n-max", "3"),
    ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "12", "--balanced"),
    ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "10", "--balanced", "--sweep-n", "3",
     "--full", "--jobs", "1"),
    ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "10", "--balanced", "--sweep-n", "2",
     "--jobs", "1"),
    ("identities", "--max-n", "2"),
    ("borwein", "--n-max", "4", "--full"),
    ("rpoly", "--n", "2", "--m", "2", "--r", "2", "--s", "2"),
]

# Records made by hand: negative, empty and multi-chunk lists, per_n rows, and escapes.
_ROW = {"n": 1, "degree": 2, "min_coeff": "-3", "is_positive": False}
HAND_MADE = [
    {"command": "dpoly", "input": {"a": [6, 1, 1]}, "status": "negative-found",
     "payload": dict(_ROW, coefficients=["1", "-3", "1"])},
    {"command": "rpoly", "input": {}, "status": "ok", "payload": dict(_ROW, coefficients=[])},
    {"command": "dpoly", "input": {}, "status": "ok",
     "payload": {"coefficients": [str(7 ** k - 10**6) for k in range(3 * cli._CHUNK + 1)]}},
    {"command": "enumerate", "input": {"sweep_n": 3}, "status": "negative-found",
     "payload": {"a": [2, 1], "negative_ns": [1], "per_n": [
         dict(_ROW, coefficients=["-1", "0", "22"]), dict(_ROW, n=2, coefficients=[]),
         dict(_ROW, n=3)]}},
    {"command": "dpoly", "input": {"note": 'a "quoted" \\ caf\u00e9\n'}, "status": "not-polynomial",
     "payload": {"reason": "\u2203 \t", "coefficients": ["5"]}},
]


class TestPieces:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: " ".join(argv[:2]))
    def test_pieces_of_every_command_are_its_json_line(self, argv):
        recs = list(cli._DISPATCH[argv[0]](cli._build_parser().parse_args(list(argv))))
        assert recs
        for rec in recs:
            timed = dict(rec, elapsed_ms=12)
            assert _line(timed) == json.dumps(timed, sort_keys=True) + "\n"
            untimed = "".join(cli._untimed(cli._pieces(cli._layout(timed))))
            assert untimed == json.dumps(rec, sort_keys=True) + "\n"

    @pytest.mark.parametrize("rec", HAND_MADE, ids=["negative", "empty", "chunks", "per-n",
                                                     "escapes"])
    @pytest.mark.parametrize("elapsed_ms", [None, 0, 123456])
    def test_pieces_of_a_hand_made_record_are_its_json_line(self, rec, elapsed_ms):
        if elapsed_ms is not None:
            rec = dict(rec, elapsed_ms=elapsed_ms)
        assert _line(rec) == json.dumps(rec, sort_keys=True) + "\n"
        if elapsed_ms is not None:
            untimed = {k: v for k, v in rec.items() if k != "elapsed_ms"}
            assert "".join(cli._untimed(cli._pieces(cli._layout(rec)))) == _line(untimed)

    def test_stdout_writes_are_bounded(self, monkeypatch):
        stdout = _Recording()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main([*SWEEP_6, "--no-timing"]) == 0
        text = "".join(stdout.writes)
        assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_6_SHA256
        lines = text.splitlines()
        assert max(map(len, lines)) > cli._BATCH
        assert max(map(len, stdout.writes)) <= _write_bound(lines)

    def test_out_file_writes_are_bounded(self, capsys, tmp_path, monkeypatch):
        files = []

        def recording_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            if "w" in mode:
                files.append(_Recording(handle))
                return files[-1]
            return handle

        monkeypatch.setattr(store, "open", recording_open, raising=False)
        code, out = run_raw(capsys, *SWEEP_6, "--no-timing", "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_6_SHA256
        (written,), (path,) = files, tmp_path.iterdir()
        assert b"".join(written.writes) == path.read_bytes()
        lines = path.read_text().splitlines()[:-1]
        assert max(map(len, lines)) > cli._BATCH
        assert max(map(len, written.writes)) <= _write_bound(lines)
        assert _stored(path)[0] == [json.loads(line) for line in out.splitlines()]


class TestStreaming:
    def test_sweep_prints_each_record_as_it_is_made(self, capsys, monkeypatch):
        chain = qfactor.scaled_ratios
        seen = []

        def checked(spec, n_max):
            for n, poly in enumerate(chain(spec, n_max), start=1):
                if n == 2:
                    seen.append(capsys.readouterr().out)
                yield poly

        monkeypatch.setattr(qfactor, "scaled_ratios", checked)
        assert cli.main(["sweep", "--a", "2", "--b", "1,1", "--n-max", "3"]) == 0
        (early,) = seen
        assert [json.loads(line)["payload"]["n"] for line in early.splitlines()] == [1]

    def test_identities_prints_each_record_as_it_is_made(self, capsys, monkeypatch):
        check = identities.b_poly_check
        seen = []

        def checked(n, m):
            if not seen:
                seen.append(capsys.readouterr().out)
            return check(n, m)

        monkeypatch.setattr(identities, "b_poly_check", checked)
        assert cli.main(["identities", "--max-n", "2"]) == 0
        (early,) = seen
        names = [json.loads(line)["payload"]["identity"] for line in early.splitlines()]
        assert names == ["super-catalan-three-way"]

    def test_enumerate_prints_each_pair_as_it_is_found(self, capsys, monkeypatch):
        from qpositivity import landau

        holds, emit = landau._holds, cli._emit
        events = []

        def decided(a, b):
            events.append("decided")
            return holds(a, b)

        def emitted(*args):
            events.append("emitted")
            emit(*args)

        monkeypatch.setattr(landau, "_holds", decided)
        monkeypatch.setattr(cli, "_emit", emitted)
        argv = ["enumerate", "--r", "2", "--s", "3", "--sum-bound", "12", "--balanced"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert events.count("emitted") == len(out.splitlines()) > 1
        last_decided = max(i for i, event in enumerate(events) if event == "decided")
        assert events.index("emitted") < last_decided

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--r", "2", "--s", "3", "--sum-bound", "65"),
            ("dpoly", "--a", "30,1", "--b", "15,10,6", "--n", "60"),
        ],
        ids=["sum-bound", "degree"],
    )
    def test_refused_run_prints_no_csv_header(self, capsys, argv):
        code, out = run_raw(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out == ""

    def test_closed_pipe_exits_cleanly_and_stores_nothing(self, tmp_path):
        argv = ("sweep", "--a", "30,1", "--b", "15,10,6", "--n-max", "20", "--full",
                "--jobs", "1", "--out", str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qpositivity", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first["payload"]["n"] == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err
        assert list(tmp_path.iterdir()) == []

    def test_killed_run_is_recomputed(self, tmp_path):
        argv = [sys.executable, "-m", "qpositivity", *BIG_SWEEP, "--n-max", "20", "--no-timing"]
        stored = [*argv, "--out", str(tmp_path)]
        proc = subprocess.Popen(stored, stdout=subprocess.PIPE)
        first = json.loads(proc.stdout.readline())
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
        assert first["payload"]["n"] == 1
        # a kill may leave a temp file, never a file at the final path
        left = set(tmp_path.iterdir())
        assert all(path.name.startswith(".tmp-") for path in left)
        with ThreadPoolExecutor(2) as pool:
            rerun, fresh = pool.map(_stdout_digest, [stored, argv])
        assert rerun == fresh
        (path,) = set(tmp_path.iterdir()) - left
        written = path.stat()
        # whole: the next run replays it instead of replacing it
        assert _stdout_digest(stored) == fresh
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (
            written.st_ino, written.st_mtime_ns)
        path.unlink()

    @pytest.mark.parametrize("printed", [1, 3])
    def test_killed_run_has_stored_each_printed_record_whole(self, tmp_path, printed):
        argv = [sys.executable, "-m", "qpositivity", *BIG_SWEEP, "--n-max", "20", "--no-timing",
                "--out", str(tmp_path)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
        seen = [json.loads(proc.stdout.readline()) for _ in range(printed)]
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
        assert [rec["payload"]["n"] for rec in seen] == list(range(1, printed + 1))
        (tmp,) = tmp_path.iterdir()
        assert tmp.name.startswith(".tmp-")
        # each record is written as one line and flushed before it is printed;
        # only the line being written at the kill may be torn
        *whole, _ = tmp.read_bytes().split(b"\n")
        assert len(whole) >= printed
        stored = [json.loads(line) for line in whole[:printed]]
        for rec in stored:
            del rec["elapsed_ms"]
        assert stored == seen

    def test_interrupted_run_stores_nothing(self, tmp_path):
        argv = ("-m", "qpositivity", *BIG_SWEEP, "--n-max", "20", "--out", str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert json.loads(proc.stdout.readline())["payload"]["n"] == 1
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode != 0
        assert b"KeyboardInterrupt" in err
        assert list(tmp_path.iterdir()) == []

    def test_terminated_run_stores_nothing(self, tmp_path):
        argv = ("-m", "qpositivity", *BIG_SWEEP, "--n-max", "20", "--out", str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert json.loads(proc.stdout.readline())["payload"]["n"] == 1
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 128 + signal.SIGTERM, err
        assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qpositivity", "landau", "--a", "2", "--b", "1,1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.splitlines()[0])
    assert rec["payload"]["holds"] is True
