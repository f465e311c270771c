import json
import subprocess
import sys

import pytest

from qpositivity import cli
from qpositivity.errors import IdentityViolation
from qpositivity.polyring import IntPoly
from qpositivity.qfactor import TupleSpec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


def run_raw(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


STALE = {"payload": {"stale": True}}


def _edit_cache(records=None, **key):
    """A corruption that updates the stored key, and each record with `records`."""

    def corrupt(text):
        blob = json.loads(text)
        blob.update(key)
        for rec in blob["records"]:
            rec.update(records or {})
        return json.dumps(blob)

    return corrupt


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

    def test_negative_coefficient_exits_2(self, capsys):
        code, recs = run_cli(capsys, "dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1")
        assert code == 2
        assert recs[0]["status"] == "negative-found"
        assert recs[0]["payload"]["coefficients"] == ["1", "-1", "1"]
        assert recs[0]["payload"]["negative_positions"] == [1]


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
        code, recs = run_cli(capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "1", "--jobs", "4")
        assert code == 0
        assert [rec["payload"]["n"] for rec in recs] == [1]

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

    def test_jobs_flag_gives_identical_records(self, capsys):
        args = ("sweep", "--a", "3", "--b", "2,1", "--n-max", "6", "--no-timing")
        _, seq = run_raw(capsys, *args, "--jobs", "1")
        _, par = run_raw(capsys, *args, "--jobs", "2")
        assert seq == par

    def test_csv_projection(self, capsys):
        code, out = run_raw(
            capsys, "sweep", "--a", "2", "--b", "1,1", "--n-max", "3", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "n,degree,num_terms,min_coeff,is_positive"
        assert lines[1:] == ["1,1,2,1,True", "2,4,5,1,True", "3,9,10,1,True"]


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
        ],
        ids=["sweep", "enumerate"],
    )
    def test_refused_before_building(self, capsys, monkeypatch, argv):
        def no_build(*args, **kwargs):
            raise AssertionError("nothing above the cap may be built")

        def no_scan(*args, **kwargs):
            raise AssertionError("D must be sized before the Landau scan")

        monkeypatch.setattr(cli, "d_polynomial", no_build)
        monkeypatch.setattr(cli, "landau_check", no_scan)
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"above the cap of {cli.MAX_DEGREE}" in captured.err

    def test_cap_is_inclusive(self):
        # D_500 of (2)/(1,1) has degree 500**2 = MAX_DEGREE exactly
        cli._check_degree(TupleSpec((2,), (1, 1)), 500)
        with pytest.raises(cli._UsageError):
            cli._check_degree(TupleSpec((2,), (1, 1)), 501)


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

        monkeypatch.setattr(cli, "chu_vandermonde_check", fails_once)
        monkeypatch.setattr(cli, "e_main_check", raises_once)
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


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("borwein", "--n-max", "80"), f"--n-max is capped at {cli.MAX_BORWEIN_N}"),
            (
                ("rpoly", "--n", "40", "--m", "40", "--r", "3", "--s", "3"),
                f"is 9600, above the cap of {cli.MAX_RPOLY_SIZE}",
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
        monkeypatch.setattr(cli, "borwein_sum", lambda n: IntPoly.one())
        monkeypatch.setattr(cli, "r_poly", lambda n, m, r, s: IntPoly.one())
        top = str(cli.MAX_BORWEIN_N)
        assert cli.main(["borwein", "--n-max", top]) == 0
        assert cli.main(["borwein", "--n-max", str(cli.MAX_BORWEIN_N + 1)]) == 1
        # 10 * 20**2 == MAX_RPOLY_SIZE
        assert cli.main(["rpoly", "--n", "20", "--m", "0", "--r", "10", "--s", "1"]) == 0
        assert cli.main(["rpoly", "--n", "20", "--m", "1", "--r", "10", "--s", "1"]) == 1
        capsys.readouterr()


class TestBorweinAndRpoly:
    def test_borwein(self, capsys):
        code, recs = run_cli(capsys, "borwein", "--n-max", "5")
        assert code == 0
        assert [rec["payload"]["n"] for rec in recs] == list(range(6))
        assert all(rec["payload"]["is_positive"] for rec in recs)

    def test_rpoly_unit(self, capsys):
        code, recs = run_cli(capsys, "rpoly", "--n", "1", "--m", "1", "--r", "1", "--s", "1")
        assert code == 0
        assert recs[0]["payload"]["coefficients"] == ["0", "1"]

    def test_rpoly_violation_exits_3(self, capsys, monkeypatch):
        def boom(n, m, r, s):
            raise IdentityViolation("forced for the test")

        monkeypatch.setattr(cli, "r_poly", boom)
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


class TestDeterminismAndCaching:
    def test_no_timing_output_is_reproducible(self, capsys):
        args = ("sweep", "--a", "3", "--b", "2,1", "--n-max", "5", "--no-timing")
        _, first = run_raw(capsys, *args)
        _, second = run_raw(capsys, *args)
        assert first == second
        assert "elapsed_ms" not in first

    def test_timing_present_by_default(self, capsys):
        _, recs = run_cli(capsys, "landau", "--a", "2", "--b", "1,1")
        assert isinstance(recs[0]["elapsed_ms"], int)

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
            lambda text: '{"records": [{"status": "bogus"}]}',
            lambda text: '{"records": [{"status": "ok"}]}',
            _edit_cache(records={"command": "sweep"}),
            _edit_cache(records={"input": None}),
            _edit_cache(records={"payload": []}),
            # well-formed records stored under another key
            _edit_cache(STALE, version="0.0.0-other"),
            _edit_cache(STALE, schema=0),
            _edit_cache(STALE, command="sweep"),
            _edit_cache(STALE, params={"a": [2], "b": [1, 1], "n": 1, "full": False, "raw": False}),
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
        ],
    )
    def test_corrupt_cache_is_recomputed(self, capsys, tmp_path, corrupt):
        args = ("dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1", "--no-timing")
        fresh = run_raw(capsys, *args)
        cached = run_raw(capsys, *args, "--out", str(tmp_path))
        assert cached == fresh
        (path,) = tmp_path.iterdir()
        path.write_text(corrupt(path.read_text()))
        assert run_raw(capsys, *args, "--out", str(tmp_path)) == fresh
        assert list(tmp_path.iterdir()) == [path]
        assert json.loads(path.read_text())["records"]

    def test_bare_record_is_recomputed_for_csv(self, capsys, tmp_path):
        args = ("dpoly", "--a", "6,1,1", "--b", "5,3", "--n", "1", "--format", "csv")
        fresh = run_raw(capsys, *args)
        assert run_raw(capsys, *args, "--out", str(tmp_path)) == fresh
        (path,) = tmp_path.iterdir()
        path.write_text('{"records": [{"status": "ok"}]}')
        assert run_raw(capsys, *args, "--out", str(tmp_path)) == fresh
        assert json.loads(path.read_text())["records"][0]["payload"]

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
        calls = []
        compute = cli._DISPATCH["sweep"]

        def counted(parsed):
            calls.append(parsed)
            return compute(parsed)

        monkeypatch.setattr(cli, name, value)
        monkeypatch.setitem(cli._DISPATCH, "sweep", counted)
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
