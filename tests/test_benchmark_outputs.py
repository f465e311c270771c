"""The benchmark's workloads print exactly their committed stdout, traced or not.

`perfbench/workloads.py` names each workload's arguments (`--jobs 1
--no-timing` included) and `perfbench/reference.json` the sha256 of its
stdout; `perfbench/tracing.py` runs the CLI under per-layer spans, as the
benchmark's `--trace 1` mode does.  All three are only read here.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpositivity import cli

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_PATH = _PERFBENCH / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)  # its dataclass looks itself up in sys.modules


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_stdout_is_the_reference(name, capsys):
    workload = workloads.WORKLOADS[name]
    assert {"--jobs", "--no-timing"} <= set(workload.argv)
    assert cli.main(list(workload.argv)) == 0
    stdout = capsys.readouterr().out.encode()
    assert workload.check(stdout) == []
    assert hashlib.sha256(stdout).hexdigest() == workload.reference_sha256


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--a", "30,1", "--b", "15,10,6", "--n-max", "3"),
        ("identities", "--max-n", "3"),
    ],
    ids=["sweep", "identities"],
)
def test_traced_run_prints_the_plain_stdout(argv):
    argv = [*argv, "--jobs", "1", "--no-timing"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    plain, traced = (
        subprocess.run([sys.executable, *entry, *argv], env=env, capture_output=True, timeout=120)
        for entry in (["-m", "qpositivity"], [str(_PERFBENCH / "tracing.py")])
    )
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert plain.stdout and traced.stdout == plain.stdout
    assert isinstance(json.loads(traced.stderr.splitlines()[-1]), dict)
