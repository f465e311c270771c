"""The benchmark's workloads, run in process, print exactly their committed stdout.

`perfbench/workloads.py` names each workload's arguments (`--jobs 1
--no-timing` included) and `perfbench/reference.json` the sha256 of its
stdout.  Both are only read here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qpositivity import cli

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
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
