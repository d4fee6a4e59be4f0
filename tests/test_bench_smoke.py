"""The benchmark harness still runs and checks its own output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# `learn` checks c = n, the declared G/D and identical results files;
# `evaluate` checks each sample's status and attempt count against a plan
# made from the reference netlists independently of gateforge.
@pytest.mark.parametrize("workload", ["learn", "evaluate"])
def test_workload_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["attempted"] > 0
    assert last["failed"] == 0
