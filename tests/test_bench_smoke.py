"""The benchmark harness still runs and checks its own output."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# `learn` checks c = n, the declared G/D and identical results files;
# `evaluate` checks each sample's status and attempt count against a plan
# made from the reference netlists independently of gateforge; `oracle`
# checks network sizes against their formula class and QM covers cube by
# cube.
@pytest.mark.parametrize("workload", ["learn", "evaluate", "oracle"])
def test_workload_smoke(workload):
    last = _run(workload, 0)
    assert last["correct"] is True
    assert last["attempted"] > 0
    assert last["failed"] == 0


def test_every_trace_target_names_a_callable():
    """Each (metric, module, attribute path) the tracer wraps resolves in
    the package, so a renamed target fails here, not after a workload."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for name, module_name, path in tracing.TARGETS:
        owner = importlib.import_module(f"gateforge.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            unresolved.append(name)
    assert not unresolved


# The tracer wraps gateforge functions by name: renaming one breaks
# `--trace 1`, and every per-layer metric BENCHMARK.json declares must
# still be reported.
def test_traced_run_reports_every_layer():
    last = _run("evaluate", 1)
    assert last["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in last["metrics"]]
    assert not missing
