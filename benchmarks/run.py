"""gateforge benchmark: one workload per invocation, checked, one JSON line out.

Usage (from the repository root):

    python3 benchmarks/run.py --workload learn|evaluate|oracle \
        --seed N --seconds S --trace 0|1

The workload runs in this process against the sources under `src/`; no
install or build is needed. Set-up is timed before every round, rounds
repeat until `--seconds` have passed (at least two), and medians are
reported; end-to-end timings and the throughputs behind the tracing
overhead are calibrated to a reference machine speed (CALIBRATION_REF_S),
per-layer self times are raw. With `--trace 0` the last line of standard
output carries the end-to-end metrics; with `--trace 1` the first half of
the time runs untraced and the second half traced, and the last line
carries the per-layer metrics plus the tracing overhead. Spans go to
`.bench_out/trace-<workload>.jsonl` (see `summarize.py`). Scratch files live
in `.bench_work/` and are removed on exit. Only this process is measured:
the workloads start no thread, and the one child process (`make_store.py`,
for the store whose open `evaluate` and `oracle` time) is waited for and
not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
# Never used while the benchmark was written or tuned; later claims must
# also hold on it.
HELD_OUT_SEED = 90210
# Set-up is timed this many times before each round; the last one is used.
SETUPS_PER_ROUND = 3
# The speed of shared virtual CPUs changes by up to half from one minute to
# the next, and every timing moves with it. A fixed pure-Python loop is
# timed before and after each round; that round's times are divided, and its
# rates multiplied, by the loop's time over CALIBRATION_REF_S, so reported
# figures are at one reference speed. Raw figures are printed alongside.
CALIBRATION_REF_S = 0.010
MODULES = ("netlist", "parser", "simulator", "metrics", "boolopt", "knowledge",
           "backends", "orchestrator", "taskpack", "cli")
END_TO_END = (("setup_s", "s"), ("samples_per_s", "1/s"),
              ("functions_per_s", "1/s"), ("store_open_s", "s"),
              ("peak_rss_mb", "MB"))


def load_gateforge():
    """Import gateforge from this checkout's sources, and only from there."""
    package = SRC / "gateforge" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a gateforge "
                         "checkout")
    sys.path.insert(0, str(SRC))
    gf = importlib.import_module("gateforge")
    if Path(gf.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported gateforge from {gf.__file__}, "
                         f"not {package}")
    for name in MODULES:
        importlib.import_module(f"gateforge.{name}")
    return gf


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gateforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _calibration_loop() -> int:
    counts: dict[int, int] = {}
    parts = []
    for i in range(40000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
        if i % 7 == 0:
            parts.append(str(key))
    return len("".join(parts)) + len(counts)


def machine_factor() -> float:
    """Median of three timings of the calibration loop over its reference
    time: above 1 while the machine runs slower than the reference."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CALIBRATION_REF_S


def run_rounds(wl, seconds: float, min_rounds: int, setup_times: list,
               rounds: list, open_times: list | None = None) -> list:
    """Set up and run rounds until `seconds` have passed; returns the new
    rounds. Calibrated set-up times go to `setup_times` and, when given,
    calibrated store open times after each round to `open_times`."""
    new = []
    start = time.perf_counter()
    while len(new) < min_rounds or time.perf_counter() - start < seconds:
        before = machine_factor()
        setups = []
        for _ in range(SETUPS_PER_ROUND):
            t0 = time.perf_counter()
            state = wl.setup()
            setups.append(time.perf_counter() - t0)
        rnd = wl.run_round(state)
        opens = wl.time_opens() if open_times is not None else []
        rnd.factor = (before + machine_factor()) / 2
        setup_times.extend(t / rnd.factor for t in setups)
        if open_times is not None:
            open_times.extend(t / rnd.factor for t in opens)
        new.append(rnd)
    rounds.extend(new)
    return new


def rate(rounds, attr: str, calibrated: bool = True) -> float:
    return statistics.median(getattr(r, attr) / r.seconds
                             * (r.factor if calibrated else 1.0) for r in rounds)


def per_layer_metrics(tracer, names, wl, untraced, traced,
                      ) -> tuple[dict, dict, list]:
    """(metrics, trace file header, names whose call counts differ between
    traced rounds)."""
    import summarize

    base, with_trace = rate(untraced, "samples"), rate(traced, "samples")
    rounds = summarize.per_round(tracer.spans)
    first = rounds.get(0, {})
    metrics = {}
    for name in names:
        per = [r[name] for r in rounds.values() if name in r]
        metrics[f"{name}.calls"] = (first[name]["calls"] if name in first else 0,
                                    "count")
        self_ms = statistics.median(p["self_s"] for p in per) * 1000 if per else 0.0
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
        if name in ("boolopt.quine_mccluskey", "boolopt.min_gate_network"):
            durations = sorted(d for p in per for d in p["durations"])
            metrics[f"{name}.p50_ms"] = (
                summarize.percentile(durations, 50) * 1000 if durations else 0.0,
                "ms")
            metrics[f"{name}.max_ms"] = (
                durations[-1] * 1000 if durations else 0.0, "ms")
    for key, value in wl.knowledge_counts().items():
        metrics[key] = (value, "ratio" if key.endswith("ratio") else
                        "kB" if key.endswith("_kb") else "count")
    samples = metrics["orchestrator.run_task.calls"][0]
    attempts = metrics["backends.complete.calls"][0]
    metrics["orchestrator.attempts_per_sample"] = (
        attempts / samples if samples else 0.0, "count")
    counts = tracer.counts.get(0, {})
    for key in ("backends.prompt_chars", "backends.reply_chars"):
        metrics[key] = (counts.get(key, 0), "chars")
    metrics["trace.untraced_per_s"] = (base, "1/s")
    metrics["trace.traced_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_pct"] = (summarize.overhead_pct(base, with_trace), "%")
    calls = {n: [r[n]["calls"] if n in r else 0 for r in rounds.values()]
             for n in names}
    unsteady = sorted(n for n, c in calls.items() if len(set(c)) > 1)
    header = {"workload": wl.name, "seed": wl.seed, "names": list(names),
              "untraced_per_s": base, "traced_per_s": with_trace,
              "traced_round_s": statistics.median(r.seconds for r in traced)}
    return metrics, header, unsteady


def write_trace(path: Path, header: dict, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("learn", "evaluate", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gf = load_gateforge()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    from tracing import Tracer, SPAN_NAMES

    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        wl = WORKLOADS[args.workload](gf, args.seed, work)
        setup_times: list[float] = []
        rounds: list = []
        if args.trace:
            untraced = run_rounds(wl, args.seconds / 2, 1, setup_times, rounds)
            tracer = Tracer()
            tracer.install([("backends.complete", wl.backend_class, "complete")]
                           if wl.backend_class else [])
            traced = []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds / 2:
                tracer.round = len(traced)
                traced += run_rounds(wl, 0, 1, setup_times, rounds)
            metrics, header, unsteady = per_layer_metrics(
                tracer, SPAN_NAMES, wl, untraced, traced)
            write_trace(OUT_DIR / f"trace-{wl.name}.jsonl", header, tracer.spans)
        else:
            open_times: list[float] = []
            run_rounds(wl, args.seconds, 2, setup_times, rounds, open_times)
            unsteady = []
            values = {
                "setup_s": statistics.median(setup_times),
                "samples_per_s": rate(rounds, "samples"),
                "functions_per_s": rate(rounds, "solved"),
                "store_open_s": statistics.median(open_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.samples for r in rounds)
    failed = sum(r.failed for r in rounds)
    record = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs_digest": wl.inputs_digest,
        "results_digest": wl.results_digest(),
        "commit": commit(), "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "measured": "this benchmark process only: it runs the workload "
                    "in-process with workers=1; a child process builds the "
                    "store whose open evaluate and oracle time, unmeasured",
        "rounds": len(rounds), "seconds": args.seconds, "trace": args.trace,
        "unsteady_counts": unsteady,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'error_share':44s} {failed / attempted:14.6g} "
          f"share ({failed} of {attempted})")
    print(f"{'raw samples_per_s (uncalibrated)':44s} "
          f"{rate(rounds, 'samples', calibrated=False):14.6g} 1/s")
    print(f"{'machine factor (median over rounds)':44s} "
          f"{statistics.median(r.factor for r in rounds):14.6g} x")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
