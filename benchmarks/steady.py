"""Steadiness check: run the benchmark on many seeds and compare the spread.

Usage (from the repository root):

    python3 benchmarks/steady.py [--workloads learn,evaluate,oracle]
        [--seeds 1-10] [--trace-seeds 1] [--save out.json]
        [--baseline earlier.json]

For every workload it runs `run.py --trace 0` once per seed, one run at a
time, and prints for each end-to-end metric the median of the runs and
the distance between the first and third quartile as a share of that
median, against the metric's bound in BENCHMARK.json (a spread should stay
below a third of its bound). `--baseline` compares the medians with an
earlier `--save` file: a median worse than the earlier one by more than
the bound is flagged. Every `--trace-seeds` seed is run twice with
`--trace 1`; any per-layer `calls` count or `knowledge.entries_*` count
that differs between runs with the same inputs is flagged, since identical
inputs must repeat exactly. The same seed must also give the same inputs
digest, and `learn` must give the same results file every time.
Exit status 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    record = next(json.loads(l)["record"] for l in lines if l.startswith('{"record"'))
    return record, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="benchmark steadiness check")
    ap.add_argument("--workloads", default="learn,evaluate,oracle")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    flags: list[str] = []
    saved: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in metrics}
        digests: dict[int, str] = {}
        results: set[str] = set()
        for seed in parse_seeds(args.seeds):
            record, out = run_once(workload, seed, seconds, 0)
            if not out["correct"] or out["failed"]:
                flags.append(f"{workload} seed {seed}: {out['failed']} of "
                             f"{out['attempted']} failed")
            if set(out["metrics"]) != set(metrics):
                flags.append(f"{workload}: end-to-end metrics differ from "
                             "BENCHMARK.json")
            for name in metrics:
                values[name].append(out["metrics"][name]["value"])
            digests[seed] = record["inputs_digest"]
            if record["results_digest"]:
                results.add(record["results_digest"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        if len(results) > 1:
            flags.append(f"{workload}: results file differs between runs")
        saved[workload] = values
        for name, m in metrics.items():
            med, sp = statistics.median(values[name]), spread(values[name])
            note = ""
            if name != "setup_s" and sp > m["bound"]:
                note = "  SPREAD ABOVE BOUND"
                flags.append(f"{workload} {name}: spread {sp:.3f} > bound")
            elif sp > m["bound"] / 3:
                note = "  spread above a third of the bound"
            old = baseline.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med if m["better"] == "lower" \
                    else (old_med - med) / old_med
                note += f"  vs baseline {worse:+.3f}"
                if worse > m["bound"]:
                    note += " WORSE THAN BOUND"
                    flags.append(f"{workload} {name}: median worse by {worse:.3f}")
            print(f"  {name:16s} median {med:12.6g} {m['unit']:4s} spread "
                  f"{sp:.4f} (bound {m['bound']}){note}", flush=True)

        for seed in parse_seeds(args.trace_seeds):
            (rec_a, out_a), (rec_b, out_b) = (run_once(workload, seed, seconds, 1)
                                              for _ in range(2))
            if rec_a["inputs_digest"] != rec_b["inputs_digest"] or \
                    rec_a["inputs_digest"] != digests.get(seed, rec_a["inputs_digest"]):
                flags.append(f"{workload} seed {seed}: inputs digest differs")
            if set(out_a["metrics"]) != layer_names:
                flags.append(f"{workload}: per-layer metrics differ from "
                             "BENCHMARK.json")
            counts = [k for k in out_a["metrics"]
                      if k.endswith(".calls") or k.startswith("knowledge.entries_")]
            differ = [k for k in counts if out_a["metrics"][k]["value"]
                      != out_b["metrics"][k]["value"]]
            differ += [f"within run: {n}" for n in
                       rec_a["unsteady_counts"] + rec_b["unsteady_counts"]]
            for k in differ:
                flags.append(f"{workload} seed {seed}: count {k} differs")
            overhead = [o["metrics"]["trace.overhead_pct"]["value"]
                        for o in (out_a, out_b)]
            print(f"  traced seed {seed} twice: {len(counts)} counts, "
                  f"{len(differ)} differ; tracing overhead "
                  f"{overhead[0]:.1f}%, {overhead[1]:.1f}%", flush=True)

    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    for f in flags:
        print(f"FLAG {f}")
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
