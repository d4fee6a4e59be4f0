"""Summarize the spans a traced benchmark run wrote.

Usage: python3 benchmarks/summarize.py .bench_out/trace-learn.jsonl [...]

For each trace file (one per workload) it prints, per layer function:
calls per round, self time per round (span duration minus the part its
child spans cover), its share of the round, and call-duration percentiles
where at least ten calls lie beyond the percentile. It ends with the
tracing overhead: the untraced throughput of the same run against the
traced one. `run.py --trace 1` computes its per-layer metrics with the
same functions.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys

PERCENTILES = (50, 90, 99, 99.9)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def per_round(spans) -> dict[int, dict[str, dict]]:
    """round -> span name -> {"calls", "self_s", "durations"}."""
    own = self_times(spans)
    rounds: dict[int, dict[str, dict]] = collections.defaultdict(dict)
    for span_id, name, start, end, _, rnd in spans:
        entry = rounds[rnd].setdefault(
            name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        entry["durations"].append(end - start)
    return rounds


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1,
                   -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(k)]


def reportable(n: int) -> list[float]:
    """Percentiles with at least ten of n samples beyond them."""
    return [q for q in PERCENTILES if n * (100 - q) / 100 >= 10]


def overhead_pct(untraced_per_s: float, traced_per_s: float) -> float:
    return (untraced_per_s / traced_per_s - 1.0) * 100.0


def summarize(header: dict, spans, names) -> str:
    rounds = per_round(spans)
    n_rounds = max(1, len(rounds))
    round_s = header["traced_round_s"]
    lines = [f"workload {header['workload']}  seed {header['seed']}  "
             f"traced rounds {len(rounds)}  median round {round_s:.3f} s"]
    lines.append(f"  {'function':36s} {'calls':>8s} {'self ms':>10s} "
                 f"{'round':>6s}  percentiles of call ms")
    for name in names:
        per = [r[name] for r in rounds.values() if name in r]
        if not per:
            continue
        calls = per[0]["calls"]
        self_ms = statistics.median(p["self_s"] for p in per) * 1000
        durations = sorted(d for p in per for d in p["durations"])
        pcts = "  ".join(f"p{q:g}={percentile(durations, q) * 1000:.3f}"
                         for q in reportable(len(durations)))
        pcts = pcts or f"max={durations[-1] * 1000:.3f}"
        share = self_ms / 10 / round_s
        lines.append(f"  {name:36s} {calls:8d} {self_ms:10.2f} {share:5.1f}%  "
                     f"{pcts}")
    layers: dict[str, float] = collections.Counter()
    for r in rounds.values():
        for name, entry in r.items():
            layers[name.split(".")[0]] += entry["self_s"] * 1000 / n_rounds
    lines.append("  self ms per round by layer: " + ", ".join(
        f"{k}={v:.1f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    lines.append(
        f"  throughput untraced {header['untraced_per_s']:.3f}/s, traced "
        f"{header['traced_per_s']:.3f}/s: tracing overhead "
        f"{overhead_pct(header['untraced_per_s'], header['traced_per_s']):.1f}%")
    return "\n".join(lines)


def read_trace(path: str) -> tuple[dict, list]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return header, spans


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for path in argv:
        header, spans = read_trace(path)
        print(summarize(header, spans, header["names"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
