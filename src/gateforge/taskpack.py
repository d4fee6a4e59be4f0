"""Benchmark task packs and result reporting.

A task pack is a directory: task.json (metadata + port interface),
spec.txt (natural-language specification), testbench.json (vectors) and an
optional reference.nl netlist. The exact schemas are documented in
docs/task_pack_format.md and carry an explicit version field.

Reports render two ways: a machine-readable JSON document that round-trips
losslessly and is byte-stable across identical runs, and a human table with
per-difficulty columns. Wall-clock time is deliberately kept out of the
machine document so identical runs compare equal; it is surfaced on the
console instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

from .metrics import (
    DEFAULT_WEIGHTS,
    EvalResult,
    MetricWeights,
    TierVerdict,
    sei_task,
)
from .netlist import Port, PortDir, structural_report
from .parser import parse
from .simulator import (
    PackedVectors,
    SimOutcome,
    TestVector,
    pack_vectors,
    simulate_combinational,
    simulate_sequential,
)

SCHEMA_VERSION = 1

DIFFICULTIES = ("easy", "medium", "hard")
CIRCUIT_CLASSES = ("combinational", "sequential")


class TaskSchemaError(ValueError):
    """Pack violates the schema; message carries field-level diagnostics."""


class ReferenceMismatchError(RuntimeError):
    """Reference design contradicts the pack's declared numbers."""


@dataclass(frozen=True)
class HumanReference:
    gate_count: int
    delay: int
    # Optional per-tier best-known numbers, where pack authors have them.
    tiers: tuple[tuple[str, int, int], ...] = ()

    def sei(self, weights: MetricWeights = DEFAULT_WEIGHTS) -> float:
        return sei_task(self.gate_count, self.delay, weights)

    def tier_sei(self, tier: str,
                 weights: MetricWeights = DEFAULT_WEIGHTS) -> float | None:
        for name, g, d in self.tiers:
            if name == tier:
                return sei_task(g, d, weights)
        return None


@dataclass(frozen=True)
class Testbench:
    cycles: int
    vectors: tuple[TestVector, ...]

    @cached_property
    def packed(self) -> PackedVectors:
        """The vectors packed for combinational scoring, once per testbench."""
        return pack_vectors(self.vectors)


@dataclass(frozen=True)
class TaskPack:
    id: str
    title: str
    difficulty: str
    circuit_class: str
    spec_text: str
    ports: tuple[Port, ...]
    clock: str | None
    tags: tuple[str, ...]
    testbench: Testbench
    reference: HumanReference | None = None
    reference_netlist: str | None = None
    path: str = ""

    def reference_sei(self, weights: MetricWeights = DEFAULT_WEIGHTS) -> float | None:
        if self.reference is None:
            return None
        return self.reference.sei(weights)

    def input_bit_names(self) -> list[str]:
        return [p.bit_name(i) for p in self.ports if p.direction is PortDir.IN
                for i in range(p.width)]

    def output_bit_names(self) -> list[str]:
        return [p.bit_name(i) for p in self.ports if p.direction is PortDir.OUT
                for i in range(p.width)]


def _expand_port_values(value, port: Port, where: str) -> dict[str, int]:
    """Turn a whole-port integer into per-bit assignments."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TaskSchemaError(f"{where}: value for '{port.name}' must be an integer")
    if value < 0 or value >= (1 << port.width):
        raise TaskSchemaError(
            f"{where}: value {value} does not fit in {port.width} bit(s) "
            f"of '{port.name}'")
    return {port.bit_name(i): (value >> i) & 1 for i in range(port.width)}


def _expand_expected(value, port: Port, where: str) -> dict[str, int | None]:
    if value is None or value == "x":
        return {port.bit_name(i): None for i in range(port.width)}
    return dict(_expand_port_values(value, port, where))


def _parse_vector(doc: dict, ports: dict[str, Port], index: int) -> TestVector:
    where = f"testbench.vectors[{index}]"
    if not isinstance(doc, dict):
        raise TaskSchemaError(f"{where}: vector must be an object")
    cycle = doc.get("cycle", 0)
    if not isinstance(cycle, int) or cycle < 0:
        raise TaskSchemaError(f"{where}.cycle: must be a non-negative integer")

    def resolve(key: str) -> tuple[Port, int | None]:
        if key in ports:
            return ports[key], None
        if key.endswith("]") and "[" in key:
            base, _, idx = key[:-1].partition("[")
            if base in ports and idx.isdigit():
                return ports[base], int(idx)
        raise TaskSchemaError(f"{where}: unknown port bit '{key}'")

    inputs: dict[str, int] = {}
    for key, value in doc.get("inputs", {}).items():
        port, bit = resolve(key)
        if port.direction is not PortDir.IN:
            raise TaskSchemaError(f"{where}: '{key}' is not an input port")
        if bit is None:
            inputs.update(_expand_port_values(value, port, where))
        else:
            if not (port.lsb <= bit <= port.msb):
                raise TaskSchemaError(f"{where}: bit {bit} out of range for "
                                      f"'{port.name}'")
            if value not in (0, 1):
                raise TaskSchemaError(f"{where}: bit value must be 0 or 1")
            inputs[key] = int(value)
    expected: dict[str, int | None] = {}
    for key, value in doc.get("expected", {}).items():
        port, bit = resolve(key)
        if port.direction is not PortDir.OUT:
            raise TaskSchemaError(f"{where}: '{key}' is not an output port")
        if bit is None:
            expected.update(_expand_expected(value, port, where))
        else:
            if not (port.lsb <= bit <= port.msb):
                raise TaskSchemaError(f"{where}: bit {bit} out of range for "
                                      f"'{port.name}'")
            if value is None or value == "x":
                expected[key] = None
            elif value in (0, 1):
                expected[key] = int(value)
            else:
                raise TaskSchemaError(f"{where}: expected bit must be 0, 1, "
                                      "null or \"x\"")
    return TestVector(inputs=inputs, expected=expected, cycle=cycle)


def load_task_pack(path: str | os.PathLike) -> TaskPack:
    """Load and invariant-check one task pack directory."""
    root = os.fspath(path)
    meta_path = os.path.join(root, "task.json")
    if not os.path.exists(meta_path):
        raise TaskSchemaError(f"{root}: missing task.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)

    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TaskSchemaError(
            f"task.json: schema_version {version!r} is not {SCHEMA_VERSION}")
    for key in ("id", "title", "difficulty", "circuit_class", "ports"):
        if key not in meta:
            raise TaskSchemaError(f"task.json: missing field '{key}'")
    if meta["difficulty"] not in DIFFICULTIES:
        raise TaskSchemaError(
            f"task.json.difficulty: {meta['difficulty']!r} not in {DIFFICULTIES}")
    if meta["circuit_class"] not in CIRCUIT_CLASSES:
        raise TaskSchemaError(
            f"task.json.circuit_class: {meta['circuit_class']!r} "
            f"not in {CIRCUIT_CLASSES}")

    ports: list[Port] = []
    for i, pdoc in enumerate(meta["ports"]):
        where = f"task.json.ports[{i}]"
        try:
            direction = PortDir(pdoc["dir"])
        except (KeyError, ValueError):
            raise TaskSchemaError(f"{where}.dir: must be 'in' or 'out'") from None
        width = pdoc.get("width", 1)
        if not isinstance(width, int) or width < 1:
            raise TaskSchemaError(f"{where}.width: must be an integer >= 1")
        name = pdoc.get("name")
        if not name or any(p.name == name for p in ports):
            raise TaskSchemaError(f"{where}.name: missing or duplicate")
        ports.append(Port(name, direction, width, pdoc.get("lsb", 0)))
    port_map = {p.name: p for p in ports}

    clock = meta.get("clock")
    if meta["circuit_class"] == "combinational":
        if clock is not None:
            raise TaskSchemaError("task.json.clock: combinational tasks "
                                  "must not declare a clock")
    else:
        if clock not in port_map or port_map[clock].direction is not PortDir.IN \
                or port_map[clock].width != 1:
            raise TaskSchemaError("task.json.clock: sequential tasks need a "
                                  "1-bit input clock port")

    spec_path = os.path.join(root, "spec.txt")
    if not os.path.exists(spec_path):
        raise TaskSchemaError(f"{root}: missing spec.txt")
    with open(spec_path, encoding="utf-8") as fh:
        spec_text = fh.read()

    tb_path = os.path.join(root, "testbench.json")
    if not os.path.exists(tb_path):
        raise TaskSchemaError(f"{root}: missing testbench.json")
    with open(tb_path, encoding="utf-8") as fh:
        tb = json.load(fh)
    echo = tb.get("interface")
    if echo is not None:
        declared = {p.name: {"dir": p.direction.value, "width": p.width}
                    for p in ports}
        if echo != declared:
            raise TaskSchemaError(
                "testbench.json.interface: echo does not match the ports "
                "declared in task.json")
    cycles = tb.get("cycles", 1)
    if not isinstance(cycles, int) or cycles < 1:
        raise TaskSchemaError("testbench.json.cycles: must be an integer >= 1")
    vectors = tuple(_parse_vector(v, port_map, i)
                    for i, v in enumerate(tb.get("vectors", [])))
    if not any(e is not None for v in vectors for e in v.expected.values()):
        raise TaskSchemaError("testbench.json: no vector checks anything")
    if meta["circuit_class"] == "combinational":
        bad = [v for v in vectors if v.cycle != 0]
        if bad:
            raise TaskSchemaError("testbench.json: combinational vectors "
                                  "must all have cycle 0")
    for v in vectors:
        if clock is not None and clock in v.inputs:
            raise TaskSchemaError("testbench.json: vectors must not drive "
                                  "the clock")

    reference = None
    if meta.get("human_reference") is not None:
        ref = meta["human_reference"]
        tiers: list[tuple[str, int, int]] = []
        for tier_name, td in (ref.get("tiers") or {}).items():
            try:
                tiers.append((str(tier_name), int(td["gate_count"]),
                              int(td["delay"])))
            except (KeyError, TypeError, ValueError):
                raise TaskSchemaError(
                    f"task.json.human_reference.tiers.{tier_name}: needs "
                    "integer gate_count and delay") from None
        try:
            reference = HumanReference(int(ref["gate_count"]),
                                       int(ref["delay"]), tuple(tiers))
        except (KeyError, TypeError, ValueError):
            raise TaskSchemaError("task.json.human_reference: needs integer "
                                  "gate_count and delay") from None
        declared = ref.get("sei")
        if declared is not None and abs(declared - reference.sei()) > 5e-5:
            raise TaskSchemaError(
                f"task.json.human_reference.sei: {declared} does not match "
                f"1/(G+D) = {reference.sei():.6f}")

    ref_text = None
    ref_path = os.path.join(root, "reference.nl")
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            ref_text = fh.read()

    return TaskPack(
        id=str(meta["id"]),
        title=str(meta["title"]),
        difficulty=meta["difficulty"],
        circuit_class=meta["circuit_class"],
        spec_text=spec_text,
        ports=tuple(ports),
        clock=clock,
        tags=tuple(meta.get("tags", [])),
        testbench=Testbench(cycles, vectors),
        reference=reference,
        reference_netlist=ref_text,
        path=root,
    )


def simulate_task(task: TaskPack, netlist) -> SimOutcome:
    """Run the task's testbench against a candidate netlist."""
    bench = task.testbench
    if task.circuit_class == "sequential":
        return simulate_sequential(netlist, bench.vectors, bench.cycles,
                                   clock=task.clock)
    return simulate_combinational(netlist, bench.packed)


def verify_reference(task: TaskPack,
                     reference_text: str | None = None,
                     weights: MetricWeights = DEFAULT_WEIGHTS) -> EvalResult:
    """Check the pack's reference design against its own metadata."""
    text = reference_text if reference_text is not None else task.reference_netlist
    if not text:
        raise ReferenceMismatchError(f"{task.id}: no reference netlist provided")
    result = parse(text)
    if not result.ok:
        raise ReferenceMismatchError(
            f"{task.id}: reference does not parse: "
            + "; ".join(str(e) for e in result.errors))
    netlist = result.netlist
    outcome = simulate_task(task, netlist)
    if outcome.correctness != 1.0:
        raise ReferenceMismatchError(
            f"{task.id}: reference fails its own testbench "
            f"({outcome.passed}/{outcome.passed + outcome.failed}; "
            f"first failure {outcome.first_failure})")
    report = structural_report(netlist)
    if task.reference is not None:
        declared = (task.reference.gate_count, task.reference.delay)
        measured = (report.gate_count, report.delay)
        if declared != measured:
            raise ReferenceMismatchError(
                f"{task.id}: declared reference G/D {declared} does not "
                f"match measured {measured}")
    sei = sei_task(report.gate_count, report.delay, weights)
    return EvalResult(correctness=1.0, gate_count=report.gate_count,
                      delay=report.delay, sei=sei)


def discover_task_packs(root: str | os.PathLike) -> list[TaskPack]:
    """Load every pack directly under `root`, sorted by id."""
    root = os.fspath(root)
    packs = []
    for name in sorted(os.listdir(root)):
        cand = os.path.join(root, name)
        if os.path.isdir(cand) and os.path.exists(os.path.join(cand, "task.json")):
            packs.append(load_task_pack(cand))
    packs.sort(key=lambda t: t.id)
    return packs


def builtin_task_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "tasks")


def builtin_task_packs() -> list[TaskPack]:
    return discover_task_packs(builtin_task_dir())


# ---------------------------------------------------------------------------
# Benchmark reports.
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TaskReportRow:
    task_id: str
    difficulty: str
    n: int
    c: int
    pass_at: dict[int, float]
    best_gate_count: int | None
    best_delay: int | None
    best_sei: float | None
    status: str            # verified | failed | error
    errors: int = 0


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[TaskReportRow, ...]
    difficulty_pass_at_1: dict[str, float]
    difficulty_sei: dict[str, float]
    overall_sei: float
    tier: TierVerdict
    config: dict = field(default_factory=dict)
    wall_seconds: float | None = None


def emit_report(report: BenchmarkReport, fmt: str = "machine") -> str:
    """Render a report. 'machine' round-trips via load_report; 'table' is a
    human summary with per-difficulty columns."""
    if fmt == "machine":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": report.config,
            "tasks": [
                {
                    "task_id": r.task_id,
                    "difficulty": r.difficulty,
                    "n": r.n,
                    "c": r.c,
                    "pass_at": {str(k): v for k, v in sorted(r.pass_at.items())},
                    "best_gate_count": r.best_gate_count,
                    "best_delay": r.best_delay,
                    "best_sei": r.best_sei,
                    "status": r.status,
                    "errors": r.errors,
                }
                for r in report.rows
            ],
            "difficulty_pass_at_1": {k: report.difficulty_pass_at_1[k]
                                     for k in sorted(report.difficulty_pass_at_1)},
            "difficulty_sei": {k: report.difficulty_sei[k]
                               for k in sorted(report.difficulty_sei)},
            "overall_sei": report.overall_sei,
            "tier": {
                "tier": report.tier.tier,
                "benchmark_sei": report.tier.benchmark_sei,
                "in_gap": report.tier.in_gap,
                "bands": {k: list(v) for k, v in sorted(report.tier.bands.items())},
            },
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if fmt == "table":
        return _render_table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def load_report(text: str) -> BenchmarkReport:
    doc = json.loads(text)
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError("unsupported report schema version")
    rows = tuple(
        TaskReportRow(
            task_id=t["task_id"],
            difficulty=t["difficulty"],
            n=t["n"],
            c=t["c"],
            pass_at={int(k): v for k, v in t["pass_at"].items()},
            best_gate_count=t["best_gate_count"],
            best_delay=t["best_delay"],
            best_sei=t["best_sei"],
            status=t["status"],
            errors=t.get("errors", 0),
        )
        for t in doc["tasks"]
    )
    tier_doc = doc["tier"]
    tier = TierVerdict(
        tier=tier_doc["tier"],
        benchmark_sei=tier_doc["benchmark_sei"],
        bands={k: (v[0], v[1]) for k, v in tier_doc["bands"].items()},
        in_gap=tier_doc["in_gap"],
    )
    return BenchmarkReport(
        rows=rows,
        difficulty_pass_at_1=doc["difficulty_pass_at_1"],
        difficulty_sei=doc["difficulty_sei"],
        overall_sei=doc["overall_sei"],
        tier=tier,
        config=doc.get("config", {}),
    )


def _render_table(report: BenchmarkReport) -> str:
    columns = [d for d in DIFFICULTIES
               if any(r.difficulty == d for r in report.rows)] + ["overall"]
    p1 = dict(report.difficulty_pass_at_1)
    sei = dict(report.difficulty_sei)
    rows_with_p1 = [r.pass_at.get(1) for r in report.rows if 1 in r.pass_at]
    p1["overall"] = (sum(rows_with_p1) / len(rows_with_p1)
                     if rows_with_p1 else 0.0)
    sei["overall"] = report.overall_sei

    def fmt(d: dict[str, float], key: str, places: int) -> str:
        return f"{d[key]:.{places}f}" if key in d else "-"

    widths = [max(8, len(c) + 2) for c in columns]
    header = "metric".ljust(10) + "".join(c.rjust(w) for c, w in zip(columns, widths))
    line_p1 = "pass@1".ljust(10) + "".join(
        fmt(p1, c, 3).rjust(w) for c, w in zip(columns, widths))
    line_sei = "sei".ljust(10) + "".join(
        fmt(sei, c, 4).rjust(w) for c, w in zip(columns, widths))
    gap = " (gap value, assigned downward)" if report.tier.in_gap else ""
    lo, hi = report.tier.bands.get(report.tier.tier, (0.0, 0.0)) \
        if report.tier.tier != "below" else (0.0, 0.0)
    band = f" [{lo}, {hi}]" if report.tier.tier != "below" else ""
    tier_line = f"tier: {report.tier.tier}{band}{gap}"
    task_lines = [
        f"  {r.task_id:<18} {r.difficulty:<8} c/n={r.c}/{r.n}"
        f"  pass@1={r.pass_at.get(1, float('nan')):.3f}"
        + (f"  G={r.best_gate_count} D={r.best_delay} sei={r.best_sei:.4f}"
           if r.best_sei is not None else "  (no verified sample)")
        for r in report.rows
    ]
    return "\n".join([header, line_p1, line_sei, tier_line, "", "tasks:"]
                     + task_lines) + "\n"
