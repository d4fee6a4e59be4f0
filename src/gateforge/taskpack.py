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
import re
from dataclasses import asdict, dataclass, field
from operator import itemgetter

from .jsonfields import FieldError, is_json, json_fields, take, take_all
from .metrics import (
    DEFAULT_WEIGHTS,
    MetricWeights,
    SampleStats,
    TierVerdict,
    measure,
    pass_at_k,
)
from .netlist import Port, PortDir, StructuralReport
from .parser import _KEYWORDS, _MAX_BITS, _MAX_DIGITS, _NAME
from .simulator import (
    PackedVectors,
    SimOutcome,
    SimulationError,
    check_vectors,
    pack_rows,
    simulate_combinational,
    simulate_sequential,
)

SCHEMA_VERSION = 1

DIFFICULTIES = ("easy", "medium", "hard")
CIRCUIT_CLASSES = ("combinational", "sequential")
_DIRECTIONS = {d.value: d for d in PortDir}
_NAME_RE = re.compile(_NAME)


class TaskSchemaError(ValueError):
    """Pack violates the schema; message carries field-level diagnostics."""


class ReferenceMismatchError(RuntimeError):
    """Reference design contradicts the pack's declared numbers."""


@dataclass(frozen=True)
class HumanReference:
    gate_count: int
    delay: int
    register_count: int = 0

    @property
    def report(self) -> StructuralReport:
        """The declared structure, scored and checked like a measured one."""
        return StructuralReport(self.gate_count, self.delay,
                                self.register_count)


_REFERENCE_FIELDS = json_fields(HumanReference)


@dataclass(frozen=True)
class Testbench:
    cycles: int
    packed: PackedVectors


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
        return measure(self.reference.report, weights)

    def input_bit_names(self) -> list[str]:
        return _bit_names(self.ports, PortDir.IN)

    def output_bit_names(self) -> list[str]:
        return _bit_names(self.ports, PortDir.OUT)


def _bit_names(ports, direction: PortDir) -> list[str]:
    return [p.bit_name(i) for p in ports if p.direction is direction
            for i in range(p.width)]


def _pack_testbench(docs, port_map: dict[str, Port], in_names: list[str],
                    out_names: list[str], combinational: bool) -> PackedVectors:
    """Pack testbench.json's vectors into rows of input, expected and care
    bits, a list of each. Vectors that name the same keys in the same order
    are read together, a column of values at a time, and each distinct key
    is resolved once. A column check only finds that some vector is faulty:
    the per-vector rule, run in vector order, words the first fault."""
    slot = {n: i for names in (in_names, out_names) for i, n in enumerate(names)}
    # Per side, key -> (port, whole port?, first row bit, mask, bit names).
    tables: dict[bool, dict[str, tuple]] = {True: {}, False: {}}

    def resolve(key: str, inputs: bool, where: str) -> tuple:
        if key in tables[inputs]:
            return tables[inputs][key]
        port, bit = port_map.get(key), None
        if port is None and key.endswith("]") and "[" in key:
            base, _, idx = key[:-1].partition("[")
            if idx.isdecimal():
                port, bit = port_map.get(base), int(idx)
        if port is None:
            raise TaskSchemaError(f"{where}: unknown port bit '{key}'")
        if (port.direction is PortDir.IN) is not inputs:
            side = "input" if inputs else "output"
            raise TaskSchemaError(f"{where}: '{key}' is not an {side} port")
        if bit is not None and not port.lsb <= bit <= port.msb:
            raise TaskSchemaError(f"{where}: bit {bit} out of range for "
                                  f"'{port.name}'")
        names = tuple(map(port.bit_name, range(port.width))) if bit is None \
            else (port.bit_name(bit - port.lsb),)
        shift = slot[names[0]]
        entry = port, bit is None, shift, ((1 << len(names)) - 1) << shift, names
        tables[inputs][key] = entry
        return entry

    def check(index: int, doc) -> None:
        """Raise vector `index`'s first schema fault, if it has one; only
        expected values may be null or "x"."""
        where = f"testbench.vectors[{index}]"
        if not isinstance(doc, dict):
            raise TaskSchemaError(f"{where}: vector must be an object")
        cycle = doc.get("cycle", 0)
        if type(cycle) is not int or cycle < 0:
            raise TaskSchemaError(f"{where}.cycle: must be a non-negative integer")
        if combinational and cycle != 0:
            raise TaskSchemaError(f"{where}.cycle: combinational vectors must all "
                                  "have cycle 0")
        ins, outs = doc.get("inputs", {}), doc.get("expected", {})
        if type(ins) is not dict or type(outs) is not dict:
            side = "expected" if type(ins) is dict else "inputs"
            raise TaskSchemaError(f"{where}.{side}: must be an object")
        for side, inputs in ((ins, True), (outs, False)):
            for key, value in side.items():
                port, whole, *_ = resolve(key, inputs, where)
                if not inputs and (value is None or value == "x"):
                    continue
                if whole:
                    if type(value) is not int:  # bool is not a port value
                        raise TaskSchemaError(f"{where}: value for "
                                              f"'{port.name}' must be an integer")
                    if value < 0 or value >> port.width:
                        raise TaskSchemaError(
                            f"{where}: value {value} does not fit in "
                            f"{port.width} bit(s) of '{port.name}'")
                elif value not in (0, 1):
                    raise TaskSchemaError(
                        f"{where}: bit value must be 0 or 1" if inputs
                        else f"{where}: expected bit must be 0, 1, null or \"x\"")

    def columns() -> PackedVectors | None:
        """The vectors packed a key list and a column at a time, or None
        if some vector is faulty."""
        if not docs:
            return pack_rows([], [], [], in_names, out_names, [])
        if set(map(type, docs)) != {dict}:
            return None
        cycles = [doc.get("cycle", 0) for doc in docs]
        sides = ([doc.get("inputs", {}) for doc in docs],
                 [doc.get("expected", {}) for doc in docs])
        if set(map(type, cycles)) != {int} or min(cycles) < 0 \
                or combinational and max(cycles) \
                or any(set(map(type, side)) != {dict} for side in sides):
            return None
        shapes = list(zip(map(tuple, sides[0]), map(tuple, sides[1])))
        if shapes.count(shapes[0]) == len(shapes):   # the usual testbench
            groups = {shapes[0]: range(len(shapes))}
        else:
            groups = {}
            for index, shape in enumerate(shapes):
                groups.setdefault(shape, []).append(index)
        order, in_rows, exp_rows, care_rows, keys = [], [], [], [], []
        for key_list, members in groups.items():
            def pick(seq: list) -> list:   # the group's items of a list
                return seq if len(groups) == 1 else [seq[v] for v in members]

            read = [read_side(names, pick(side), inputs) for names, side, inputs
                    in zip(key_list, sides, (True, False))]
            if None in read:
                return None
            (ins, _, in_bits), (exps, cares, out_bits) = read
            order += members
            in_rows += ins
            exp_rows += exps
            care_rows += cares
            # One key entry per cycle, shared by the vectors at that cycle.
            shared = {c: (in_bits, out_bits, c) for c in set(pick(cycles))}
            keys += map(shared.__getitem__, pick(cycles))
        if len(groups) > 1:   # back into vector order
            at = sorted(range(len(order)), key=order.__getitem__)
            in_rows, exp_rows, care_rows, keys = (
                [seq[i] for i in at]
                for seq in (in_rows, exp_rows, care_rows, keys))
        return pack_rows(in_rows, exp_rows, care_rows, in_names, out_names,
                         keys)

    def read_side(key_list: tuple, vectors: list[dict], inputs: bool):
        """Rows of values and of set bits, and the bit names set, for one
        side of vectors that share `key_list`; None if a value is faulty.
        Each bit takes its value from the last key that sets it."""
        entries = [resolve(key, inputs, "") for key in key_list]
        values, care = [0] * len(vectors), [0] * len(vectors)
        later = always = 0   # bits a later key sets; bits every vector sets
        for key, (port, whole, shift, mask, _) in reversed(
                list(zip(key_list, entries))):
            own, later = mask & ~later, later | mask
            column = list(map(itemgetter(key), vectors))
            if not inputs and column.count(None) + column.count("x"):
                sets = [v is not None and v != "x" for v in column]
                column = [v if s else 0 for v, s in zip(column, sets)]
                care = [c | own * s for c, s in zip(care, sets)]
            else:
                always |= own
            column = _fitting(column, whole, port.width)
            if column is None:
                return None
            values = [r | v << shift & own for r, v in zip(values, column)]
        names = tuple(dict.fromkeys(n for entry in entries for n in entry[4]))
        return values, [c | always for c in care], names

    try:
        packed = columns()
    except TaskSchemaError:   # a key that does not resolve
        packed = None
    if packed is None:
        for index, doc in enumerate(docs):
            check(index, doc)
        raise AssertionError("a column check refused a sound testbench")
    return packed


def _fitting(column: list, whole: bool, width: int) -> list[int] | None:
    """`column` as integers if every value fits: a whole port's integer in
    `width` bits, or a bit's 0 or 1; None if one does not."""
    if whole:
        if set(map(type, column)) == {int} and min(column) >= 0 \
                and not max(column) >> width:
            return column
    elif column.count(0) + column.count(1) == len(column):
        return list(map(int, column))
    return None


def _read_text(root: str, name: str, optional: bool = False) -> str | None:
    """Pack file `name`'s text, or None if it is `optional` and missing; a
    missing, unreadable or non-UTF-8 file is otherwise a schema fault."""
    try:
        with open(os.path.join(root, name), "rb") as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError:
        if optional:
            return None
        raise TaskSchemaError(f"missing {name}") from None
    except OSError as exc:
        raise TaskSchemaError(
            f"{name}: cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise TaskSchemaError(f"{name}: must be UTF-8 text (byte "
                              f"{exc.start}: {exc.reason})") from None
    # Read as bytes, which is quicker, with text mode's universal newlines.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text \
        else text


def _read_json(root: str, name: str) -> dict:
    """Pack file `name`'s JSON object; anything else is a schema fault."""
    try:
        doc = json.loads(_read_text(root, name))
    except json.JSONDecodeError as exc:
        raise TaskSchemaError(
            f"{name}: must be valid JSON (line {exc.lineno} column "
            f"{exc.colno}: {exc.msg})") from None
    if not is_json(doc, dict):
        raise TaskSchemaError(f"{name}: must be a JSON object")
    return doc


def load_task_pack(path: str | os.PathLike) -> TaskPack:
    """Load and invariant-check one task pack directory."""
    try:
        return _load_pack(os.fspath(path))
    except FieldError as exc:
        raise TaskSchemaError(str(exc)) from None


def _load_pack(root: str) -> TaskPack:
    meta, where = _read_json(root, "task.json"), "task.json"
    take(meta, "schema_version", where, int, ok=SCHEMA_VERSION.__eq__,
         need=f"the integer {SCHEMA_VERSION}")
    task_id, title = (take(meta, key, where, str) for key in ("id", "title"))
    difficulty = take(meta, "difficulty", where, *DIFFICULTIES)
    circuit_class = take(meta, "circuit_class", where, *CIRCUIT_CLASSES)

    # Only an interface a netlist can declare: the parser's bit limit, index
    # digits, name pattern and keywords; checked before any bit name is
    # built.
    port_map: dict[str, Port] = {}
    bits = 0
    for i, pdoc in enumerate(take(meta, "ports", where, list[dict])):
        at = f"task.json.ports[{i}]"
        direction = _DIRECTIONS[take(pdoc, "dir", at, *_DIRECTIONS)]
        width = take(pdoc, "width", at, int, default=1,
                     ok=lambda w: 1 <= w <= _MAX_BITS - bits,
                     need=f"an integer >= 1, with at most {_MAX_BITS} bits "
                     "over all ports")
        bits += width
        lsb = take(pdoc, "lsb", at, int, default=0,
                   ok=lambda b: 0 <= b <= 10 ** _MAX_DIGITS - width,
                   need=f"an integer >= 0, with a top bit index of at most "
                   f"{_MAX_DIGITS} digits")
        name = take(pdoc, "name", at, str, ok=lambda n: n not in _KEYWORDS
                    and _NAME_RE.fullmatch(n) and n not in port_map,
                    need="an identifier, not a keyword, that no other port "
                    "has")
        port_map[name] = Port(name, direction, width, lsb)
    ports = tuple(port_map.values())

    combinational = circuit_class == "combinational"
    if combinational:
        clock = take(meta, "clock", where, None, default=None,
                     need="null in a combinational task")
    else:
        clock = meta.get("clock")
        port = port_map.get(clock) if is_json(clock, str) else None
        if port is None or port.direction is not PortDir.IN \
                or port.width != 1:
            raise TaskSchemaError("task.json.clock: sequential tasks need a "
                                  "1-bit input clock port")
    tags = take(meta, "tags", where, list[str], default=[])

    spec_text = _read_text(root, "spec.txt")
    tb, where = _read_json(root, "testbench.json"), "testbench.json"
    port_echo = {p.name: {"dir": p.direction.value, "width": p.width}
                 for p in ports}
    take(tb, "interface", where, dict, None, default=None,
         ok=lambda echo: echo in (None, port_echo),
         need="null or an echo of the ports declared in task.json")
    cycles = take(tb, "cycles", where, int, default=1, ok=lambda c: c >= 1,
                  need="an integer >= 1")
    in_names, out_names = (_bit_names(ports, d) for d in (PortDir.IN, PortDir.OUT))
    packed = _pack_testbench(take(tb, "vectors", where, list, default=[]),
                             port_map, in_names, out_names, combinational)
    if not packed.checked:
        raise TaskSchemaError("testbench.json: no vector checks anything")
    # Refuse at load what no design could be simulated against.
    try:
        check_vectors(packed, in_names, out_names, clock,
                      None if combinational else cycles)
    except SimulationError as exc:
        raise TaskSchemaError(f"testbench.json: {exc}") from None

    reference = None
    ref = take(meta, "human_reference", "task.json", dict, None, default=None)
    if ref is not None:
        where = "task.json.human_reference"
        reference = HumanReference(**take_all(ref, where, _REFERENCE_FIELDS))
        g, d, r = reference.gate_count, reference.delay, reference.register_count
        if min(g, d, r) < 0 or g + d == 0 or r > g:
            raise TaskSchemaError(
                "task.json.human_reference: needs gate_count and delay >= 0, "
                "not both 0, and 0 <= register_count <= gate_count")
        sei = measure(reference.report)
        declared = take(ref, "sei", where, float, None, default=None)
        if declared is not None and abs(declared - sei) > 5e-5:
            raise TaskSchemaError(
                f"task.json.human_reference.sei: {declared} does not match "
                f"1/(G+D) = {sei:.6f}")

    ref_text = _read_text(root, "reference.nl", optional=True)

    return TaskPack(
        id=task_id,
        title=title,
        difficulty=difficulty,
        circuit_class=circuit_class,
        spec_text=spec_text,
        ports=ports,
        clock=clock,
        tags=tuple(tags),
        testbench=Testbench(cycles, packed),
        reference=reference,
        reference_netlist=ref_text,
        path=root,
    )


def simulate_task(task: TaskPack, netlist) -> SimOutcome:
    """Run the task's testbench against a candidate netlist."""
    bench = task.testbench
    if task.circuit_class == "sequential":
        return simulate_sequential(netlist, bench.packed, bench.cycles,
                                   clock=task.clock)
    return simulate_combinational(netlist, bench.packed)


def task_pack_dirs(root: str | os.PathLike) -> list[str]:
    """Every directory directly under `root` that holds a task.json, by name."""
    root = os.fspath(root)
    return [cand for cand in (os.path.join(root, name)
                              for name in sorted(os.listdir(root)))
            if os.path.exists(os.path.join(cand, "task.json"))]


def load_task_packs(paths) -> tuple[list[TaskPack], list[tuple]]:
    """The packs at `paths` that load, sorted by id, and a (path,
    TaskSchemaError) pair for each that does not. Each loads on its own, so
    one bad pack hides no other; a pack with an earlier one's id is bad."""
    packs, failures, owners = [], [], {}
    for path in paths:
        try:
            pack = load_task_pack(path)
            if pack.id in owners:
                raise TaskSchemaError(
                    f"task id {pack.id!r} is also the id of {owners[pack.id]}")
        except TaskSchemaError as exc:
            failures.append((path, exc))
        else:
            owners[pack.id] = path
            packs.append(pack)
    return sorted(packs, key=lambda t: t.id), failures


def discover_task_packs(root: str | os.PathLike) -> list[TaskPack]:
    """Load every pack directly under `root`, sorted by id. If any fails,
    the first raises TaskSchemaError naming its directory."""
    packs, failures = load_task_packs(task_pack_dirs(root))
    if failures:
        raise TaskSchemaError("{}: {}".format(*failures[0]))
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

    @property
    def pass_at_1(self) -> float | None:
        """pass@1 by the row's counts, whichever ks it was run with; None if
        no sweep gives such counts (n < 1, or c outside 0..n)."""
        ok = self.n >= 1 and 0 <= self.c <= self.n
        return pass_at_k(SampleStats(self.n, self.c, 1)) if ok else None


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
                asdict(r) | {"pass_at": {str(k): v for k, v
                                         in sorted(r.pass_at.items())}}
                for r in report.rows
            ],
            "difficulty_pass_at_1": dict(sorted(
                report.difficulty_pass_at_1.items())),
            "difficulty_sei": dict(sorted(report.difficulty_sei.items())),
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
    """The report a results file holds; ValueError if `text` is not one."""
    doc = json.loads(text)
    if not is_json(doc, dict):
        raise ValueError("must hold a JSON object")
    try:
        if take(doc, "schema_version", "", int, default=None) \
                != REPORT_SCHEMA_VERSION:
            raise ValueError("unsupported report schema version")
        rows, table = [], json_fields(TaskReportRow)   # fields in file order
        for i, t in enumerate(take(doc, "tasks", "", list[dict])):
            row = take_all(t, f"tasks[{i}]", table)
            row["pass_at"] = {int(k): v for k, v in row["pass_at"].items()}
            rows.append(TaskReportRow(**row))
        tier_doc = take(doc, "tier", "", dict)
        bands = take(tier_doc, "bands", "tier", dict[str, list[float]],
                     ok=lambda b: all(len(v) == 2 for v in b.values()),
                     need="an object of [low, high] number pairs")
        pairs = {k: (v[0], v[1]) for k, v in bands.items()}
        tier = TierVerdict(bands=pairs, **take_all(
            tier_doc, "tier", json_fields(TierVerdict, skip=("bands",))))
        return BenchmarkReport(
            rows=tuple(rows), tier=tier,
            config=take(doc, "config", "", dict, default={}),
            **take_all(doc, "", json_fields(BenchmarkReport, skip=(
                "rows", "tier", "config", "wall_seconds"))))
    except FieldError as exc:
        raise ValueError(
            f"missing or malformed field: {exc.quoted}") from None


def mean_by_difficulty(rows, value) -> dict[str, float]:
    """Per difficulty of `rows`, in sorted order, the mean of `value(row)`
    over the rows where it is not None; a difficulty with none is left out."""
    groups: dict[str, list[float]] = {}
    for row in rows:
        if (v := value(row)) is not None:
            groups.setdefault(row.difficulty, []).append(v)
    return {d: sum(vs) / len(vs) for d, vs in sorted(groups.items())}


def _render_table(report: BenchmarkReport) -> str:
    """The human summary. Like `run_benchmark`, it computes each difficulty
    column from the rows; it reads neither stored one."""
    columns = [d for d in DIFFICULTIES
               if any(r.difficulty == d for r in report.rows)] + ["overall"]
    p1 = mean_by_difficulty(report.rows, lambda r: r.pass_at_1)
    sei = mean_by_difficulty(report.rows, lambda r: r.best_sei or 0.0)
    scored = [r.pass_at_1 for r in report.rows if r.pass_at_1 is not None]
    p1["overall"] = sum(scored) / len(scored) if scored else None
    sei["overall"] = report.overall_sei

    def fmt(value: float | None, places: int) -> str:
        return "-" if value is None else f"{value:.{places}f}"

    widths = [max(8, len(c) + 2) for c in columns]
    header = "metric".ljust(10) + "".join(c.rjust(w) for c, w in zip(columns, widths))
    line_p1 = "pass@1".ljust(10) + "".join(
        fmt(p1.get(c), 3).rjust(w) for c, w in zip(columns, widths))
    line_sei = "sei".ljust(10) + "".join(
        fmt(sei.get(c), 4).rjust(w) for c, w in zip(columns, widths))
    gap = " (gap value, assigned downward)" if report.tier.in_gap else ""
    lo, hi = report.tier.bands.get(report.tier.tier, (0.0, 0.0)) \
        if report.tier.tier != "below" else (0.0, 0.0)
    band = f" [{lo}, {hi}]" if report.tier.tier != "below" else ""
    tier_line = f"tier: {report.tier.tier}{band}{gap}"
    task_lines = [
        f"  {r.task_id:<18} {r.difficulty:<8} c/n={r.c}/{r.n}"
        f"  pass@1={fmt(r.pass_at_1, 3)}"
        + (f"  G={r.best_gate_count} D={r.best_delay} sei={r.best_sei:.4f}"
           if r.best_sei is not None else "  (no verified sample)")
        for r in report.rows
    ]
    return "\n".join([header, line_p1, line_sei, tier_line, "", "tasks:"]
                     + task_lines) + "\n"
