"""Netlist verification engine: vector simulation and functional signatures.

Evaluation is two-state (0/1) and bit-parallel: every net holds a Python
integer whose bit v is the net's value in vector v, so one levelized sweep
evaluates all vectors of a testbench at once. Sequential runs use the
standard synchronous model: per cycle, apply inputs, settle the
combinational logic, check expectations, then clock every register from its
settled data input. Registers reset to 0.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .netlist import CompiledNetlist, Netlist, compile_netlist

# Exhaustive signatures stop at 12 inputs (4096 rows); wider interfaces get
# sampled signatures from a fixed seed and are flagged approximate.
MAX_EXACT_INPUTS = 12
SAMPLED_VECTOR_COUNT = 1024
_SAMPLED_SEED = 0x5EED


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class TestVector:
    """One stimulus/check row. Keys are port bits: "a" or "bus[3]"."""

    __test__ = False  # not a pytest class

    inputs: dict[str, int]
    expected: dict[str, int | None]
    cycle: int = 0


@dataclass(frozen=True)
class FailureDetail:
    vector_index: int
    port_bit: str
    expected: int
    actual: int


@dataclass(frozen=True)
class SimOutcome:
    passed: int
    failed: int
    first_failure: FailureDetail | None = None

    @property
    def correctness(self) -> float:
        total = self.passed + self.failed
        if total == 0:
            return 0.0
        return self.passed / total


@dataclass(frozen=True)
class FunctionalSignature:
    """Canonical behavior fingerprint, independent of structure.

    columns[j] packs output bit j over all rows: bit r of columns[j] is the
    j-th output bit for input row r. Rows enumerate input values with input
    bit 0 (first declared input bit) as the least significant position.
    """

    n_inputs: int
    n_outputs: int
    columns: tuple[int, ...]
    exact: bool = True

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n_inputs}:{self.n_outputs}:{int(self.exact)}".encode())
        for c in self.columns:
            h.update(b"|" + hex(c).encode())
        return h.hexdigest()

    def row(self, r: int) -> tuple[int, ...]:
        return tuple((c >> r) & 1 for c in self.columns)

    def column_bits(self, j: int) -> list[int]:
        rows = 1 << self.n_inputs if self.exact else SAMPLED_VECTOR_COUNT
        return [(self.columns[j] >> r) & 1 for r in range(rows)]


def pack_columns(rows: Iterable[int], width: int) -> list[int]:
    """Transpose rows into `width` bit columns: bit r of column i is bit i of
    the r-th row."""
    columns = [0] * width
    for r, row in enumerate(rows):
        i = 0
        while row:
            if row & 1:
                columns[i] |= 1 << r
            row >>= 1
            i += 1
    return columns


@dataclass(frozen=True)
class PackedVectors:
    """A combinational vector list packed once for bit-parallel scoring.

    Bit v of every column stands for vector v. `checks` holds, per output bit
    some vector checks, (bit name, expected column, care column) sorted by
    name; `checked` marks the vectors with at least one check. The key sets
    let a netlist's interface be checked without visiting every vector.
    """

    vectors: Sequence[TestVector]
    inputs: dict[str, int]
    checks: tuple[tuple[str, int, int], ...]
    checked: int
    input_key_sets: frozenset[frozenset[str]]
    expected_keys: frozenset[str]


def pack_vectors(vectors: Sequence[TestVector]) -> PackedVectors:
    """Pack combinational vectors for simulate_combinational; the vectors
    are kept, not copied, for error messages."""
    in_names = list(dict.fromkeys(k for v in vectors for k in v.inputs))
    out_names = sorted({k for v in vectors for k in v.expected})
    in_pos = {name: i for i, name in enumerate(in_names)}
    out_pos = {name: i for i, name in enumerate(out_names)}
    in_rows, exp_rows, care_rows = [], [], []
    for v in vectors:
        row = 0
        for k, val in v.inputs.items():
            row |= (val & 1) << in_pos[k]
        in_rows.append(row)
        exp = care = 0
        for k, e in v.expected.items():
            if e is not None:
                exp |= (e & 1) << out_pos[k]
                care |= 1 << out_pos[k]
        exp_rows.append(exp)
        care_rows.append(care)
    exp_cols = pack_columns(exp_rows, len(out_names))
    care_cols = pack_columns(care_rows, len(out_names))
    checked = 0
    for care in care_cols:
        checked |= care
    return PackedVectors(
        vectors=vectors,
        inputs=dict(zip(in_names, pack_columns(in_rows, len(in_names)))),
        checks=tuple((name, e, c) for name, e, c
                     in zip(out_names, exp_cols, care_cols) if c),
        checked=checked,
        input_key_sets=frozenset(frozenset(v.inputs) for v in vectors),
        expected_keys=frozenset(out_names),
    )


def _settle(compiled: CompiledNetlist, values: dict[int, int],
            mask: int) -> None:
    """Evaluate the combinational gates in place over packed values."""
    for evaluate, out, a, b in compiled.ops:
        values[out] = evaluate(values[a], values[b], mask)


def _source_values(compiled: CompiledNetlist, mask: int) -> dict[int, int]:
    return {nid: mask if value else 0 for nid, value in compiled.const_nets}


def _check_vector_keys(vector: TestVector, index: int,
                       in_bits: dict[str, int], out_bits: dict[str, int],
                       clock: str | None) -> None:
    for key in vector.inputs:
        if key == clock:
            raise SimulationError(
                f"vector {index}: clock '{clock}' is driven by the harness, "
                "not by vectors")
        if key not in in_bits:
            raise SimulationError(f"vector {index}: '{key}' is not a declared "
                                  "input port bit")
    for key in vector.expected:
        if key not in out_bits:
            raise SimulationError(f"vector {index}: '{key}' is not a declared "
                                  "output port bit")


def simulate_combinational(netlist: Netlist,
                           vectors: Sequence[TestVector] | PackedVectors,
                           ) -> SimOutcome:
    """Run every vector through one levelized sweep and score the checks.

    Each vector with at least one expected output is one pass/fail unit;
    expected bits set to None are don't-cares and never fail. Every input
    bit must be assigned in every vector. `vectors` may come packed by
    pack_vectors, which lets one testbench be packed once for many netlists.
    """
    compiled = compile_netlist(netlist)
    if compiled.registers:
        raise SimulationError("netlist contains registers; "
                              "use simulate_sequential")
    packed = vectors if isinstance(vectors, PackedVectors) \
        else pack_vectors(vectors)
    in_bits = dict(compiled.input_bits)
    out_bits = dict(compiled.output_bits)
    if not (packed.input_key_sets <= {frozenset(in_bits)}
            and packed.expected_keys <= out_bits.keys()):
        # Find the first offending vector for the message.
        for i, v in enumerate(packed.vectors):
            _check_vector_keys(v, i, in_bits, out_bits, clock=None)
            missing = sorted(set(in_bits) - set(v.inputs))
            if missing:
                raise SimulationError(
                    f"vector {i}: unassigned input bit(s): {', '.join(missing)}")

    if not packed.vectors:
        return SimOutcome(0, 0)
    mask = (1 << len(packed.vectors)) - 1
    values = _source_values(compiled, mask)
    for name, nid in in_bits.items():
        values[nid] = packed.inputs[name]
    _settle(compiled, values, mask)

    failing = 0
    mismatches = []
    for name, expected, care in packed.checks:
        actual = values[out_bits[name]]
        wrong = (actual ^ expected) & care
        failing |= wrong
        mismatches.append((name, expected, actual, wrong))
    failed = failing.bit_count()
    first: FailureDetail | None = None
    if failing:
        i = (failing & -failing).bit_length() - 1
        for name, expected, actual, wrong in mismatches:
            if (wrong >> i) & 1:
                first = FailureDetail(i, name, (expected >> i) & 1,
                                      (actual >> i) & 1)
                break
    return SimOutcome(packed.checked.bit_count() - failed, failed, first)


def _resolve_clock(netlist: Netlist, clock: str | None) -> str:
    in_ports = {p.name: p for p in netlist.input_ports()}
    clock_nets = netlist.clock_nets()
    if clock is None:
        if not clock_nets:
            raise SimulationError("no clock port: netlist has no registers "
                                  "and no clock was designated")
        candidates = set()
        bit_owner = {nid: p.name for p in netlist.input_ports()
                     for nid in netlist.port_nets[p.name]}
        for nid in clock_nets:
            if nid not in bit_owner:
                raise SimulationError("register clock pin is not driven by a "
                                      "primary input")
            candidates.add(bit_owner[nid])
        if len(candidates) != 1:
            raise SimulationError(
                f"expected exactly one clock port, found {len(candidates)}")
        clock = candidates.pop()
    if clock not in in_ports:
        raise SimulationError(f"clock '{clock}' is not a declared input port")
    if in_ports[clock].width != 1:
        raise SimulationError(f"clock '{clock}' must be one bit wide")
    clock_net = netlist.port_nets[clock][0]
    for g in netlist.dff_gates():
        if g.clock_input != clock_net:
            raise SimulationError(
                f"register {g.name or '?'} is not clocked by '{clock}'")
    return clock


def simulate_sequential(netlist: Netlist, vectors: Sequence[TestVector],
                        cycles: int, clock: str | None = None) -> SimOutcome:
    """Cycle-accurate run: settle, check, then clock all registers at once.

    Inputs hold their values between vectors; the vector at cycle 0 must
    assign every non-clock input bit. Registers start at 0. When `clock` is
    None it is inferred from the register clock pins.
    """
    compiled = compile_netlist(netlist)
    clock = _resolve_clock(netlist, clock)
    clock_net = netlist.port_nets[clock][0]
    in_bits = dict(compiled.input_bits)
    out_bits = dict(compiled.output_bits)
    drive_bits = {k: v for k, v in in_bits.items() if v != clock_net}

    by_cycle: dict[int, tuple[int, TestVector]] = {}
    for i, v in enumerate(vectors):
        _check_vector_keys(v, i, in_bits, out_bits, clock)
        if not (0 <= v.cycle < cycles):
            raise SimulationError(
                f"vector {i}: cycle {v.cycle} outside 0..{cycles - 1}")
        if v.cycle in by_cycle:
            raise SimulationError(f"vector {i}: duplicate cycle {v.cycle}")
        by_cycle[v.cycle] = (i, v)

    first_vec = by_cycle.get(0)
    assigned = set(first_vec[1].inputs) if first_vec else set()
    missing = sorted(set(drive_bits) - assigned)
    if missing:
        raise SimulationError(
            "cycle 0 must assign every input bit; missing: " + ", ".join(missing))

    sources = _source_values(compiled, 1)
    sources[clock_net] = 0
    state = {g.output: 0 for g in compiled.registers}
    held: dict[int, int] = {}

    passed = failed = 0
    first: FailureDetail | None = None
    for t in range(cycles):
        entry = by_cycle.get(t)
        if entry is not None:
            for key, val in entry[1].inputs.items():
                held[in_bits[key]] = val & 1
        values = {**sources, **held, **state}
        _settle(compiled, values, 1)

        if entry is not None:
            index, vec = entry
            checks = [(k, e) for k, e in vec.expected.items() if e is not None]
            if checks:
                ok = True
                for key, exp in sorted(checks):
                    actual = values[out_bits[key]]
                    if actual != (exp & 1):
                        ok = False
                        if first is None:
                            first = FailureDetail(index, key, exp & 1, actual)
                        break
                if ok:
                    passed += 1
                else:
                    failed += 1

        state = {g.output: values[g.data_input] for g in compiled.registers}
    return SimOutcome(passed, failed, first)


def sequential_trace(netlist: Netlist, stimulus: list[dict[str, int]],
                     clock: str | None = None) -> dict[str, list[int]]:
    """Drive one input assignment per cycle and record every output stream.

    Same clocking semantics as simulate_sequential, no checking. Each
    stimulus entry must assign every non-clock input bit.
    """
    compiled = compile_netlist(netlist)
    clock = _resolve_clock(netlist, clock)
    clock_net = netlist.port_nets[clock][0]
    drive = {k: v for k, v in compiled.input_bits if v != clock_net}

    sources = _source_values(compiled, 1)
    sources[clock_net] = 0
    state = {g.output: 0 for g in compiled.registers}
    streams: dict[str, list[int]] = {name: [] for name, _ in compiled.output_bits}
    for t, assignment in enumerate(stimulus):
        missing = sorted(set(drive) - set(assignment))
        if missing:
            raise SimulationError(
                f"cycle {t}: unassigned input bit(s): {', '.join(missing)}")
        values = dict(sources)
        for key, val in assignment.items():
            if key not in drive:
                raise SimulationError(f"cycle {t}: '{key}' is not a drivable "
                                      "input bit")
            values[drive[key]] = val & 1
        values.update(state)
        _settle(compiled, values, 1)
        for name, nid in compiled.output_bits:
            streams[name].append(values[nid])
        state = {g.output: values[g.data_input] for g in compiled.registers}
    return streams


def _table_form(netlist: Netlist) -> CompiledNetlist:
    compiled = compile_netlist(netlist)
    if compiled.registers:
        raise SimulationError("sequential netlist has no truth table")
    return compiled


def _signature(compiled: CompiledNetlist, rows: Sequence[int],
               exact: bool) -> FunctionalSignature:
    """Output columns over the given input rows; bit i of a row is the i-th
    declared input bit."""
    n = len(compiled.input_bits)
    mask = (1 << len(rows)) - 1
    values = _source_values(compiled, mask)
    for (_, nid), column in zip(compiled.input_bits, pack_columns(rows, n)):
        values[nid] = column
    _settle(compiled, values, mask)
    columns = tuple(values[nid] for _, nid in compiled.output_bits)
    return FunctionalSignature(n, len(columns), columns, exact=exact)


def truth_table(netlist: Netlist) -> FunctionalSignature:
    """Exhaustive signature over all input rows (combinational, n <= 12)."""
    compiled = _table_form(netlist)
    n = len(compiled.input_bits)
    if n > MAX_EXACT_INPUTS:
        raise SimulationError(
            f"too many inputs for an exhaustive table ({n} > {MAX_EXACT_INPUTS})")
    return _signature(compiled, range(1 << n), exact=True)


def sampled_signature(netlist: Netlist,
                      vector_count: int = SAMPLED_VECTOR_COUNT) -> FunctionalSignature:
    """Fixed-seed random-vector signature for wide combinational interfaces."""
    compiled = _table_form(netlist)
    rng = random.Random(_SAMPLED_SEED)
    rows = [rng.getrandbits(len(compiled.input_bits))
            for _ in range(vector_count)]
    return _signature(compiled, rows, exact=False)


def functional_signature(netlist: Netlist) -> FunctionalSignature:
    """Exact signature when the interface allows it, sampled otherwise."""
    if len(compile_netlist(netlist).input_bits) <= MAX_EXACT_INPUTS:
        return truth_table(netlist)
    return sampled_signature(netlist)
