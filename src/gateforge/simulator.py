"""Netlist verification engine: vector simulation and functional signatures.

Evaluation is two-state (0/1) and bit-parallel: every net holds a Python
integer whose bit v is the net's value in vector v, so one levelized sweep
evaluates all vectors of a testbench at once. Sequential runs use the
standard synchronous model: per cycle, apply inputs, settle the
combinational logic, record the outputs, then clock every register from its
settled data input. Registers reset to 0.

The simulators take a testbench only as `PackedVectors`: a task pack's
testbench is packed as it is read, and `pack_vectors` packs hand-written
`TestVector`s. Both fill one column per checked output bit, bit v from the
run of vector v, and score the columns with one rule (`_score`).
`sequential_trace` packs its own stimulus and infers its clock.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import random
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .netlist import Netlist

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

    def column_bits(self, j: int) -> list[int]:
        rows = 1 << self.n_inputs if self.exact else SAMPLED_VECTOR_COUNT
        return [(self.columns[j] >> r) & 1 for r in range(rows)]


# _BIT_DIGITS[k] translates a byte to the ASCII digit of its bit k.
_BIT_DIGITS = tuple(bytes(48 + (b >> k & 1) for b in range(256))
                    for k in range(8))


def pack_columns(rows: Iterable[int], width: int) -> list[int]:
    """Transpose rows into `width` bit columns: bit r of column i is bit i of
    the r-th row. A row wider than `width` raises IndexError.

    The rows' bytes are laid end to end, last row first, so column i is the
    strided slice of byte i // 8, with each byte read as the digit of its
    bit i % 8: a binary numeral whose last digit is row 0.
    """
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    if max(rows, default=0) >> width:
        raise IndexError(f"a row is wider than {width} bits")
    if not rows:
        return [0] * width
    size = (width + 7) // 8
    data = (bytes(rows) if size == 1 else
            b"".join([row.to_bytes(size, "big") for row in rows]))[::-1]
    lanes = [data[j::size] for j in range(size)]
    return [int(lanes[i // 8].translate(_BIT_DIGITS[i % 8]), 2)
            for i in range(width)]


@functools.cache
def exhaustive_columns(n: int) -> tuple[int, ...]:
    """`pack_columns(range(1 << n), n)` in closed form: column i is 2**i
    zeros, then 2**i ones, repeated over the 2**n rows."""
    rows = 1 << n
    columns = []
    for i in range(n):
        half = 1 << i
        # One period is `half` zeros then `half` ones; the repunit repeats it.
        repunit = ((1 << rows) - 1) // ((1 << 2 * half) - 1)
        columns.append((((1 << half) - 1) << half) * repunit)
    return tuple(columns)


@dataclass(frozen=True)
class PackedVectors:
    """A vector list packed once for bit-parallel scoring.

    Bit v of every column stands for vector v. `checks` holds, per output bit
    some vector checks, (bit name, expected column, care column) sorted by
    name; `checked` marks the vectors with at least one check. The key sets
    let a netlist's interface be checked without visiting every vector.
    keys[v] holds the input and output bits vector v names, in its order, and
    its cycle; keys are left out of equality.
    """

    keys: Sequence[tuple] = field(compare=False)
    inputs: dict[str, int]
    checks: tuple[tuple[str, int, int], ...]
    checked: int
    input_key_sets: frozenset[frozenset[str]]
    expected_keys: frozenset[str]


def pack_rows(in_rows: Sequence[int], exp_rows: Sequence[int],
              care_rows: Sequence[int], in_names: Sequence[str],
              out_names: Sequence[str],
              keys: Sequence[tuple]) -> PackedVectors:
    """Pack one input, expected and care row per vector, named by keys[v],
    into columns; bit i of a row is bit in_names[i] or out_names[i]."""
    care_columns = pack_columns(care_rows, len(out_names))
    checks = tuple(sorted(
        (name, e, c) for name, e, c in zip(
            out_names, pack_columns(exp_rows, len(out_names)), care_columns)
        if c))
    distinct = set(keys)
    return PackedVectors(
        keys, dict(zip(in_names, pack_columns(in_rows, len(in_names)))),
        checks, functools.reduce(operator.or_, care_columns, 0),
        frozenset(frozenset(ins) for ins, _, _ in distinct),
        frozenset(name for _, outs, _ in distinct for name in outs))


def pack_vectors(vectors: Sequence[TestVector]) -> PackedVectors:
    """Pack vectors for the simulators; the only reader of TestVector."""
    in_names = list(dict.fromkeys(k for v in vectors for k in v.inputs))
    out_names = sorted({k for v in vectors for k in v.expected})
    in_pos = {name: i for i, name in enumerate(in_names)}
    out_pos = {name: i for i, name in enumerate(out_names)}
    in_rows = [sum((val & 1) << in_pos[k] for k, val in v.inputs.items())
               for v in vectors]
    exp_rows = [sum((e & 1) << out_pos[k] for k, e in v.expected.items()
                    if e is not None) for v in vectors]
    care_rows = [sum(1 << out_pos[k] for k, e in v.expected.items()
                     if e is not None) for v in vectors]
    return pack_rows(in_rows, exp_rows, care_rows, in_names, out_names,
                     [(tuple(v.inputs), tuple(v.expected), v.cycle)
                      for v in vectors])


def _settle(netlist: Netlist, values: dict[int, int], mask: int) -> None:
    """Evaluate the combinational gates in place over packed values."""
    for evaluate, out, a, b in netlist.ops:
        values[out] = evaluate(values[a], values[b], mask)


def _source_values(netlist: Netlist, mask: int) -> dict[int, int]:
    return {nid: mask if value else 0 for nid, value in netlist.const_nets}


def check_vectors(packed: PackedVectors, inputs: Collection[str],
                  outputs: Collection[str], clock: str | None = None,
                  cycles: int | None = None) -> None:
    """Raise SimulationError naming the first vector that no design with
    these input and output bits could run against.

    A vector must name only declared bits and must not drive the clock.
    Without `cycles` the vectors are combinational and each must assign
    every input bit. With it they are the cycles of a sequential run: each
    sits at its own cycle in 0..cycles-1, and a vector at cycle 0 must
    assign every input bit but the clock. A combinational run is decided by
    the key sets; only a fault walks the keys vector by vector.
    """
    drive = frozenset(inputs) - {clock}
    if cycles is None and packed.input_key_sets <= {drive} \
            and packed.expected_keys.issubset(outputs):
        return
    inputs, outputs = set(inputs), set(outputs)
    seen: set[int] = set()
    for i, (ins, outs, cycle) in enumerate(packed.keys):
        if clock in ins:
            raise SimulationError(
                f"vector {i}: clock '{clock}' is driven by the harness, "
                "not by vectors")
        for side, bits, declared in (("input", ins, inputs),
                                     ("output", outs, outputs)):
            key = next((key for key in bits if key not in declared), None)
            if key is not None:
                raise SimulationError(f"vector {i}: '{key}' is not a "
                                      f"declared {side} port bit")
        if cycles is not None:
            if not 0 <= cycle < cycles:
                raise SimulationError(
                    f"vector {i}: cycle {cycle} outside 0..{cycles - 1}")
            if cycle in seen:
                raise SimulationError(f"vector {i}: duplicate cycle {cycle}")
            seen.add(cycle)
        if (cycles is None or cycle == 0) and not drive.issubset(ins):
            raise SimulationError(
                f"vector {i}: unassigned input bit(s): "
                + ", ".join(sorted(drive.difference(ins))))
    if cycles is not None and drive and 0 not in seen:
        raise SimulationError("no vector at cycle 0 assigns input bit(s): "
                              + ", ".join(sorted(drive)))


def _score(packed: PackedVectors, actual: dict[str, int],
           order: Iterable[int] | None = None) -> SimOutcome:
    """Score output columns against the packed checks.

    Bit v of actual[name] is output bit `name` in the run of vector v. Each
    vector with at least one check is one pass/fail unit; a don't-care never
    fails. The first failure is the first failing vector in `order` (by
    default the lowest-numbered one), at its first failing bit by name.
    """
    failing = 0
    for name, expected, care in packed.checks:
        failing |= (actual[name] ^ expected) & care
    first: FailureDetail | None = None
    if failing:
        v = (failing & -failing).bit_length() - 1 if order is None \
            else next(v for v in order if failing >> v & 1)
        first = next(
            FailureDetail(v, name, expected >> v & 1, actual[name] >> v & 1)
            for name, expected, care in packed.checks
            if ((actual[name] ^ expected) & care) >> v & 1)
    failed = failing.bit_count()
    return SimOutcome(packed.checked.bit_count() - failed, failed, first)


def _sweep(netlist: Netlist, columns: Iterable[int],
           mask: int) -> dict[int, int]:
    """Every net's column over packed rows, given one column per declared
    input bit in order."""
    values = _source_values(netlist, mask)
    for (_, nid), column in zip(netlist.input_bits, columns):
        values[nid] = column
    _settle(netlist, values, mask)
    return values


def simulate_combinational(netlist: Netlist,
                           packed: PackedVectors) -> SimOutcome:
    """Run every vector through one levelized sweep and score the checks.

    Each vector with at least one expected output is one pass/fail unit;
    expected bits set to None are don't-cares and never fail. Every input
    bit must be assigned in every vector. One packed testbench serves many
    netlists; `pack_vectors` packs hand-written vectors.
    """
    if netlist.registers:
        raise SimulationError("netlist contains registers; "
                              "use simulate_sequential")
    out_bits = dict(netlist.output_bits)
    check_vectors(packed, dict(netlist.input_bits), out_bits)

    if not packed.keys:
        return SimOutcome(0, 0)
    columns = [packed.inputs[name] for name, _ in netlist.input_bits]
    values = _sweep(netlist, columns, (1 << len(packed.keys)) - 1)
    return _score(packed, {name: values[out_bits[name]]
                           for name, _, _ in packed.checks})


def _resolve_clock(netlist: Netlist, clock: str | None) -> tuple[str, int]:
    """The clock port's name and net; every register must be clocked by it."""
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
    for g in netlist.registers:
        if g.clock_input != clock_net:
            raise SimulationError(
                f"register {g.name or '?'} is not clocked by '{clock}'")
    return clock, clock_net


def _clocked_cycles(netlist: Netlist, clock_net: int, packed: PackedVectors,
                    cycles: int) -> Iterator[tuple[int | None, dict[int, int]]]:
    """Run `cycles` cycles; yield, per cycle, the vector at that cycle (None
    if there is none) and the settled net values.

    A vector sets the input bits it names at its cycle, and inputs hold
    their values until set again; the clock net reads 0. Registers start at
    0 and all take their data input after each cycle.
    """
    in_bits = dict(netlist.input_bits)
    at = {cycle: v for v, (_, _, cycle) in enumerate(packed.keys)}
    held = _source_values(netlist, 1)
    held[clock_net] = 0
    state = {g.output: 0 for g in netlist.registers}
    for t in range(cycles):
        v = at.get(t)
        if v is not None:
            held.update((in_bits[name], packed.inputs[name] >> v & 1)
                        for name in packed.keys[v][0])
        values = {**held, **state}
        _settle(netlist, values, 1)
        yield v, values
        state = {g.output: values[g.data_input] for g in netlist.registers}


def simulate_sequential(netlist: Netlist, packed: PackedVectors,
                        cycles: int, clock: str | None = None) -> SimOutcome:
    """Cycle-accurate run: settle, record, then clock all registers at once.

    The packed testbench must pass check_vectors. Inputs hold their values
    between vectors. Registers start at 0. When `clock` is None it is
    inferred from the register clock pins. The checks are scored as
    simulate_combinational scores them; the first failure is the one at the
    earliest cycle.
    """
    clock, clock_net = _resolve_clock(netlist, clock)
    out_bits = dict(netlist.output_bits)
    check_vectors(packed, dict(netlist.input_bits), out_bits, clock, cycles)
    checked = [(name, out_bits[name]) for name, _, _ in packed.checks]
    actual = dict.fromkeys(out_bits, 0)
    order = []
    for v, values in _clocked_cycles(netlist, clock_net, packed, cycles):
        if v is not None:
            order.append(v)
            for name, nid in checked:
                actual[name] |= values[nid] << v
    return _score(packed, actual, order)


def sequential_trace(netlist: Netlist,
                     stimulus: list[dict[str, int]]) -> dict[str, list[int]]:
    """Drive one input assignment per cycle and record every output stream.

    Same clocking semantics as simulate_sequential, without expectations;
    the clock is inferred from the register clock pins. stimulus[t] is the
    input assignment of cycle t and must pass check_vectors as a vector at
    that cycle, so the first one assigns every input bit but the clock.
    Inputs hold their values between cycles.
    """
    clock, clock_net = _resolve_clock(netlist, None)
    packed = pack_vectors([TestVector(assignment, {}, t)
                           for t, assignment in enumerate(stimulus)])
    check_vectors(packed, dict(netlist.input_bits),
                  dict(netlist.output_bits), clock, len(stimulus))
    streams: dict[str, list[int]] = {name: [] for name, _ in netlist.output_bits}
    for _, values in _clocked_cycles(netlist, clock_net, packed, len(stimulus)):
        for name, nid in netlist.output_bits:
            streams[name].append(values[nid])
    return streams


def _check_combinational(netlist: Netlist) -> None:
    if netlist.registers:
        raise SimulationError("sequential netlist has no truth table")


def _signature(netlist: Netlist, columns: Sequence[int], rows: int,
               exact: bool) -> FunctionalSignature:
    """Output columns over `rows` input rows, given one packed column per
    declared input bit."""
    values = _sweep(netlist, columns, (1 << rows) - 1)
    outs = tuple(values[nid] for _, nid in netlist.output_bits)
    return FunctionalSignature(len(columns), len(outs), outs, exact=exact)


def truth_table(netlist: Netlist) -> FunctionalSignature:
    """Exhaustive signature over all input rows (combinational, n <= 12)."""
    _check_combinational(netlist)
    n = len(netlist.input_bits)
    if n > MAX_EXACT_INPUTS:
        raise SimulationError(
            f"too many inputs for an exhaustive table ({n} > {MAX_EXACT_INPUTS})")
    return _signature(netlist, exhaustive_columns(n), 1 << n, exact=True)


def sampled_signature(netlist: Netlist) -> FunctionalSignature:
    """Fixed-seed random-vector signature for wide combinational interfaces:
    SAMPLED_VECTOR_COUNT rows, the length `column_bits` assumes."""
    _check_combinational(netlist)
    rng = random.Random(_SAMPLED_SEED)
    n = len(netlist.input_bits)
    rows = [rng.getrandbits(n) for _ in range(SAMPLED_VECTOR_COUNT)]
    return _signature(netlist, pack_columns(rows, n), SAMPLED_VECTOR_COUNT,
                      exact=False)


def functional_signature(netlist: Netlist) -> FunctionalSignature:
    """Exact signature when the interface allows it, sampled otherwise."""
    if len(netlist.input_bits) <= MAX_EXACT_INPUTS:
        return truth_table(netlist)
    return sampled_signature(netlist)
