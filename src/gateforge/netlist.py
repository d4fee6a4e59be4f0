"""Gate-level netlist intermediate representation and structural analyses.

A netlist is a directed graph of gate instances over a locked primitive set
(and, or, not, xor, nand, plus a clocked register). Nets carry single-bit
values; multi-bit ports are bit-blasted so the graph itself is scalar. Gates
are the vertices of the graph, net connections the edges.

Netlist values are immutable after construction and every analysis here is a
pure function, so they are safe to share across any number of workers. A
`Netlist` is validated when it is constructed: `validate` raises on a
structural error, and otherwise fills in the netlist's compiled fields from
the gate order its own levelization pass finds. Every analysis reads those
fields, so each netlist is validated, and levelized, once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum


class GateKind(Enum):
    AND = "and"
    OR = "or"
    NOT = "not"
    XOR = "xor"
    NAND = "nand"
    DFF = "dff"

    # Members are singletons, so identity is equality. `Enum.__hash__`
    # hashes the member's name in Python code, and the gate tables below
    # are looked up once per gate of every netlist parsed.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return GATE_ARITY[self]


# DFF inputs are (data, clock).
GATE_ARITY: dict[GateKind, int] = {
    GateKind.AND: 2,
    GateKind.OR: 2,
    GateKind.NOT: 1,
    GateKind.XOR: 2,
    GateKind.NAND: 2,
    GateKind.DFF: 2,
}

COMBINATIONAL_KINDS = frozenset(k for k in GateKind if k is not GateKind.DFF)


# Gate semantics over packed values: bit r of each operand is its value in row
# r, and `mask` has one bit per row. NOT ignores its second operand. Named
# functions, not lambdas, so that a compiled netlist can be pickled.
def _and(a: int, b: int, mask: int) -> int:
    return a & b


def _or(a: int, b: int, mask: int) -> int:
    return a | b


def _not(a: int, b: int, mask: int) -> int:
    return ~a & mask


def _xor(a: int, b: int, mask: int) -> int:
    return a ^ b


def _nand(a: int, b: int, mask: int) -> int:
    return ~(a & b) & mask


GATE_EVAL: dict[GateKind, Callable[[int, int, int], int]] = {
    GateKind.AND: _and, GateKind.OR: _or, GateKind.NOT: _not,
    GateKind.XOR: _xor, GateKind.NAND: _nand,
}


class PortDir(Enum):
    IN = "in"
    OUT = "out"

    # As for GateKind: identity is equality, and the Reviewer hashes every
    # port of every candidate to compare interfaces.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class Net:
    id: int
    name: str | None = None
    value: int | None = None   # 0 or 1 on a constant net, None otherwise


@dataclass(frozen=True, slots=True)
class Gate:
    kind: GateKind
    output: int
    inputs: tuple[int, ...]
    name: str = ""

    @property
    def data_input(self) -> int:
        """Data pin of a register."""
        if self.kind is not GateKind.DFF:
            raise ValueError("data_input is defined for DFF gates only")
        return self.inputs[0]

    @property
    def clock_input(self) -> int:
        if self.kind is not GateKind.DFF:
            raise ValueError("clock_input is defined for DFF gates only")
        return self.inputs[1]


@dataclass(frozen=True, slots=True)
class Port:
    name: str
    direction: PortDir
    width: int = 1
    lsb: int = 0

    @property
    def msb(self) -> int:
        return self.lsb + self.width - 1

    def declaration(self) -> str:
        """The port as netlist text declares it: `input [3:0] a`."""
        direction = "input" if self.direction is PortDir.IN else "output"
        width = f" [{self.msb}:{self.lsb}]" if self.width > 1 else ""
        return f"{direction}{width} {self.name}"

    def bit_name(self, index: int) -> str:
        """Canonical name of one bit: plain name for scalars, name[i] otherwise."""
        if self.width == 1:
            return self.name
        return f"{self.name}[{self.lsb + index}]"


def _derived_field():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Netlist:
    """Immutable, validated gate graph with a flat, bit-blasted net table.

    Construction runs `validate`, which raises InvalidNetlistError on a
    structural error and otherwise sets the compiled fields: `schedule` is
    the levelized combinational order; `ops` gives, per scheduled gate, its
    evaluator from GATE_EVAL, its output net and two operand nets (a NOT
    repeats its one operand). Bit maps are (bit name, net id) in
    declaration order; `const_nets` are (net id, value). Its net and port
    dicts must not be mutated after construction: the compiled fields would
    no longer describe it.
    """

    name: str
    ports: tuple[Port, ...]
    nets: dict[int, Net]
    gates: tuple[Gate, ...]
    port_nets: dict[str, tuple[int, ...]]
    # Set by validate. Not init arguments, so dataclasses.replace builds a
    # netlist that is validated afresh; left out of equality and the repr.
    schedule: tuple[Gate, ...] = _derived_field()
    ops: tuple[tuple[Callable[[int, int, int], int], int, int, int], ...] = \
        _derived_field()
    registers: tuple[Gate, ...] = _derived_field()
    input_bits: tuple[tuple[str, int], ...] = _derived_field()
    output_bits: tuple[tuple[str, int], ...] = _derived_field()
    const_nets: tuple[tuple[int, int], ...] = _derived_field()
    report: StructuralReport = _derived_field()
    warnings: tuple[StructuralViolation, ...] = _derived_field()

    def __post_init__(self) -> None:
        validate(self)

    def input_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction is PortDir.IN)

    def clock_nets(self) -> set[int]:
        """Nets attached to register clock pins."""
        return {g.clock_input for g in self.registers}


@dataclass(frozen=True)
class StructuralReport:
    """A netlist's size and depth.

    `gate_count` counts gate instances; registers count like any gate.
    `delay` is the longest combinational path, counted in gates traversed:
    sources are primary inputs, constants and register outputs; sinks are
    primary outputs and register input pins. Every gate kind contributes one
    unit of delay; registers contribute none.
    """

    gate_count: int
    delay: int
    register_count: int


@dataclass(frozen=True)
class StructuralViolation:
    kind: str       # dangling-net | multi-driver | arity | combinational-loop | floating-output
    severity: str   # "error" | "warning"
    where: str
    message: str
    # The net of a multi-driver or dangling-net fault, by which the parser
    # places it; kept out of the repr and equality, which goldens hash.
    net: int | None = field(default=None, repr=False, compare=False)


class InvalidNetlistError(ValueError):
    def __init__(self, violations: list[StructuralViolation]):
        self.violations = violations
        detail = "; ".join(f"{v.kind} at {v.where}: {v.message}" for v in violations)
        super().__init__(f"invalid netlist: {detail}")


class CombinationalLoopError(InvalidNetlistError):
    """Raised when the combinational subgraph is cyclic; carries a witness."""

    def __init__(self, violations: list[StructuralViolation], cycle: list[str]):
        super().__init__(violations)
        self.cycle = cycle


def _gate_label(gate: Gate, index: int) -> str:
    return gate.name if gate.name else f"gate#{index}"


def validate(netlist: Netlist) -> list[StructuralViolation]:
    """Check all structural invariants and set the compiled fields.

    Error classes: dangling-net, multi-driver, arity, combinational-loop.
    Any error raises InvalidNetlistError carrying the errors, or its
    subclass CombinationalLoopError, carrying the cycle, when one of them
    is a combinational loop. Otherwise the compiled fields are set from the
    same levelization pass and the warnings are returned: floating gate
    outputs, which do not make the netlist invalid and still count toward
    the gate total. Netlist construction runs this once.

    One pass over the ports and one over the gates gather the bit maps,
    arity, drivers and reads; a message is built only for a fault found.
    """
    known = netlist.nets
    gates = netlist.gates

    # Net table integrity: ports and gates must reference known nets. The
    # first unknown reference is the only violation reported.
    input_bits: list[tuple[str, int]] = []
    output_bits: list[tuple[str, int]] = []
    for p in netlist.ports:
        nets = netlist.port_nets.get(p.name)
        if nets is None or len(nets) != p.width:
            _raise_dangling(f"port {p.name}",
                            "port is not bound to one net per bit")
        bits = input_bits if p.direction is PortDir.IN else output_bits
        for i, n in enumerate(nets):
            if n not in known:
                _raise_dangling(f"port {p.name}", f"unknown net id {n}")
            bits.append((p.bit_name(i), n))
    # Drivers: constants drive themselves, input port bits drive their nets,
    # gate outputs drive their nets. Exactly one driver per net that is read.
    const_nets = [(net.id, net.value) for net in known.values()
                  if net.value is not None]
    outputs: list[int] = []
    read: dict[int, None] = {}
    wrong_arity: list[int] = []
    for i, g in enumerate(gates):
        if g.output not in known:
            _raise_dangling(_gate_label(g, i), f"unknown net id {g.output}")
        for n in g.inputs:
            if n not in known:
                _raise_dangling(_gate_label(g, i), f"unknown net id {n}")
            read[n] = None
        if len(g.inputs) != GATE_ARITY[g.kind]:
            wrong_arity.append(i)
        outputs.append(g.output)

    violations: list[StructuralViolation] = []

    def err(kind: str, where: str, message: str,
            net: int | None = None) -> None:
        violations.append(StructuralViolation(kind, "error", where, message,
                                              net))

    for i in wrong_arity:
        g = gates[i]
        want = GATE_ARITY[g.kind]
        err("arity", _gate_label(g, i),
            f"{g.kind.value} takes {want} input(s), got {len(g.inputs)}")
    sources = [n for n, _ in const_nets] + [n for _, n in input_bits]
    sources += outputs
    driven = set(sources)
    if len(driven) < len(sources):
        counts = Counter(sources)
        for net_id in known:
            if counts[net_id] > 1:
                err("multi-driver", f"net {_net_label(netlist, net_id)}",
                    "driven by " + " and ".join(_drivers_of(netlist, net_id)),
                    net_id)
    # Read nets must be driven.
    bound = dict.fromkeys(n for _, n in output_bits)
    if not (driven.issuperset(read) and driven.issuperset(bound)):
        for net_id in {**read, **bound}:
            if net_id not in driven:
                err("dangling-net", f"net {_net_label(netlist, net_id)}",
                    f"undriven net read as {_first_reader(netlist, net_id)}",
                    net_id)

    # Combinational loop detection (registers break the cycle); the same
    # pass orders the gates for the compiled fields.
    schedule, cycle = _levelization(gates)
    if cycle is not None:
        err("combinational-loop", "netlist",
            "cycle through " + " -> ".join(cycle))

    # Floating gate outputs: counted, but flagged.
    floating = set(outputs).difference(read, bound)
    if floating:
        for i, g in enumerate(gates):
            if g.output in floating:
                violations.append(StructuralViolation(
                    "floating-output", "warning", _gate_label(g, i),
                    "gate output is never read"))

    bad = errors_of(violations)
    if cycle is not None:
        raise CombinationalLoopError(bad, cycle)
    if bad:
        raise InvalidNetlistError(bad)
    _compile(netlist, schedule, tuple(violations), tuple(input_bits),
             tuple(output_bits), tuple(const_nets))
    return violations


def _raise_dangling(where: str, message: str) -> None:
    """Raise the one violation of a reference to a net the table lacks."""
    raise InvalidNetlistError([
        StructuralViolation("dangling-net", "error", where, message)])


def _drivers_of(netlist: Netlist, net_id: int) -> list[str]:
    net = netlist.nets[net_id]
    who = [f"constant {net.value}"] if net.value is not None else []
    who += [f"input {bit}" for bit, n in _port_bits(netlist, PortDir.IN)
            if n == net_id]
    return who + [_gate_label(g, i) for i, g in enumerate(netlist.gates)
                  if g.output == net_id]


def _first_reader(netlist: Netlist, net_id: int) -> str:
    for i, g in enumerate(netlist.gates):
        if net_id in g.inputs:
            return f"input of {_gate_label(g, i)}"
    return next(f"output {bit}" for bit, n in _port_bits(netlist, PortDir.OUT)
                if n == net_id)


def _net_label(netlist: Netlist, net_id: int) -> str:
    net = netlist.nets.get(net_id)
    if net is not None and net.name:
        return net.name
    return f"#{net_id}"


def errors_of(violations: list[StructuralViolation]) -> list[StructuralViolation]:
    return [v for v in violations if v.severity == "error"]


def _port_bits(netlist: Netlist, direction: PortDir
               ) -> tuple[tuple[str, int], ...]:
    """(bit name, net id) for every bit of the ports in one direction."""
    return tuple([(p.bit_name(i), net) for p in netlist.ports
                  if p.direction is direction
                  for i, net in enumerate(netlist.port_nets[p.name])])


def gate_depths(schedule: Iterable[Gate]) -> dict[int, int]:
    """Longest path, in gates, to each output of gates in topological order."""
    depth: dict[int, int] = {}
    get = depth.get
    for g in schedule:
        longest = 0
        for n in g.inputs:
            d = get(n, 0)
            if d > longest:
                longest = d
        depth[g.output] = longest + 1
    return depth


def _compile(netlist: Netlist, schedule: tuple[Gate, ...],
             warnings: tuple[StructuralViolation, ...],
             input_bits: tuple[tuple[str, int], ...],
             output_bits: tuple[tuple[str, int], ...],
             const_nets: tuple[tuple[int, int], ...]) -> None:
    depth = gate_depths(schedule)
    registers = tuple([g for g in netlist.gates if g.kind is GateKind.DFF])
    # Delay sinks: primary outputs and register input pins.
    sinks = [nid for _, nid in output_bits] + [n for g in registers for n in g.inputs]
    compiled = {
        "schedule": schedule,
        "ops": tuple([(GATE_EVAL[g.kind], g.output, g.inputs[0], g.inputs[-1])
                      for g in schedule]),
        "registers": registers,
        "input_bits": input_bits,
        "output_bits": output_bits,
        "const_nets": const_nets,
        "report": StructuralReport(
            gate_count=len(netlist.gates),
            delay=max([depth.get(n, 0) for n in sinks], default=0),
            register_count=len(registers)),
        "warnings": warnings,
    }
    for name, value in compiled.items():
        object.__setattr__(netlist, name, value)


def _levelization(gates: Sequence[Gate]
                  ) -> tuple[tuple[Gate, ...], list[str] | None]:
    """Kahn order of the combinational `gates`, ties resolved by gate
    position, and the gate labels of a combinational cycle (None if the
    gates are acyclic).

    Register outputs are treated as sources and register inputs as sinks, so
    only paths through combinational gates can form a cycle.
    """
    comb: list[int] = []
    producer: dict[int, int] = {}
    for i, g in enumerate(gates):
        if g.kind is not GateKind.DFF:
            comb.append(i)
            # Multi-driver nets are reported separately; first driver wins.
            producer.setdefault(g.output, i)
    pending = [0] * len(gates)
    consumers: dict[int, list[int]] = {}
    for i in comb:
        for n in gates[i].inputs:
            p = producer.get(n)
            if p is not None:
                pending[i] += 1
                consumers.setdefault(p, []).append(i)
    ready = [i for i in comb if not pending[i]]
    for i in ready:  # grows while it is walked
        for j in consumers.get(i, ()):
            pending[j] -= 1
            if not pending[j]:
                ready.append(j)
    order = tuple([gates[i] for i in ready])
    if len(ready) == len(comb):
        return order, None

    # Every unordered gate reads an unordered gate. From the lowest one,
    # follow the first such input until a gate repeats; this is the cycle a
    # depth-first search in gate order meets first.
    stuck = {i for i in comb if pending[i]}
    path: dict[int, int] = {}
    i = min(stuck)
    while i not in path:
        path[i] = len(path)
        i = next(producer[n] for n in gates[i].inputs
                 if producer.get(n) in stuck)
    return order, [_gate_label(gates[j], j) for j in list(path)[path[i]:]]


def levelize(netlist: Netlist) -> tuple[Gate, ...]:
    """Order combinational gates so each appears after all its drivers.

    Register updates are excluded: register outputs act as sources. The order
    is deterministic (ties resolved by gate position). The order is found
    once, when the netlist is constructed.
    """
    return netlist.schedule


def structural_report(netlist: Netlist) -> StructuralReport:
    return netlist.report


class NetlistBuilder:
    """Incremental construction helper; build() freezes and validates."""

    def __init__(self, name: str):
        self.name = name
        self._ports: list[Port] = []
        self._port_nets: dict[str, tuple[int, ...]] = {}
        self._nets: dict[int, Net] = {}
        self._gates: list[Gate] = []
        self._next_gate = 1
        self._consts: dict[int, int] = {}

    def _new_net(self, name: str | None, value: int | None = None) -> int:
        nid = len(self._nets)
        self._nets[nid] = Net(nid, name, value)
        return nid

    def bind(self, name: str, direction: PortDir, nets: int | tuple[int, ...],
             lsb: int = 0) -> None:
        """Declare a port whose bits, lsb first, are existing nets."""
        bits = (nets,) if isinstance(nets, int) else tuple(nets)
        if name in self._port_nets:
            raise ValueError(f"duplicate port {name}")
        if not bits:
            raise ValueError(f"port {name}: width must be >= 1")
        self._ports.append(Port(name, direction, len(bits), lsb))
        self._port_nets[name] = bits

    def _new_port(self, name: str, direction: PortDir, width: int,
                  lsb: int) -> int | tuple[int, ...]:
        port = Port(name, direction, width, lsb)
        nets = tuple(self.wire(port.bit_name(i)) for i in range(width))
        self.bind(name, direction, nets, lsb)
        return nets[0] if width == 1 else nets

    def input(self, name: str, width: int = 1, lsb: int = 0):
        return self._new_port(name, PortDir.IN, width, lsb)

    def output(self, name: str, width: int = 1, lsb: int = 0):
        return self._new_port(name, PortDir.OUT, width, lsb)

    def wire(self, name: str | None = None) -> int:
        return self._new_net(name)

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        if value not in self._consts:
            self._consts[value] = self._new_net(f"1'b{value}", value)
        return self._consts[value]

    def gate(self, kind: GateKind, inputs, output: int | None = None,
             name: str | None = None) -> int:
        """Add a gate; returns its output net (created when not supplied)."""
        ins = tuple(inputs) if not isinstance(inputs, int) else (inputs,)
        if output is None:
            output = self.wire()
        if name is None:
            name = f"g{self._next_gate}"
        self._next_gate += 1
        self._gates.append(Gate(kind, output, ins, name))
        return output

    def build(self) -> Netlist:
        return Netlist(
            name=self.name,
            ports=tuple(self._ports),
            nets=dict(self._nets),
            gates=tuple(self._gates),
            port_nets=dict(self._port_nets),
        )
