"""Gate-level netlist intermediate representation and structural analyses.

A netlist is a directed graph of gate instances over a locked primitive set
(and, or, not, xor, nand, plus a clocked register). Nets carry single-bit
values; multi-bit ports are bit-blasted so the graph itself is scalar. Gates
are the vertices of the graph, net connections the edges.

Netlist values are immutable after construction and every analysis here is a
pure function, so they are safe to share across any number of workers. The
analyses read one `CompiledNetlist`, built by `compile_netlist` the first
time a netlist is analysed and cached on it, so each netlist object is
validated once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum


class GateKind(Enum):
    AND = "and"
    OR = "or"
    NOT = "not"
    XOR = "xor"
    NAND = "nand"
    DFF = "dff"

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


class NetKind(Enum):
    PRIMARY_INPUT = "primary-input"
    PRIMARY_OUTPUT = "primary-output"
    INTERNAL = "internal"
    CONST0 = "constant-0"
    CONST1 = "constant-1"


class PortDir(Enum):
    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class Net:
    id: int
    kind: NetKind
    name: str | None = None

    @property
    def is_const(self) -> bool:
        return self.kind in (NetKind.CONST0, NetKind.CONST1)

    @property
    def const_value(self) -> int:
        if self.kind is NetKind.CONST0:
            return 0
        if self.kind is NetKind.CONST1:
            return 1
        raise ValueError(f"net {self.id} is not a constant")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Port:
    name: str
    direction: PortDir
    width: int = 1
    lsb: int = 0

    @property
    def msb(self) -> int:
        return self.lsb + self.width - 1

    def bit_name(self, index: int) -> str:
        """Canonical name of one bit: plain name for scalars, name[i] otherwise."""
        if self.width == 1:
            return self.name
        return f"{self.name}[{self.lsb + index}]"


@dataclass(frozen=True)
class Netlist:
    """Immutable gate graph with a flat, bit-blasted net table.

    Its net and port dicts must not be mutated after construction: the
    compiled form cached on the first analysis would no longer describe it.
    """

    name: str
    ports: tuple[Port, ...]
    nets: dict[int, Net]
    gates: tuple[Gate, ...]
    port_nets: dict[str, tuple[int, ...]]
    # Set by compile_netlist; not an init argument, so dataclasses.replace
    # yields a netlist that is validated afresh.
    _compiled: "CompiledNetlist | None" = field(
        default=None, init=False, compare=False, repr=False)

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(name)

    def input_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction is PortDir.IN)

    def output_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction is PortDir.OUT)

    def input_bits(self) -> list[tuple[str, int]]:
        """(bit name, net id) pairs for every input bit, declaration order."""
        out = []
        for p in self.input_ports():
            for i, net in enumerate(self.port_nets[p.name]):
                out.append((p.bit_name(i), net))
        return out

    def output_bits(self) -> list[tuple[str, int]]:
        out = []
        for p in self.output_ports():
            for i, net in enumerate(self.port_nets[p.name]):
                out.append((p.bit_name(i), net))
        return out

    def comb_gates(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates if g.kind is not GateKind.DFF)

    def dff_gates(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates if g.kind is GateKind.DFF)

    def clock_nets(self) -> set[int]:
        """Nets attached to register clock pins."""
        return {g.clock_input for g in self.dff_gates()}


@dataclass(frozen=True)
class StructuralReport:
    gate_count: int
    delay: int
    register_count: int


@dataclass(frozen=True)
class StructuralViolation:
    kind: str       # dangling-net | multi-driver | arity | combinational-loop | floating-output
    severity: str   # "error" | "warning"
    where: str
    message: str


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
    """Check all structural invariants. Violations are data, not exceptions.

    Error classes: dangling-net, multi-driver, arity, combinational-loop.
    Floating gate outputs are reported as warnings; they do not make the
    netlist invalid and still count toward the gate total.
    """
    violations: list[StructuralViolation] = []

    def err(kind: str, where: str, message: str) -> None:
        violations.append(StructuralViolation(kind, "error", where, message))

    def warn(kind: str, where: str, message: str) -> None:
        violations.append(StructuralViolation(kind, "warning", where, message))

    # Net table integrity: ports and gates must reference known nets.
    known = netlist.nets
    gates = netlist.gates
    for p in netlist.ports:
        nets = netlist.port_nets.get(p.name)
        if nets is None or len(nets) != p.width:
            err("dangling-net", f"port {p.name}",
                "port is not bound to one net per bit")
            return violations
        for n in nets:
            if n not in known:
                err("dangling-net", f"port {p.name}", f"unknown net id {n}")
                return violations
    for i, g in enumerate(gates):
        for n in (g.output, *g.inputs):
            if n not in known:
                err("dangling-net", _gate_label(g, i), f"unknown net id {n}")
                return violations

    # Arity.
    for i, g in enumerate(gates):
        want = g.kind.arity
        if len(g.inputs) != want:
            err("arity", _gate_label(g, i),
                f"{g.kind.value} takes {want} input(s), got {len(g.inputs)}")

    # Drivers: constants drive themselves, input port bits drive their nets,
    # gate outputs drive their nets. Exactly one driver per net that is read.
    # Labels for messages are looked up only when something is wrong.
    sources = [net.id for net in known.values() if net.is_const]
    sources += [n for p in netlist.input_ports() for n in netlist.port_nets[p.name]]
    sources += [g.output for g in gates]
    driven = set(sources)
    if len(driven) < len(sources):
        counts = Counter(sources)
        for net_id in known:
            if counts[net_id] > 1:
                err("multi-driver", f"net {_net_label(netlist, net_id)}",
                    "driven by " + " and ".join(_drivers_of(netlist, net_id)))

    # Read nets must be driven.
    read = dict.fromkeys(n for g in gates for n in g.inputs)
    bound = dict.fromkeys(n for p in netlist.output_ports()
                          for n in netlist.port_nets[p.name])
    for net_id in {**read, **bound}:
        if net_id not in driven:
            err("dangling-net", f"net {_net_label(netlist, net_id)}",
                f"undriven net read as {_first_reader(netlist, net_id)}")

    # Combinational loop detection (registers break the cycle).
    cycle = _find_comb_cycle(netlist)
    if cycle is not None:
        err("combinational-loop", "netlist",
            "cycle through " + " -> ".join(cycle))

    # Floating gate outputs: counted, but flagged.
    for i, g in enumerate(gates):
        if g.output not in read and g.output not in bound:
            warn("floating-output", _gate_label(g, i),
                 "gate output is never read")

    return violations


def _drivers_of(netlist: Netlist, net_id: int) -> list[str]:
    net = netlist.nets[net_id]
    who = [f"constant {net.const_value}"] if net.is_const else []
    for p in netlist.input_ports():
        who += [f"input {p.bit_name(i)}"
                for i, n in enumerate(netlist.port_nets[p.name]) if n == net_id]
    return who + [_gate_label(g, i) for i, g in enumerate(netlist.gates)
                  if g.output == net_id]


def _first_reader(netlist: Netlist, net_id: int) -> str:
    for i, g in enumerate(netlist.gates):
        if net_id in g.inputs:
            return f"input of {_gate_label(g, i)}"
    return next(f"output {p.bit_name(i)}" for p in netlist.output_ports()
                for i, n in enumerate(netlist.port_nets[p.name]) if n == net_id)


def _net_label(netlist: Netlist, net_id: int) -> str:
    net = netlist.nets.get(net_id)
    if net is not None and net.name:
        return net.name
    return f"#{net_id}"


def errors_of(violations: list[StructuralViolation]) -> list[StructuralViolation]:
    return [v for v in violations if v.severity == "error"]


def is_valid(netlist: Netlist) -> bool:
    return not errors_of(validate(netlist))


@dataclass(frozen=True)
class CompiledNetlist:
    """What every analysis reads, derived once from a valid netlist.

    Only compile_netlist builds one. `schedule` is the levelized
    combinational order; `ops` gives, per scheduled gate, its evaluator from
    GATE_EVAL, its output net and two operand nets (a NOT repeats its one
    operand). Bit maps are (bit name, net id) in declaration order;
    `const_nets` are (net id, value); `depth` is gates traversed from a
    source, per combinational gate output.
    """

    schedule: tuple[Gate, ...]
    ops: tuple[tuple[Callable[[int, int, int], int], int, int, int], ...]
    registers: tuple[Gate, ...]
    input_bits: tuple[tuple[str, int], ...]
    output_bits: tuple[tuple[str, int], ...]
    const_nets: tuple[tuple[int, int], ...]
    depth: dict[int, int]
    report: StructuralReport
    warnings: tuple[StructuralViolation, ...]


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """The netlist's compiled form, validated and built on first use.

    The result is cached on the netlist, so each netlist object is validated
    once. Raises InvalidNetlistError when validate reports an error, or its
    subclass CombinationalLoopError, carrying the cycle, when one of the
    errors is a combinational loop.
    """
    if netlist._compiled is not None:
        return netlist._compiled
    violations = validate(netlist)
    bad = errors_of(violations)
    if bad:
        loops = [v for v in bad if v.kind == "combinational-loop"]
        if loops:
            witness = loops[0].message.removeprefix("cycle through ").split(" -> ")
            raise CombinationalLoopError(bad, witness)
        raise InvalidNetlistError(bad)

    schedule = _schedule(netlist)
    depth: dict[int, int] = {}
    for g in schedule:
        depth[g.output] = 1 + max((depth.get(n, 0) for n in g.inputs), default=0)
    registers = netlist.dff_gates()
    output_bits = tuple(netlist.output_bits())
    # Delay sinks: primary outputs and register input pins.
    sinks = [nid for _, nid in output_bits] + [n for g in registers for n in g.inputs]
    compiled = CompiledNetlist(
        schedule=schedule,
        ops=tuple((GATE_EVAL[g.kind], g.output, g.inputs[0], g.inputs[-1])
                  for g in schedule),
        registers=registers,
        input_bits=tuple(netlist.input_bits()),
        output_bits=output_bits,
        const_nets=tuple((net.id, net.const_value)
                         for net in netlist.nets.values() if net.is_const),
        depth=depth,
        report=StructuralReport(
            gate_count=len(netlist.gates),
            delay=max((depth.get(n, 0) for n in sinks), default=0),
            register_count=len(registers)),
        warnings=tuple(v for v in violations if v.severity == "warning"),
    )
    object.__setattr__(netlist, "_compiled", compiled)
    return compiled


def _find_comb_cycle(netlist: Netlist) -> list[str] | None:
    """Return gate labels forming a combinational cycle, or None.

    Register outputs are treated as sources and register inputs as sinks, so
    only paths through combinational gates can form a cycle.
    """
    comb = [(i, g) for i, g in enumerate(netlist.gates)
            if g.kind is not GateKind.DFF]
    by_output: dict[int, int] = {}
    for i, g in comb:
        # Multi-driver nets are reported separately; first driver wins here.
        by_output.setdefault(g.output, i)
    # Gates listed drivers-first, as in rendered text, cannot form a cycle.
    if all(by_output.get(n, -1) < i for i, g in comb for n in g.inputs):
        return None

    # Iterative DFS (netlists can be arbitrarily deep chains).
    color: dict[int, int] = {}  # 0 unseen implicit, 1 on stack, 2 done
    for start, _ in comb:
        if color.get(start, 0) != 0:
            continue
        path: list[int] = []
        work: list[tuple[int, int]] = [(start, 0)]
        while work:
            idx, edge = work.pop()
            if edge == 0:
                color[idx] = 1
                path.append(idx)
            deps = [by_output[n] for n in netlist.gates[idx].inputs
                    if n in by_output]
            advanced = False
            while edge < len(deps):
                nxt = deps[edge]
                edge += 1
                c = color.get(nxt, 0)
                if c == 1:
                    cycle = path[path.index(nxt):]
                    return [_gate_label(netlist.gates[j], j) for j in cycle]
                if c == 0:
                    work.append((idx, edge))
                    work.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[idx] = 2
                path.pop()
    return None


def _schedule(netlist: Netlist) -> tuple[Gate, ...]:
    """Kahn order of the combinational gates of an acyclic netlist, ties
    resolved by gate position."""
    comb = [(i, g) for i, g in enumerate(netlist.gates)
            if g.kind is not GateKind.DFF]
    producer: dict[int, int] = {g.output: i for i, g in comb}
    pending: dict[int, int] = {}
    consumers: dict[int, list[int]] = {}
    for i, g in comb:
        pending[i] = 0
        for n in g.inputs:
            if n in producer:
                pending[i] += 1
                consumers.setdefault(producer[n], []).append(i)

    ready = [i for i, _ in comb if pending[i] == 0]
    for i in ready:  # grows while it is walked
        for j in consumers.get(i, ()):
            pending[j] -= 1
            if pending[j] == 0:
                ready.append(j)
    return tuple(netlist.gates[i] for i in ready)


def levelize(netlist: Netlist) -> tuple[Gate, ...]:
    """Order combinational gates so each appears after all its drivers.

    Register updates are excluded: register outputs act as sources. The order
    is deterministic (ties resolved by gate position). Raises like
    compile_netlist when the netlist is invalid.
    """
    return compile_netlist(netlist).schedule


def gate_count(netlist: Netlist) -> int:
    """Total number of gate instances. Registers count like any gate."""
    return compile_netlist(netlist).report.gate_count


def critical_path_delay(netlist: Netlist) -> int:
    """Longest combinational path, counted in gates traversed.

    Sources are primary inputs, constants and register outputs; sinks are
    primary outputs and register input pins. Every gate kind contributes one
    unit of delay; registers contribute none.
    """
    return compile_netlist(netlist).report.delay


def register_count(netlist: Netlist) -> int:
    return len(netlist.dff_gates())


def structural_report(netlist: Netlist) -> StructuralReport:
    return compile_netlist(netlist).report


class NetlistBuilder:
    """Incremental construction helper; build() freezes and checks."""

    def __init__(self, name: str):
        self.name = name
        self._ports: list[Port] = []
        self._port_nets: dict[str, tuple[int, ...]] = {}
        self._nets: dict[int, Net] = {}
        self._gates: list[Gate] = []
        self._next_net = 0
        self._next_gate = 1
        self._consts: dict[int, int] = {}

    def _new_net(self, kind: NetKind, name: str | None = None) -> int:
        nid = self._next_net
        self._next_net += 1
        self._nets[nid] = Net(nid, kind, name)
        return nid

    def _add_port(self, name: str, direction: PortDir, width: int,
                  lsb: int, kind: NetKind) -> int | tuple[int, ...]:
        if any(p.name == name for p in self._ports):
            raise ValueError(f"duplicate port {name}")
        if width < 1:
            raise ValueError(f"port {name}: width must be >= 1")
        port = Port(name, direction, width, lsb)
        self._ports.append(port)
        nets = tuple(self._new_net(kind, port.bit_name(i)) for i in range(width))
        self._port_nets[name] = nets
        return nets[0] if width == 1 else nets

    def input(self, name: str, width: int = 1, lsb: int = 0):
        return self._add_port(name, PortDir.IN, width, lsb, NetKind.PRIMARY_INPUT)

    def output(self, name: str, width: int = 1, lsb: int = 0):
        return self._add_port(name, PortDir.OUT, width, lsb, NetKind.PRIMARY_OUTPUT)

    def bind_output(self, name: str, nets: int | tuple[int, ...], lsb: int = 0):
        """Declare an output port wired to existing nets (aliasing)."""
        bits = (nets,) if isinstance(nets, int) else tuple(nets)
        if any(p.name == name for p in self._ports):
            raise ValueError(f"duplicate port {name}")
        self._ports.append(Port(name, PortDir.OUT, len(bits), lsb))
        self._port_nets[name] = bits

    def wire(self, name: str | None = None) -> int:
        return self._new_net(NetKind.INTERNAL, name)

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        if value not in self._consts:
            kind = NetKind.CONST1 if value else NetKind.CONST0
            self._consts[value] = self._new_net(kind, f"1'b{value}")
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

    def build(self, check: bool = True) -> Netlist:
        n = Netlist(
            name=self.name,
            ports=tuple(self._ports),
            nets=dict(self._nets),
            gates=tuple(self._gates),
            port_nets=dict(self._port_nets),
        )
        if check:
            compile_netlist(n)
        return n
