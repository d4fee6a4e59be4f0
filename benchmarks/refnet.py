"""Independent reader and evaluator for the seed tasks' reference netlists.

The benchmark checks gateforge against this module, so it shares no code
with gateforge: it reads `reference.nl`, `task.json` and `testbench.json`
straight from a task pack directory, evaluates one test vector at a time
with plain Python booleans, and measures gate count and delay by its own
walk of the gate graph. It understands only the subset of the netlist
language the seed references use: scalar and `[msb:lsb]` ports, `wire`
declarations and one gate instance per line.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace

_HEADER_RE = re.compile(r"module\s+(\w+)\s*\((.*?)\)\s*;", re.S)
_PORT_RE = re.compile(r"(input|output)\s*(?:\[(\d+):(\d+)\])?\s*(\w+)")
_WIRE_RE = re.compile(r"^\s*wire\s+([^;]*);", re.M)
_GATE_RE = re.compile(r"^\s*(and|or|not|xor|nand|dff)\s+(\w+)\s*\(([^)]*)\)\s*;",
                      re.M)

BINARY_KINDS = ("and", "or", "xor", "nand")


@dataclass(frozen=True)
class Port:
    direction: str          # input | output
    name: str
    msb: int = 0
    lsb: int = 0
    bus: bool = False

    def bits(self) -> list[str]:
        if not self.bus:
            return [self.name]
        return [f"{self.name}[{i}]" for i in range(self.lsb, self.msb + 1)]


@dataclass(frozen=True)
class Gate:
    kind: str
    name: str
    output: str
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class RefNet:
    name: str
    ports: tuple[Port, ...]
    wires: tuple[str, ...]
    gates: tuple[Gate, ...]

    def bits(self, direction: str) -> list[str]:
        return [b for p in self.ports if p.direction == direction
                for b in p.bits()]


def read(text: str) -> RefNet:
    header = _HEADER_RE.search(text)
    if header is None:
        raise ValueError("no module header")
    ports = tuple(
        Port(d, name, int(msb or 0), int(lsb or 0), msb != "")
        for d, msb, lsb, name in _PORT_RE.findall(header.group(2)))
    wires = tuple(w.strip() for decl in _WIRE_RE.findall(text)
                  for w in decl.split(",") if w.strip())
    gates = tuple(
        Gate(kind, name, *_split_pins(pins))
        for kind, name, pins in _GATE_RE.findall(text))
    return RefNet(header.group(1), ports, wires, gates)


def _split_pins(pins: str) -> tuple[str, tuple[str, ...]]:
    names = [p.strip() for p in pins.split(",")]
    return names[0], tuple(names[1:])


def render(net: RefNet, extra_ports: tuple[str, ...] = (),
           extra_lines: tuple[str, ...] = ()) -> str:
    """Text in the layout of the seed references; `extra_ports` are raw
    port declarations put first, `extra_lines` go before `endmodule`."""
    ports = list(extra_ports)
    for p in net.ports:
        rng = f" [{p.msb}:{p.lsb}]" if p.bus else ""
        ports.append(f"{p.direction}{rng} {p.name}")
    lines = [f"module {net.name}({', '.join(ports)});"]
    if net.wires:
        lines.append(f"  wire {', '.join(net.wires)};")
    for g in net.gates:
        lines.append(f"  {g.kind} {g.name}({', '.join((g.output,) + g.inputs)});")
    lines.extend(extra_lines)
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _comb_order(net: RefNet) -> list[Gate]:
    """Combinational gates in dependency order; register outputs, inputs
    and constants are sources."""
    pending = [g for g in net.gates if g.kind != "dff"]
    driven_by_comb = {g.output for g in pending}
    ready = set()
    order: list[Gate] = []
    while pending:
        rest = []
        for g in pending:
            if all(i not in driven_by_comb or i in ready for i in g.inputs):
                order.append(g)
                ready.add(g.output)
            else:
                rest.append(g)
        if len(rest) == len(pending):
            raise ValueError("combinational loop")
        pending = rest
    return order


def _gate_value(kind: str, ins: list[int]) -> int:
    if kind == "not":
        return 1 - ins[0]
    a, b = ins
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "xor":
        return a ^ b
    if kind == "nand":
        return 1 - (a & b)
    raise ValueError(kind)


def _settle(order: list[Gate], values: dict[str, int]) -> None:
    for g in order:
        values[g.output] = _gate_value(g.kind, [_read(values, i) for i in g.inputs])


def _read(values: dict[str, int], net: str) -> int:
    if net in ("1'b0", "1'b1"):
        return int(net[-1])
    return values[net]


def size(net: RefNet) -> tuple[int, int]:
    """(gate count, delay): every gate counts; each combinational gate adds
    one unit of delay between inputs/constants/register outputs and
    outputs/register inputs."""
    depth: dict[str, int] = {}
    for g in _comb_order(net):
        depth[g.output] = 1 + max((depth.get(i, 0) for i in g.inputs), default=0)
    sinks = net.bits("output") + [i for g in net.gates if g.kind == "dff"
                                  for i in g.inputs]
    return len(net.gates), max((depth.get(s, 0) for s in sinks), default=0)


@dataclass(frozen=True)
class Testbench:
    sequential: bool
    cycles: int
    vectors: tuple[tuple[int, dict[str, int], dict[str, int]], ...]


def _expand(doc: dict, widths: dict[str, tuple[int, int, bool]],
            ) -> dict[str, int]:
    """Per-bit values of a vector's inputs or expected outputs; don't-care
    bits are left out."""
    out: dict[str, int] = {}
    for key, value in doc.items():
        if value is None or value == "x":
            continue
        if key in widths:
            msb, lsb, bus = widths[key]
            if not bus:
                out[key] = value & 1
            else:
                for i in range(lsb, msb + 1):
                    out[f"{key}[{i}]"] = (value >> (i - lsb)) & 1
        else:
            out[key] = value & 1
    return out


def load_task(pack_dir: str) -> tuple[dict, RefNet, Testbench]:
    """(task.json document, reference netlist, testbench) of one pack."""
    with open(os.path.join(pack_dir, "task.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(pack_dir, "reference.nl"), encoding="utf-8") as fh:
        ref = read(fh.read())
    with open(os.path.join(pack_dir, "testbench.json"), encoding="utf-8") as fh:
        tb = json.load(fh)
    widths = {}
    for p in meta["ports"]:
        w, lsb = p.get("width", 1), p.get("lsb", 0)
        widths[p["name"]] = (lsb + w - 1, lsb, w > 1)
    vectors = tuple(
        (v.get("cycle", 0), _expand(v.get("inputs", {}), widths),
         _expand(v.get("expected", {}), widths))
        for v in tb["vectors"])
    bench = Testbench(meta["circuit_class"] == "sequential",
                      tb.get("cycles", 1), vectors)
    return meta, ref, bench


def passes(net: RefNet, bench: Testbench) -> bool:
    """True when every checked output bit of every vector matches."""
    order = _comb_order(net)
    dffs = [g for g in net.gates if g.kind == "dff"]
    if not bench.sequential:
        for _, inputs, expected in bench.vectors:
            values = dict(inputs)
            _settle(order, values)
            if any(values.get(k) != v for k, v in expected.items()):
                return False
        return True
    by_cycle = {c: (i, e) for c, i, e in bench.vectors}
    held: dict[str, int] = {}
    state = {g.output: 0 for g in dffs}
    for t in range(bench.cycles):
        inputs, expected = by_cycle.get(t, ({}, {}))
        held.update(inputs)
        values = {**held, **state}
        for b in net.bits("input"):
            values.setdefault(b, 0)
        _settle(order, values)
        if any(values.get(k) != v for k, v in expected.items()):
            return False
        state = {g.output: values[g.inputs[0]] for g in dffs}
    return True


def with_gate_kind(net: RefNet, index: int, kind: str) -> RefNet:
    gates = list(net.gates)
    gates[index] = replace(gates[index], kind=kind)
    return replace(net, gates=tuple(gates))


def with_inverter_pair(net: RefNet, index: int) -> RefNet:
    """Route gate `index`'s output through two inverters: the same function
    with two more gates."""
    g = net.gates[index]
    a, b = "rx_a", "rx_b"
    gates = list(net.gates)
    gates[index] = replace(g, output=a)
    gates.append(Gate("not", "rx_n1", b, (a,)))
    gates.append(Gate("not", "rx_n2", g.output, (b,)))
    return replace(net, wires=net.wires + (a, b), gates=tuple(gates))
