"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from gateforge.knowledge import KnowledgeStore
from gateforge.netlist import GateKind, Netlist, NetlistBuilder, PortDir
from gateforge.simulator import PackedVectors, TestVector


@pytest.fixture
def index_writes(monkeypatch) -> list[int]:
    """The record count of each index write a store makes, in order."""
    writes: list[int] = []
    append = KnowledgeStore._append

    def counting(self, records):
        writes.append(len(records))
        append(self, records)

    monkeypatch.setattr(KnowledgeStore, "_append", counting)
    return writes


def build_half_adder() -> Netlist:
    b = NetlistBuilder("half_adder")
    a = b.input("a")
    c = b.input("b")
    s = b.output("s")
    co = b.output("c")
    b.gate(GateKind.XOR, (a, c), s)
    b.gate(GateKind.AND, (a, c), co)
    return b.build()


def build_full_adder() -> Netlist:
    """The 5-gate construction sharing the first xor."""
    b = NetlistBuilder("full_adder")
    a = b.input("a")
    c = b.input("b")
    cin = b.input("cin")
    axb = b.gate(GateKind.XOR, (a, c))
    s = b.gate(GateKind.XOR, (axb, cin))
    ab = b.gate(GateKind.AND, (a, c))
    axb_cin = b.gate(GateKind.AND, (axb, cin))
    co = b.gate(GateKind.OR, (ab, axb_cin))
    b.bind("sum", PortDir.OUT, s)
    b.bind("cout", PortDir.OUT, co)
    return b.build()


def build_nand_full_adder() -> Netlist:
    """The classic nine-nand construction; same function, different graph."""
    b = NetlistBuilder("full_adder_nand")
    a = b.input("a")
    c = b.input("b")
    cin = b.input("cin")
    g = lambda x, y: b.gate(GateKind.NAND, (x, y))  # noqa: E731
    n1 = g(a, c)
    n2 = g(a, n1)
    n3 = g(c, n1)
    n4 = g(n2, n3)           # a xor b
    n5 = g(n4, cin)
    n6 = g(n4, n5)
    n7 = g(cin, n5)
    s = g(n6, n7)            # sum
    co = g(n5, n1)           # carry
    b.bind("sum", PortDir.OUT, s)
    b.bind("cout", PortDir.OUT, co)
    return b.build()


def unpack(packed: PackedVectors) -> tuple[TestVector, ...]:
    """The per-bit vectors a packed testbench stands for: each vector's bits
    in the order it names them, None for a don't-care, and its cycle."""
    care = {name: (e, c) for name, e, c in packed.checks}
    return tuple(
        TestVector({name: packed.inputs[name] >> v & 1 for name in ins},
                   {name: e >> v & 1 if c >> v & 1 else None
                    for name in outs for e, c in [care.get(name, (0, 0))]},
                   cycle)
        for v, (ins, outs, cycle) in enumerate(packed.keys))


def recursive_eval(netlist: Netlist, assignment: dict[str, int],
                   state: dict[int, int] | None = None) -> dict[str, int]:
    """Direct recursive evaluation of the gate graph, independent of the
    levelized simulator. Without `state` the netlist must be combinational.
    With it (register output net -> value) registers are sources, and
    `state` is then advanced by one clock edge."""
    driver = {g.output: g for g in netlist.gates}
    input_net = {nid: val for (name, nid), val in
                 zip(netlist.input_bits,
                     (assignment[n] for n, _ in netlist.input_bits))}
    memo: dict[int, int] = {}

    def value(nid: int) -> int:
        if nid in memo:
            return memo[nid]
        net = netlist.nets[nid]
        if net.value is not None:
            result = net.value
        elif nid in input_net:
            result = input_net[nid] & 1
        elif state is not None and nid in state:
            result = state[nid]
        else:
            gate = driver[nid]
            ins = [value(n) for n in gate.inputs]
            if gate.kind is GateKind.AND:
                result = ins[0] & ins[1]
            elif gate.kind is GateKind.OR:
                result = ins[0] | ins[1]
            elif gate.kind is GateKind.XOR:
                result = ins[0] ^ ins[1]
            elif gate.kind is GateKind.NAND:
                result = 1 - (ins[0] & ins[1])
            elif gate.kind is GateKind.NOT:
                result = 1 - ins[0]
            else:
                raise AssertionError(f"not combinational: {gate.kind}")
        memo[nid] = result
        return result

    outputs = {name: value(nid) for name, nid in netlist.output_bits}
    if state is not None:
        state.update({g.output: value(g.data_input) for g in netlist.registers})
    return outputs


def random_netlist(rng: random.Random, n_inputs: int, n_gates: int,
                   n_outputs: int | None = None, name: str = "rand") -> Netlist:
    """Random valid combinational netlist: every gate draws inputs from
    earlier nets, outputs are bound to randomly chosen driven nets."""
    kinds = [GateKind.AND, GateKind.OR, GateKind.NOT, GateKind.XOR,
             GateKind.NAND]
    b = NetlistBuilder(name)
    pool = [b.input(f"i{k}") for k in range(n_inputs)]
    if rng.random() < 0.2:
        pool.append(b.const(rng.randint(0, 1)))
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind is GateKind.NOT:
            ins = (rng.choice(pool),)
        else:
            ins = (rng.choice(pool), rng.choice(pool))
        pool.append(b.gate(kind, ins))
    gate_outputs = pool[n_inputs:] or pool
    n_outputs = n_outputs or rng.randint(1, min(3, len(gate_outputs)))
    for k in range(n_outputs):
        b.bind(f"o{k}", PortDir.OUT, rng.choice(gate_outputs))
    return b.build()


def store_contents(root: Path) -> tuple[list[dict], list[tuple[str, str]]]:
    """A store's index records, in log order, without `netlist_text`; and
    each circuit pattern's text as `(f"{id}.nl", text)` in id order, one
    per id, archived patterns included."""
    records, texts = [], {}
    for line in (root / "index.jsonl").read_text().splitlines():
        rec = json.loads(line)
        text = rec.pop("netlist_text")
        if text is not None:
            texts[rec["id"]] = text
        records.append(rec)
    return records, [(f"{i}.nl", texts[i]) for i in sorted(texts)]
