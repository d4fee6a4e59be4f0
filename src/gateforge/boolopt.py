"""Boolean optimization oracle: two-level minimization, exact network
search at desk scale, and structural optimization hints.

This module is the independent source of truth the review loop leans on:
quine_mccluskey gives a minimum-term sum-of-products cover, and
min_gate_network exhaustively enumerates gate networks over a chosen subset
of the locked primitives, so its answers are minimal by construction.
Hints are textual by default; apply_hint/apply_hints perform the rewrite
for callers that opt in (and for soundness testing).
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import (
    COMBINATIONAL_KINDS,
    GATE_EVAL,
    Gate,
    GateKind,
    Net,
    NetKind,
    Netlist,
    NetlistBuilder,
    StructuralReport,
    compile_netlist,
    structural_report,
)
from .simulator import pack_columns

QM_MAX_INPUTS = 12
SEARCH_MAX_INPUTS = 4
SEARCH_MAX_GATES = 7


@dataclass(frozen=True)
class BoolFunction:
    """Single-output Boolean function as packed truth-table bits.

    Bit m of `table` is the function value on minterm m; `dont_care` marks
    unconstrained minterms and always wins over `table`.
    """

    n: int
    table: int
    dont_care: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("arity must be >= 0")
        full = self.mask
        if self.table & ~full or self.dont_care & ~full:
            raise ValueError("table bits outside 2^n rows")
        object.__setattr__(self, "table", self.table & ~self.dont_care)

    @property
    def mask(self) -> int:
        return (1 << (1 << self.n)) - 1

    @property
    def care(self) -> int:
        return self.mask & ~self.dont_care

    @classmethod
    def from_rows(cls, rows: list[int | None]) -> "BoolFunction":
        n = (len(rows) - 1).bit_length()
        if len(rows) != 1 << n:
            raise ValueError("row count must be a power of two")
        table = dc = 0
        for m, r in enumerate(rows):
            if r is None:
                dc |= 1 << m
            elif r & 1:
                table |= 1 << m
        return cls(n, table, dc)

    @classmethod
    def from_minterms(cls, n: int, ones: list[int],
                      dont_cares: list[int] | None = None) -> "BoolFunction":
        table = 0
        for m in ones:
            table |= 1 << m
        dc = 0
        for m in dont_cares or []:
            dc |= 1 << m
        return cls(n, table, dc)

    def value(self, minterm: int) -> int:
        return (self.table >> minterm) & 1

    def agrees_with(self, table: int) -> bool:
        """True when `table` matches this function on every care minterm."""
        return (table ^ self.table) & self.care == 0


@dataclass(frozen=True)
class Cube:
    """Product term: `mask` bit i set means variable i is fixed to bit i of
    `value`; clear means the variable is a dash."""

    n: int
    value: int
    mask: int

    def __post_init__(self) -> None:
        if self.value & ~self.mask:
            raise ValueError("value bits outside mask")

    def covers(self, minterm: int) -> bool:
        return (minterm ^ self.value) & self.mask == 0

    def minterms(self) -> list[int]:
        free = [i for i in range(self.n) if not (self.mask >> i) & 1]
        out = []
        for bits in range(1 << len(free)):
            m = self.value
            for j, var in enumerate(free):
                if (bits >> j) & 1:
                    m |= 1 << var
            out.append(m)
        return sorted(out)

    def cover_bits(self) -> int:
        bits = 0
        for m in self.minterms():
            bits |= 1 << m
        return bits

    @property
    def literal_count(self) -> int:
        return bin(self.mask).count("1")

    def __str__(self) -> str:
        # Variable 0 is the leftmost character.
        out = []
        for i in range(self.n):
            if not (self.mask >> i) & 1:
                out.append("-")
            else:
                out.append("1" if (self.value >> i) & 1 else "0")
        return "".join(out)


@dataclass(frozen=True)
class MinimalCover:
    cubes: tuple[Cube, ...]

    @property
    def term_count(self) -> int:
        return len(self.cubes)

    @property
    def literal_count(self) -> int:
        return sum(c.literal_count for c in self.cubes)

    def evaluate(self, minterm: int) -> int:
        return int(any(c.covers(minterm) for c in self.cubes))

    def table(self, n: int) -> int:
        bits = 0
        for c in self.cubes:
            bits |= c.cover_bits()
        return bits & ((1 << (1 << n)) - 1)


def prime_implicants(f: BoolFunction) -> list[Cube]:
    """All prime implicants by iterative adjacent-cube merging."""
    n = f.n
    current = {(m, (1 << n) - 1) for m in range(1 << n)
               if (f.table | f.dont_care) >> m & 1}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        used: set[tuple[int, int]] = set()
        by_mask: dict[int, list[tuple[int, int]]] = {}
        for cube in current:
            by_mask.setdefault(cube[1], []).append(cube)
        for mask, cubes in by_mask.items():
            group = set(cubes)
            for value, _ in cubes:
                for i in range(n):
                    bit = 1 << i
                    if not mask & bit or not value & bit:
                        continue
                    partner = (value ^ bit, mask)
                    if partner in group:
                        merged.add((value & ~bit, mask & ~bit))
                        used.add((value, mask))
                        used.add(partner)
        primes |= current - used
        current = merged
    return sorted((Cube(n, v, m) for v, m in primes), key=str)


def _essential_first_cover(f: BoolFunction, primes: list[Cube]) -> list[Cube]:
    """Exact minimum-cardinality cover: essential primes, then branch and
    bound over the rest with a deterministic lexicographic tie-break."""
    ones = [m for m in range(1 << f.n) if f.value(m)]
    if not ones:
        return []
    cover_of = {id(c): c.cover_bits() for c in primes}
    need = 0
    for m in ones:
        need |= 1 << m

    chosen: list[Cube] = []
    remaining = need
    while True:
        essential_pick = None
        for m in range(1 << f.n):
            if not (remaining >> m) & 1:
                continue
            holders = [c for c in primes if cover_of[id(c)] >> m & 1]
            if len(holders) == 1:
                essential_pick = holders[0]
                break
        if essential_pick is None:
            break
        chosen.append(essential_pick)
        remaining &= ~cover_of[id(essential_pick)]
        primes = [c for c in primes if c is not essential_pick]
        if not remaining:
            return sorted(chosen, key=str)

    # Branch and bound over the residue.
    candidates = [c for c in primes if cover_of[id(c)] & remaining]
    best: list[Cube] | None = None

    def key(cubes: list[Cube]) -> tuple:
        return tuple(sorted(str(c) for c in cubes))

    def recurse(uncovered: int, picked: list[Cube]) -> None:
        nonlocal best
        if not uncovered:
            if best is None or len(picked) < len(best) or (
                    len(picked) == len(best) and key(picked) < key(best)):
                best = list(picked)
            return
        if best is not None and len(picked) + 1 > len(best):
            return
        # Branch on the hardest minterm (fewest covering cubes).
        holders: list[Cube] | None = None
        m = uncovered
        while m:
            mt = (m & -m).bit_length() - 1
            h = [c for c in candidates if cover_of[id(c)] >> mt & 1]
            if holders is None or len(h) < len(holders):
                holders = h
                if len(h) <= 1:
                    break
            m &= m - 1
        if not holders:
            return
        for c in holders:
            recurse(uncovered & ~cover_of[id(c)], picked + [c])

    recurse(remaining, [])
    if best is None:
        raise AssertionError("prime implicants failed to cover the function")
    return sorted(chosen + best, key=str)


def quine_mccluskey(f: BoolFunction) -> MinimalCover:
    """Minimum-term sum-of-products cover of a single-output function."""
    if f.n > QM_MAX_INPUTS:
        raise ValueError(f"arity {f.n} exceeds the limit of {QM_MAX_INPUTS}")
    primes = prime_implicants(f)
    cubes = _essential_first_cover(f, primes)
    return MinimalCover(tuple(cubes))


# ---------------------------------------------------------------------------
# Exhaustive minimal gate network search.
# ---------------------------------------------------------------------------


@dataclass
class _SearchNode:
    table: int
    depth: int
    kind: GateKind | None = None        # None for sources
    operands: tuple[int, ...] = ()      # indices into the node list
    source_name: str | None = None


def min_gate_network(f: BoolFunction, gate_set: frozenset[GateKind] | set[GateKind],
                     max_gates: int = SEARCH_MAX_GATES,
                     ) -> tuple[Netlist, StructuralReport] | None:
    """Smallest network over `gate_set` realizing f, ties broken by delay.

    Exhaustive iterative-deepening enumeration, so the result is minimal by
    construction; returns None when no network within max_gates matches f on
    its care set. Inputs, constants 0/1 and the function's don't-cares are
    all honored. Deterministic regardless of set iteration order.
    """
    if f.n > SEARCH_MAX_INPUTS:
        raise ValueError(f"arity {f.n} exceeds the limit of {SEARCH_MAX_INPUTS}")
    if max_gates > SEARCH_MAX_GATES:
        raise ValueError(f"max_gates {max_gates} exceeds the limit of {SEARCH_MAX_GATES}")
    kinds = sorted(set(gate_set), key=lambda k: k.value)
    if not kinds or any(k not in COMBINATIONAL_KINDS for k in kinds):
        raise ValueError("gate_set must be a non-empty subset of the "
                         "combinational locked primitives")

    rows = 1 << f.n
    mask = (1 << rows) - 1
    sources: list[_SearchNode] = []
    for i, p in enumerate(pack_columns(range(rows), f.n)):
        sources.append(_SearchNode(p, 0, source_name=f"x{i}"))
    sources.append(_SearchNode(0, 0, source_name="const0"))
    sources.append(_SearchNode(mask, 0, source_name="const1"))

    for idx, s in enumerate(sources):
        if f.agrees_with(s.table):
            return _network_to_netlist(f, sources, idx, [])

    # Iterative deepening: first budget with any realization is minimal;
    # among those, keep the smallest delay (ties: first in canonical order).
    # Two prunings keep this exhaustive-but-feasible: a new gate's table must
    # be distinct from every existing node (a minimal network never computes
    # the same function twice), and independent adjacent gates must appear in
    # canonical order (every DAG has such a topological order).
    best: tuple[int, list[_SearchNode]] | None = None

    def copy_nodes(nodes: list[_SearchNode]) -> list[_SearchNode]:
        return [_SearchNode(nd.table, nd.depth, nd.kind, nd.operands,
                            nd.source_name) for nd in nodes]

    for budget in range(1, max_gates + 1):
        best = None
        nodes = list(sources)
        seen_tables = {nd.table for nd in nodes}

        def enumerate_gates(remaining: int, prev_sig: tuple | None) -> None:
            nonlocal best
            last = remaining == 1
            for kind in kinds:
                evaluate = GATE_EVAL[kind]
                if kind is GateKind.NOT:
                    operand_sets = [(i,) for i in range(len(nodes))]
                else:
                    operand_sets = [(i, j) for i in range(len(nodes))
                                    for j in range(i + 1, len(nodes))]
                for ops in operand_sets:
                    t = evaluate(nodes[ops[0]].table, nodes[ops[-1]].table,
                                 mask)
                    if t in seen_tables:
                        continue
                    if last and not f.agrees_with(t):
                        continue
                    sig = (kind.value, ops)
                    consumes_prev = prev_sig is not None and \
                        (len(nodes) - 1) in ops
                    if prev_sig is not None and not consumes_prev \
                            and sig <= prev_sig:
                        continue
                    depth = 1 + max(nodes[i].depth for i in ops)
                    nodes.append(_SearchNode(t, depth, kind, ops))
                    seen_tables.add(t)
                    if f.agrees_with(t):
                        if _reaches_all(nodes, len(sources), len(nodes) - 1) \
                                and (best is None or depth < best[0]):
                            best = (depth, copy_nodes(nodes))
                    elif not last:
                        enumerate_gates(remaining - 1, sig)
                    nodes.pop()
                    seen_tables.discard(t)

        enumerate_gates(budget, None)
        if best is not None:
            found = best[1]
            gate_indices = list(range(len(sources), len(found)))
            return _network_to_netlist(f, found, len(found) - 1, gate_indices)
    return None


def _reaches_all(nodes: list[_SearchNode], n_sources: int, out_idx: int) -> bool:
    """Every gate node must feed the output, else a smaller network exists."""
    needed = set()
    stack = [out_idx]
    while stack:
        i = stack.pop()
        if i < n_sources or i in needed:
            continue
        needed.add(i)
        stack.extend(nodes[i].operands)
    return len(needed) == len(nodes) - n_sources


def _network_to_netlist(f: BoolFunction, nodes: list[_SearchNode],
                        out_idx: int, gate_indices: list[int],
                        ) -> tuple[Netlist, StructuralReport]:
    b = NetlistBuilder("minimal")
    net_of: dict[int, int] = {}
    for i in range(f.n):
        net_of[i] = b.input(f"x{i}")
    net_of[f.n] = b.const(0)
    net_of[f.n + 1] = b.const(1)
    for gi in gate_indices:
        nd = nodes[gi]
        assert nd.kind is not None
        ins = tuple(net_of[o] for o in nd.operands)
        net_of[gi] = b.gate(nd.kind, ins)
    b.bind_output("y", net_of[out_idx])
    netlist = b.build()
    return netlist, structural_report(netlist)


# ---------------------------------------------------------------------------
# Structural optimization hints.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizationHint:
    kind: str                 # double-negation | constant-input
    #                         # | duplicate-gate | fuse-nand
    gates: tuple[str, ...]    # instance names involved
    message: str


def _readers(netlist: Netlist) -> dict[int, list[int]]:
    readers: dict[int, list[int]] = {}
    for i, g in enumerate(netlist.gates):
        for n in g.inputs:
            readers.setdefault(n, []).append(i)
    return readers


def suggest_optimizations(netlist: Netlist) -> list[OptimizationHint]:
    """Detect local inefficiencies worth feeding back to the generator.

    Purely advisory: nothing is rewritten here. Each hint names the gate
    instances involved so feedback text can point at real locations.
    """
    compiled = compile_netlist(netlist)
    hints: list[OptimizationHint] = []
    readers = _readers(netlist)
    bound = {nid for _, nid in compiled.output_bits}
    by_output = {g.output: g for g in netlist.gates}

    for g in netlist.gates:
        if g.kind is not GateKind.NOT:
            continue
        inner = by_output.get(g.inputs[0])
        if inner is not None and inner.kind is GateKind.NOT:
            src = _net_name(netlist, inner.inputs[0])
            hints.append(OptimizationHint(
                "double-negation", (inner.name, g.name),
                f"{inner.name} and {g.name} form a double negation; "
                f"wire {src} directly"))

    for g in netlist.gates:
        if g.kind is GateKind.DFF:
            continue
        const_ins = [n for n in g.inputs if netlist.nets[n].is_const]
        if const_ins:
            hints.append(OptimizationHint(
                "constant-input", (g.name,),
                f"{g.name} ({g.kind.value}) has a constant input; "
                "it simplifies to a wire, a constant or an inverter"))

    seen: dict[tuple, str] = {}
    for g in netlist.gates:
        if g.kind is GateKind.DFF:
            continue
        ins = tuple(sorted(g.inputs)) if g.kind is not GateKind.NOT else g.inputs
        key = (g.kind, ins)
        if key in seen:
            hints.append(OptimizationHint(
                "duplicate-gate", (seen[key], g.name),
                f"{g.name} duplicates {seen[key]} "
                f"({g.kind.value} of the same inputs); share one output"))
        else:
            seen[key] = g.name

    for g in netlist.gates:
        if g.kind is not GateKind.AND:
            continue
        outs = readers.get(g.output, [])
        if g.output in bound or len(outs) != 1:
            continue
        follower = netlist.gates[outs[0]]
        if follower.kind is GateKind.NOT:
            hints.append(OptimizationHint(
                "fuse-nand", (g.name, follower.name),
                f"{g.name} feeds only the inverter {follower.name}; "
                "fuse them into a single nand"))
    return hints


def _net_name(netlist: Netlist, net_id: int) -> str:
    net = netlist.nets[net_id]
    return net.name if net.name else f"net#{net_id}"


def apply_hint(netlist: Netlist, hint: OptimizationHint) -> Netlist:
    """Perform one hinted rewrite; behavior-preserving by construction."""
    compile_netlist(netlist)
    gates = {g.name: g for g in netlist.gates}

    def rewire(mapping: dict[int, int], drop: set[str],
               extra: list[Gate] | None = None) -> Netlist:
        def m(n: int) -> int:
            while n in mapping:
                n = mapping[n]
            return n

        new_gates = []
        for g in netlist.gates:
            if g.name in drop:
                continue
            new_gates.append(Gate(g.kind, g.output,
                                  tuple(m(n) for n in g.inputs), g.name))
        for g in extra or []:
            new_gates.append(Gate(g.kind, g.output,
                                  tuple(m(n) for n in g.inputs), g.name))
        port_nets = {name: tuple(m(n) for n in nets)
                     for name, nets in netlist.port_nets.items()}
        live = set()
        for g in new_gates:
            live.add(g.output)
            live.update(g.inputs)
        for nets in port_nets.values():
            live.update(nets)
        nets = {nid: net for nid, net in netlist.nets.items() if nid in live}
        return Netlist(netlist.name, netlist.ports, nets,
                       tuple(new_gates), port_nets)

    if hint.kind == "double-negation":
        inner, outer = (gates[n] for n in hint.gates)
        return rewire({outer.output: inner.inputs[0]}, {outer.name})
    if hint.kind == "duplicate-gate":
        keep, dup = (gates[n] for n in hint.gates)
        return rewire({dup.output: keep.output}, {dup.name})
    if hint.kind == "fuse-nand":
        and_gate, not_gate = (gates[n] for n in hint.gates)
        fused = Gate(GateKind.NAND, not_gate.output, and_gate.inputs,
                     and_gate.name)
        return rewire({}, {and_gate.name, not_gate.name}, [fused])
    if hint.kind == "constant-input":
        g = gates[hint.gates[0]]
        consts = {n: netlist.nets[n].const_value for n in g.inputs
                  if netlist.nets[n].is_const}
        cn, cv = sorted(consts.items())[0]
        others = [n for n in g.inputs if n != cn]
        other = others[0] if others else cn
        table = {
            (GateKind.AND, 0): ("const", 0), (GateKind.AND, 1): ("wire", None),
            (GateKind.OR, 0): ("wire", None), (GateKind.OR, 1): ("const", 1),
            (GateKind.XOR, 0): ("wire", None), (GateKind.XOR, 1): ("not", None),
            (GateKind.NAND, 0): ("const", 1), (GateKind.NAND, 1): ("not", None),
            (GateKind.NOT, 0): ("const", 1), (GateKind.NOT, 1): ("const", 0),
        }
        action, val = table[(g.kind, cv)]
        if action == "wire":
            return rewire({g.output: other}, {g.name})
        if action == "const":
            const_net = _ensure_const(netlist, val)
            rewired = rewire({g.output: const_net.id}, {g.name})
            if const_net.id not in rewired.nets:
                nets = dict(rewired.nets)
                nets[const_net.id] = const_net
                rewired = Netlist(rewired.name, rewired.ports, nets,
                                  rewired.gates, rewired.port_nets)
            return rewired
        inv = Gate(GateKind.NOT, g.output, (other,), g.name)
        return rewire({}, {g.name}, [inv])
    raise ValueError(f"unknown hint kind {hint.kind}")


def _ensure_const(netlist: Netlist, value: int) -> Net:
    want = NetKind.CONST1 if value else NetKind.CONST0
    for net in netlist.nets.values():
        if net.kind is want:
            return net
    nid = max(netlist.nets) + 1 if netlist.nets else 0
    return Net(nid, want, f"1'b{value}")


def apply_hints(netlist: Netlist, max_passes: int = 16) -> Netlist:
    """Repeatedly apply the first available hint until none remain."""
    current = netlist
    for _ in range(max_passes):
        hints = suggest_optimizations(current)
        if not hints:
            break
        current = apply_hint(current, hints[0])
    return current
