"""Boolean optimization oracle: two-level minimization, exact network
search at desk scale, and structural optimization hints.

This module is the independent source of truth the review loop leans on:
quine_mccluskey gives a minimum-term sum-of-products cover, and
min_gate_network exhaustively enumerates gate networks over a chosen subset
of the locked primitives, so its answers are minimal by construction. The
enumeration skips only networks that a smaller or earlier one beats, and
per-row rules pick its output gates: it never tries one that misses.

Quine-McCluskey finds its prime implicants on packed truth tables. Bit r
of I[D] marks the cube with dashes at the variable set D, fixed elsewhere
as in row r, lying inside the ones and don't-cares. With i the lowest
variable of D and X_i its input column, I[0] = table | dont_care and
I[D] = P & (P >> 2**i) & ~X_i for P = I[D & (D - 1)]: one AND merges
every pair of cubes across variable i. The primes are the cubes no I with
one more dash holds (prime_implicants).

The enumeration's answers never change, so those for every fully specified
function of up to three inputs over the three oracle bases (all five
combinational kinds, {and, or, not} and {nand}) are built once by
`tools/exact3_table.py` and checked in as `exact3.json`; min_gate_network
looks those up and searches only the rest (docs/exact_synthesis.md).
"""

from __future__ import annotations

import functools
import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from .netlist import (
    COMBINATIONAL_KINDS,
    GATE_EVAL,
    Gate,
    GateKind,
    Net,
    Netlist,
    Port,
    PortDir,
    StructuralReport,
    structural_report,
)
from .parser import GATE_KEYWORDS
from .simulator import exhaustive_columns

QM_MAX_INPUTS = 12
SEARCH_MAX_INPUTS = 4
SEARCH_MAX_GATES = 7
# The exact-synthesis table: every fully specified function of up to
# TABLE_MAX_INPUTS inputs over each basis here, keyed as `_basis_key` names
# it. `tools/exact3_table.py` writes TABLE_PATH.
TABLE_MAX_INPUTS = 3
TABLE_BASES = frozenset({"and,nand,not,or,xor", "and,not,or", "nand"})
TABLE_PATH = os.path.join(os.path.dirname(__file__), "exact3.json")


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

    def cover_bits(self) -> int:
        """The minterms this cube covers, as packed truth-table bits: the
        AND of its literals' input columns."""
        bits = (1 << (1 << self.n)) - 1
        for i, column in enumerate(exhaustive_columns(self.n)):
            if self.mask >> i & 1:
                bits &= column if self.value >> i & 1 else ~column
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

    def table(self, n: int) -> int:
        bits = 0
        for c in self.cubes:
            bits |= c.cover_bits()
        return bits & ((1 << (1 << n)) - 1)


def prime_implicants(f: BoolFunction) -> list[Cube]:
    """All prime implicants of f, sorted by their strings.

    One bit-parallel pass over packed truth tables. For a dash set D (a
    bitmask over the variables), bit r of I[D] is set when the cube with
    dashes at D and the other variables fixed as in row r, whose D bits
    are 0, lies inside the ones and don't-cares of f. With i the lowest
    variable of D and X_i its `exhaustive_columns` column,

        I[0] = table | dont_care
        I[D] = P & (P >> 2**i) & ~X_i,  where P = I[D & (D - 1)].

    A cube of I[D] is prime when no I[D | 1 << i], i not in D, holds it
    widened by variable i: its primes are the bits of
    I[D] & ~(I[D | 1 << i] | I[D | 1 << i] << 2**i) over every such i.
    """
    return [c for c, _ in _prime_covers(f)]


def _prime_covers(f: BoolFunction) -> list[tuple[Cube, int]]:
    """The primes of `prime_implicants`, each with the minterms it covers
    as packed truth-table bits."""
    n = f.n
    columns = exhaustive_columns(n)
    inside = [0] * (1 << n)
    inside[0] = f.table | f.dont_care
    # The dash sets whose I is nonzero, fewest dashes first. Each is found
    # from the set without its lowest variable, and a superset of a set
    # whose I is empty has an empty I too. The list grows while it is walked.
    live = [0] if inside[0] else []
    for dashes in live:
        p = inside[dashes]
        for i in range((dashes & -dashes).bit_length() - 1 if dashes else n):
            if wider := p & (p >> (1 << i)) & ~columns[i]:
                inside[dashes | 1 << i] = wider
                live.append(dashes | 1 << i)
    # Most dashes first, so that covered[D], the rows of I[D] whose cubes
    # one more dash widens, is complete when D is reached.
    covered = [0] * (1 << n)
    fixed_all = (1 << n) - 1
    found = []
    for dashes in reversed(live):
        cubes = inside[dashes]
        primes = cubes & ~covered[dashes]
        block = 1  # the cube's rows at row 0: every subset of the dashes
        rest = dashes
        while rest:
            low = rest & -rest
            step = 1 << (low.bit_length() - 1)  # 2**i for dash variable i
            covered[dashes ^ low] |= cubes | cubes << step
            block |= block << step
            rest ^= low
        fixed = fixed_all & ~dashes
        while primes:
            low = primes & -primes
            row = low.bit_length() - 1
            found.append((Cube(n, row, fixed), block << row))
            primes ^= low
    found.sort(key=lambda pair: str(pair[0]))
    return found


def _essential_first_cover(f: BoolFunction,
                           covers: list[tuple[Cube, int]]) -> list[Cube]:
    """Exact minimum-cardinality cover of the ones of f by the primes of
    `covers`, each given with its cover bits.

    The essential primes, each the only holder of some one, are found in one
    pass: `twice` marks the minterms two or more primes cover. Taking an
    essential prime never changes the holders of a one it does not cover,
    so these are the primes that taking them one at a time would find.
    Branch and bound covers the rest. It branches on the one with the
    fewest holders, the lowest on a tie, and of two covers keeps the
    smaller, then the least by sorted cube strings."""
    if not f.table:
        return []
    once = twice = 0
    for _, bits in covers:
        twice |= once & bits
        once |= bits
    sole = f.table & ~twice
    chosen, remaining = [], f.table
    for c, bits in covers:
        if bits & sole:
            chosen.append(c)
            remaining &= ~bits
    if not remaining:
        return sorted(chosen, key=str)

    # Branch and bound over the residue.
    candidates = [(c, bits) for c, bits in covers if bits & remaining]
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
        holders: list[tuple[Cube, int]] | None = None
        m = uncovered
        while m:
            mt = (m & -m).bit_length() - 1
            h = [pair for pair in candidates if pair[1] >> mt & 1]
            if holders is None or len(h) < len(holders):
                holders = h
                if len(h) <= 1:
                    break
            m &= m - 1
        if not holders:
            return
        for c, bits in holders:
            recurse(uncovered & ~bits, picked + [c])

    recurse(remaining, [])
    if best is None:
        raise AssertionError("prime implicants failed to cover the function")
    return sorted(chosen + best, key=str)


def quine_mccluskey(f: BoolFunction) -> MinimalCover:
    """Minimum-term sum-of-products cover of a single-output function."""
    if f.n > QM_MAX_INPUTS:
        raise ValueError(f"arity {f.n} exceeds the limit of {QM_MAX_INPUTS}")
    return MinimalCover(tuple(_essential_first_cover(f, _prime_covers(f))))


# ---------------------------------------------------------------------------
# Exhaustive minimal gate network search.
# ---------------------------------------------------------------------------


def min_gate_network(f: BoolFunction, gate_set: frozenset[GateKind] | set[GateKind],
                     max_gates: int = SEARCH_MAX_GATES,
                     ) -> tuple[Netlist, StructuralReport] | None:
    """Smallest network over `gate_set` realizing f, ties broken by delay.

    Minimal by construction; returns None when no network within max_gates
    matches f on its care set. Inputs, constants 0/1 and the function's
    don't-cares are all honored. Deterministic regardless of set iteration
    order.

    A fully specified function of at most TABLE_MAX_INPUTS inputs over one
    of the TABLE_BASES is looked up in the checked-in table, which holds the
    network `_search` finds at SEARCH_MAX_GATES. Iterative deepening returns
    the first network at the least budget that has one, so that is the
    network it finds at every cap it fits in. Any other query runs
    `_search`. See docs/exact_synthesis.md.
    """
    if f.n > SEARCH_MAX_INPUTS:
        raise ValueError(f"arity {f.n} exceeds the limit of {SEARCH_MAX_INPUTS}")
    if not 0 <= max_gates <= SEARCH_MAX_GATES:
        raise ValueError(f"max_gates {max_gates} is outside 0..{SEARCH_MAX_GATES}")
    kinds = tuple(sorted(set(gate_set), key=lambda k: k.value))
    if not kinds or any(k not in COMBINATIONAL_KINDS for k in kinds):
        raise ValueError("gate_set must be a non-empty subset of the "
                         "combinational locked primitives")
    basis = _basis_key(kinds)
    if f.dont_care == 0 and f.n <= TABLE_MAX_INPUTS and basis in TABLE_BASES:
        entry = _exact3_table()[basis][f.n][f.table]
        # An entry is its output node and then one gate per space.
        found = None if entry is None or entry.count(" ") > max_gates \
            else _decode_network(entry)
    else:
        found = _search(f, kinds, max_gates)
    if found is None:
        return None
    out, gates = found
    return _network_to_netlist(f, gates, out)


def _search(f: BoolFunction, kinds: tuple[GateKind, ...], max_gates: int,
            ) -> tuple[int, list[tuple[GateKind, tuple[int, ...]]]] | None:
    """The smallest network over `kinds` (sorted by value) realizing f, as
    (output node, gates), ties broken by delay; None when none fits within
    max_gates. Operands and the output index the sources x0.., 0, 1 and
    then the gates.

    Exhaustive iterative-deepening enumeration. Three prunings drop only
    networks that a smaller or earlier one beats: every node computes a
    distinct table, independent adjacent gates appear in canonical (kind,
    operands) order, and every gate is read by a later gate or is the
    output. So the output gate reads the next-to-last gate and any older
    unread node. For each such gate, `_operand_rule` fixes rows of the
    next-to-last table, and one mask test finds the gates that match f.
    They are tested in canonical order, keeping the least delay, first on a
    tie: the networks that trying every output gate returns.
    """
    rows = 1 << f.n
    mask = (1 << rows) - 1
    target, care = f.table, f.care
    # Sources: the inputs x0..x{n-1}, then constants 0 and 1.
    sources = [*exhaustive_columns(f.n), 0, mask]
    for idx, t in enumerate(sources):
        if (t ^ target) & care == 0:
            return idx, []

    n_sources = len(sources)
    candidates = {m: _candidates(kinds, m)
                  for m in range(n_sources, n_sources + max_gates)}
    # Iterative deepening: the first budget with any realization is minimal;
    # among its networks keep the smallest delay (ties: first in canonical
    # order). A new gate's table must differ from every node's (a minimal
    # network never computes a function twice), and independent adjacent
    # gates must appear in canonical order (every DAG has such a topological
    # order). The nodes are parallel lists, pushed and popped; `rules` holds
    # each kind's rule (by rank) with the node as the other operand.
    tables = list(sources)
    depths = [0] * n_sources
    gates: list[tuple[GateKind, tuple[int, ...]]] = []
    seen = set(sources)
    evaluators = [GATE_EVAL[kind] for kind in kinds]
    rules = [[_operand_rule(e, t, target, care, mask) for e in evaluators]
             for t in sources]
    best: tuple[int, list] | None = None

    def extend(remaining: int, prev_sig: tuple, unread: int) -> None:
        nonlocal best
        m = len(tables)
        if remaining == 1:  # budget 1: the first gate over the sources
            for _, evaluate, kind, ops, a, b, _ in candidates[m][0]:
                if (evaluate(tables[a], tables[b], mask) ^ target) & care == 0:
                    best = (1, [(kind, ops)])
                    break
            return
        if remaining == 2:
            # The output gate will read the next gate (table t) and every
            # older unread node. For each such gate, in canonical order, the
            # rows of t it fixes, by the older node left unread (0: none).
            ends: dict[int, list[tuple]] = {0: []}
            for (rank, _), evaluate, kind, ops, a, _, _ in candidates[m + 1][1]:
                j = a if a < m else 0  # a NOT reads t alone; source 0 stands in
                rule = rules[j][rank]
                if rule is not None:
                    ends[0].append((kind, ops, evaluate, tables[j], depths[j], *rule))
                    if unread >> a & 1:
                        ends.setdefault(1 << a, []).append(ends[0][-1])
        # Canonical order: a gate that does not read node m-1 sorts after the
        # gate before it. Candidates are sorted by signature.
        cands, lasts = candidates[m]
        walk = (lasts[:bisect_right(lasts, prev_sig, key=itemgetter(0))]
                + cands[bisect_right(cands, prev_sig, key=itemgetter(0)):])
        for sig, evaluate, kind, ops, a, b, op_mask in walk:
            t = evaluate(tables[a], tables[b], mask)
            # A gate that already realizes f ends a smaller network, which
            # an earlier budget has ruled out.
            if t in seen or (t ^ target) & care == 0:
                continue
            now_unread = unread & ~op_mask | 1 << m
            # A later gate lowers the unread count by at most one (it reads
            # two and is one), and at the end only the output is unread.
            if now_unread.bit_count() > remaining:
                continue
            if remaining > 2:
                tables.append(t)
                depths.append(1 + max(depths[a], depths[b]))
                gates.append((kind, ops))
                seen.add(t)
                rules.append([_operand_rule(e, t, target, care, mask) for e in evaluators])
                extend(remaining - 1, sig, now_unread)
                tables.pop()
                depths.pop()
                gates.pop()
                seen.discard(t)
                rules.pop()
                continue
            # Only an output gate whose rule t meets can match f.
            for end_kind, end_ops, end_eval, other, other_depth, fixed, want in \
                    ends.get(now_unread ^ 1 << m, ()):
                if t & fixed != want or (out := end_eval(t, other, mask)) == t \
                        or out in seen:
                    continue
                end_depth = 1 + max(1 + max(depths[a], depths[b]), other_depth)
                if best is None or end_depth < best[0]:
                    best = (end_depth, [*gates, (kind, ops), (end_kind, end_ops)])

    try:
        for budget in range(1, max_gates + 1):
            extend(budget, (), 0)  # () sorts before every signature
            if best is not None:
                return n_sources + budget - 1, best[1]
        return None
    finally:
        # `extend` refers to itself, a cycle that would hold the search
        # state until the next full garbage collection.
        del extend


@functools.cache
def _candidates(kinds: tuple[GateKind, ...], m: int) -> tuple[tuple, tuple]:
    """The gates over the first m nodes in canonical order, and those that
    read node m-1: (signature, evaluator, kind, operands, first and last
    operand, operand bit mask). Bounded: 31 kind sets, node counts 2..12."""
    cands = []
    for rank, kind in enumerate(kinds):
        operand_sets = ([(i,) for i in range(m)] if kind is GateKind.NOT
                        else combinations(range(m), 2))
        cands += [((rank, ops), GATE_EVAL[kind], kind, ops, ops[0], ops[-1],
                   (1 << ops[0]) | (1 << ops[-1])) for ops in operand_sets]
    return tuple(cands), tuple(c for c in cands if c[5] == m - 1)


def _operand_rule(evaluate, other, target, care, mask) -> tuple[int, int] | None:
    """(fixed, want) such that `evaluate(u, other, mask)` matches target on
    care exactly when u & fixed == want; None when no u does. Gates act row
    by row, so each care row of u is free, forced or impossible. Binary
    kinds are symmetric, so u may stand for either operand."""
    lo = evaluate(0, other, mask) ^ target
    hi = evaluate(mask, other, mask) ^ target
    fixed = (lo ^ hi) & care
    return None if lo & hi & care else (fixed, fixed & lo)


def _basis_key(kinds: tuple[GateKind, ...]) -> str:
    """A gate set's key in the table: its kinds' values, sorted, joined by
    commas."""
    return ",".join(sorted(k.value for k in kinds))


def _encode_network(found: tuple[int, list[tuple[GateKind, tuple[int, ...]]]],
                    ) -> str:
    """A `_search` result as a table entry: the output node, then one
    `kind:operand,...` per gate, separated by spaces."""
    out, gates = found
    return " ".join([str(out), *(f"{kind.value}:{','.join(map(str, ops))}"
                                 for kind, ops in gates)])


def _decode_network(entry: str) -> tuple[int, list[tuple[GateKind, tuple[int, ...]]]]:
    """The `_search` result a table entry encodes."""
    out, *gates = entry.split()
    return int(out), [(GATE_KEYWORDS[kind], tuple(map(int, ops.split(","))))
                      for kind, _, ops in (gate.partition(":") for gate in gates)]


@functools.cache
def _exact3_table() -> dict[str, list[list[str | None]]]:
    """The table at TABLE_PATH, loaded on the first query it covers: per
    basis key, per arity 0..TABLE_MAX_INPUTS, the entry of every truth
    table, or None where no network fits within its cap."""
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["bases"]


def _network_to_netlist(f: BoolFunction, gates: list[tuple[GateKind, tuple[int, ...]]],
                        out_idx: int) -> tuple[Netlist, StructuralReport]:
    """Build the network of `gates`, whose operands index the sources x0..,
    0, 1 and then the gates; node `out_idx` drives the output.

    Node k is net k: the inputs x0.., the constants 1'b0 and 1'b1, then
    one unnamed net per gate g1... The tables are filled here, as `parse`
    fills its own, and constructing the `Netlist` validates them."""
    n = f.n
    nets = {i: Net(i, f"x{i}") for i in range(n)}
    nets[n] = Net(n, "1'b0", 0)
    nets[n + 1] = Net(n + 1, "1'b1", 1)
    net_gates = []
    for k, (kind, operands) in enumerate(gates, 1):
        nets[n + 1 + k] = Net(n + 1 + k)
        net_gates.append(Gate(kind, n + 1 + k, operands, f"g{k}"))
    ports = [Port(f"x{i}", PortDir.IN) for i in range(n)]
    port_nets = {f"x{i}": (i,) for i in range(n)}
    ports.append(Port("y", PortDir.OUT))
    port_nets["y"] = (out_idx,)
    netlist = Netlist("minimal", tuple(ports), nets, tuple(net_gates), port_nets)
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
    hints: list[OptimizationHint] = []
    readers = _readers(netlist)
    bound = {nid for _, nid in netlist.output_bits}
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
        const_ins = [n for n in g.inputs if netlist.nets[n].value is not None]
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
