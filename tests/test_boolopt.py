import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from conftest import build_half_adder
from hypothesis import given, settings, strategies as st

import gateforge
from gateforge import boolopt
from gateforge.boolopt import (
    SEARCH_MAX_GATES,
    TABLE_BASES,
    TABLE_MAX_INPUTS,
    BoolFunction,
    Cube,
    _basis_key,
    _decode_network,
    _encode_network,
    _exact3_table,
    _network_to_netlist,
    _operand_rule,
    _search,
    min_gate_network,
    prime_implicants,
    quine_mccluskey,
    suggest_optimizations,
)
from gateforge.netlist import (
    COMBINATIONAL_KINDS,
    GATE_EVAL,
    GateKind,
    NetlistBuilder,
    PortDir,
)
from gateforge.simulator import truth_table


def all_cubes(n):
    for spec in itertools.product("01-", repeat=n):
        value = mask = 0
        for i, ch in enumerate(spec):
            if ch != "-":
                mask |= 1 << i
                if ch == "1":
                    value |= 1 << i
        yield Cube(n, value, mask)


def implicants_of(f: BoolFunction):
    """Cubes that never cover an off-minterm (independent oracle)."""
    off = [m for m in range(1 << f.n)
           if not f.table >> m & 1 and not (f.dont_care >> m) & 1]
    return [c for c in all_cubes(f.n)
            if not any(c.covers(m) for m in off)]


def min_sop_terms(f: BoolFunction) -> int:
    """Exhaustive minimum-term cover search (independent oracle)."""
    ones = [m for m in range(1 << f.n) if f.table >> m & 1]
    if not ones:
        return 0
    cand = implicants_of(f)
    for size in range(1, len(ones) + 1):
        for combo in itertools.combinations(cand, size):
            if all(any(c.covers(m) for c in combo) for m in ones):
                return size
    raise AssertionError("no cover found")


def test_constant_one_is_a_single_dashes_cube():
    cover = quine_mccluskey(BoolFunction(2, 0b1111))
    assert [str(c) for c in cover.cubes] == ["--"]
    assert cover.literal_count == 0


def test_constant_zero_is_an_empty_cover():
    cover = quine_mccluskey(BoolFunction(2, 0b0000))
    assert cover.term_count == 0


def test_three_variable_example_has_three_terms():
    # ones on minterms 0,1,2,5,6,7; exhaustive search says 3 terms.
    f = BoolFunction(3, 0b11100111)
    assert min_sop_terms(f) == 3
    cover = quine_mccluskey(f)
    assert cover.term_count == 3
    assert cover.table(3) == f.table


def test_xor_cannot_merge():
    cover = quine_mccluskey(BoolFunction(2, 0b0110))
    assert cover.term_count == 2
    assert cover.literal_count == 4


def test_dont_cares_enlarge_cubes():
    # f = minterm 3, dc on 1: a single 1-literal cube suffices.
    f = BoolFunction(2, 0b1000, 0b0010)
    cover = quine_mccluskey(f)
    assert cover.term_count == 1
    assert cover.cubes[0].literal_count == 1


def test_every_cover_cube_is_a_prime_implicant():
    rng = random.Random(3)
    for _ in range(40):
        f = BoolFunction(3, rng.randrange(1 << 8))
        primes = {str(c) for c in prime_implicants(f)}
        for c in quine_mccluskey(f).cubes:
            assert str(c) in primes


def test_qm_exactness_on_all_three_variable_functions():
    for table in range(256):
        f = BoolFunction(3, table)
        cover = quine_mccluskey(f)
        assert cover.table(3) == f.table, f"wrong cover for {table:08b}"


def test_qm_minimality_on_sampled_four_variable_functions():
    rng = random.Random(4)
    for _ in range(30):
        f = BoolFunction(4, rng.randrange(1 << 16))
        assert quine_mccluskey(f).term_count == min_sop_terms(f)


def test_qm_deterministic_tie_break():
    f = BoolFunction(3, 0b11100111)
    a = [str(c) for c in quine_mccluskey(f).cubes]
    b = [str(c) for c in quine_mccluskey(f).cubes]
    assert a == b == sorted(a)


def test_qm_arity_limit():
    with pytest.raises(ValueError):
        quine_mccluskey(BoolFunction(13, 0))


def _seeded_qm_functions() -> list[BoolFunction]:
    """40 functions at each of 4..8 inputs with sparse don't-cares: sums of
    a few random cubes, and uniform tables for every other one at 4 and 5
    inputs, where branch and bound stays cheap."""
    rng = random.Random(29)
    found = []
    for n in range(4, 9):
        rows = 1 << n
        for i in range(40):
            dc = (rng.getrandbits(rows) & rng.getrandbits(rows)
                  & rng.getrandbits(rows))
            if n <= 5 and i % 2:
                table = rng.getrandbits(rows)
            else:
                cubes = []
                for _ in range(rng.randint(2, n)):
                    mask = 0
                    for var in rng.sample(range(n), rng.randint(max(1, n - 4), n)):
                        mask |= 1 << var
                    cubes.append(Cube(n, rng.getrandbits(n) & mask, mask))
                table = sum(1 << m for m in range(rows)
                            if any(c.covers(m) for c in cubes))
            found.append(BoolFunction(n, table & ~dc, dc))
    return found


def test_qm_output_is_pinned():
    """Every cube of every cover, in order, on 200 seeded functions of 4-8
    inputs, hashed: a faster minimizer must break ties the same way."""
    h = hashlib.sha256()
    for f in _seeded_qm_functions():
        cover = quine_mccluskey(f)
        assert cover.table(f.n) & f.care == f.table
        h.update(" ".join(str(c) for c in cover.cubes).encode() + b";")
    assert h.hexdigest() == ("00ec25c30d12e9a9907271c7f8b99373"
                             "8408fe520e61e8654da34d78dcf86528")


def maximal_implicants(f: BoolFunction) -> list[str]:
    """The implicants no other implicant contains, sorted (independent
    oracle for the prime implicants)."""
    cubes = implicants_of(f)
    return sorted(str(c) for c in cubes
                  if not any(d != c and d.mask & c.mask == d.mask
                             and c.value & d.mask == d.value for d in cubes))


def test_primes_are_the_maximal_implicants_on_three_inputs():
    # Every minterm off, on or don't-care: all 3**8 functions.
    for spec in itertools.product((0, 1, 2), repeat=8):
        table = sum(1 << m for m, s in enumerate(spec) if s == 1)
        dc = sum(1 << m for m, s in enumerate(spec) if s == 2)
        f = BoolFunction(3, table, dc)
        assert [str(c) for c in prime_implicants(f)] == \
            maximal_implicants(f), spec


def test_primes_are_the_maximal_implicants_on_four_inputs():
    rng = random.Random(8)
    for _ in range(30):
        dc = rng.getrandbits(16) & rng.getrandbits(16)
        f = BoolFunction(4, rng.getrandbits(16) & ~dc, dc)
        assert [str(c) for c in prime_implicants(f)] == maximal_implicants(f)


def test_primes_carry_their_cover_bits():
    for f in _seeded_qm_functions()[::10]:
        for cube, bits in boolopt._prime_covers(f):
            assert bits == cube.cover_bits()


def _wide_qm_functions() -> list[BoolFunction]:
    """One function at each of 9..12 inputs: three ones in four rows, less
    sparse don't-cares; thousands of primes at 12 inputs."""
    rng = random.Random(9)
    found = []
    for n in range(9, 13):
        rows = 1 << n
        dc = rng.getrandbits(rows) & rng.getrandbits(rows) & rng.getrandbits(rows)
        table = rng.getrandbits(rows) | rng.getrandbits(rows)
        found.append(BoolFunction(n, table & ~dc, dc))
    return found


def test_prime_implicants_are_pinned():
    """Every prime, in order, of the pinned QM functions and four of 9-12
    inputs, hashed; recorded from the cube-merging implementation."""
    h = hashlib.sha256()
    for f in _seeded_qm_functions() + _wide_qm_functions():
        h.update(" ".join(map(str, prime_implicants(f))).encode() + b";")
    assert h.hexdigest() == ("d50ac68afe3e5d30c0f2f12a297e5649"
                             "f766b76ea4c8db15f2be4189c769fbfc")


# -- minimal gate network -----------------------------------------------------

XOR2 = BoolFunction(2, 0b0110)


def test_xor_with_the_full_locked_set_is_one_gate():
    netlist, report = min_gate_network(XOR2, COMBINATIONAL_KINDS)
    assert report.gate_count == 1
    assert netlist.gates[0].kind is GateKind.XOR


def test_xor_without_xor_or_nand_regression():
    # Enumeration result recorded on first run: 4 gates, delay 3.
    netlist, report = min_gate_network(
        XOR2, {GateKind.AND, GateKind.OR, GateKind.NOT})
    assert (report.gate_count, report.delay) == (4, 3)
    assert truth_table(netlist).column_bits(0) == [0, 1, 1, 0]


def test_nand_from_and_and_not_takes_two_gates():
    f = BoolFunction(2, 0b0111)
    netlist, report = min_gate_network(f, {GateKind.AND, GateKind.NOT})
    assert report.gate_count == 2
    assert truth_table(netlist).column_bits(0) == [1, 1, 1, 0]


def test_projection_needs_no_gates():
    f = BoolFunction(2, 0b1010)  # f = x0
    netlist, report = min_gate_network(f, COMBINATIONAL_KINDS)
    assert report.gate_count == 0
    assert truth_table(netlist).column_bits(0) == [0, 1, 0, 1]


def test_constant_needs_no_gates():
    netlist, report = min_gate_network(BoolFunction(1, 0b11),
                                       COMBINATIONAL_KINDS)
    assert report.gate_count == 0


def test_unreachable_function_returns_none():
    # With only AND gates nothing non-monotone is reachable.
    assert min_gate_network(BoolFunction(1, 0b01), {GateKind.AND},
                            max_gates=3) is None


def test_inverter_via_nand_constant():
    # NOT x0 with only nand available: nand(x0, 1) in one gate.
    f = BoolFunction(1, 0b01)
    netlist, report = min_gate_network(f, {GateKind.NAND})
    assert report.gate_count == 1


def test_network_search_matches_simulator_on_random_functions():
    rng = random.Random(12)
    for _ in range(8):
        f = BoolFunction(2, rng.randrange(1, 15))
        found = min_gate_network(f, COMBINATIONAL_KINDS, max_gates=4)
        assert found is not None
        netlist, _ = found
        bits = truth_table(netlist).column_bits(0)
        table = sum(b << i for i, b in enumerate(bits))
        assert table == f.table


def _bfs_min_gate_counts(n: int, kinds, max_gates: int) -> dict[int, int]:
    """Independent oracle: the fewest gates over `kinds` that compute each
    fully specified n-input table, for every table reachable within
    max_gates. Breadth-first search over sets of reachable tables with its
    own gate operators, and no pruning beyond visited-state tracking."""
    rows = 1 << n
    mask = (1 << rows) - 1
    patterns = []
    for i in range(n):
        p = 0
        for r in range(rows):
            if (r >> i) & 1:
                p |= 1 << r
        patterns.append(p)
    sources = frozenset(patterns) | {0, mask}
    fewest = dict.fromkeys(sources, 0)
    frontier = {sources}
    seen = {sources}
    for depth in range(1, max_gates + 1):
        nxt = set()
        for state in frontier:
            tables = sorted(state)
            new_tables = set()
            for kind in kinds:
                if kind is GateKind.NOT:
                    for a in tables:
                        new_tables.add(~a & mask)
                else:
                    for i, a in enumerate(tables):
                        for b in tables[i:]:
                            if kind is GateKind.AND:
                                new_tables.add(a & b)
                            elif kind is GateKind.OR:
                                new_tables.add(a | b)
                            elif kind is GateKind.XOR:
                                new_tables.add(a ^ b)
                            elif kind is GateKind.NAND:
                                new_tables.add(~(a & b) & mask)
            for t in new_tables:
                fewest.setdefault(t, depth)
                if depth < max_gates:
                    new_state = state | {t}
                    if new_state not in seen:
                        seen.add(new_state)
                        nxt.add(new_state)
        frontier = nxt
    return fewest


ORACLE_BASES = (
    frozenset(COMBINATIONAL_KINDS),
    frozenset({GateKind.AND, GateKind.OR, GateKind.NOT}),
    frozenset({GateKind.NAND}),
)


def _assert_search_matches_bfs(n: int, gate_set, max_gates: int, found_of):
    fewest = _bfs_min_gate_counts(n, sorted(gate_set, key=lambda k: k.value),
                                  max_gates)
    for table in range(1 << (1 << n)):
        found = found_of(table)
        expected = fewest.get(table)
        if expected is None:
            assert found is None, (table, gate_set)
        else:
            assert found is not None, (table, gate_set)
            assert found[1].gate_count == expected, (table, gate_set)


def _searched(f: BoolFunction, gate_set, max_gates: int):
    """min_gate_network's answer from `_search` alone, never the table."""
    found = _searched_network(f, frozenset(gate_set), max_gates)
    return None if found is None else _network_to_netlist(f, found[1], found[0])


@functools.cache
def _searched_network(f: BoolFunction, gate_set: frozenset, max_gates: int):
    return _search(f, tuple(sorted(gate_set, key=lambda k: k.value)), max_gates)


# The two ways to an answer: the public function, which takes a fully
# specified function of up to three inputs over an oracle basis from the
# table, and the search alone. The pins and oracles below hold for both.
FINDERS = (min_gate_network, _searched)


@pytest.mark.parametrize("gate_set", ORACLE_BASES)
def test_search_matches_unpruned_bfs_oracle_on_all_two_var_functions(gate_set):
    for find in FINDERS:
        _assert_search_matches_bfs(
            2, gate_set, 5,
            lambda table: find(BoolFunction(2, table), gate_set, max_gates=5))


@functools.cache
def _three_var_networks(basis: int, find) -> tuple:
    """`find` at cap 3 for every 3-input table, over one basis."""
    return tuple(find(BoolFunction(3, table), ORACLE_BASES[basis], max_gates=3)
                 for table in range(256))


@pytest.mark.parametrize("basis", range(len(ORACLE_BASES)),
                         ids=("full", "and-or-not", "nand"))
def test_search_matches_unpruned_bfs_oracle_on_all_three_var_functions(basis):
    for find in FINDERS:
        _assert_search_matches_bfs(3, ORACLE_BASES[basis], 3,
                                   _three_var_networks(basis, find).__getitem__)


def test_search_output_is_pinned():
    """Every gate, operand and tie-break of the search, on all 3-input
    functions over each oracle basis at cap 3 plus seeded don't-care
    functions, hashed: a faster search must return the same networks."""
    for find in FINDERS:
        found = [net for basis in range(len(ORACLE_BASES))
                 for net in _three_var_networks(basis, find)]
        rng = random.Random(17)
        for i in range(32):
            dc = rng.getrandbits(8) & rng.getrandbits(8)
            f = BoolFunction(3, rng.getrandbits(8) & ~dc, dc)
            found.append(find(f, ORACLE_BASES[i % 3], max_gates=3))
        assert _search_digest(found) == ("671329c76fdd58439097927f45af0fec"
                                         "90f1079cfbc3b56e3d55598c83d8b48b"), find


def test_deeper_search_output_is_pinned():
    """As above, past cap 3: there the next-to-last gate can find two gates
    unread, and the prefixes are longer. All 3-input functions at cap 4
    over {and, or, not} and {nand}, seeded don't-care 3-input functions at
    cap 5 and 4-input ones at cap 4, over each oracle basis."""
    for find in FINDERS:
        found = [find(BoolFunction(3, table), ORACLE_BASES[basis], max_gates=4)
                 for basis in (1, 2) for table in range(256)]
        rng = random.Random(25)
        for n, count, cap in ((3, 24, 5), (4, 12, 4)):
            rows = 1 << n
            for i in range(count):
                dc = rng.getrandbits(rows) & rng.getrandbits(rows)
                f = BoolFunction(n, rng.getrandbits(rows) & ~dc, dc)
                found.append(find(f, ORACLE_BASES[i % 3], max_gates=cap))
        assert _search_digest(found) == ("18db9766a155bf66fcb5db1b0af44b09"
                                         "3503af0e2cc01ef550a5ce0581c124fd"), find


# -- the exact-synthesis table ------------------------------------------------

def test_every_table_entry_is_the_network_the_search_finds():
    """Each entry computes its key's function over its basis's kinds alone,
    and at cap 4 the search returns the same network, or None where the
    entry has more gates (or none fits within the table's cap)."""
    table = _exact3_table()
    assert set(table) == TABLE_BASES
    for basis, by_arity in table.items():
        kinds = frozenset(GateKind(k) for k in basis.split(","))
        assert _basis_key(tuple(kinds)) == basis
        assert [len(entries) for entries in by_arity] == [
            1 << (1 << n) for n in range(TABLE_MAX_INPUTS + 1)]
        for n, entries in enumerate(by_arity):
            for bits, entry in enumerate(entries):
                f = BoolFunction(n, bits)
                searched = _searched_network(f, kinds, 4)
                if entry is None:
                    assert searched is None, (basis, n, bits)
                    continue
                found = _decode_network(entry)
                assert _encode_network(found) == entry
                assert {kind for kind, _ in found[1]} <= kinds
                netlist, _ = _network_to_netlist(f, found[1], found[0])
                column = truth_table(netlist).column_bits(0)
                assert sum(b << m for m, b in enumerate(column)) == bits
                assert searched == (found if len(found[1]) <= 4 else None), \
                    (basis, n, bits)


def _built_by_the_builder(f: BoolFunction, gates, out_idx: int):
    """The network `_network_to_netlist` builds, through NetlistBuilder."""
    b = NetlistBuilder("minimal")
    net_of = [b.input(f"x{i}") for i in range(f.n)]
    net_of += [b.const(0), b.const(1)]
    for kind, operands in gates:
        net_of.append(b.gate(kind, tuple(net_of[o] for o in operands)))
    b.bind("y", PortDir.OUT, net_of[out_idx])
    return b.build()


def test_networks_are_the_netlists_the_builder_makes():
    # Every table entry, and searched networks with don't-cares and four
    # inputs, whose outputs include an input and a constant.
    networks = [(BoolFunction(n, bits), _decode_network(entry))
                for by_arity in _exact3_table().values()
                for n, entries in enumerate(by_arity)
                for bits, entry in enumerate(entries) if entry is not None]
    for f in (BoolFunction(3, 0x96, 0x01), BoolFunction(4, 0x8000),
              BoolFunction(4, 0xFF00), BoolFunction(2, 0, 0b0110)):
        networks.append((f, _search(f, tuple(sorted(COMBINATIONAL_KINDS,
                                                    key=lambda k: k.value)), 4)))
    for f, (out, gates) in networks:
        netlist, report = _network_to_netlist(f, gates, out)
        built = _built_by_the_builder(f, gates, out)
        assert netlist == built and report == built.report, (f, out, gates)


def test_min_gate_network_builds_netlists_without_the_builder(monkeypatch):
    def refuse(self):
        raise AssertionError("min_gate_network must not go through NetlistBuilder")

    monkeypatch.setattr(NetlistBuilder, "build", refuse)
    # From the table, and from the search.
    assert min_gate_network(XOR2, COMBINATIONAL_KINDS)[1].gate_count == 1
    assert min_gate_network(BoolFunction(3, 0x80, 0x01),
                            COMBINATIONAL_KINDS)[1].gate_count == 2


def test_the_table_was_built_at_the_search_cap():
    with open(boolopt.TABLE_PATH, encoding="utf-8") as fh:
        assert json.load(fh)["cap"] == SEARCH_MAX_GATES


def test_only_queries_the_table_lacks_reach_the_search(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _search(*args)

    monkeypatch.setattr(boolopt, "_search", counted)
    aon = {GateKind.AND, GateKind.OR, GateKind.NOT}

    def searches(f, gate_set, max_gates=SEARCH_MAX_GATES):
        calls.clear()
        found = min_gate_network(f, gate_set, max_gates=max_gates)
        assert _search_digest([found]) == _search_digest(
            [_searched(f, gate_set, max_gates)])
        return len(calls)

    # Covered: arities 0 to 3, each basis, an entry with more gates than
    # the cap and a null entry (parity needs more than 7 gates), both None.
    assert searches(BoolFunction(0, 1), {GateKind.NAND}) == 0
    assert searches(XOR2, COMBINATIONAL_KINDS) == 0
    assert searches(BoolFunction(3, 0xE8), aon) == 0
    assert searches(XOR2, aon, max_gates=3) == 0
    assert min_gate_network(XOR2, aon, max_gates=3) is None
    assert searches(BoolFunction(3, 0x96), aon, max_gates=4) == 0
    assert min_gate_network(BoolFunction(3, 0x96), aon) is None
    # Not covered: a don't-care, a fourth input, another basis.
    assert searches(BoolFunction(3, 0x96, 0x01), aon, max_gates=4) == 1
    assert searches(BoolFunction(4, 0x8000), COMBINATIONAL_KINDS) == 1
    assert searches(BoolFunction(2, 0b0111), {GateKind.AND, GateKind.NOT}) == 1


def test_importing_the_cli_loads_no_table():
    src = os.path.dirname(os.path.dirname(gateforge.__file__))
    probe = ("import sys, gateforge.cli; b = sys.modules.get('gateforge.boolopt'); "
             "print(0 if b is None else b._exact3_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def _search_digest(found) -> str:
    """sha256 over every gate, operand, output and report of `found`."""
    h = hashlib.sha256()
    for result in found:
        if result is None:
            h.update(b"None;")
            continue
        netlist, report = result
        record = [(g.kind.value, g.inputs, g.output) for g in netlist.gates]
        record.append((report.gate_count, report.delay))
        h.update(repr(record).encode() + b";")
    return h.hexdigest()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMBINATIONAL_KINDS, key=lambda k: k.value)),
       st.integers(1, 4), st.data())
def test_operand_rule_accepts_exactly_the_matching_operands(kind, n, data):
    """The rule accepts table tj exactly when evaluate(tj, tu) matches the
    target on the care rows; a kind it rules out has no such tj. Every tj
    up to 3 inputs, a sample (with the rule's own picks) at 4."""
    mask = (1 << (1 << n)) - 1
    tu, target, care = (data.draw(st.integers(0, mask)) for _ in range(3))
    evaluate = GATE_EVAL[kind]
    rule = _operand_rule(evaluate, tu, target, care, mask)
    if n <= 3:
        operands = range(mask + 1)
    else:
        operands = data.draw(st.lists(st.integers(0, mask), min_size=64))
        if rule is not None:
            fixed, want = rule
            operands += [want, want | ~fixed & mask]
    for tj in operands:
        matches = (evaluate(tj, tu, mask) ^ target) & care == 0
        assert (rule is not None and tj & rule[0] == rule[1]) == matches, tj


def test_dont_care_relaxes_the_search():
    # Target XOR but with half the rows unconstrained: a single projection
    # suffices, so no gates are needed.
    f = BoolFunction(2, 0b0110, dont_care=0b1100)
    netlist, report = min_gate_network(f, COMBINATIONAL_KINDS)
    assert report.gate_count == 0


def test_search_arity_and_bound_limits():
    with pytest.raises(ValueError):
        min_gate_network(BoolFunction(5, 0), COMBINATIONAL_KINDS)
    with pytest.raises(ValueError):
        min_gate_network(XOR2, COMBINATIONAL_KINDS, max_gates=8)
    # x0 needs no gate, but no network fits within a negative bound.
    with pytest.raises(ValueError):
        min_gate_network(BoolFunction(1, 0b10), COMBINATIONAL_KINDS, max_gates=-1)
    with pytest.raises(ValueError):
        min_gate_network(XOR2, {GateKind.DFF})


# -- optimization hints -------------------------------------------------------

def test_double_negation_hint():
    b = NetlistBuilder("dn")
    a = b.input("a")
    y = b.output("y")
    w = b.gate(GateKind.NOT, (a,))
    b.gate(GateKind.NOT, (w,), y)
    n = b.build()
    hints = suggest_optimizations(n)
    assert [h.kind for h in hints] == ["double-negation"]
    assert hints[0].gates == ("g1", "g2")
    assert "wire a directly" in hints[0].message


def test_duplicate_gate_hint_is_input_order_insensitive():
    b = NetlistBuilder("dup")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    z = b.output("z")
    b.gate(GateKind.AND, (a, c), y)
    b.gate(GateKind.AND, (c, a), z)
    n = b.build()
    hints = suggest_optimizations(n)
    assert [h.kind for h in hints] == ["duplicate-gate"]
    assert hints[0].gates == ("g1", "g2")
    assert "g2 duplicates g1" in hints[0].message


def test_fuse_nand_hint():
    b = NetlistBuilder("fuse")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    w = b.gate(GateKind.AND, (a, c))
    b.gate(GateKind.NOT, (w,), y)
    n = b.build()
    hints = suggest_optimizations(n)
    assert [h.kind for h in hints] == ["fuse-nand"]
    assert hints[0].gates == ("g1", "g2")
    assert "fuse them into a single nand" in hints[0].message


def test_and_with_fanout_is_not_fused():
    b = NetlistBuilder("fanout")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    z = b.output("z")
    w = b.gate(GateKind.AND, (a, c), z)  # also visible at a port
    b.gate(GateKind.NOT, (w,), y)
    n = b.build()
    assert not any(h.kind == "fuse-nand" for h in suggest_optimizations(n))


@pytest.mark.parametrize("kind,const", [
    (GateKind.AND, 0), (GateKind.AND, 1),
    (GateKind.OR, 0), (GateKind.OR, 1),
    (GateKind.XOR, 0), (GateKind.XOR, 1),
    (GateKind.NAND, 0), (GateKind.NAND, 1),
])
def test_constant_input_rewrites_preserve_behavior(kind, const):
    b = NetlistBuilder("c")
    a = b.input("a")
    y = b.output("y")
    k = b.const(const)
    b.gate(kind, (a, k), y)
    n = b.build()
    hints = [h for h in suggest_optimizations(n) if h.kind == "constant-input"]
    assert [h.gates for h in hints] == [("g1",)]
    assert f"({kind.value}) has a constant input" in hints[0].message


def test_hints_on_clean_design_are_empty():
    assert suggest_optimizations(build_half_adder()) == []
