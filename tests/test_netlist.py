import random

import pytest
from conftest import build_half_adder, random_netlist

from gateforge.netlist import (
    CombinationalLoopError,
    Gate,
    GateKind,
    InvalidNetlistError,
    Net,
    Netlist,
    NetlistBuilder,
    Port,
    PortDir,
    StructuralViolation,
    errors_of,
    levelize,
    structural_report,
    validate,
)


def build_not_chain(length: int) -> Netlist:
    b = NetlistBuilder("chain")
    net = b.input("a")
    y = b.output("y")
    for i in range(length):
        out = y if i == length - 1 else None
        net = b.gate(GateKind.NOT, (net,), out)
    return b.build()


def test_minimal_not_gate_is_valid():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    n = b.build()
    assert validate(n) == []


def test_two_drivers_on_one_net():
    b = NetlistBuilder("top")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    b.gate(GateKind.NOT, (c,), y)
    with pytest.raises(InvalidNetlistError) as exc:
        b.build()
    assert {v.kind for v in exc.value.violations} == {"multi-driver"}


def test_self_loop_is_a_combinational_loop():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.XOR, (a, y), y)
    with pytest.raises(CombinationalLoopError) as exc:
        b.build()
    assert "combinational-loop" in {v.kind for v in exc.value.violations}
    assert exc.value.cycle  # witness present


def test_two_gate_cycle_detected_by_dfs():
    # g1 feeds g2 feeds g1: the loop witness must name both gates.
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    w1 = b.wire()
    w2 = b.wire()
    b.gate(GateKind.AND, (a, w2), w1, name="g1")
    b.gate(GateKind.OR, (w1, a), w2, name="g2")
    b.gate(GateKind.NOT, (w1,), y, name="g3")
    with pytest.raises(CombinationalLoopError) as exc:
        b.build()
    loops = [v for v in exc.value.violations if v.kind == "combinational-loop"]
    assert len(loops) == 1
    assert "g1" in loops[0].message and "g2" in loops[0].message


def test_loop_witness_keeps_gate_names_whole():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    w = b.wire()
    b.gate(GateKind.AND, (a, y), w, name="p -> q")
    b.gate(GateKind.OR, (w, a), y, name="r")
    with pytest.raises(CombinationalLoopError) as exc:
        b.build()
    assert exc.value.cycle == ["p -> q", "r"]


def reference_comb_cycle(gates: tuple[Gate, ...]) -> list[str] | None:
    """Gate labels of the first cycle an iterative depth-first search over
    the combinational gates meets, starting from each gate in order; the
    loop check validate used before it took its witness from Kahn's
    algorithm."""
    comb = [(i, g) for i, g in enumerate(gates)
            if g.kind is not GateKind.DFF]
    by_output: dict[int, int] = {}
    for i, g in comb:
        by_output.setdefault(g.output, i)
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
            deps = [by_output[n] for n in gates[idx].inputs
                    if n in by_output]
            advanced = False
            while edge < len(deps):
                nxt = deps[edge]
                edge += 1
                c = color.get(nxt, 0)
                if c == 1:
                    return [gates[j].name or f"gate#{j}"
                            for j in path[path.index(nxt):]]
                if c == 0:
                    work.append((idx, edge))
                    work.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[idx] = 2
                path.pop()
    return None


def random_gate_graph(rng: random.Random) -> tuple:
    """Netlist constructor arguments for a random graph over a known net
    table: gates read any net, so loops, self-loops, multi-driver nets,
    wrong arities and registers all occur."""
    n_in = rng.randint(1, 3)
    n_gates = rng.randint(1, 9)
    n_nets = n_in + n_gates + rng.randint(0, 2)
    nets = {i: Net(i, f"n{i}") for i in range(n_nets)}
    gates = []
    for k in range(n_gates):
        kind = rng.choice(list(GateKind))
        arity = kind.arity if rng.random() < 0.9 else rng.randint(0, 3)
        output = n_in + k if rng.random() < 0.8 else rng.randrange(n_nets)
        name = f"g{k}" if rng.random() < 0.9 else ""
        gates.append(Gate(kind, output,
                          tuple(rng.randrange(n_nets) for _ in range(arity)),
                          name))
    ports = tuple(Port(f"i{i}", PortDir.IN) for i in range(n_in)) \
        + (Port("y", PortDir.OUT),)
    port_nets = {f"i{i}": (i,) for i in range(n_in)}
    port_nets["y"] = (rng.randrange(n_nets),)
    return "rand", ports, nets, tuple(gates), port_nets


def test_loop_witness_matches_depth_first_reference():
    loops = 0
    for seed in range(3000):
        args = random_gate_graph(random.Random(seed))
        witness = reference_comb_cycle(args[3])
        try:
            violations, cycle = list(Netlist(*args).warnings), None
            severity = "warning"
        except InvalidNetlistError as exc:
            violations, cycle = exc.violations, getattr(exc, "cycle", None)
            severity = "error"
        rest = [v for v in violations if v.kind != "combinational-loop"]
        loop = [] if witness is None else [StructuralViolation(
            "combinational-loop", "error", "netlist",
            "cycle through " + " -> ".join(witness))]
        assert violations == rest + loop, seed
        assert {v.severity for v in violations} <= {severity}, seed
        assert cycle == witness, seed
        loops += witness is not None
    assert 500 < loops < 2500


def test_dff_breaks_the_cycle():
    # Feedback through a register is sequential, not a combinational loop.
    b = NetlistBuilder("top")
    clk = b.input("clk")
    q = b.output("q")
    d = b.gate(GateKind.NOT, (q,))
    b.gate(GateKind.DFF, (d, clk), q)
    n = b.build()
    assert n.warnings == () and len(n.registers) == 1


def test_arity_violation():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NAND, (a,), y)  # nand needs two inputs
    with pytest.raises(InvalidNetlistError) as exc:
        b.build()
    assert {v.kind for v in exc.value.violations} == {"arity"}


def test_dangling_net():
    b = NetlistBuilder("top")
    b.input("a")
    y = b.output("y")
    w = b.wire()
    b.gate(GateKind.NOT, (w,), y)
    with pytest.raises(InvalidNetlistError) as exc:
        b.build()
    assert "dangling-net" in {v.kind for v in exc.value.violations}


def test_floating_output_is_a_warning_and_still_counts():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    b.gate(GateKind.AND, (a, a))  # output never read
    n = b.build()
    violations = validate(n)
    assert errors_of(violations) == [] and tuple(violations) == n.warnings
    assert any(v.kind == "floating-output" and v.severity == "warning"
               for v in violations)
    assert n.report.gate_count == 2


def test_gate_count_half_adder():
    assert build_half_adder().report.gate_count == 2


def test_gate_count_empty_passthrough():
    b = NetlistBuilder("wirepass")
    a = b.input("a")
    b.bind("y", PortDir.OUT, a)
    n = b.build()
    assert n.report.gate_count == 0
    assert n.report.delay == 0


def test_eight_gate_two_level_design():
    # Two levels of four gates each: count 8, delay 2.
    b = NetlistBuilder("case8")
    ins = [b.input(f"i{k}") for k in range(8)]
    level1 = [b.gate(GateKind.AND, (ins[2 * k], ins[2 * k + 1]))
              for k in range(4)]
    outs = [b.gate(GateKind.OR, (level1[k], level1[(k + 1) % 4]))
            for k in range(4)]
    for k, net in enumerate(outs):
        b.bind(f"o{k}", PortDir.OUT, net)
    n = b.build()
    assert n.report.gate_count == 8
    assert n.report.delay == 2


def test_delay_not_chain():
    assert build_not_chain(3).report.delay == 3


def test_delay_half_adder():
    assert build_half_adder().report.delay == 1


def test_delay_ignores_registers_and_counts_register_boundaries():
    # in -> NOT -> DFF -> NOT -> out: both combinational segments have
    # length 1, the register contributes nothing.
    b = NetlistBuilder("top")
    a = b.input("a")
    clk = b.input("clk")
    y = b.output("y")
    d = b.gate(GateKind.NOT, (a,))
    q = b.gate(GateKind.DFF, (d, clk))
    b.gate(GateKind.NOT, (q,), y)
    n = b.build()
    assert n.report.delay == 1
    report = structural_report(n)
    assert report.gate_count == 3
    assert report.register_count == 1


def test_floating_gate_off_any_path_adds_no_delay():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    w = b.gate(GateKind.AND, (a, a))
    b.gate(GateKind.NOT, (w,))  # 2-gate floating chain, longer than the path
    n = b.build()
    assert n.report.delay == 1


def test_levelize_chain_order():
    n = build_not_chain(2)
    order = levelize(n)
    assert [g.name for g in order] == ["g1", "g2"]


def test_levelize_excludes_registers():
    b = NetlistBuilder("top")
    clk = b.input("clk")
    q = b.output("q")
    d = b.gate(GateKind.NOT, (q,))
    b.gate(GateKind.DFF, (d, clk), q)
    n = b.build()
    assert [g.kind for g in levelize(n)] == [GateKind.NOT]


def _assert_linear_extension(netlist: Netlist) -> None:
    order = levelize(netlist)
    position = {g.output: i for i, g in enumerate(order)}
    for i, g in enumerate(order):
        for net in g.inputs:
            if net in position:
                assert position[net] < i, "consumer scheduled before driver"


def test_levelize_diamond_is_a_linear_extension():
    b = NetlistBuilder("diamond")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    top = b.gate(GateKind.AND, (a, c))
    left = b.gate(GateKind.NOT, (top,))
    right = b.gate(GateKind.XOR, (top, a))
    b.gate(GateKind.OR, (left, right), y)
    _assert_linear_extension(b.build())


def test_levelize_random_dags_respect_dependencies():
    rng = random.Random(1234)
    for _ in range(25):
        n = random_netlist(rng, n_inputs=4, n_gates=50)
        _assert_linear_extension(n)


def test_delay_never_exceeds_gate_count():
    rng = random.Random(99)
    for _ in range(50):
        n = random_netlist(rng, rng.randint(1, 5), rng.randint(1, 30))
        assert n.report.delay <= n.report.gate_count


def test_analyses_invariant_under_net_renaming():
    from dataclasses import replace

    rng = random.Random(8)
    n = random_netlist(rng, 3, 12)
    renamed_nets = {nid: replace(net, name=f"zz{nid}")
                    for nid, net in n.nets.items()}
    m = Netlist(n.name, n.ports, renamed_nets, n.gates, n.port_nets)
    assert m.report.gate_count == n.report.gate_count
    assert m.report.delay == n.report.delay


def test_analyses_invariant_under_gate_reordering():
    rng = random.Random(7)
    n = random_netlist(rng, 3, 12)
    shuffled = list(n.gates)
    rng.shuffle(shuffled)
    m = Netlist(n.name, n.ports, n.nets, tuple(shuffled), n.port_nets)
    assert m.report.gate_count == n.report.gate_count
    assert m.report.delay == n.report.delay


def test_validate_is_pure_and_idempotent():
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.XOR, (a, y), y)
    raised = []
    for _ in range(2):
        with pytest.raises(CombinationalLoopError) as exc:
            b.build()
        raised.append((exc.value.violations, exc.value.cycle))
    assert raised[0] == raised[1]
    n = build_half_adder()
    schedule, report = n.schedule, n.report
    assert validate(n) == validate(n) == list(n.warnings)
    assert (n.schedule, n.report) == (schedule, report)
