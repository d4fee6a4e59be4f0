import random

import pytest
from conftest import (
    build_full_adder,
    build_half_adder,
    build_nand_full_adder,
    random_netlist,
    recursive_eval,
)
from hypothesis import given, settings, strategies as st

from gateforge.netlist import GateKind, NetlistBuilder, PortDir
from gateforge.parser import parse, render
from gateforge.simulator import (
    SimulationError,
    TestVector,
    exhaustive_columns,
    functional_signature,
    pack_columns,
    pack_vectors,
    sampled_signature,
    sequential_trace,
    simulate_combinational,
    simulate_sequential,
    truth_table,
)


def half_adder_vectors(break_one: bool = False):
    vecs = []
    for a in (0, 1):
        for b in (0, 1):
            expected = {"s": a ^ b, "c": a & b}
            vecs.append(TestVector({"a": a, "b": b}, expected))
    if break_one:
        v = vecs[1]
        vecs[1] = TestVector(v.inputs, {"s": 1 - v.expected["s"],
                                        "c": v.expected["c"]})
    return vecs


def test_half_adder_all_vectors_pass():
    out = simulate_combinational(build_half_adder(),
                                 pack_vectors(half_adder_vectors()))
    assert (out.passed, out.failed) == (4, 0)
    assert out.correctness == 1.0
    assert out.first_failure is None


def test_half_adder_one_bad_expectation():
    out = simulate_combinational(build_half_adder(),
                                 pack_vectors(half_adder_vectors(
                                     break_one=True)))
    assert (out.passed, out.failed) == (3, 1)
    assert out.correctness == 0.75
    ff = out.first_failure
    assert ff.vector_index == 1 and ff.port_bit == "s"


def test_xor_primitive_semantics():
    b = NetlistBuilder("x")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    b.gate(GateKind.XOR, (a, c), y)
    vecs = [TestVector({"a": x, "b": z}, {"y": x ^ z})
            for x in (0, 1) for z in (0, 1)]
    out = simulate_combinational(b.build(), pack_vectors(vecs))
    assert out.correctness == 1.0


def test_dont_care_never_fails():
    vecs = [TestVector({"a": a, "b": b}, {"s": None, "c": a & b})
            for a in (0, 1) for b in (0, 1)]
    out = simulate_combinational(build_half_adder(), pack_vectors(vecs))
    assert out.correctness == 1.0


def test_vector_with_no_expectations_is_not_a_check():
    vecs = half_adder_vectors() + [TestVector({"a": 0, "b": 0}, {})]
    out = simulate_combinational(build_half_adder(), pack_vectors(vecs))
    assert out.passed + out.failed == 4


def test_undeclared_port_rejected():
    with pytest.raises(SimulationError, match="not a declared"):
        simulate_combinational(build_half_adder(),
                               pack_vectors([TestVector(
                                   {"a": 0, "b": 0, "zz": 1}, {"s": 0})]))


def test_missing_input_rejected():
    with pytest.raises(SimulationError, match="unassigned"):
        simulate_combinational(build_half_adder(),
                               pack_vectors([TestVector({"a": 0}, {"s": 0})]))


def test_register_netlist_rejected_by_combinational_sim():
    b = NetlistBuilder("d")
    d = b.input("d")
    clk = b.input("clk")
    q = b.output("q")
    b.gate(GateKind.DFF, (d, clk), q)
    with pytest.raises(SimulationError, match="registers"):
        simulate_combinational(b.build(), pack_vectors(
            [TestVector({"d": 0, "clk": 0}, {"q": 0})]))


# -- sequential ---------------------------------------------------------------

def build_delay_line():
    b = NetlistBuilder("d1")
    d = b.input("d")
    clk = b.input("clk")
    q = b.output("q")
    b.gate(GateKind.DFF, (d, clk), q)
    return b.build()


def test_delay_line_register_semantics():
    vecs = [TestVector({"d": x}, {"q": e}, cycle=i)
            for i, (x, e) in enumerate([(1, 0), (0, 1), (1, 0)])]
    out = simulate_sequential(build_delay_line(), pack_vectors(vecs), cycles=3)
    assert out.correctness == 1.0


def build_counter2():
    b = NetlistBuilder("counter2")
    clk = b.input("clk")
    q0 = b.wire()
    q1 = b.wire()
    d0 = b.gate(GateKind.NOT, (q0,))
    d1 = b.gate(GateKind.XOR, (q1, q0))
    b.gate(GateKind.DFF, (d0, clk), q0)
    b.gate(GateKind.DFF, (d1, clk), q1)
    b.bind("q", PortDir.OUT, (q0, q1))
    return b.build()


def test_two_bit_counter_counts():
    # Hand simulation: q shows 00, 01, 10, 11 on the first four cycles.
    vecs = [TestVector({}, {"q[0]": t & 1, "q[1]": (t >> 1) & 1}, cycle=t)
            for t in range(4)]
    out = simulate_sequential(build_counter2(), pack_vectors(vecs), cycles=4)
    assert out.correctness == 1.0, out.first_failure


def build_seq101():
    b = NetlistBuilder("seq101")
    x = b.input("x")
    clk = b.input("clk")
    det = b.output("det")
    p1 = b.wire()
    p2 = b.wire()
    b.gate(GateKind.DFF, (x, clk), p1)
    b.gate(GateKind.DFF, (p1, clk), p2)
    np1 = b.gate(GateKind.NOT, (p1,))
    t = b.gate(GateKind.AND, (x, np1))
    b.gate(GateKind.AND, (t, p2), det)
    return b.build()


def test_sequence_detector_against_fsm_oracle():
    rng = random.Random(0xBEEF)
    stream = [rng.getrandbits(1) for _ in range(64)]
    p1 = p2 = 0
    vecs = []
    for t, x in enumerate(stream):
        det = 1 if (x, p1, p2) == (1, 0, 1) else 0
        vecs.append(TestVector({"x": x}, {"det": det}, cycle=t))
        p2, p1 = p1, x
    out = simulate_sequential(build_seq101(), pack_vectors(vecs), cycles=64)
    assert out.correctness == 1.0, out.first_failure


def test_inputs_hold_between_vectors():
    # Drive d=1 at cycle 0 only; it must still be 1 at cycle 1.
    vecs = [TestVector({"d": 1}, {}, cycle=0),
            TestVector({}, {"q": 1}, cycle=2)]
    out = simulate_sequential(build_delay_line(), pack_vectors(vecs), cycles=3)
    assert out.correctness == 1.0


def test_causality_outputs_ignore_future_inputs():
    # Two runs agreeing on cycles 0..2 but differing later must agree on
    # every output up to cycle 2.
    net = build_seq101()
    rng = random.Random(5)
    prefix = [rng.getrandbits(1) for _ in range(3)]
    for _ in range(10):
        suffix_a = [rng.getrandbits(1) for _ in range(5)]
        suffix_b = [rng.getrandbits(1) for _ in range(5)]
        tr_a = sequential_trace(net, [{"x": v} for v in prefix + suffix_a])
        tr_b = sequential_trace(net, [{"x": v} for v in prefix + suffix_b])
        assert tr_a["det"][:3] == tr_b["det"][:3]


@pytest.mark.parametrize("stimulus, message", [
    ([{"d": 0}, {"d": 1, "clk": 1}],
     "vector 1: clock 'clk' is driven by the harness, not by vectors"),
    ([{"d": 0}, {"d": 1, "e": 0}],
     "vector 1: 'e' is not a declared input port bit"),
    ([{}], "vector 0: unassigned input bit(s): d"),
    ([], "no vector at cycle 0 assigns input bit(s): d"),
])
def test_trace_refuses_stimulus_as_check_vectors_does(stimulus, message):
    with pytest.raises(SimulationError) as exc:
        sequential_trace(build_delay_line(), stimulus)
    assert str(exc.value) == message
    # simulate_sequential refuses the same cycles with the same words.
    vectors = [TestVector(a, {}, t) for t, a in enumerate(stimulus)]
    with pytest.raises(SimulationError) as exc:
        simulate_sequential(build_delay_line(), pack_vectors(vectors),
                            len(stimulus))
    assert str(exc.value) == message


def test_trace_inputs_hold_between_cycles():
    trace = sequential_trace(build_delay_line(), [{"d": 1}, {}, {"d": 0}, {}])
    assert trace == {"q": [0, 1, 1, 0]}


def test_clock_cannot_be_driven_by_vectors():
    with pytest.raises(SimulationError, match="clock"):
        simulate_sequential(build_delay_line(),
                            pack_vectors([TestVector({"d": 0, "clk": 1},
                                                     {"q": 0})]), 1)


def test_no_register_and_no_clock_designation_fails():
    with pytest.raises(SimulationError, match="clock"):
        simulate_sequential(build_half_adder(),
                            pack_vectors([TestVector({"a": 0, "b": 0},
                                                     {"s": 0})]), 1)


@pytest.mark.parametrize("clock, message", [
    ("ck", "clock 'ck' is not a declared input port"),
    ("c", "clock 'c' must be one bit wide"),
])
def test_a_designated_clock_must_be_a_one_bit_input(clock, message):
    netlist = parse("module t(input [1:0] c, input d, output q); "
                    "dff g1(q, d, c[0]); endmodule").netlist
    with pytest.raises(SimulationError) as exc:
        simulate_sequential(netlist, pack_vectors([TestVector({"d": 0},
                                                              {"q": 0})]),
                            1, clock=clock)
    assert str(exc.value) == message


def test_registers_clocked_by_different_nets_fail():
    b = NetlistBuilder("twoclock")
    d = b.input("d")
    c1 = b.input("c1")
    c2 = b.input("c2")
    q = b.output("q")
    w = b.gate(GateKind.DFF, (d, c1))
    b.gate(GateKind.DFF, (w, c2), q)
    with pytest.raises(SimulationError, match="clock"):
        simulate_sequential(b.build(),
                            pack_vectors([TestVector({"d": 0}, {"q": 0})]), 1)


def test_register_clocked_through_a_gate_fails():
    # `parse` refuses a gated clock; a built netlist can still hold one.
    b = NetlistBuilder("gated")
    d = b.input("d")
    clk = b.input("clk")
    q = b.output("q")
    b.gate(GateKind.DFF, (d, b.gate(GateKind.NOT, clk)), q)
    netlist = b.build()
    vectors = [TestVector({"d": 0}, {"q": 0})]
    with pytest.raises(SimulationError) as exc:
        simulate_sequential(netlist, pack_vectors(vectors), 1)
    assert str(exc.value) == ("register clock pin is not driven by a "
                              "primary input")
    with pytest.raises(SimulationError) as exc:
        simulate_sequential(netlist, pack_vectors(vectors), 1, clock="clk")
    assert str(exc.value) == "register g2 is not clocked by 'clk'"


# -- signatures ---------------------------------------------------------------

def test_not_gate_table():
    b = NetlistBuilder("n")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    sig = truth_table(b.build())
    assert sig.column_bits(0) == [1, 0]


@pytest.mark.parametrize("n", range(13))
def test_exhaustive_columns_are_the_packed_row_numbers(n):
    assert exhaustive_columns(n) == tuple(pack_columns(range(1 << n), n))


def reference_pack_columns(rows, width):
    """The transpose bit by bit: bit r of column i is bit i of row r."""
    columns = [0] * width
    for r, row in enumerate(rows):
        i = 0
        while row:
            if row & 1:
                columns[i] |= 1 << r
            row >>= 1
            i += 1
    return columns


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1100), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_pack_columns_is_the_bitwise_transpose(count, width, seed):
    rng = random.Random(seed)
    rows = [rng.getrandbits(width) for _ in range(count)]
    want = reference_pack_columns(rows, width)
    assert pack_columns(rows, width) == want
    assert pack_columns(tuple(rows), width) == want
    assert pack_columns((row for row in rows), width) == want


@pytest.mark.parametrize("rows, width", [([0, 8], 3), ([1], 0),
                                         ([5, 1 << 40], 40), ([1 << 8], 8)])
def test_pack_columns_refuses_a_row_wider_than_width(rows, width):
    with pytest.raises(IndexError):
        reference_pack_columns(rows, width)
    with pytest.raises(IndexError):
        pack_columns(iter(rows), width)


def test_half_adder_columns_are_xor_and_and():
    sig = truth_table(build_half_adder())
    assert sig.column_bits(0) == [0, 1, 1, 0]
    assert sig.column_bits(1) == [0, 0, 0, 1]


def test_structurally_different_full_adders_share_a_signature():
    a = truth_table(build_full_adder())
    b = truth_table(build_nand_full_adder())
    assert a.digest == b.digest
    assert a.columns == b.columns


def test_graph_isomorphic_netlists_equal_signature():
    rng = random.Random(11)
    for _ in range(10):
        n = random_netlist(rng, 3, 10)
        m = parse(render(n)).netlist
        assert truth_table(m).digest == truth_table(n).digest


def test_too_many_inputs_for_exhaustive_table():
    b = NetlistBuilder("wide")
    ins = [b.input(f"i{k}") for k in range(13)]
    acc = ins[0]
    for x in ins[1:]:
        acc = b.gate(GateKind.AND, (acc, x))
    b.bind("y", PortDir.OUT, acc)
    n = b.build()
    with pytest.raises(SimulationError, match="too many inputs"):
        truth_table(n)
    sig = sampled_signature(n)
    assert not sig.exact
    assert sig.digest == sampled_signature(n).digest
    assert functional_signature(n) == sig


def test_simulator_matches_recursive_oracle():
    rng = random.Random(777)
    for _ in range(30):
        n_inputs = rng.randint(1, 6)
        net = random_netlist(rng, n_inputs, rng.randint(1, 20))
        in_names = [name for name, _ in net.input_bits]
        out_names = [name for name, _ in net.output_bits]
        vecs = []
        expect = []
        for row in range(1 << n_inputs):
            assignment = {nm: (row >> i) & 1 for i, nm in enumerate(in_names)}
            expect.append(recursive_eval(net, assignment))
            vecs.append(TestVector(assignment, {}))
        sig = truth_table(net)
        for row, exp in enumerate(expect):
            got = dict(zip(out_names, ((c >> row) & 1 for c in sig.columns)))
            assert got == exp


def test_determinism_identical_runs():
    vecs = half_adder_vectors()
    n = build_half_adder()
    assert simulate_combinational(n, pack_vectors(vecs)) == \
        simulate_combinational(n, pack_vectors(vecs))
