"""The compiled netlist form and the packed testbench give the same answers
as the per-vector, per-call checks they replace."""

import random
from dataclasses import replace

import pytest
from conftest import build_full_adder, build_half_adder, recursive_eval, unpack

from gateforge import netlist as nl
from gateforge import orchestrator
from gateforge.backends import ScriptRule, ScriptedBackend
from gateforge.boolopt import suggest_optimizations
from gateforge.netlist import (
    CombinationalLoopError,
    Gate,
    GateKind,
    InvalidNetlistError,
    Net,
    Netlist,
    NetlistBuilder,
    levelize,
    structural_report,
)
from gateforge.orchestrator import RunConfig, run_task
from gateforge.parser import parse, render
from gateforge.simulator import (
    FailureDetail,
    SimOutcome,
    SimulationError,
    TestVector,
    functional_signature,
    pack_vectors,
    sampled_signature,
    sequential_trace,
    simulate_combinational,
    simulate_sequential,
    truth_table,
)
from gateforge.taskpack import builtin_task_packs, simulate_task

COMBINATIONAL = [t for t in builtin_task_packs()
                 if t.circuit_class == "combinational"]
SEQUENTIAL = [t for t in builtin_task_packs()
              if t.circuit_class == "sequential"]
BINARY = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NAND)


def cycle_runs(netlist: Netlist, vectors, cycles: int):
    """(index, vector, outputs) per vector, in cycle order, from a
    cycle-by-cycle run: a vector's inputs hold until set again, registers
    start at 0 and take their data input after each cycle."""
    by_cycle = {v.cycle: (i, v) for i, v in enumerate(vectors)}
    held = {name: 0 for name, _ in netlist.input_bits}
    state = {g.output: 0 for g in netlist.registers}
    for t in range(cycles):
        i, v = by_cycle.get(t, (None, None))
        if v is not None:
            held.update(v.inputs)
        outputs = recursive_eval(netlist, held, state)
        if v is not None:
            yield i, v, outputs


def reference_outcome(netlist: Netlist, vectors,
                      cycles: int | None = None) -> SimOutcome:
    """Score vector by vector with the recursive evaluator, in cycle order
    when `cycles` is given: a vector with a non-None expectation is one
    check, and the first failing vector's first mismatch in key order is
    the failure detail."""
    runs = ((i, v, recursive_eval(netlist, v.inputs))
            for i, v in enumerate(vectors)) if cycles is None \
        else cycle_runs(netlist, vectors, cycles)
    passed = failed = 0
    first = None
    for i, v, actual in runs:
        checks = sorted((k, e) for k, e in v.expected.items() if e is not None)
        if not checks:
            continue
        bad = [(k, e) for k, e in checks if actual[k] != e & 1]
        if bad:
            failed += 1
            if first is None:
                k, e = bad[0]
                first = FailureDetail(i, k, e & 1, actual[k])
        else:
            passed += 1
    return SimOutcome(passed, failed, first)


def with_gate_kind(netlist: Netlist, index: int, kind: GateKind) -> Netlist:
    gates = list(netlist.gates)
    gates[index] = replace(gates[index], kind=kind)
    return replace(netlist, gates=tuple(gates))


def loosened(vectors, rng: random.Random) -> list[TestVector]:
    """Turn some expected bits into don't-cares and some vectors into ones
    that check nothing, and shuffle the vectors."""
    out = []
    for v in vectors:
        roll = rng.random()
        if roll < 0.1:
            expected = {}
        elif roll < 0.2:
            expected = dict.fromkeys(v.expected)
        else:
            expected = {k: None if rng.random() < 0.3 else e
                        for k, e in v.expected.items()}
        out.append(TestVector(v.inputs, expected, v.cycle))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("task", COMBINATIONAL, ids=lambda t: t.id)
def test_packed_scoring_matches_the_per_vector_reference(task):
    rng = random.Random(task.id)
    reference = parse(task.reference_netlist).netlist
    binary = [i for i, g in enumerate(reference.gates) if g.kind in BINARY]
    variants = [reference] + [
        with_gate_kind(reference, i,
                       rng.choice([k for k in BINARY
                                   if k is not reference.gates[i].kind]))
        for i in rng.sample(binary, min(4, len(binary)))]
    vectors = unpack(task.testbench.packed)
    loose = loosened(vectors, rng)
    for netlist in variants:
        assert simulate_task(task, netlist) == \
            reference_outcome(netlist, vectors)
        assert simulate_combinational(netlist, pack_vectors(loose)) == \
            reference_outcome(netlist, loose)
    assert any(simulate_task(task, n).failed for n in variants[1:])
    assert task.testbench.packed is task.testbench.packed


@pytest.mark.parametrize("task", SEQUENTIAL, ids=lambda t: t.id)
def test_sequential_scoring_matches_the_per_cycle_reference(task):
    """Every single gate-kind swap of the reference, on the pack and on
    shuffled, loosened copies of its vectors: the first failure is the one
    at the earliest failing cycle, whatever the vector order."""
    rng = random.Random(task.id)
    reference = parse(task.reference_netlist).netlist
    variants = [reference] + [
        with_gate_kind(reference, i, kind)
        for i, g in enumerate(reference.gates) if g.kind in BINARY
        for kind in BINARY if kind is not g.kind]
    vectors, cycles = unpack(task.testbench.packed), task.testbench.cycles
    outcomes = []
    for netlist in variants:
        outcomes.append(simulate_task(task, netlist))
        assert outcomes[-1] == reference_outcome(netlist, vectors, cycles)
        for _ in range(19):
            loose = loosened(vectors, rng)
            outcomes.append(
                simulate_sequential(netlist, pack_vectors(loose), cycles))
            assert outcomes[-1] == reference_outcome(netlist, loose, cycles)
    assert outcomes[0] == SimOutcome(len(vectors), 0)
    assert len(outcomes) == 20 * len(variants)
    assert sum(o.first_failure is not None for o in outcomes) \
        >= len(outcomes) // 2


def test_no_vectors_and_no_checks_score_nothing():
    ha = build_half_adder()
    assert simulate_combinational(ha, pack_vectors([])) == SimOutcome(0, 0)
    unchecked = [TestVector({"a": 1, "b": 0}, {"s": None})]
    assert simulate_combinational(ha, pack_vectors(unchecked)) == \
        SimOutcome(0, 0)


def test_key_errors_name_the_first_offending_vector():
    ha = build_half_adder()
    good = TestVector({"a": 0, "b": 0}, {"s": 0})
    cases = [
        (TestVector({"a": 0}, {"s": 0}),
         "vector 1: unassigned input bit(s): b"),
        (TestVector({"a": 0, "b": 0, "z": 1}, {}),
         "vector 1: 'z' is not a declared input port bit"),
        (TestVector({"a": 0, "b": 0}, {"q": 1}),
         "vector 1: 'q' is not a declared output port bit"),
    ]
    for bad, message in cases:
        with pytest.raises(SimulationError) as exc:
            simulate_combinational(ha, pack_vectors([good, bad, bad]))
        assert str(exc.value) == message


def dangling_args() -> tuple:
    """Netlist constructor arguments: g1 reads a net nothing drives."""
    nets = {0: Net(0, "a"),
            1: Net(1, "y"),
            2: Net(2, "w")}
    gates = (Gate(GateKind.AND, 1, (0, 2), "g1"),)
    return ("top", (nl.Port("a", nl.PortDir.IN), nl.Port("y", nl.PortDir.OUT)),
            nets, gates, {"a": (0,), "y": (1,)})


def looped_args() -> tuple:
    """Netlist constructor arguments: g1 and g2 read each other."""
    nets = {0: Net(0, "a"),
            1: Net(1, "y"),
            2: Net(2, "w")}
    gates = (Gate(GateKind.AND, 2, (0, 1), "g1"),
             Gate(GateKind.OR, 1, (2, 0), "g2"))
    return ("top", (nl.Port("a", nl.PortDir.IN), nl.Port("y", nl.PortDir.OUT)),
            nets, gates, {"a": (0,), "y": (1,)})


def faulty_builder(dangling: bool) -> NetlistBuilder:
    """A builder holding the same fault as dangling_args or looped_args."""
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    w = b.wire("w")
    if dangling:
        b.gate(GateKind.AND, (a, w), y, name="g1")
    else:
        b.gate(GateKind.AND, (a, y), w, name="g1")
        b.gate(GateKind.OR, (w, a), y, name="g2")
    return b


def toggle_netlist() -> Netlist:
    b = NetlistBuilder("toggle")
    clk = b.input("clk")
    q = b.output("q")
    b.gate(GateKind.DFF, (b.gate(GateKind.NOT, (q,)), clk), q)
    return b.build()


def record_checks(monkeypatch) -> list[tuple[str, object]]:
    """Record every validate call with its netlist, and every
    _levelization call with its gates."""
    calls: list[tuple[str, object]] = []
    for fn in ("validate", "_levelization"):
        real = getattr(nl, fn)
        monkeypatch.setattr(
            nl, fn, lambda n, fn=fn, real=real: calls.append((fn, n)) or real(n))
    return calls


ENTRY_POINTS = {
    "structural_report": structural_report,
    "levelize": levelize,
    "simulate_combinational":
        lambda n: simulate_combinational(n, pack_vectors([])),
    "simulate_sequential":
        lambda n: simulate_sequential(n, pack_vectors([]), 4),
    "sequential_trace": lambda n: sequential_trace(n, [{}] * 4),
    "truth_table": truth_table,
    "sampled_signature": sampled_signature,
    "functional_signature": functional_signature,
    "render": render,
    "suggest_optimizations": suggest_optimizations,
}
SEQUENTIAL_ENTRY_POINTS = {"simulate_sequential", "sequential_trace"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_directly_built_invalid_netlists_raise_from_every_entry_point(
        name, monkeypatch):
    """An invalid graph raises where it is constructed, so no entry point
    sees one; a built netlist reaches every entry point validated, and none
    validates or levelizes it again."""
    analyse = ENTRY_POINTS[name]
    for args in (dangling_args(), looped_args()):
        with pytest.raises(InvalidNetlistError):
            analyse(Netlist(*args))
    netlist = toggle_netlist() if name in SEQUENTIAL_ENTRY_POINTS \
        else build_full_adder()
    calls = record_checks(monkeypatch)
    analyse(netlist)
    analyse(netlist)
    assert [fn for fn, n in calls
            if n is netlist or n is netlist.gates] == []


def test_invalid_graphs_raise_at_construction():
    fa = build_full_adder()
    extra = Gate(GateKind.NOT, 99, (0,))  # drives a net the table lacks
    for construct, where in (
            (lambda: Netlist(*dangling_args()), "net w"),
            (lambda: faulty_builder(dangling=True).build(), "net w"),
            (lambda: replace(fa, gates=fa.gates + (extra,)), "gate#5")):
        with pytest.raises(InvalidNetlistError) as exc:
            construct()
        assert not isinstance(exc.value, CombinationalLoopError)
        assert [(v.kind, v.where) for v in exc.value.violations] == \
            [("dangling-net", where)]
    for construct in (lambda: Netlist(*looped_args()),
                      lambda: faulty_builder(dangling=False).build()):
        with pytest.raises(CombinationalLoopError) as exc:
            construct()
        assert exc.value.cycle == ["g1", "g2"]
        assert [(v.kind, v.message) for v in exc.value.violations] == \
            [("combinational-loop", "cycle through g1 -> g2")]


def test_replace_yields_a_netlist_that_is_compiled_afresh():
    fa = build_full_adder()
    reversed_fa = replace(fa, gates=fa.gates[::-1])
    assert reversed_fa.schedule != fa.schedule
    assert truth_table(reversed_fa) == truth_table(fa)


@pytest.mark.parametrize("reorder", [tuple, lambda gates: gates[::-1]],
                         ids=["drivers-first", "out-of-order"])
def test_a_valid_compile_levelizes_once(monkeypatch, reorder):
    fa = build_full_adder()
    calls = record_checks(monkeypatch)
    fresh = replace(fa, gates=reorder(fa.gates))
    position = {g.output: i for i, g in enumerate(fresh.gates)}
    drivers_first = all(position.get(n, -1) < i
                        for i, g in enumerate(fresh.gates) for n in g.inputs)
    assert drivers_first == (reorder is tuple)
    assert fresh.report.gate_count == 5 and fresh.report.delay == 3
    assert truth_table(fresh) == truth_table(fa)
    assert calls == [("validate", fresh), ("_levelization", fresh.gates)]


def test_validate_leaves_the_compiled_form(monkeypatch):
    fa = build_full_adder()
    compiled = (fa.schedule, fa.ops, fa.registers, fa.input_bits,
                fa.output_bits, fa.const_nets, fa.report, fa.warnings)
    assert fa.report == nl.StructuralReport(5, 3, 0) and fa.warnings == ()
    assert fa.input_bits == (("a", 0), ("b", 1), ("cin", 2))
    assert [name for name, _ in fa.output_bits] == ["sum", "cout"]
    assert nl.validate(fa) == []
    assert (fa.schedule, fa.ops, fa.registers, fa.input_bits,
            fa.output_bits, fa.const_nets, fa.report, fa.warnings) == compiled
    # The compiled fields are neither compared nor shown.
    assert "schedule" not in repr(fa) and "ops" not in repr(fa)


def test_one_run_task_candidate_validates_each_netlist_once(monkeypatch):
    task = next(t for t in COMBINATIONAL if t.id == "full_adder")
    wrong = task.reference_netlist.replace("xor", "or", 1)
    backend = ScriptedBackend([ScriptRule(replies=[
        f"```\n{wrong}```", f"```\n{task.reference_netlist}```"])])
    seen: list[Netlist] = []
    simulated: list[Netlist] = []
    real_validate, real_simulate = nl.validate, orchestrator.simulate_task

    def counting(netlist):
        seen.append(netlist)
        return real_validate(netlist)

    def counting_simulate(task, netlist):
        simulated.append(netlist)
        return real_simulate(task, netlist)

    monkeypatch.setattr(nl, "validate", counting)
    monkeypatch.setattr(orchestrator, "simulate_task", counting_simulate)
    run = run_task(task, RunConfig(samples_per_task=1), backend, None)
    assert run.status == "verified" and run.revisions_used == 1
    # The wrong candidate and the right one; the accepted candidate is
    # reported as it was verified, not parsed and simulated again.
    assert len(seen) == 2
    assert len({id(n) for n in seen}) == len(seen)
    assert [id(n) for n in simulated] == [id(n) for n in seen]


def test_a_compiled_netlist_pickles_with_its_compiled_form(monkeypatch):
    import pickle

    fa = build_full_adder()
    data = pickle.dumps(fa)
    calls = record_checks(monkeypatch)
    copy = pickle.loads(data)
    assert calls == []
    assert copy == fa and copy.schedule == fa.schedule
    assert copy.report == fa.report
    assert truth_table(copy) == truth_table(fa)
