"""The compiled netlist form and the packed testbench give the same answers
as the per-vector, per-call checks they replace."""

import random
from dataclasses import replace

import pytest
from conftest import build_full_adder, build_half_adder, recursive_eval

from gateforge import netlist as nl
from gateforge.backends import ScriptRule, ScriptedBackend
from gateforge.boolopt import OptimizationHint, apply_hint, suggest_optimizations
from gateforge.netlist import (
    CombinationalLoopError,
    Gate,
    GateKind,
    InvalidNetlistError,
    Net,
    NetKind,
    Netlist,
    NetlistBuilder,
    critical_path_delay,
    gate_count,
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
    sampled_signature,
    sequential_trace,
    simulate_combinational,
    simulate_sequential,
    truth_table,
)
from gateforge.taskpack import builtin_task_packs, simulate_task

COMBINATIONAL = [t for t in builtin_task_packs()
                 if t.circuit_class == "combinational"]
BINARY = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NAND)


def reference_outcome(netlist: Netlist, vectors) -> SimOutcome:
    """Score vector by vector with the recursive evaluator: a vector with a
    non-None expectation is one check, its first mismatch in key order is
    the failure detail."""
    passed = failed = 0
    first = None
    for i, v in enumerate(vectors):
        checks = sorted((k, e) for k, e in v.expected.items() if e is not None)
        if not checks:
            continue
        actual = recursive_eval(netlist, v.inputs)
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
    that check nothing."""
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
        out.append(TestVector(v.inputs, expected))
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
    vectors = task.testbench.vectors
    loose = loosened(vectors, rng)
    for netlist in variants:
        assert simulate_task(task, netlist) == \
            reference_outcome(netlist, vectors)
        assert simulate_combinational(netlist, loose) == \
            reference_outcome(netlist, loose)
    assert any(simulate_task(task, n).failed for n in variants[1:])
    assert task.testbench.packed is task.testbench.packed


def test_no_vectors_and_no_checks_score_nothing():
    ha = build_half_adder()
    assert simulate_combinational(ha, []) == SimOutcome(0, 0)
    unchecked = [TestVector({"a": 1, "b": 0}, {"s": None})]
    assert simulate_combinational(ha, unchecked) == SimOutcome(0, 0)


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
            simulate_combinational(ha, [good, bad, bad])
        assert str(exc.value) == message


def dangling_netlist() -> Netlist:
    nets = {0: Net(0, NetKind.PRIMARY_INPUT, "a"),
            1: Net(1, NetKind.PRIMARY_OUTPUT, "y"),
            2: Net(2, NetKind.INTERNAL, "w")}
    gates = (Gate(GateKind.AND, 1, (0, 2), "g1"),)
    return Netlist("top", (nl.Port("a", nl.PortDir.IN),
                           nl.Port("y", nl.PortDir.OUT)),
                   nets, gates, {"a": (0,), "y": (1,)})


def looped_netlist() -> Netlist:
    nets = {0: Net(0, NetKind.PRIMARY_INPUT, "a"),
            1: Net(1, NetKind.PRIMARY_OUTPUT, "y"),
            2: Net(2, NetKind.INTERNAL, "w")}
    gates = (Gate(GateKind.AND, 2, (0, 1), "g1"),
             Gate(GateKind.OR, 1, (2, 0), "g2"))
    return Netlist("top", (nl.Port("a", nl.PortDir.IN),
                           nl.Port("y", nl.PortDir.OUT)),
                   nets, gates, {"a": (0,), "y": (1,)})


ENTRY_POINTS = {
    "gate_count": gate_count,
    "critical_path_delay": critical_path_delay,
    "structural_report": structural_report,
    "levelize": levelize,
    "simulate_combinational": lambda n: simulate_combinational(n, []),
    "simulate_sequential": lambda n: simulate_sequential(n, [], 1, clock="a"),
    "sequential_trace": lambda n: sequential_trace(n, [], clock="a"),
    "truth_table": truth_table,
    "sampled_signature": sampled_signature,
    "functional_signature": functional_signature,
    "render": render,
    "suggest_optimizations": suggest_optimizations,
    "apply_hint": lambda n: apply_hint(
        n, OptimizationHint("duplicate-gate", ("g1", "g2"), "")),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_directly_built_invalid_netlists_raise_from_every_entry_point(name):
    analyse = ENTRY_POINTS[name]
    dangling = dangling_netlist()
    for _ in range(2):  # a failed compile is not cached
        with pytest.raises(InvalidNetlistError) as exc:
            analyse(dangling)
        assert not isinstance(exc.value, CombinationalLoopError)
        assert {v.kind for v in exc.value.violations} == {"dangling-net"}
    looped = looped_netlist()
    for _ in range(2):
        with pytest.raises(CombinationalLoopError) as exc:
            analyse(looped)
        assert exc.value.cycle == ["g1", "g2"]


def test_replace_yields_a_netlist_that_is_compiled_afresh():
    fa = build_full_adder()
    assert gate_count(fa) == 5
    broken = replace(fa, gates=fa.gates + (Gate(GateKind.NOT, 99, (0,)),))
    with pytest.raises(InvalidNetlistError):
        gate_count(broken)


def test_builder_check_compiles_and_unchecked_build_defers(monkeypatch):
    calls = []
    real = nl.validate
    monkeypatch.setattr(nl, "validate", lambda n: calls.append(n) or real(n))
    b = NetlistBuilder("top")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    built = b.build()
    unchecked = b.build(check=False)
    assert calls == [built]
    structural_report(built)
    render(built)
    assert calls == [built]
    truth_table(unchecked)
    truth_table(unchecked)
    assert len(calls) == 2 and calls[1] is unchecked


def test_one_run_task_candidate_validates_each_netlist_once(monkeypatch):
    task = next(t for t in COMBINATIONAL if t.id == "full_adder")
    wrong = task.reference_netlist.replace("xor", "or", 1)
    backend = ScriptedBackend([ScriptRule(replies=[
        f"```\n{wrong}```", f"```\n{task.reference_netlist}```"])])
    seen: list[Netlist] = []
    real = nl.validate

    def counting(netlist):
        seen.append(netlist)
        return real(netlist)

    monkeypatch.setattr(nl, "validate", counting)
    run = run_task(task, RunConfig(samples_per_task=1), backend, None)
    assert run.status == "verified" and run.revisions_used == 1
    # The wrong candidate, the right one and the final re-parse.
    assert len(seen) == 3
    assert len({id(n) for n in seen}) == len(seen)


def test_a_compiled_netlist_pickles_with_its_compiled_form():
    import pickle

    fa = build_full_adder()
    copy = pickle.loads(pickle.dumps(fa))
    assert copy == fa and copy._compiled is not None
    assert truth_table(copy) == truth_table(fa)
