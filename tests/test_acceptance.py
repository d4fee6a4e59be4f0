"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from conftest import build_half_adder, random_netlist, recursive_eval

from gateforge.backends import ScriptRule, ScriptedBackend
from gateforge.boolopt import BoolFunction, min_gate_network, quine_mccluskey
from gateforge.knowledge import KnowledgeStore, make_pattern_entry
from gateforge.metrics import (
    SampleStats,
    classify_tier,
    pass_at_k,
    sei_benchmark,
    sei_task,
)
from gateforge.netlist import COMBINATIONAL_KINDS, GateKind, NetlistBuilder
from gateforge.orchestrator import RunConfig, run_benchmark, run_task
from gateforge.parser import parse
from gateforge.simulator import truth_table
from gateforge.taskpack import builtin_task_packs, emit_report, simulate_task

TASKS = {t.id: t for t in builtin_task_packs()}


def criterion(number: int, description: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL [criterion {number:2d}] {description}")
                raise
            print(f"PASS [criterion {number:2d}] {description}")
        return wrapper
    return deco


def fenced(text: str) -> str:
    return f"```\n{text}```"


def reference_reply(task_id: str) -> str:
    return fenced(TASKS[task_id].reference_netlist)


# -- 1 ------------------------------------------------------------------------

@criterion(1, "efficiency index reproduces all six reference rows to 4 decimals")
def test_criterion_1_sei_rows():
    rows = [(96, 12, 0.0093), (13, 8, 0.0476), (8, 2, 0.1000),
            (96, 12, 0.0093), (101, 16, 0.0085), (34, 8, 0.0238)]
    for g, d, expected in rows:
        assert round(sei_task(g, d), 4) == expected, (g, d)


# -- 2 ------------------------------------------------------------------------

@criterion(2, "benchmark aggregation: floor, failed tasks, permutation invariance")
def test_criterion_2_benchmark_aggregation():
    got = sei_benchmark([0.1, None])
    assert abs(got - 1.0e-3) / 1.0e-3 <= 1e-12
    assert sei_benchmark([None, None, None]) == math.exp(math.log(1e-5))
    rng = random.Random(2)
    for _ in range(50):
        values = [None if rng.random() < 0.3 else rng.uniform(1e-6, 1.0)
                  for _ in range(rng.randint(1, 15))]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert sei_benchmark(shuffled) == pytest.approx(
            sei_benchmark(values), rel=1e-12)


# -- 3 ------------------------------------------------------------------------

def _mc_pass_at_k(rng: np.random.Generator, n: int, c: int, k: int,
                  draws: int) -> float:
    """Mechanical draws: choose k of n without replacement, success when
    any chosen index falls among the first c."""
    successes = 0
    chunk = 100_000
    for start in range(0, draws, chunk):
        size = min(chunk, draws - start)
        u = rng.random((size, n))
        chosen = np.argpartition(u, k - 1, axis=1)[:, :k]
        successes += int((chosen < c).any(axis=1).sum())
    return successes / draws


@criterion(3, "pass@k matches 1e6-draw Monte Carlo within 3 sigma; monotone grid")
def test_criterion_3_pass_at_k():
    rng = np.random.default_rng(20260808)
    n = 20
    draws = 1_000_000
    grid_c = (0, 1, 5, 10, 19, 20)
    grid_k = (1, 5, 10)
    for c, k in itertools.product(grid_c, grid_k):
        p = pass_at_k(SampleStats(n, c, k))
        estimate = _mc_pass_at_k(rng, n, c, k, draws)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(estimate - p) <= 3 * sigma, (c, k, p, estimate)
    for c, k in itertools.product(grid_c, grid_k):
        p = pass_at_k(SampleStats(n, c, k))
        if k < n:
            assert pass_at_k(SampleStats(n, c, k + 1)) >= p - 1e-12
        if c < n:
            assert pass_at_k(SampleStats(n, c + 1, k)) >= p - 1e-12


# -- 4 ------------------------------------------------------------------------

REJECTION_CORPUS = [
    "module t(input a, output y); always @(a) y = a; endmodule",
    "module t(input a, output y); always @(posedge a) y <= a; endmodule",
    "module t(input a, output y); initial y = 0; endmodule",
    "module t(input a, output y); if (a) not g1(y, a); endmodule",
    "module t(input a, output y); else not g1(y, a); endmodule",
    "module t(input a, output y); case (a) endcase endmodule",
    "module t(input a, input b, output y); assign y = a & b; endmodule",
    "module t(input a, input b, output y); assign y = a | b; endmodule",
    "module t(input a, input b, output y); assign y = a ^ b; endmodule",
    "module t(input a, input b, output y); assign y = a + b; endmodule",
    "module t(input a, input b, output y); assign y = a * b; endmodule",
    "module t(input a, input b, output y); assign y = a ? b : a; endmodule",
    "module t(input a, output y); assign y = ~a; endmodule",
    "module t(input a, output y); assign y = a - 1; endmodule",
    "module t(input a, output y); function f; endfunction endmodule",
    "module t(input a, output y); for (;;) not g1(y, a); endmodule",
    "module t(input a, output y); while (a) not g1(y, a); endmodule",
    "module t(input a, output y); reg r; not g1(y, a); endmodule",
]

_STRUCTURAL_FRAGMENTS = [
    "wire w{i};",
    "and g{i}(w{i}, a, b);",
    "or g{i}(w{i}, a, b);",
    "not g{i}(w{i}, a);",
    "xor g{i}(w{i}, a, b);",
    "nand g{i}(w{i}, a, b);",
    "assign y = a;",
]

_BEHAVIORAL_FRAGMENTS = [
    "always @(posedge a) y <= b;",
    "if (a) y = b;",
    "case (a) 1: y = b; endcase",
    "assign y = a & b;",
    "assign y = a + b;",
    "assign y = a ? b : 1'b0;",
    "initial y = 0;",
    "for (i = 0; i < 4; i = i + 1) y = a;",
    "function f; f = a; endfunction",
    "reg r;",
    "nor gz(y, a, b);",
    "buf gb(y, a);",
    "@@ #5 $display();",
]


@criterion(4, "locked syntax: corpus 100% rejected, fuzz never accepts "
              "a non-locked primitive")
def test_criterion_4_syntax_lock():
    assert len(REJECTION_CORPUS) >= 12
    for text in REJECTION_CORPUS:
        result = parse(text)
        assert not result.ok, text
        assert any(e.kind == "behavioral-construct" for e in result.errors), \
            (text, [str(e) for e in result.errors])

    rng = random.Random(0x10C)
    accepted = rejected = 0
    for case in range(200):
        body = []
        for i in range(rng.randint(1, 6)):
            pool = _STRUCTURAL_FRAGMENTS if rng.random() < 0.65 \
                else _BEHAVIORAL_FRAGMENTS
            body.append(rng.choice(pool).format(i=i))
        text = ("module fuzz(input a, input b, output y);\n  "
                + "\n  ".join(body) + "\nendmodule")
        result = parse(text)
        if result.ok:
            accepted += 1
            kinds = {g.kind for g in result.netlist.gates}
            assert kinds <= set(GateKind), kinds
        else:
            rejected += 1
    assert accepted > 0 and rejected > 0  # the fuzz exercised both paths


# -- 5 ------------------------------------------------------------------------

@criterion(5, "levelized simulation equals direct recursive evaluation "
              "on 100 random netlists")
def test_criterion_5_simulator_oracle():
    rng = random.Random(0x5E1)
    for case in range(100):
        n_inputs = rng.randint(1, 8)
        net = random_netlist(rng, n_inputs, rng.randint(1, 25),
                             name=f"r{case}")
        sig = truth_table(net)
        in_names = [name for name, _ in net.input_bits]
        out_names = [name for name, _ in net.output_bits]
        for row in range(1 << n_inputs):
            assignment = {nm: (row >> i) & 1
                          for i, nm in enumerate(in_names)}
            expected = recursive_eval(net, assignment)
            got = dict(zip(out_names, ((c >> row) & 1 for c in sig.columns)))
            assert got == expected, (case, row)


# -- 6 ------------------------------------------------------------------------

def _exhaustive_min_terms(f: BoolFunction) -> int:
    ones = [m for m in range(8) if f.table >> m & 1]
    if not ones:
        return 0
    off = [m for m in range(8) if not f.table >> m & 1]
    implicants = []
    for spec in itertools.product("01-", repeat=3):
        value = mask = 0
        for i, ch in enumerate(spec):
            if ch != "-":
                mask |= 1 << i
                if ch == "1":
                    value |= 1 << i
        if not any((m ^ value) & mask == 0 for m in off):
            implicants.append((value, mask))
    for size in range(1, len(ones) + 1):
        for combo in itertools.combinations(implicants, size):
            if all(any((m ^ v) & k == 0 for v, k in combo) for m in ones):
                return size
    raise AssertionError("uncoverable function")


@criterion(6, "minimizer matches exhaustive minimum-term search on all "
              "256 three-variable functions")
def test_criterion_6_qm_minimality():
    for table in range(256):
        f = BoolFunction(3, table)
        cover = quine_mccluskey(f)
        assert cover.table(3) == f.table, table
        assert cover.term_count == _exhaustive_min_terms(f), table


# -- 7 ------------------------------------------------------------------------

@criterion(7, "network search: xor is 1 primitive gate, and 4 gates "
              "over and/or/not (pinned)")
def test_criterion_7_min_gate_network():
    xor = BoolFunction(2, 0b0110)
    netlist, report = min_gate_network(xor, COMBINATIONAL_KINDS)
    assert report.gate_count == 1

    netlist, report = min_gate_network(
        xor, {GateKind.AND, GateKind.OR, GateKind.NOT})
    assert truth_table(netlist).column_bits(0) == [0, 1, 1, 0]
    # Regression value recorded from the first enumeration run.
    assert report.gate_count == 4


# -- 8 ------------------------------------------------------------------------

@criterion(8, "scripted pipeline: first-try verify, one-revision verify, "
              "budget-exhausted failure")
def test_criterion_8_end_to_end(tmp_path):
    fa = TASKS["full_adder"]
    cfg = RunConfig(samples_per_task=1)

    store = KnowledgeStore(tmp_path / "s1")
    backend = ScriptedBackend([ScriptRule(replies=[reference_reply("full_adder")])])
    run = run_task(fa, cfg, backend, store)
    assert run.status == "verified" and run.revisions_used == 0
    recheck = parse(run.netlist_text)
    assert recheck.ok
    assert simulate_task(fa, recheck.netlist).correctness == 1.0

    behavioral = ("```\nmodule full_adder(input a, input b, input cin, "
                  "output sum, output cout);\n"
                  "  assign sum = a ^ b ^ cin;\nendmodule\n```")
    backend = ScriptedBackend([ScriptRule(
        replies=[behavioral, reference_reply("full_adder")])])
    run = run_task(fa, cfg, backend, None)
    assert run.status == "verified" and run.revisions_used == 1
    assert any("behavioral-construct" in m.body for m in run.transcript
               if m.kind == "fix-request")
    recheck = parse(run.netlist_text)
    assert simulate_task(fa, recheck.netlist).correctness == 1.0

    backend = ScriptedBackend([ScriptRule(replies=["word salad, no code"])])
    run = run_task(fa, cfg, backend, None)
    assert run.status == "failed" and run.revisions_used == 2
    attempts = [m for m in run.transcript
                if m.kind == "netlist-candidate" and m.sender == "coder"]
    assert len(attempts) == 3


# -- 9 ------------------------------------------------------------------------

@criterion(9, "retrieval ablation: V2 verifies where V0 fails")
def test_criterion_9_ablation(tmp_path):
    fa = TASKS["full_adder"]

    def make_backend():
        return ScriptedBackend([
            ScriptRule(replies=[reference_reply("full_adder")],
                       contains="### pattern full_adder"),
            ScriptRule(replies=["cannot synthesize without an example"]),
        ])

    outcomes = {}
    for profile in ("V0", "V2"):
        store = KnowledgeStore(tmp_path / profile)
        store.seed_baseline()
        cfg = RunConfig.from_profile(profile, samples_per_task=1)
        run = run_task(fa, cfg, make_backend(), store.snapshot())
        outcomes[profile] = run.status
    assert outcomes["V2"] == "verified"
    assert outcomes["V0"] == "failed"


# -- 10 -----------------------------------------------------------------------

@criterion(10, "knowledge evolution: whole design + half-adder sub-pattern "
               "stored, lower-index duplicates never displace")
def test_criterion_10_knowledge_evolution(tmp_path):
    store = KnowledgeStore(tmp_path / "grow")
    tasks = list(TASKS.values())
    backend = ScriptedBackend(
        [ScriptRule(replies=[reference_reply(t.id)], contains=f"Task: {t.id}")
         for t in tasks])
    cfg = RunConfig(samples_per_task=1)
    report = run_benchmark(tasks, cfg, backend, store)
    assert all(r.status == "verified" for r in report.rows)

    # The full-adder design is in the store and retrievable by function.
    # (Its primary entry may carry a sub-pattern name: the ripple adder
    # task runs first and its first stage is the same 5-gate circuit.)
    from gateforge.knowledge import RetrievalQuery

    fa_netlist = parse(TASKS["full_adder"].reference_netlist).netlist
    fa_sig = truth_table(fa_netlist).digest
    hits = store.retrieve(RetrievalQuery.by_function(fa_sig, (3, 2)))
    assert hits and hits[0].gate_count == 5 and hits[0].delay == 3
    assert any(e.name.endswith("-design") for e in store.entries())
    ha_sig = truth_table(build_half_adder()).digest
    ha_entries = [e for e in store.entries()
                  if e.signature_digest == ha_sig and e.gate_count == 2]
    assert ha_entries, "half-adder sub-pattern missing"

    # A lower-index duplicate never displaces the primary.
    primary = ha_entries[0]
    b = NetlistBuilder("worse_ha")
    a = b.input("a")
    c = b.input("b")
    s = b.output("s")
    co = b.output("c")
    w = b.gate(GateKind.XOR, (a, c))
    w2 = b.gate(GateKind.NOT, (w,))
    b.gate(GateKind.NOT, (w2,), s)
    b.gate(GateKind.AND, (a, c), co)
    worse_id = store.store(make_pattern_entry(b.build()))
    worse = next(e for e in store.entries(include_archived=True)
                 if e.id == worse_id)
    assert worse.status == "archived"
    still = [e for e in store.entries() if e.signature_digest == ha_sig
             and (e.inputs, e.outputs) == (primary.inputs, primary.outputs)]
    assert len(still) == 1 and still[0].sei == primary.sei


# -- 11 -----------------------------------------------------------------------

@criterion(11, "tier classification: 0.115 top, 0.088 low, boundary top, "
               "gap flagged")
def test_criterion_11_tiers():
    assert classify_tier(0.115).tier == "top"
    assert classify_tier(0.088).tier == "low"
    boundary = classify_tier(0.0951)
    assert boundary.tier == "top" and not boundary.in_gap
    gap = classify_tier(0.094)
    assert gap.in_gap and gap.tier == "mid"


# -- 12 -----------------------------------------------------------------------

@criterion(12, "two identical scripted benchmark invocations emit "
               "byte-identical results files")
def test_criterion_12_determinism(tmp_path):
    tasks = list(TASKS.values())

    def invoke(tag: str) -> bytes:
        store = KnowledgeStore(tmp_path / tag)
        backend = ScriptedBackend(
            [ScriptRule(replies=[reference_reply(t.id)],
                        contains=f"Task: {t.id}") for t in tasks]
            + [ScriptRule(replies=["pass"])])
        cfg = RunConfig(samples_per_task=2, pass_ks=(1, 2))
        report = run_benchmark(tasks, cfg, backend, store, profile="V2")
        path = tmp_path / f"{tag}.json"
        path.write_bytes(emit_report(report, "machine").encode())
        return path.read_bytes()

    assert invoke("first") == invoke("second")
