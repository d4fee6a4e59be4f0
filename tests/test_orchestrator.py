import collections
import dataclasses
import gc
import json
import weakref

import pytest
from conftest import store_contents

from gateforge import orchestrator
from gateforge.backends import BackendError, ModelBackend, ScriptRule, ScriptedBackend
from gateforge.knowledge import KnowledgeStore, make_error_fix_entry
from gateforge.metrics import (
    VERDICT_ACCEPT,
    VERDICT_EFFICIENCY,
    VERDICT_FUNCTIONAL,
    MetricWeights,
    SampleStats,
    pass_at_k,
)
from gateforge.netlist import structural_report
from gateforge.orchestrator import (
    FUNCTIONAL_MISMATCH,
    MSG_ABORT,
    MSG_CANDIDATE,
    MSG_EFFICIENCY_REVIEW,
    MSG_FIX_REQUEST,
    ROLE_CODER,
    ROLE_EXECUTOR,
    ROLE_MEDIATOR,
    ROLE_REVIEWER,
    ROLE_USER_PROXY,
    VERDICT_REJECTED,
    AgentMessage,
    RunConfig,
    build_prompt,
    run_benchmark,
    run_task,
    summarize,
)
from gateforge.parser import extract_netlist_block, parse, render
from gateforge.taskpack import (
    builtin_task_packs,
    emit_report,
    load_task_pack,
    simulate_task,
)

TASKS = {t.id: t for t in builtin_task_packs()}
FA = TASKS["full_adder"]

BEHAVIORAL_REPLY = ("```\nmodule full_adder(input a, input b, input cin, "
                    "output sum, output cout);\n"
                    "  assign sum = a ^ b ^ cin;\nendmodule\n```")

WRONG_LOGIC_REPLY = ("```\nmodule full_adder(input a, input b, input cin, "
                     "output sum, output cout);\n"
                     "  xor g1(sum, a, b);\n"   # forgets cin
                     "  and g2(cout, a, b);\n"
                     "endmodule\n```")


def fenced(text: str) -> str:
    return f"Here is the design.\n```\n{text}```\n"


def correct_reply(task_id: str = "full_adder") -> str:
    return fenced(TASKS[task_id].reference_netlist)


def single_rule_backend(*replies: str) -> ScriptedBackend:
    return ScriptedBackend([ScriptRule(replies=list(replies))])


@pytest.fixture
def store(tmp_path):
    return KnowledgeStore(tmp_path / "store")


def cfg(**kw) -> RunConfig:
    kw.setdefault("samples_per_task", 1)
    return RunConfig(**kw)


def test_correct_first_try(store):
    run = run_task(FA, cfg(), single_rule_backend(correct_reply()), store)
    assert run.status == "verified"
    assert run.revisions_used == 0
    assert (run.result.gate_count, run.result.delay) == (5, 3)
    # run_task only reads the store; the Summarizer writes.
    assert store.entries() == []
    assert summarize(FA, [run], store)
    assert len(store.entries()) > 0


def test_behavioral_then_correct_costs_one_revision(store):
    backend = single_rule_backend(BEHAVIORAL_REPLY, correct_reply())
    run = run_task(FA, cfg(), backend, store)
    assert run.status == "verified"
    assert run.revisions_used == 1
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("behavioral-construct" in m.body for m in fixes)


def test_garbage_exhausts_the_budget():
    run = run_task(FA, cfg(), single_rule_backend("no code at all"), None)
    assert run.status == "failed"
    assert run.revisions_used == 2
    attempts = [m for m in run.transcript
                if m.kind == MSG_CANDIDATE and m.sender == ROLE_CODER]
    assert len(attempts) == 3  # initial + max_revisions


def test_budget_is_respected_on_every_path():
    for replies in (["garbage"], [BEHAVIORAL_REPLY], [WRONG_LOGIC_REPLY]):
        run = run_task(FA, cfg(), single_rule_backend(*replies), None)
        assert run.status == "failed"
        assert run.revisions_used <= 2


def test_functional_feedback_contains_first_failure():
    backend = single_rule_backend(WRONG_LOGIC_REPLY, correct_reply())
    run = run_task(FA, cfg(), backend, None)
    assert run.status == "verified"
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("First failure" in m.body and "expected" in m.body
               for m in fixes)


def test_verified_netlist_re_simulates(store):
    run = run_task(FA, cfg(), single_rule_backend(correct_reply()), store)
    result = parse(run.netlist_text)
    assert result.ok
    outcome = simulate_task(FA, result.netlist)
    assert outcome.correctness == 1.0


def test_unparseable_reply_counts_as_a_revision():
    backend = single_rule_backend("prose only", correct_reply())
    run = run_task(FA, cfg(), backend, None)
    assert run.status == "verified"
    assert run.revisions_used == 1


def test_efficiency_round_improves_the_design(store):
    # 9-nand adder passes but misses the reference index; after the
    # efficiency review the coder returns the 5-gate version.
    from conftest import build_nand_full_adder
    from gateforge.parser import render

    nine = fenced(render(build_nand_full_adder()))
    backend = single_rule_backend(nine, correct_reply())
    run = run_task(FA, cfg(), backend, store)
    assert run.status == "verified"
    assert run.revisions_used == 1
    assert run.result.gate_count == 5
    effs = [m for m in run.transcript if m.kind == "efficiency-review"]
    assert effs and "hints" in effs[0].attachments


def test_efficiency_round_keeps_the_best_when_retry_regresses():
    from conftest import build_nand_full_adder
    from gateforge.parser import render

    nine = fenced(render(build_nand_full_adder()))
    backend = single_rule_backend(nine, "garbage this time")
    run = run_task(FA, cfg(), backend, None)
    assert run.status == "verified"
    assert run.result.gate_count == 9


def test_full_feedback_ladder_in_one_run():
    # behavioral -> wrong logic -> correct but inefficient -> optimal,
    # with a budget of 3 revisions. Each feedback type fires once.
    from conftest import build_nand_full_adder
    from gateforge.parser import render

    nine = fenced(render(build_nand_full_adder()))
    backend = single_rule_backend(BEHAVIORAL_REPLY, WRONG_LOGIC_REPLY, nine,
                                  correct_reply())
    run = run_task(FA, cfg(max_revisions=3), backend, None)
    assert run.status == "verified"
    assert run.revisions_used == 3
    assert run.result.gate_count == 5
    kinds = [m.kind for m in run.transcript]
    assert "efficiency-review" in kinds
    fixes = [m.body for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("behavioral-construct" in b for b in fixes)
    assert any("First failure" in b for b in fixes)
    assert any("not efficient enough" in b for b in fixes)


def test_attempts_record_each_judged_candidate():
    # A feedback ladder read from the run's attempt records: one per
    # candidate, with the feedback each one got in fix-request order.
    padded = FA.reference_netlist.replace(
        "  xor g3(sum, w1, cin);",
        "  wire spare_n0, spare_n1;\n  xor g3(spare_n0, w1, cin);\n"
        "  not gspare1(spare_n1, spare_n0);\n  not gspare2(sum, spare_n1);")
    assert padded != FA.reference_netlist
    backend = single_rule_backend(BEHAVIORAL_REPLY, WRONG_LOGIC_REPLY,
                                  fenced(padded), correct_reply())
    run = run_task(FA, cfg(max_revisions=3), backend, None)
    assert run.status == "verified"
    assert [a.verdict for a in run.attempts] == [
        VERDICT_REJECTED, VERDICT_FUNCTIONAL, VERDICT_EFFICIENCY,
        VERDICT_ACCEPT]
    assert [a.error_kinds for a in run.attempts] == [
        ("behavioral-construct",), (FUNCTIONAL_MISMATCH,), (), ()]
    assert [sorted(a.attachments) for a in run.attempts] == [
        ["fixes"], ["fixes"], ["hints"], []]
    assert [a.reward is not None for a in run.attempts] == [
        False, True, True, True]
    fixes = [m.body for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert [a.feedback for a in run.attempts] == fixes + [None]
    assert run.revisions_used == 3
    assert run.attempts[0].block.startswith("module full_adder")
    assert run.result.gate_count == 5


def test_a_reply_with_a_long_number_is_rejected_and_the_sample_goes_on():
    long_bound = ("```\nmodule full_adder(input [" + "9" * 5000 + ":0] a, "
                  "input b, input cin, output sum, output cout);\n"
                  "endmodule\n```")
    run = run_task(FA, cfg(), single_rule_backend(long_bound, correct_reply()),
                   None)
    assert run.status == "verified"
    assert [a.verdict for a in run.attempts] == [VERDICT_REJECTED,
                                                 VERDICT_ACCEPT]
    assert run.attempts[0].error_kinds[0] == "width"


def test_a_reply_with_a_wide_declaration_is_rejected_and_the_sample_goes_on():
    wide = ("```\nmodule full_adder(input [" + "9" * 18 + ":0] a, "
            "input b, input cin, output sum, output cout);\n"
            "endmodule\n```")
    run = run_task(FA, cfg(), single_rule_backend(wide, correct_reply()), None)
    assert run.status == "verified"
    assert [a.verdict for a in run.attempts] == [VERDICT_REJECTED,
                                                 VERDICT_ACCEPT]
    assert run.attempts[0].error_kinds[0] == "width"


def test_sequential_task_end_to_end():
    task = TASKS["seq101"]
    run = run_task(task, cfg(), single_rule_backend(correct_reply("seq101")),
                   None)
    assert run.status == "verified"
    assert run.result.gate_count == 5


@pytest.mark.parametrize("task_id", ["counter2", "seq101"])
@pytest.mark.parametrize("dff_weight", [0.5, 2.0])
def test_scores_agree_under_register_weight(task_id, dff_weight):
    """Acceptance, the reported index and the benchmark's best index all
    weigh registers by dff_weight, the reference's included."""
    task = TASKS[task_id]
    measured = structural_report(parse(task.reference_netlist).netlist)
    g, d, r = measured.gate_count, measured.delay, measured.register_count
    assert r == 2
    config = cfg(weights=MetricWeights(dff_weight=dff_weight))
    run = run_task(task, config, single_rule_backend(correct_reply(task_id)))
    assert run.status == "verified"
    assert run.revisions_used == 0
    assert all(m.kind != MSG_EFFICIENCY_REVIEW for m in run.transcript)
    assert run.result.sei == pytest.approx(1 / (g - r + dff_weight * r + d))
    report = run_benchmark([task], config,
                           single_rule_backend(correct_reply(task_id)))
    assert report.rows[0].best_sei == run.result.sei


def test_gate_free_design_verifies_without_an_index(tmp_path):
    """A design that only wires an input to an output has no index: it
    verifies, and the Summarizer leaves the store untouched."""
    pack = tmp_path / "buf1"
    pack.mkdir()
    (pack / "task.json").write_text(json.dumps({
        "schema_version": 1, "id": "buf1", "title": "Buffer",
        "difficulty": "easy", "circuit_class": "combinational",
        "ports": [{"name": "a", "dir": "in"}, {"name": "y", "dir": "out"}]}))
    (pack / "spec.txt").write_text("y follows a.\n")
    (pack / "testbench.json").write_text(json.dumps({"vectors": [
        {"inputs": {"a": a}, "expected": {"y": a}} for a in (0, 1)]}))
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_error_fix_entry("syntax", "stray token", "remove it"))
    index_before = (tmp_path / "store" / "index.jsonl").read_bytes()
    reply = fenced("module buf1(input a, output y);\n"
                   "  assign y = a;\nendmodule\n")
    run = run_task(load_task_pack(pack), cfg(), single_rule_backend(reply),
                   store)
    assert run.status == "verified"
    assert run.result.sei is None
    assert summarize(load_task_pack(pack), [run], store) == []
    assert (tmp_path / "store" / "index.jsonl").read_bytes() == index_before
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
        "index.jsonl", "index.verified"]


class Broken(ModelBackend):
    identity = "broken"

    def complete(self, messages, params):
        raise BackendError("socket down")


def test_backend_error_yields_error_status():
    run = run_task(FA, cfg(), Broken(), None)
    assert run.status == "error"
    assert "socket down" in run.error


@pytest.mark.parametrize("user_proxy_model", [False, True],
                         ids=["on-the-design", "on-the-brief"])
def test_an_error_run_carries_the_run_id(user_proxy_model):
    run = run_task(FA, cfg(user_proxy_model=user_proxy_model), Broken(),
                   None, run_id="bench")
    assert run.status == "error"
    assert run.run_id == "bench"


# -- the transcript, rebuilt from the attempt record ---------------------------

class BreaksAfter(ModelBackend):
    """Serves `replies` in order, then raises on every later call."""
    identity = "breaks-after"

    def __init__(self, *replies: str) -> None:
        self.replies = list(replies)

    def complete(self, messages, params):
        if not self.replies:
            raise BackendError("socket down")
        return self.replies.pop(0)


def test_a_sweep_builds_no_transcript(store, monkeypatch):
    built = []
    message = orchestrator.AgentMessage

    def counting(*args, **kwargs):
        built.append(args)
        return message(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "AgentMessage", counting)
    backend = ScriptedBackend([ScriptRule(replies=[correct_reply(t)],
                                          contains=f"Task: {t}")
                               for t in TASKS])
    report = run_benchmark(list(TASKS.values()), RunConfig.from_profile(
        "V2", samples_per_task=3), backend, store, profile="V2")
    assert [r.c for r in report.rows] == [3] * len(TASKS)
    assert built == []
    # A transcript is built when it is read, one message per turn.
    run = run_task(FA, cfg(), single_rule_backend(correct_reply()), None)
    assert len(run.transcript) == len(built) == 9


def test_a_sweep_renders_only_the_designs_it_keeps(monkeypatch):
    rendered = []

    def counting(netlist):
        rendered.append(text := render(netlist))
        return text

    monkeypatch.setattr(orchestrator, "render", counting)
    # Each sample reviews up to three clean designs: a wrong one, a correct
    # but padded one and the reference, which it keeps.
    scripts = {FA.id: [WRONG_LOGIC_REPLY, padded_reply(FA.id, "sum"),
                       correct_reply()],
               "mux2": [padded_reply("mux2", "y"), correct_reply("mux2")]}
    backend = ScriptedBackend([ScriptRule(replies=replies,
                                          contains=f"Task: {task_id}")
                               for task_id, replies in scripts.items()])
    tasks = [FA, TASKS["mux2"]]
    report = run_benchmark(tasks, RunConfig.from_profile(
        "V0", samples_per_task=3), backend, None, profile="V0")
    assert [r.c for r in report.rows] == [3, 3]
    # One render per kept design: the samples of a task share its review.
    assert rendered == [render(parse(t.reference_netlist).netlist)
                        for t in tasks]

    # A transcript still carries every clean candidate, rendered when read.
    run = run_task(FA, cfg(), ScriptedBackend(
        [ScriptRule(replies=scripts[FA.id])]), None)
    assert rendered[2:] == [run.netlist_text]
    sent = [m.body for m in run.transcript if m.recipient == ROLE_EXECUTOR]
    assert sent == [render(parse(extract_netlist_block(reply)).netlist)
                    for reply in scripts[FA.id]]
    assert rendered[3:] == sent[:2]


def test_each_read_of_a_transcript_gives_an_equal_one():
    backend = single_rule_backend(BEHAVIORAL_REPLY, WRONG_LOGIC_REPLY,
                                  padded_reply(FA.id, "sum"), correct_reply())
    run = run_task(FA, cfg(max_revisions=3), backend, None)
    first, second = run.transcript, run.transcript
    assert first == second and first is not second
    assert [m.turn for m in first] == list(range(len(first)))
    assert {MSG_EFFICIENCY_REVIEW, MSG_FIX_REQUEST} <= {m.kind for m in first}


def test_a_failed_brief_leaves_one_abort():
    run = run_task(FA, cfg(user_proxy_model=True), Broken(), None)
    assert run.brief is None and run.attempts == []
    assert run.transcript == [AgentMessage(
        ROLE_USER_PROXY, ROLE_MEDIATOR, 0, MSG_ABORT, "socket down")]


def test_a_failed_coder_call_ends_in_two_aborts():
    run = run_task(FA, cfg(), BreaksAfter(WRONG_LOGIC_REPLY), None)
    assert run.status == "error" and len(run.attempts) == 1
    assert run.brief is not None
    ending = [(m.sender, m.recipient, m.kind, m.body)
              for m in run.transcript[-3:]]
    assert ending == [
        (ROLE_REVIEWER, ROLE_CODER, MSG_FIX_REQUEST, run.attempts[0].feedback),
        (ROLE_CODER, ROLE_MEDIATOR, MSG_ABORT, "socket down"),
        (ROLE_MEDIATOR, ROLE_USER_PROXY, MSG_ABORT, "socket down"),
    ]


def test_review_rag_injects_error_fixes(store):
    store.store(make_error_fix_entry(
        "behavioral-construct",
        "assign with an operator in the expression",
        "replace operators with explicit gate instantiations"))
    backend = single_rule_backend(BEHAVIORAL_REPLY, correct_reply())
    run = run_task(FA, cfg(review_rag=True), backend, store)
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("Known fixes" in m.body for m in fixes)

    backend = single_rule_backend(BEHAVIORAL_REPLY, correct_reply())
    run = run_task(FA, cfg(review_rag=False), backend, store)
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert not any("Known fixes" in m.body for m in fixes)


def test_turn_indices_strictly_increase(store):
    run = run_task(FA, cfg(), single_rule_backend(correct_reply()), store)
    turns = [m.turn for m in run.transcript]
    assert turns == sorted(turns)
    assert len(set(turns)) == len(turns)


def test_static_gate_precedes_executor():
    # Nothing reaches the executor without a clean static review first.
    backend = single_rule_backend(BEHAVIORAL_REPLY, correct_reply())
    run = run_task(FA, cfg(), backend, None)
    for i, msg in enumerate(run.transcript):
        if msg.recipient == "executor" and msg.kind == MSG_CANDIDATE:
            reviews = [m for m in run.transcript[:i]
                       if m.kind == "static-review"]
            assert reviews and "clean" in reviews[-1].body
    executor_candidates = [m for m in run.transcript
                           if m.recipient == "executor"
                           and m.kind == MSG_CANDIDATE]
    assert len(executor_candidates) == 1  # the behavioral one never got there


WRONG_PORTS_REPLY = ("```\nmodule adder(input x, input y, output z);\n"
                     "  and g1(z, x, y);\nendmodule\n```")

DFF_IN_COMB_REPLY = ("```\nmodule full_adder(input a, input b, input cin, "
                     "output sum, output cout);\n"
                     "  dff g1(sum, a, b);\n"
                     "  and g2(cout, a, b);\nendmodule\n```")

MISCLOCKED_REPLY = ("```\nmodule seq101(input x, input clk, output det);\n"
                    "  dff g1(det, x, x);\nendmodule\n```")


def test_wrong_interface_is_review_feedback_not_a_crash():
    backend = single_rule_backend(WRONG_PORTS_REPLY, correct_reply())
    run = run_task(FA, cfg(), backend, None)
    assert run.status == "verified"
    assert run.revisions_used == 1
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("[interface]" in m.body for m in fixes)


def test_register_in_combinational_task_is_review_feedback():
    backend = single_rule_backend(DFF_IN_COMB_REPLY, correct_reply())
    run = run_task(FA, cfg(), backend, None)
    assert run.status == "verified"
    assert run.revisions_used == 1


def test_misclocked_register_is_feedback_not_a_crash():
    task = TASKS["seq101"]
    backend = single_rule_backend(MISCLOCKED_REPLY, correct_reply("seq101"))
    run = run_task(task, cfg(), backend, None)
    assert run.status == "verified"
    assert run.revisions_used == 1
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("could not be simulated" in m.body for m in fixes)


def test_hostile_candidates_never_abort_a_benchmark(tmp_path):
    backend = ScriptedBackend([ScriptRule(
        replies=[WRONG_PORTS_REPLY, DFF_IN_COMB_REPLY, MISCLOCKED_REPLY])])
    config = RunConfig(samples_per_task=2)
    store = KnowledgeStore(tmp_path / "s")
    report = run_benchmark([FA, TASKS["seq101"]], config, backend, store)
    assert all(r.status == "failed" for r in report.rows)


def test_model_backed_user_proxy_flag():
    formal = "Task: full_adder\nFormalized by the proxy model."
    backend = ScriptedBackend([
        ScriptRule(replies=[formal], contains="Rewrite the following"),
        ScriptRule(replies=[correct_reply()], contains=None),
    ])
    run = run_task(FA, cfg(user_proxy_model=True), backend, None)
    assert run.status == "verified"
    spec_msgs = [m for m in run.transcript if m.kind == "spec"]
    assert all("Formalized by the proxy model" in m.body for m in spec_msgs)


def test_model_phrased_reviewer_feedback_keeps_findings():
    backend = ScriptedBackend([
        ScriptRule(replies=["Please fix the flagged construct."],
                   contains="Rephrase this review feedback"),
        ScriptRule(replies=[BEHAVIORAL_REPLY, correct_reply()], contains=None),
    ])
    run = run_task(FA, cfg(reviewer_phrasing_model=True), backend, None)
    assert run.status == "verified"
    fixes = [m for m in run.transcript if m.kind == MSG_FIX_REQUEST]
    assert any("Please fix the flagged construct." in m.body
               and "behavioral-construct" in m.body for m in fixes)


# -- prompts ------------------------------------------------------------------

def test_prompt_contains_grammar_and_ports():
    msgs = build_prompt(FA, [], [], cfg())
    system = msgs[0].content
    user = msgs[1].content
    assert "and, or, not, xor, nand" in system
    assert "Banned" in system
    assert "Task: full_adder" in user
    assert "input cin" in user


def test_prompt_orders_retrievals_best_first(store):
    store.seed_baseline()
    hits = store.retrieve(
        __import__("gateforge.knowledge", fromlist=["RetrievalQuery"])
        .RetrievalQuery.by_tags(("adder",), limit=2))
    msgs = build_prompt(FA, hits, [], cfg())
    user = msgs[1].content
    first = user.index("pattern half_adder")
    second = user.index("pattern full_adder")
    assert first < second  # higher index first


def test_prompt_truncates_lowest_rank_first(store):
    store.seed_baseline()
    entries = store.entries()[:4]
    small = cfg(max_prompt_chars=1400)
    msgs = build_prompt(FA, entries, [], small)
    user = msgs[1].content
    kept = [e for e in entries if f"pattern {e.name}" in user]
    assert kept == entries[:len(kept)]  # a prefix of the ranking survives


def test_prompt_carries_feedback_history():
    msgs = build_prompt(FA, [], ["fix A", "fix B"], cfg())
    user = msgs[1].content
    assert "fix A" in user and "fix B" in user


# -- benchmark ----------------------------------------------------------------

def two_task_backend() -> ScriptedBackend:
    return ScriptedBackend([
        ScriptRule(replies=[correct_reply("xnor2")], contains="Task: xnor2"),
        ScriptRule(replies=["garbage"], contains=None),
    ])


def test_benchmark_mixed_outcomes(store):
    tasks = [TASKS["xnor2"], TASKS["full_adder"]]
    config = RunConfig(samples_per_task=2, pass_ks=(1, 2))
    report = run_benchmark(tasks, config, two_task_backend(), store)
    rows = {r.task_id: r for r in report.rows}
    assert rows["xnor2"].c == 2
    assert rows["full_adder"].c == 0
    assert rows["full_adder"].status == "failed"
    assert report.overall_sei == pytest.approx((0.25 * 1e-5) ** 0.5)
    # pass@1 average over the two tasks
    table = emit_report(report, "table")
    assert "overall" in table


def test_benchmark_pass_at_k_uses_the_estimator(store):
    tasks = [TASKS["xnor2"]]
    config = RunConfig(samples_per_task=3, pass_ks=(1, 2, 3))
    report = run_benchmark(tasks, config, two_task_backend(), store)
    row = report.rows[0]
    for k in (1, 2, 3):
        assert row.pass_at[k] == pass_at_k(SampleStats(3, row.c, k))


def test_benchmark_report_self_consistent(store):
    tasks = [TASKS["xnor2"], TASKS["full_adder"], TASKS["counter2"]]
    config = RunConfig(samples_per_task=1)
    report = run_benchmark(tasks, config, two_task_backend(), store)
    from gateforge.metrics import sei_benchmark

    expected = sei_benchmark([r.best_sei for r in report.rows])
    assert report.overall_sei == pytest.approx(expected)
    for d, value in report.difficulty_sei.items():
        rows = [r for r in report.rows if r.difficulty == d]
        assert value == pytest.approx(
            sum(r.best_sei or 0.0 for r in rows) / len(rows))


def test_benchmark_determinism_byte_identical(tmp_path):
    tasks = [TASKS["xnor2"], TASKS["full_adder"]]
    config = RunConfig(samples_per_task=2, pass_ks=(1,))

    def invoke(idx):
        store = KnowledgeStore(tmp_path / f"s{idx}")
        report = run_benchmark(tasks, config, two_task_backend(), store,
                               profile="V2")
        return emit_report(report, "machine")

    assert invoke(0) == invoke(1)


def test_samples_do_not_see_sibling_writes(store):
    # Sample 2 of the same task must not retrieve sample 1's stored design:
    # the coder only succeeds when the prompt contains the seeded pattern,
    # and the store starts empty, so both samples must fail identically.
    backend = ScriptedBackend([
        ScriptRule(replies=[correct_reply()], contains="### pattern"),
        ScriptRule(replies=["garbage"], contains=None),
    ])
    config = RunConfig(samples_per_task=2)
    report = run_benchmark([FA], config, backend, store)
    assert report.rows[0].c == 0


def test_later_tasks_see_earlier_tasks_knowledge(tmp_path):
    # Task 1 (full_adder) verifies and stores adder-tagged patterns; task 2
    # (adder2, same tags) succeeds only when its prompt carries a retrieved
    # pattern, which can only come from task 1's writes.
    store = KnowledgeStore(tmp_path / "evo")
    backend = ScriptedBackend([
        ScriptRule(replies=[correct_reply("full_adder")],
                   contains="Task: full_adder"),
        ScriptRule(replies=[correct_reply("adder2")], contains="### pattern"),
        ScriptRule(replies=["garbage"], contains=None),
    ])
    config = RunConfig(samples_per_task=1)
    report = run_benchmark([FA, TASKS["adder2"]], config, backend, store)
    rows = {r.task_id: r for r in report.rows}
    assert rows["full_adder"].c == 1
    assert rows["adder2"].c == 1


def test_ablation_v0_vs_v2(tmp_path):
    # The coder succeeds only when the prompt carries a retrieved pattern.
    def make_backend():
        return ScriptedBackend([
            ScriptRule(replies=[correct_reply()],
                       contains="### pattern full_adder"),
            ScriptRule(replies=["cannot do it"], contains=None),
        ])

    outcomes = {}
    for profile in ("V0", "V2"):
        store = KnowledgeStore(tmp_path / profile)
        store.seed_baseline()
        config = RunConfig.from_profile(profile, samples_per_task=1)
        run = run_task(FA, config, make_backend(), store.snapshot())
        outcomes[profile] = run.status
    assert outcomes == {"V0": "failed", "V2": "verified"}


def test_store_growth_is_monotone_and_sound(tmp_path):
    store = KnowledgeStore(tmp_path / "grow")
    counts = [len(store.entries(include_archived=True))]
    tasks = [TASKS["xnor2"], TASKS["full_adder"]]
    backend = ScriptedBackend([
        ScriptRule(replies=[correct_reply("xnor2")], contains="Task: xnor2"),
        ScriptRule(replies=[correct_reply("full_adder")],
                   contains="Task: full_adder"),
    ])
    run_benchmark(tasks, RunConfig(samples_per_task=1), backend, store)
    counts.append(len(store.entries(include_archived=True)))
    assert counts[1] >= counts[0]
    assert store.verify_all() == []


def padded_reply(task_id: str, output: str) -> str:
    """The reference with a double inverter in front of `output`: correct,
    but two gates and two levels worse."""
    text = TASKS[task_id].reference_netlist.replace(f"({output},", "(pad0,", 1)
    header, body = text.split(";\n", 1)
    return fenced(f"{header};\n  wire pad0, pad1;\n" + body.replace(
        "endmodule", (f"  not pad_a(pad1, pad0);\n"
                      f"  not pad_b({output}, pad1);\nendmodule")))


def test_any_worker_count_leaves_identical_results_and_store(tmp_path):
    # Within a sample each task's replies advance: no code block, then the
    # padded design, then the reference. adder2 has a design only when its
    # prompt carries a retrieved pattern, which only full_adder's writes
    # provide, so results depend on tasks running in order.
    tasks = [FA, TASKS["adder2"], TASKS["mux2"]]
    rules = [ScriptRule(replies=["I cannot write this one.",
                                 padded_reply(t.id, out), correct_reply(t.id)],
                        contains=f"Task: {t.id}")
             for t, out in ((FA, "sum"), (TASKS["mux2"], "y"))]
    rules += [ScriptRule(replies=[padded_reply("adder2", "s[0]"),
                                  correct_reply("adder2")],
                         contains="### pattern"),
              ScriptRule(replies=["No retrieved pattern to start from."])]

    def sweep(workers, tag):
        root = tmp_path / tag
        config = RunConfig.from_profile("V2", samples_per_task=4,
                                        workers=workers)
        report = run_benchmark(tasks, config, ScriptedBackend(rules),
                               KnowledgeStore(root), profile="V2")
        return emit_report(report, "machine"), *store_contents(root)

    sequential = sweep(1, "w1")
    results, records, patterns = sequential
    rows = json.loads(results)["tasks"]
    # The best design is the reference, the last reply of each script.
    assert [(r["task_id"], r["c"], r["best_gate_count"]) for r in rows] == [
        ("full_adder", 4, 5), ("adder2", 4, 10), ("mux2", 4, 4)]
    assert len(records) == len(patterns) > 3
    assert sweep(4, "w4a") == sequential
    assert sweep(4, "w4b") == sequential


def test_each_distinct_candidate_is_reviewed_once_per_task(monkeypatch):
    parsed, simulated = collections.Counter(), collections.Counter()
    parse, simulate = orchestrator.parse, orchestrator.simulate_task

    def counting_parse(text):
        parsed[text] += 1
        return parse(text)

    def counting_simulate(task, netlist):
        simulated[task.id] += 1
        return simulate(task, netlist)

    monkeypatch.setattr(orchestrator, "parse", counting_parse)
    monkeypatch.setattr(orchestrator, "simulate_task", counting_simulate)
    # The same interface under another id: the same texts are new to it.
    twin = dataclasses.replace(FA, id="full_adder_twin")
    backend = single_rule_backend(WRONG_LOGIC_REPLY, WRONG_LOGIC_REPLY,
                                  correct_reply())
    report = run_benchmark([FA, twin], RunConfig.from_profile(
        "V0", samples_per_task=6), backend)
    assert [(r.task_id, r.c) for r in report.rows] == [
        ("full_adder", 6), ("full_adder_twin", 6)]
    # 6 samples x 3 attempts per task, but two distinct texts.
    assert sorted(parsed.values()) == [2, 2]
    assert simulated == {"full_adder": 2, "full_adder_twin": 2}


def recorded_runs(monkeypatch) -> dict:
    """Wrap run_task where run_benchmark looks it up; every run it returns
    lands in the dict, by (task id, sample index)."""
    runs = {}
    run_task = orchestrator.run_task

    def recording(task, cfg, backend, store=None, sample_index=0, **kwargs):
        run = run_task(task, cfg, backend, store, sample_index, **kwargs)
        runs[(task.id, sample_index)] = run
        return run

    monkeypatch.setattr(orchestrator, "run_task", recording)
    return runs


def test_shared_reviews_leave_transcripts_alike_for_any_worker_count(
        tmp_path, monkeypatch):
    # Every verdict: rejected, functional mismatch, inefficient, refused
    # by the simulator, interface mismatch, no code block, accepted.
    scripts = [
        (FA, [BEHAVIORAL_REPLY, WRONG_LOGIC_REPLY, padded_reply(FA.id, "sum"),
              correct_reply()]),
        (TASKS["seq101"], [MISCLOCKED_REPLY, "No design.",
                           correct_reply("seq101")]),
        (TASKS["mux2"], [WRONG_PORTS_REPLY, padded_reply("mux2", "y"),
                         correct_reply("mux2")]),
    ]
    rules = [ScriptRule(replies=replies, contains=f"Task: {t.id}")
             for t, replies in scripts]
    runs = recorded_runs(monkeypatch)

    def sweep(workers, tag):
        runs.clear()
        config = RunConfig.from_profile("V2", samples_per_task=6,
                                        max_revisions=3, workers=workers)
        report = run_benchmark([t for t, _ in scripts], config, ScriptedBackend(rules),
                               KnowledgeStore(tmp_path / tag), profile="V2")
        transcripts = {key: [(m.sender, m.recipient, m.turn, m.kind, m.body,
                              m.attachments) for m in run.transcript]
                       for key, run in sorted(runs.items())}
        return emit_report(report, "machine"), transcripts

    results, transcripts = sweep(1, "w1")
    assert len(transcripts) == 18
    kinds = {m[3] for t in transcripts.values() for m in t}
    assert {MSG_EFFICIENCY_REVIEW, MSG_FIX_REQUEST} <= kinds
    bodies = "\n".join(m[4] for t in transcripts.values() for m in t)
    for said in ("could not be simulated", "Simulation failed",
                 "interface mismatch", "no netlist module found"):
        assert said in bodies
    assert sweep(4, "w4") == (results, transcripts)


@pytest.mark.parametrize("workers", [1, 3])
def test_no_review_memo_outlives_its_task(monkeypatch, workers):
    designs: dict[str, list[weakref.ref]] = collections.defaultdict(list)
    run_task = orchestrator.run_task

    def watching(task, *args, **kwargs):
        # Each earlier task's designs are gone once its row is built.
        gc.collect()
        for task_id, refs in designs.items():
            assert task_id == task.id or not any(r() for r in refs)
        run = run_task(task, *args, **kwargs)
        designs[task.id].append(weakref.ref(run.netlist))
        return run

    monkeypatch.setattr(orchestrator, "run_task", watching)
    tasks = [FA, TASKS["mux2"]]
    backend = ScriptedBackend([ScriptRule(replies=[correct_reply(t.id)],
                                          contains=f"Task: {t.id}")
                               for t in tasks])
    report = run_benchmark(tasks, RunConfig(samples_per_task=4,
                                            workers=workers), backend)
    assert [r.c for r in report.rows] == [4, 4]
    gc.collect()
    assert sum(len(refs) for refs in designs.values()) == 8
    assert not any(r() for refs in designs.values() for r in refs)


def test_config_profiles():
    assert RunConfig.from_profile("V0").design_rag is False
    assert RunConfig.from_profile("V1").review_rag is True
    assert RunConfig.from_profile("V1").design_rag is False
    assert RunConfig.from_profile("V2").design_rag is True
    with pytest.raises(ValueError):
        RunConfig.from_profile("V3")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_revisions=-1)
    with pytest.raises(ValueError):
        RunConfig(samples_per_task=2, pass_ks=(3,))


@pytest.mark.parametrize("field, value, message", [
    ("max_prompt_chars", 0, "max_prompt_chars must be >= 1"),
    ("max_tokens", 0, "max_tokens must be >= 1"),
    ("temperature", -0.5, "temperature must be >= 0"),
])
def test_config_refuses_values_no_request_could_use(field, value, message):
    with pytest.raises(ValueError) as exc:
        RunConfig(**{field: value})
    assert str(exc.value) == message


def test_config_accepts_the_smallest_usable_values():
    c = RunConfig(max_prompt_chars=1, max_tokens=1, temperature=0.0)
    assert (c.max_prompt_chars, c.max_tokens, c.temperature) == (1, 1, 0.0)


def test_default_config_matches_the_protocol():
    c = RunConfig()
    assert c.max_revisions == 2
    assert c.samples_per_task == 20
    assert c.design_rag and c.review_rag
