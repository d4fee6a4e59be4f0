"""Multi-agent generation loop: an explicit state machine over six roles.

UserProxy turns a task pack into a structured brief, Mediator routes every
message and accounts for the revision budget, CoderAgent is the only role
backed by the language model, Reviewer gates candidates with deterministic
checks (parse, validate, locked-syntax compliance) and phrases feedback,
Executor simulates, and Summarizer extracts verified patterns into the
knowledge store. Static review always precedes execution, so nothing
unparsed or structurally invalid ever reaches the simulator.

Revision policy: a fixed budget shared by functional fixes and the single
optimization round. With the default budget of 2, a task sees at most three
generation attempts.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .backends import BackendError, ChatMessage, ModelBackend, SamplingParams
from .boolopt import suggest_optimizations
from .knowledge import (
    KnowledgeEntry,
    KnowledgeStore,
    KnowledgeView,
    RetrievalQuery,
)
from .metrics import (
    DEFAULT_WEIGHTS,
    EvalResult,
    MetricWeights,
    SampleStats,
    VERDICT_ACCEPT,
    VERDICT_EFFICIENCY,
    VERDICT_FUNCTIONAL,
    classify_tier,
    dual_reward,
    pass_at_k,
    sei_benchmark,
    sei_task,
)
from .netlist import Netlist, structural_report
from .parser import extract_netlist_block, parse, render
from .simulator import SimOutcome, SimulationError
from .taskpack import (
    BenchmarkReport,
    TaskPack,
    TaskReportRow,
    simulate_task,
)

ROLE_USER_PROXY = "user_proxy"
ROLE_MEDIATOR = "mediator"
ROLE_CODER = "coder"
ROLE_REVIEWER = "reviewer"
ROLE_EXECUTOR = "executor"
ROLE_SUMMARIZER = "summarizer"

MSG_SPEC = "spec"
MSG_CANDIDATE = "netlist-candidate"
MSG_STATIC_REVIEW = "static-review"
MSG_SIM_RESULT = "sim-result"
MSG_EFFICIENCY_REVIEW = "efficiency-review"
MSG_FIX_REQUEST = "fix-request"
MSG_ACCEPT = "accept"
MSG_ABORT = "abort"

FUNCTIONAL_MISMATCH = "functional-mismatch"

GRAMMAR_SUMMARY = """\
Write exactly one module in the locked structural netlist language:
  module NAME(input a, input [3:0] bus, output y, ...);
    wire w1, w2;
    and  g1(w1, a, bus[0]);   // KIND instance(out, in1, in2);
    dff  g2(q, d, clk);       // registers: (q, d, clk), clk must be an input port
    assign y = w1;            // plain aliasing only, no operators
  endmodule
Gate kinds: and, or, not, xor, nand (not takes one input, the rest two).
Constants 1'b0 and 1'b1 may drive gate inputs.
Banned: always, initial, if/else, case, loops, functions, tasks, reg
declarations, arithmetic or logical operators in expressions, ternaries.
Reply with the module inside one fenced code block."""


@dataclass(frozen=True)
class AgentMessage:
    sender: str
    recipient: str
    turn: int
    kind: str
    body: str
    attachments: dict = field(default_factory=dict)


class Mediator:
    """Routes messages, owns turn indices and the revision ledger."""

    def __init__(self) -> None:
        self.transcript: list[AgentMessage] = []
        self._turn = 0
        self.revisions_used = 0

    def route(self, sender: str, recipient: str, kind: str, body: str,
              **attachments) -> AgentMessage:
        msg = AgentMessage(sender, recipient, self._turn, kind, body,
                           dict(attachments))
        self._turn += 1
        self.transcript.append(msg)
        return msg

    def charge_revision(self) -> None:
        self.revisions_used += 1


@dataclass(frozen=True)
class RunConfig:
    max_revisions: int = 2
    samples_per_task: int = 20
    design_rag: bool = True
    review_rag: bool = True
    temperature: float = 0.2
    max_tokens: int = 2048
    retrieval_limit: int = 3
    max_prompt_chars: int = 16000
    pass_ks: tuple[int, ...] = (1,)
    weights: MetricWeights = DEFAULT_WEIGHTS
    efficiency_accept_threshold: float = 1.0
    workers: int = 1
    # Backend selector, e.g. "scripted:<path>" or an http(s) endpoint; the
    # CLI resolves it via backends.create_backend. Library callers may pass
    # backend objects directly instead.
    backend: str | None = None
    model: str | None = None
    # Off by default: the brief is templated and review feedback is emitted
    # verbatim, keeping scripted runs trivially deterministic. Turning these
    # on routes the text through the model.
    user_proxy_model: bool = False
    reviewer_phrasing_model: bool = False

    def __post_init__(self) -> None:
        if self.max_revisions < 0:
            raise ValueError("max_revisions must be >= 0")
        if self.samples_per_task < 1:
            raise ValueError("samples_per_task must be >= 1")
        if any(k < 1 or k > self.samples_per_task for k in self.pass_ks):
            raise ValueError("every k must satisfy 1 <= k <= samples_per_task")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def sampling(self) -> SamplingParams:
        return SamplingParams(self.temperature, self.max_tokens)

    @classmethod
    def from_profile(cls, profile: str, **overrides) -> "RunConfig":
        """Ablation profiles: V0 no retrieval, V1 review-side only, V2 full."""
        flags = {
            "V0": {"design_rag": False, "review_rag": False},
            "V1": {"design_rag": False, "review_rag": True},
            "V2": {"design_rag": True, "review_rag": True},
        }
        if profile not in flags:
            raise ValueError(f"unknown profile {profile!r}; pick V0, V1 or V2")
        return cls(**{**flags[profile], **overrides})

    def echo(self, backend_identity: str, profile: str | None = None) -> dict:
        """Stable config summary for report embedding (no paths, no times)."""
        return {
            "backend": backend_identity,
            "profile": profile,
            "max_revisions": self.max_revisions,
            "samples_per_task": self.samples_per_task,
            "design_rag": self.design_rag,
            "review_rag": self.review_rag,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "retrieval_limit": self.retrieval_limit,
            "pass_ks": list(self.pass_ks),
            "weights": {"alpha": self.weights.alpha, "beta": self.weights.beta,
                        "epsilon": self.weights.epsilon,
                        "dff_weight": self.weights.dff_weight},
            "efficiency_accept_threshold": self.efficiency_accept_threshold,
            "user_proxy_model": self.user_proxy_model,
            "reviewer_phrasing_model": self.reviewer_phrasing_model,
        }


@dataclass
class TaskRun:
    task_id: str
    sample_index: int
    status: str                       # verified | failed | error
    transcript: list[AgentMessage]
    revisions_used: int
    netlist_text: str | None = None
    result: EvalResult | None = None
    extracted: list[KnowledgeEntry] = field(default_factory=list)
    wall_seconds: float = 0.0
    error: str | None = None


def _format_task_brief(task: TaskPack) -> str:
    ports = []
    for p in task.ports:
        direction = "input" if p.direction.value == "in" else "output"
        width = f" [{p.msb}:{p.lsb}]" if p.width > 1 else ""
        ports.append(f"  {direction}{width} {p.name}")
    clock_note = (f"\nClock port: {task.clock} (drive registers from it)"
                  if task.clock else "")
    return (f"Task: {task.id}\n"
            f"Title: {task.title}\n"
            f"Circuit class: {task.circuit_class}{clock_note}\n"
            f"Ports:\n" + "\n".join(ports) + "\n\n"
            f"Specification:\n{task.spec_text.strip()}\n")


def _design_retrievals(task: TaskPack, store, cfg: RunConfig,
                       ) -> list[KnowledgeEntry]:
    if store is None:
        return []
    n_in = len(task.input_bit_names())
    n_out = len(task.output_bit_names())
    tags = tuple(task.tags) + (task.circuit_class,)
    ranked: list[KnowledgeEntry] = []
    seen: set[int] = set()
    for hit in store.retrieve(RetrievalQuery.by_tags(tags, limit=cfg.retrieval_limit)):
        if hit.id not in seen:
            ranked.append(hit)
            seen.add(hit.id)
    for hit in store.retrieve(RetrievalQuery.by_interface((n_in, n_out),
                                                          limit=cfg.retrieval_limit)):
        if hit.id not in seen:
            ranked.append(hit)
            seen.add(hit.id)
    return ranked[:cfg.retrieval_limit]


def _format_retrieved(entries: list[KnowledgeEntry]) -> list[str]:
    blocks = []
    for e in entries:
        header = (f"### pattern {e.name} "
                  f"(gates={e.gate_count}, delay={e.delay}, sei={e.sei:.4f})")
        blocks.append(f"{header}\n```\n{(e.netlist_text or '').strip()}\n```")
    return blocks


def build_prompt(role: str, task: TaskPack, retrieved: list[KnowledgeEntry],
                 feedback: list[str], cfg: RunConfig,
                 brief: str | None = None) -> list[ChatMessage]:
    """Deterministic prompt assembly for a model-backed role.

    Retrieved examples keep their ranking order; when the prompt exceeds
    the configured budget they are dropped lowest-rank-first.
    """
    if role != ROLE_CODER:
        raise ValueError(f"role {role!r} is not model-backed")
    system = ("You are a gate-level circuit designer. Produce minimal, "
              "correct netlists.\n\n" + GRAMMAR_SUMMARY)
    if brief is None:
        brief = _format_task_brief(task)
    feedback_text = ""
    if feedback:
        feedback_text = "\n\nFeedback on earlier attempts:\n" + "\n\n".join(feedback)

    blocks = _format_retrieved(retrieved)
    while True:
        retrieved_text = ""
        if blocks:
            retrieved_text = ("\n\nReference patterns, best first "
                              "(reuse or adapt them):\n" + "\n\n".join(blocks))
        user = brief + retrieved_text + feedback_text
        if len(system) + len(user) <= cfg.max_prompt_chars or not blocks:
            break
        blocks.pop()
    return [ChatMessage("system", system), ChatMessage("user", user)]


def _interface_mismatch(task: TaskPack, netlist: Netlist) -> list[str]:
    want = {(p.name, p.direction.value, p.width, p.lsb) for p in task.ports}
    got = {(p.name, p.direction.value, p.width, p.lsb) for p in netlist.ports}
    lines = []
    for name, d, w, lsb in sorted(want - got):
        lines.append(f"[interface] missing or mistyped port: {d}put {name} "
                     f"({w} bit(s), lsb {lsb})")
    for name, d, w, lsb in sorted(got - want):
        lines.append(f"[interface] port not in the task interface: "
                     f"{d}put {name} ({w} bit(s), lsb {lsb})")
    return lines


def _static_review(reply: str, task: TaskPack,
                   ) -> tuple[Netlist | None, str, list[str]]:
    """Parse, validate and check interface conformance of a raw reply.
    Returns (netlist, summary, error lines)."""
    src = extract_netlist_block(reply)
    if src is None:
        return None, "no netlist module found in the reply", \
            ["reply contained no fenced code block with a module"]
    result = parse(src)
    if not result.ok:
        lines = [str(e) for e in result.errors]
        classes = sorted({e.kind for e in result.errors})
        return None, "rejected: " + ", ".join(classes), lines
    mismatches = _interface_mismatch(task, result.netlist)
    if mismatches:
        return None, "rejected: interface mismatch", mismatches
    if task.circuit_class == "combinational" and result.netlist.dff_gates():
        return None, "rejected: registers in a combinational task", \
            ["[interface] the task is combinational; remove dff instances"]
    return result.netlist, "clean parse and structural check", []


def _error_classes(reply_errors: list[str]) -> list[str]:
    classes = []
    for line in reply_errors:
        if "[" in line and "]" in line:
            cls = line.split("[", 1)[1].split("]", 1)[0]
            if cls not in classes:
                classes.append(cls)
    return classes


def _review_fixes(store, classes: list[str], symptom: str,
                  cfg: RunConfig) -> list[KnowledgeEntry]:
    if store is None or not cfg.review_rag:
        return []
    hits: list[KnowledgeEntry] = []
    seen: set[int] = set()
    for cls in classes:
        for e in store.retrieve(RetrievalQuery.by_error(cls, symptom,
                                                        limit=cfg.retrieval_limit)):
            if e.id not in seen:
                hits.append(e)
                seen.add(e.id)
    return hits[:cfg.retrieval_limit]


def _format_fixes(fixes: list[KnowledgeEntry]) -> str:
    if not fixes:
        return ""
    lines = ["", "Known fixes for similar errors:"]
    for e in fixes:
        lines.append(f"- [{e.error_class}] {e.symptom}: {e.fix}")
    return "\n".join(lines)


def _model_formalized_brief(task: TaskPack, backend: ModelBackend,
                            cfg: RunConfig) -> str:
    """Model-backed requirement formalization (behind a config flag)."""
    template = _format_task_brief(task)
    prompt = [
        ChatMessage("system",
                    "Rewrite the following circuit task brief as a precise, "
                    "complete requirement statement. Keep the Task, Circuit "
                    "class and Ports lines exactly as given."),
        ChatMessage("user", template),
    ]
    reply = backend.complete(prompt, cfg.sampling)
    return reply if reply.strip() else template


def _phrase_feedback(text: str, backend: ModelBackend,
                     cfg: RunConfig) -> str:
    """Optional model pass over review feedback; the deterministic findings
    are always appended verbatim so nothing can be lost in rephrasing."""
    if not cfg.reviewer_phrasing_model:
        return text
    prompt = [
        ChatMessage("system",
                    "Rephrase this review feedback for a circuit designer. "
                    "Be direct and keep every technical detail."),
        ChatMessage("user", text),
    ]
    try:
        reply = backend.complete(prompt, cfg.sampling)
    except BackendError:
        return text
    if not reply.strip():
        return text
    return f"{reply.strip()}\n\nVerbatim findings:\n{text}"


def run_task(task: TaskPack, cfg: RunConfig, backend: ModelBackend,
             store: KnowledgeStore | KnowledgeView | None = None,
             sample_index: int = 0, run_id: str = "",
             apply_store_writes: bool = True) -> TaskRun:
    """Drive one task through the full generate/review/simulate loop."""
    t0 = time.monotonic()
    mediator = Mediator()
    backend.start_sample(task.id, sample_index)

    if cfg.user_proxy_model:
        try:
            brief = _model_formalized_brief(task, backend, cfg)
        except BackendError as exc:
            mediator.route(ROLE_USER_PROXY, ROLE_MEDIATOR, MSG_ABORT, str(exc))
            return TaskRun(task.id, sample_index, "error",
                           mediator.transcript, 0,
                           wall_seconds=time.monotonic() - t0, error=str(exc))
    else:
        brief = _format_task_brief(task)
    mediator.route(ROLE_USER_PROXY, ROLE_MEDIATOR, MSG_SPEC, brief)
    mediator.route(ROLE_MEDIATOR, ROLE_CODER, MSG_SPEC, brief)

    retrieved = _design_retrievals(task, store, cfg) if cfg.design_rag else []
    reference_sei = task.reference_sei(cfg.weights)

    feedback: list[str] = []
    best: tuple[float, Netlist, SimOutcome] | None = None
    efficiency_round_done = False

    def finish(status: str, error: str | None = None) -> TaskRun:
        final_text = None
        result = None
        extracted: list[KnowledgeEntry] = []
        if status == "verified" and best is not None:
            netlist = best[1]
            final_text = render(netlist)
            recheck = parse(final_text)
            if not recheck.ok:
                raise RuntimeError("verified netlist failed the final re-parse")
            outcome = simulate_task(task, recheck.netlist)
            if outcome.correctness != 1.0:
                raise RuntimeError("verified netlist failed re-simulation")
            report = structural_report(recheck.netlist)
            sei = None
            if report.gate_count + report.delay > 0:
                sei = sei_task(report.gate_count, report.delay, cfg.weights)
            result = EvalResult(1.0, report.gate_count, report.delay, sei,
                                classify_tier(sei) if sei is not None else None)
            if store is not None:
                extracted = store.extract_patterns(
                    recheck.netlist, task_id=task.id, run_id=run_id,
                    tags=task.tags)
                mediator.route(ROLE_SUMMARIZER, ROLE_MEDIATOR, MSG_ACCEPT,
                               f"extracted {len(extracted)} pattern(s)")
                if apply_store_writes and isinstance(store, KnowledgeStore):
                    for e in extracted:
                        store.store(e)
            mediator.route(ROLE_MEDIATOR, ROLE_USER_PROXY, MSG_ACCEPT,
                           f"verified with G={report.gate_count} "
                           f"D={report.delay}")
        else:
            mediator.route(ROLE_MEDIATOR, ROLE_USER_PROXY, MSG_ABORT,
                           error or status)
        return TaskRun(
            task_id=task.id,
            sample_index=sample_index,
            status=status,
            transcript=mediator.transcript,
            revisions_used=mediator.revisions_used,
            netlist_text=final_text,
            result=result,
            extracted=extracted,
            wall_seconds=time.monotonic() - t0,
            error=error,
        )

    while True:
        prompt = build_prompt(ROLE_CODER, task, retrieved, feedback, cfg,
                              brief=brief)
        try:
            reply = backend.complete(prompt, cfg.sampling)
        except BackendError as exc:
            mediator.route(ROLE_CODER, ROLE_MEDIATOR, MSG_ABORT, str(exc))
            return finish("error", error=str(exc))
        mediator.route(ROLE_CODER, ROLE_MEDIATOR, MSG_CANDIDATE, reply)
        mediator.route(ROLE_MEDIATOR, ROLE_REVIEWER, MSG_CANDIDATE, reply)

        netlist, summary, error_lines = _static_review(reply, task)
        mediator.route(ROLE_REVIEWER, ROLE_MEDIATOR, MSG_STATIC_REVIEW, summary,
                       errors=list(error_lines))

        if netlist is None:
            if efficiency_round_done and best is not None:
                return finish("verified")
            if mediator.revisions_used >= cfg.max_revisions:
                return finish("failed", error=summary)
            classes = _error_classes(error_lines) or ["syntax"]
            fixes = _review_fixes(store, classes, "; ".join(error_lines), cfg)
            text = _phrase_feedback(
                "Static review failed.\n"
                + "\n".join(f"- {line}" for line in error_lines)
                + _format_fixes(fixes)
                + "\nResend one complete module in a fenced code block.",
                backend, cfg)
            feedback.append(text)
            mediator.charge_revision()
            mediator.route(ROLE_REVIEWER, ROLE_CODER, MSG_FIX_REQUEST, text,
                           fixes=[e.name for e in fixes])
            continue

        # The candidate only reaches the Executor with a clean static review.
        mediator.route(ROLE_MEDIATOR, ROLE_EXECUTOR, MSG_CANDIDATE,
                       render(netlist))
        try:
            outcome = simulate_task(task, netlist)
        except SimulationError as exc:
            # Conforming interface but unusable wiring (e.g. registers not
            # clocked from the clock port): feed back like any static fault.
            mediator.route(ROLE_EXECUTOR, ROLE_MEDIATOR, MSG_SIM_RESULT,
                           f"simulation refused: {exc}")
            if efficiency_round_done and best is not None:
                return finish("verified")
            if mediator.revisions_used >= cfg.max_revisions:
                return finish("failed", error=str(exc))
            text = _phrase_feedback(
                f"The design could not be simulated: {exc}\n"
                "Correct the wiring and resend the full module.",
                backend, cfg)
            feedback.append(text)
            mediator.charge_revision()
            mediator.route(ROLE_REVIEWER, ROLE_CODER, MSG_FIX_REQUEST, text)
            continue
        report = structural_report(netlist)
        mediator.route(ROLE_EXECUTOR, ROLE_MEDIATOR, MSG_SIM_RESULT,
                       f"{outcome.passed} passed, {outcome.failed} failed",
                       outcome=outcome, report=report)
        reward = dual_reward(outcome, report, reference_sei, cfg.weights,
                             cfg.efficiency_accept_threshold)
        mediator.route(ROLE_MEDIATOR, ROLE_REVIEWER, MSG_SIM_RESULT,
                       f"correctness={reward.correctness:.3f}", reward=reward)

        if reward.correctness == 1.0:
            sei = None
            if report.gate_count + report.delay > 0:
                sei = sei_task(report.gate_count, report.delay, cfg.weights)
            score = sei if sei is not None else float("inf")
            if best is None or score > best[0]:
                best = (score, netlist, outcome)

        if reward.verdict == VERDICT_ACCEPT or efficiency_round_done:
            if best is not None:
                return finish("verified")
            # Correctness < 1 after the optimization round with no earlier
            # verified candidate cannot happen (the round needs one).
            return finish("failed", error="no verified candidate")

        if reward.verdict == VERDICT_FUNCTIONAL:
            if mediator.revisions_used >= cfg.max_revisions:
                if best is not None:
                    return finish("verified")
                return finish("failed",
                              error=f"correctness {reward.correctness:.3f} "
                                    "after exhausting revisions")
            detail = ""
            if outcome.first_failure is not None:
                ff = outcome.first_failure
                detail = (f" First failure: vector {ff.vector_index}, output "
                          f"{ff.port_bit}, expected {ff.expected}, "
                          f"got {ff.actual}.")
            symptom = f"simulation mismatch.{detail}"
            fixes = _review_fixes(store, [FUNCTIONAL_MISMATCH], symptom, cfg)
            text = _phrase_feedback(
                f"Simulation failed {outcome.failed} of "
                f"{outcome.passed + outcome.failed} checks.{detail}"
                + _format_fixes(fixes)
                + "\nFix the logic and resend the full module.",
                backend, cfg)
            feedback.append(text)
            mediator.charge_revision()
            mediator.route(ROLE_REVIEWER, ROLE_CODER, MSG_FIX_REQUEST, text,
                           fixes=[e.name for e in fixes])
            continue

        # Efficiency feedback: one optimization round within the budget.
        assert reward.verdict == VERDICT_EFFICIENCY
        if mediator.revisions_used >= cfg.max_revisions:
            return finish("verified")
        hints = suggest_optimizations(netlist)
        hint_lines = [f"- {h.message}" for h in hints]
        target = ""
        if reference_sei is not None:
            target = (f" Reference efficiency index is {reference_sei:.4f}; "
                      f"this design scores {reward.efficiency:.3f} of it.")
        text = _phrase_feedback(
            "Design is functionally correct but not efficient enough."
            + target
            + f" Current: gates={report.gate_count}, delay={report.delay}."
            + ("\nOptimization hints:\n" + "\n".join(hint_lines)
               if hint_lines else "")
            + "\nResend an improved full module.",
            backend, cfg)
        feedback.append(text)
        efficiency_round_done = True
        mediator.charge_revision()
        mediator.route(ROLE_REVIEWER, ROLE_MEDIATOR, MSG_EFFICIENCY_REVIEW,
                       text, hints=[h.message for h in hints])
        mediator.route(ROLE_MEDIATOR, ROLE_CODER, MSG_FIX_REQUEST, text)


def _run_one_task_samples(task: TaskPack, cfg: RunConfig,
                          backend: ModelBackend,
                          snapshot: KnowledgeView | None,
                          run_id: str) -> list[TaskRun]:
    runs = []
    for i in range(cfg.samples_per_task):
        runs.append(run_task(task, cfg, backend, snapshot, sample_index=i,
                             run_id=run_id, apply_store_writes=False))
    return runs


def _merge_extracted(runs: list[TaskRun]) -> list[KnowledgeEntry]:
    """One entry per (signature, interface) key from a task's samples.

    Runs are walked in sample order. An entry replaces the one held for its
    key only when its efficiency index is strictly higher, and then moves to
    the end, which is where storing every entry one by one would leave the
    surviving primary; the store therefore ends with the same primaries in
    the same relative id order, without the archived duplicates.
    """
    merged: dict[tuple, KnowledgeEntry] = {}
    for r in runs:
        for entry in r.extracted:
            key = (entry.signature_digest, entry.inputs, entry.outputs)
            held = merged.get(key)
            if held is not None:
                if (entry.sei or 0.0) <= (held.sei or 0.0) + 1e-12:
                    continue
                del merged[key]
            merged[key] = entry
    return list(merged.values())


def run_benchmark(tasks: list[TaskPack], cfg: RunConfig,
                  backend: ModelBackend,
                  store: KnowledgeStore | None = None,
                  profile: str | None = None) -> BenchmarkReport:
    """Benchmark sweep: n independent samples per task, aggregated scores.

    Samples of one task retrieve from a store snapshot taken when the task
    starts; pattern writes land only after all of the task's samples finish,
    as one merged set of entries in sample order. Later samples of the same
    task therefore cannot retrieve an earlier sample's answer, while later
    tasks do see earlier tasks' knowledge.
    """
    if not tasks:
        raise ValueError("run_benchmark needs at least one task")
    t0 = time.monotonic()
    run_id = "bench"

    def one_task(task: TaskPack) -> list[TaskRun]:
        snapshot = store.snapshot() if store is not None else None
        runs = _run_one_task_samples(task, cfg, backend, snapshot, run_id)
        if store is not None:
            for entry in _merge_extracted(runs):
                store.store(entry)
        return runs

    all_runs: dict[str, list[TaskRun]] = {}
    if cfg.workers == 1 or len(tasks) == 1:
        for task in tasks:
            all_runs[task.id] = one_task(task)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            for task, runs in zip(tasks, pool.map(one_task, tasks)):
                all_runs[task.id] = runs

    rows: list[TaskReportRow] = []
    for task in tasks:
        runs = all_runs[task.id]
        n = len(runs)
        c = sum(1 for r in runs if r.status == "verified")
        errors = sum(1 for r in runs if r.status == "error")
        pass_at = {k: pass_at_k(SampleStats(n, c, k)) for k in cfg.pass_ks}
        best = None
        for r in runs:
            if r.status == "verified" and r.result and r.result.sei is not None:
                if best is None or r.result.sei > best.sei:
                    best = r.result
        status = "verified" if c else ("error" if errors == n else "failed")
        rows.append(TaskReportRow(
            task_id=task.id,
            difficulty=task.difficulty,
            n=n,
            c=c,
            pass_at=pass_at,
            best_gate_count=best.gate_count if best else None,
            best_delay=best.delay if best else None,
            best_sei=best.sei if best else None,
            status=status,
            errors=errors,
        ))

    by_difficulty: dict[str, list[TaskReportRow]] = {}
    for row in rows:
        by_difficulty.setdefault(row.difficulty, []).append(row)
    difficulty_pass_at_1 = {
        d: sum(r.pass_at.get(1, 0.0) for r in drows) / len(drows)
        for d, drows in sorted(by_difficulty.items())
    }
    difficulty_sei = {
        d: sum(r.best_sei or 0.0 for r in drows) / len(drows)
        for d, drows in sorted(by_difficulty.items())
    }
    overall = sei_benchmark([r.best_sei for r in rows], cfg.weights)
    return BenchmarkReport(
        rows=tuple(rows),
        difficulty_pass_at_1=difficulty_pass_at_1,
        difficulty_sei=difficulty_sei,
        overall_sei=overall,
        tier=classify_tier(overall),
        config=cfg.echo(backend.identity, profile),
        wall_seconds=time.monotonic() - t0,
    )
