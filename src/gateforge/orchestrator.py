"""Multi-agent generation loop: an explicit state machine over six roles.

UserProxy turns a task pack into a structured brief, Mediator sits between
the other roles, CoderAgent is the only role backed by the language model,
Reviewer gates candidates with deterministic checks (parse, validate,
locked-syntax compliance) and phrases feedback, Executor simulates, and
Summarizer (`summarize`) turns verified designs into knowledge store
entries. Static review always precedes execution, so nothing unparsed or
structurally invalid ever reaches the simulator.

`run_task` only reads the store. Entries are written once per task, after
all of its samples finish, by `summarize` on the calling thread; both
`run_benchmark` and `gateforge run --store` go through it.

Revision policy: a fixed budget shared by functional fixes and the single
optimization round. With the default budget of 2, a task sees at most three
generation attempts. Each candidate (rejected by static review, refused by
the simulator, functionally wrong, correct but inefficient, or accepted)
meets two exit rules: (1) the run is verified on accept, or on any candidate
after the optimization round, keeping the best correct design; (2) otherwise,
once the budget is spent, it is verified if a correct design is held, else
it fails with the candidate's error. Any other candidate gets one feedback
message and costs one revision. Each judged candidate leaves one `Attempt`
record in `TaskRun.attempts`: the two rules read its verdict, the budget
is spent once `max_revisions` attempts got feedback, and the Coder's
prompt carries the feedback of every earlier attempt. It is the one record
a sample keeps: `TaskRun.transcript` rebuilds the role messages from it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from math import inf

from .backends import BackendError, ChatMessage, ModelBackend, SamplingParams
from .boolopt import suggest_optimizations
from .knowledge import (
    KnowledgeEntry,
    KnowledgeStore,
    KnowledgeView,
    RetrievalQuery,
    offer_primary,
)
from .metrics import (
    DEFAULT_WEIGHTS,
    DualReward,
    EvalResult,
    MetricWeights,
    SampleStats,
    VERDICT_ACCEPT,
    VERDICT_EFFICIENCY,
    classify_tier,
    dual_reward,
    measure,
    pass_at_k,
    sei_benchmark,
)
from .netlist import Netlist, StructuralReport, structural_report
from .parser import extract_netlist_block, parse, render
from .simulator import SimOutcome, SimulationError
from .taskpack import (
    BenchmarkReport,
    ReferenceMismatchError,
    TaskPack,
    TaskReportRow,
    mean_by_difficulty,
    simulate_task,
)

ROLE_USER_PROXY = "user_proxy"
ROLE_MEDIATOR = "mediator"
ROLE_CODER = "coder"
ROLE_REVIEWER = "reviewer"
ROLE_EXECUTOR = "executor"

MSG_SPEC = "spec"
MSG_CANDIDATE = "netlist-candidate"
MSG_STATIC_REVIEW = "static-review"
MSG_SIM_RESULT = "sim-result"
MSG_EFFICIENCY_REVIEW = "efficiency-review"
MSG_FIX_REQUEST = "fix-request"
MSG_ACCEPT = "accept"
MSG_ABORT = "abort"

FUNCTIONAL_MISMATCH = "functional-mismatch"
# Candidate verdicts besides those of `dual_reward`.
VERDICT_REJECTED = "static-rejection"
VERDICT_REFUSED = "simulation-refused"

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
        if self.retrieval_limit < 1:
            raise ValueError("retrieval_limit must be >= 1")
        if self.max_prompt_chars < 1:
            raise ValueError("max_prompt_chars must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

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
        """Stable config summary for report embedding (no paths, no times):
        every field in declaration order but four. The backend stands as its
        identity and the worker count changes no result; max_prompt_chars
        does shape prompts, but echoing it would change every results file."""
        unechoed = ("max_prompt_chars", "workers", "backend", "model")
        doc = {"backend": backend_identity, "profile": profile}
        doc |= {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in unechoed}
        return doc | {"pass_ks": list(self.pass_ks),
                      "weights": asdict(self.weights)}


@dataclass(frozen=True)
class Attempt:
    """One judged candidate: the Coder's `reply`, its extracted `block`
    (the review memo's key) and the `review` it was judged by; `reward` is
    set iff it was simulated. `feedback` is the text sent back to the Coder,
    None iff the attempt ended the run; `error_kinds` (what review-side
    retrieval was queried by) and `attachments` (what the feedback message
    carried) go with it. The transcript is rebuilt from these."""
    block: str | None
    verdict: str
    error_kinds: tuple[str, ...] = ()
    reward: DualReward | None = None
    feedback: str | None = None
    attachments: dict = field(default_factory=dict)
    reply: str = field(kw_only=True, repr=False, compare=False)
    review: _Review = field(kw_only=True, repr=False, compare=False)


@dataclass
class TaskRun:
    """One sample; `transcript` is rebuilt from its brief and attempts."""
    task_id: str
    sample_index: int
    status: str                       # verified | failed | error
    attempts: list[Attempt]           # in order
    netlist_text: str | None = None
    netlist: Netlist | None = None    # the design netlist_text renders
    result: EvalResult | None = None
    run_id: str = ""                  # provenance of what summarize learns
    brief: str | None = None          # None iff it could not be written
    wall_seconds: float = 0.0
    error: str | None = None

    @property
    def revisions_used(self) -> int:
        return sum(a.feedback is not None for a in self.attempts)

    @property
    def transcript(self) -> list[AgentMessage]:
        return _transcript(self)


def _format_task_brief(task: TaskPack) -> str:
    ports = [f"  {p.declaration()}" for p in task.ports]
    clock_note = (f"\nClock port: {task.clock} (drive registers from it)"
                  if task.clock else "")
    return (f"Task: {task.id}\n"
            f"Title: {task.title}\n"
            f"Circuit class: {task.circuit_class}{clock_note}\n"
            f"Ports:\n" + "\n".join(ports) + "\n\n"
            f"Specification:\n{task.spec_text.strip()}\n")


def _first_hits(store, queries, limit: int) -> list[KnowledgeEntry]:
    """The queries' hits in order, each entry once, at most `limit`."""
    hits: dict[int, KnowledgeEntry] = {}
    for query in queries:
        for e in store.retrieve(query):
            hits.setdefault(e.id, e)
    return list(hits.values())[:limit]


def _design_retrievals(task: TaskPack, store, cfg: RunConfig,
                       ) -> list[KnowledgeEntry]:
    if store is None or not cfg.design_rag:
        return []
    shape = (len(task.input_bit_names()), len(task.output_bit_names()))
    tags = tuple(task.tags) + (task.circuit_class,)
    return _first_hits(store, (
        RetrievalQuery.by_tags(tags, limit=cfg.retrieval_limit),
        RetrievalQuery.by_interface(shape, limit=cfg.retrieval_limit),
    ), cfg.retrieval_limit)


def _format_retrieved(entries: list[KnowledgeEntry]) -> list[str]:
    blocks = []
    for e in entries:
        header = (f"### pattern {e.name} "
                  f"(gates={e.gate_count}, delay={e.delay}, sei={e.sei:.4f})")
        blocks.append(f"{header}\n```\n{(e.netlist_text or '').strip()}\n```")
    return blocks


def build_prompt(task: TaskPack, retrieved: list[KnowledgeEntry],
                 feedback: list[str], cfg: RunConfig,
                 brief: str | None = None) -> list[ChatMessage]:
    """Deterministic prompt assembly for the Coder.

    Retrieved examples keep their ranking order; when the prompt exceeds
    the configured budget they are dropped lowest-rank-first.
    """
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
    want = {(p.name, p.direction, p.width, p.lsb) for p in task.ports}
    got = {(p.name, p.direction, p.width, p.lsb) for p in netlist.ports}
    lines = []
    for name, d, w, lsb in _by_text(want - got):
        lines.append(f"[interface] missing or mistyped port: {d}put {name} "
                     f"({w} bit(s), lsb {lsb})")
    for name, d, w, lsb in _by_text(got - want):
        lines.append(f"[interface] port not in the task interface: "
                     f"{d}put {name} ({w} bit(s), lsb {lsb})")
    return lines


def _by_text(ports) -> list[tuple]:
    """(name, direction text, width, lsb) of each port, sorted."""
    return sorted((name, d.value, w, lsb) for name, d, w, lsb in ports)


@dataclass(frozen=True)
class _Review:
    """What reviewing one extracted block yields for one task; nothing in
    it depends on the config, the sample or the attempt. `error_kinds` are
    in order of first appearance. `netlist` is set iff the static review
    is clean; then either `outcome` and `report` are set, or `refusal`
    holds the simulator's reason."""
    netlist: Netlist | None
    summary: str
    error_lines: tuple[str, ...] = ()
    error_kinds: tuple[str, ...] = ()
    outcome: SimOutcome | None = None
    report: StructuralReport | None = None
    refusal: str | None = None

    @cached_property
    def rendered(self) -> str | None:
        """The clean design's canonical text, rendered when first read:
        most reviewed designs are never kept, so never rendered."""
        return None if self.netlist is None else render(self.netlist)


def _review(text: str | None, task: TaskPack) -> _Review:
    """Static review of a reply's extracted block (parse, validate,
    interface conformance), then, only if it is clean, simulation."""
    if text is None:
        return _Review(None, "no netlist module found in the reply",
                       ("reply contained no fenced code block with a module",),
                       ("syntax",))
    result = parse(text)
    if not result.ok:
        kinds = tuple(dict.fromkeys(e.kind for e in result.errors))
        return _Review(None, "rejected: " + ", ".join(sorted(kinds)),
                       tuple(str(e) for e in result.errors), kinds)
    netlist = result.netlist
    mismatches = _interface_mismatch(task, netlist)
    if mismatches:
        return _Review(None, "rejected: interface mismatch",
                       tuple(mismatches), ("interface",))
    if task.circuit_class == "combinational" and netlist.registers:
        return _Review(None, "rejected: registers in a combinational task",
                       ("[interface] the task is combinational; "
                        "remove dff instances",), ("interface",))
    clean = "clean parse and structural check"
    try:
        outcome = simulate_task(task, netlist)
    except SimulationError as exc:
        # Conforming interface but unusable wiring (e.g. registers not
        # clocked from the clock port): fed back like a static fault.
        return _Review(netlist, clean, refusal=str(exc))
    return _Review(netlist, clean, outcome=outcome,
                   report=structural_report(netlist))


def verify_reference(task: TaskPack) -> EvalResult:
    """Review the pack's reference design as the Reviewer reviews a reply;
    it must then pass its whole testbench and measure the declared G, D, R."""
    if not task.reference_netlist:
        raise ReferenceMismatchError(f"{task.id}: no reference netlist provided")
    review = _review(task.reference_netlist, task)
    outcome, report = review.outcome, review.report
    if outcome is None:
        raise ReferenceMismatchError(
            f"{task.id}: reference {review.summary}: "
            + (review.refusal or "; ".join(review.error_lines)))
    if outcome.correctness != 1.0:
        raise ReferenceMismatchError(
            f"{task.id}: reference fails its own testbench "
            f"({outcome.passed}/{outcome.passed + outcome.failed}; "
            f"first failure {outcome.first_failure})")
    if task.reference is not None and task.reference.report != report:
        raise ReferenceMismatchError(
            f"{task.id}: declared reference {task.reference.report} does "
            f"not match measured {report}")
    return EvalResult(correctness=1.0, gate_count=report.gate_count,
                      delay=report.delay, sei=measure(report))


def _review_fixes(store, classes: tuple[str, ...], symptom: str,
                  cfg: RunConfig) -> list[KnowledgeEntry]:
    if store is None or not cfg.review_rag:
        return []
    return _first_hits(store, [
        RetrievalQuery.by_error(cls, symptom, limit=cfg.retrieval_limit)
        for cls in classes], cfg.retrieval_limit)


def _verdict(review: _Review, reference_sei: float | None,
             cfg: RunConfig) -> tuple[str, DualReward | None]:
    """A reviewed candidate's verdict, and its dual reward if simulated."""
    if review.netlist is None:
        return VERDICT_REJECTED, None
    if review.outcome is None:
        return VERDICT_REFUSED, None
    reward = dual_reward(review.outcome, review.report, reference_sei,
                         cfg.weights, cfg.efficiency_accept_threshold)
    return reward.verdict, reward


def _transcript(run: TaskRun) -> list[AgentMessage]:
    """The role messages of a sample in turn order, rebuilt from its brief
    and attempts; a message's turn is its index."""
    messages: list[AgentMessage] = []

    def say(sender: str, recipient: str, kind: str, body: str,
            **attachments) -> None:
        messages.append(AgentMessage(sender, recipient, len(messages), kind,
                                     body, attachments))

    if run.brief is None:
        say(ROLE_USER_PROXY, ROLE_MEDIATOR, MSG_ABORT, run.error)
        return messages
    say(ROLE_USER_PROXY, ROLE_MEDIATOR, MSG_SPEC, run.brief)
    say(ROLE_MEDIATOR, ROLE_CODER, MSG_SPEC, run.brief)
    for attempt in run.attempts:
        review, reward, text = attempt.review, attempt.reward, attempt.feedback
        say(ROLE_CODER, ROLE_MEDIATOR, MSG_CANDIDATE, attempt.reply)
        say(ROLE_MEDIATOR, ROLE_REVIEWER, MSG_CANDIDATE, attempt.reply)
        say(ROLE_REVIEWER, ROLE_MEDIATOR, MSG_STATIC_REVIEW, review.summary,
            errors=list(review.error_lines))
        if review.netlist is not None:
            say(ROLE_MEDIATOR, ROLE_EXECUTOR, MSG_CANDIDATE, review.rendered)
        if review.refusal is not None:
            say(ROLE_EXECUTOR, ROLE_MEDIATOR, MSG_SIM_RESULT,
                f"simulation refused: {review.refusal}")
        if reward is not None:
            outcome = review.outcome
            say(ROLE_EXECUTOR, ROLE_MEDIATOR, MSG_SIM_RESULT,
                f"{outcome.passed} passed, {outcome.failed} failed",
                outcome=outcome, report=review.report)
            say(ROLE_MEDIATOR, ROLE_REVIEWER, MSG_SIM_RESULT,
                f"correctness={reward.correctness:.3f}", reward=reward)
        if text is not None and attempt.verdict == VERDICT_EFFICIENCY:
            say(ROLE_REVIEWER, ROLE_MEDIATOR, MSG_EFFICIENCY_REVIEW, text,
                **attempt.attachments)
            say(ROLE_MEDIATOR, ROLE_CODER, MSG_FIX_REQUEST, text)
        elif text is not None:
            say(ROLE_REVIEWER, ROLE_CODER, MSG_FIX_REQUEST, text,
                **attempt.attachments)
    if run.status == "error":
        # Only a failed Coder call ends a run with a brief in error.
        say(ROLE_CODER, ROLE_MEDIATOR, MSG_ABORT, run.error)
    if run.status == "verified":
        say(ROLE_MEDIATOR, ROLE_USER_PROXY, MSG_ACCEPT,
            f"verified with G={run.result.gate_count} D={run.result.delay}")
    else:
        say(ROLE_MEDIATOR, ROLE_USER_PROXY, MSG_ABORT, run.error or run.status)
    return messages


def _feedback(verdict: str, review: _Review, reward: DualReward | None,
              reference_sei: float | None, store, cfg: RunConfig,
              ) -> tuple[str, tuple[str, ...], dict]:
    """(text, error kinds, attachments) of the feedback on a candidate that
    gets another attempt. A rejection or a mismatch queries review-side
    retrieval by its error kinds; the other verdicts have none."""
    if verdict == VERDICT_REFUSED:
        return (f"The design could not be simulated: {review.refusal}\n"
                "Correct the wiring and resend the full module."), (), {}
    if verdict == VERDICT_EFFICIENCY:
        hints = [h.message for h in suggest_optimizations(review.netlist)]
        report = review.report
        # Only a design measured against a reference index is inefficient.
        return ("Design is functionally correct but not efficient enough."
                f" Reference efficiency index is {reference_sei:.4f}; "
                f"this design scores {reward.efficiency:.3f} of it."
                f" Current: gates={report.gate_count}, delay={report.delay}."
                + ("\nOptimization hints:\n"
                   + "\n".join(f"- {h}" for h in hints) if hints else "")
                + "\nResend an improved full module."), (), {"hints": hints}
    if verdict == VERDICT_REJECTED:
        kinds, symptom = review.error_kinds, "; ".join(review.error_lines)
        head = ("Static review failed.\n"
                + "\n".join(f"- {line}" for line in review.error_lines))
        tail = "\nResend one complete module in a fenced code block."
    else:
        outcome, detail = review.outcome, ""
        if outcome.first_failure is not None:
            ff = outcome.first_failure
            detail = (f" First failure: vector {ff.vector_index}, output "
                      f"{ff.port_bit}, expected {ff.expected}, "
                      f"got {ff.actual}.")
        kinds, symptom = (FUNCTIONAL_MISMATCH,), f"simulation mismatch.{detail}"
        head = (f"Simulation failed {outcome.failed} of "
                f"{outcome.passed + outcome.failed} checks.{detail}")
        tail = "\nFix the logic and resend the full module."
    fixes = _review_fixes(store, kinds, symptom, cfg)
    if fixes:
        head += "\nKnown fixes for similar errors:" + "".join(
            f"\n- [{e.error_class}] {e.symptom}: {e.fix}" for e in fixes)
    return head + tail, kinds, {"fixes": [e.name for e in fixes]}


def _brief(task: TaskPack, backend: ModelBackend, cfg: RunConfig) -> str:
    """The templated task brief, or with `cfg.user_proxy_model` the model's
    requirement formalization of it (the template again if that is empty)."""
    template = _format_task_brief(task)
    if not cfg.user_proxy_model:
        return template
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
             sample_index: int = 0, run_id: str = "", *,
             reviews: dict[str | None, _Review] | None = None) -> TaskRun:
    """Drive one task through the full generate/review/simulate loop.
    The store is only read; `summarize` learns from the returned run.

    `reviews` memoizes the review of each distinct extracted block, so a
    repeated candidate is parsed and simulated once; it must only ever see
    this task. Without one, a fresh memo serves this sample's attempts."""
    t0 = time.monotonic()
    if reviews is None:
        reviews = {}
    attempts: list[Attempt] = []
    brief: str | None = None
    # The best correct candidate: its scores and its review.
    best: tuple[EvalResult, _Review] | None = None

    def finish(status: str, error: str | None = None) -> TaskRun:
        result = design = final = None
        if status == "verified":
            result, kept = best
            design, final = kept.netlist, kept.rendered
        return TaskRun(task.id, sample_index, status, attempts,
                       netlist_text=final, netlist=design, result=result,
                       run_id=run_id, brief=brief,
                       wall_seconds=time.monotonic() - t0, error=error)

    backend.start_sample(task.id, sample_index)
    try:
        brief = _brief(task, backend, cfg)
    except BackendError as exc:
        return finish("error", error=str(exc))
    retrieved = _design_retrievals(task, store, cfg)
    reference_sei = task.reference_sei(cfg.weights)

    while True:
        prompt = build_prompt(task, retrieved, [a.feedback for a in attempts],
                              cfg, brief=brief)
        try:
            reply = backend.complete(prompt, cfg.sampling)
        except BackendError as exc:
            return finish("error", error=str(exc))

        block = extract_netlist_block(reply)
        review = reviews.get(block)
        if review is None:
            # Samples on other threads may review the same text at the same
            # moment; the results are equal and a dict write is atomic, so
            # whichever lands last is as good as the other.
            review = reviews[block] = _review(block, task)
        verdict, reward = _verdict(review, reference_sei, cfg)
        if reward is not None and reward.correctness == 1.0:
            report = review.report
            sei = measure(report, cfg.weights)
            if best is None or (sei or inf) > (best[0].sei or inf):
                best = (EvalResult(1.0, report.gate_count, report.delay, sei),
                        review)

        # Exit decision. An accepted candidate is correct, and a spent
        # optimization round means one is held, so by either rule the run
        # is verified iff a correct design is held.
        optimized = VERDICT_EFFICIENCY in (a.verdict for a in attempts)
        text, kinds, attachments = None, (), {}
        if not (verdict == VERDICT_ACCEPT or optimized
                or len(attempts) >= cfg.max_revisions):
            text, kinds, attachments = _feedback(verdict, review, reward,
                                                 reference_sei, store, cfg)
            text = _phrase_feedback(text, backend, cfg)
        attempts.append(Attempt(block, verdict, kinds, reward, text,
                                attachments, reply=reply, review=review))
        if text is None and best is not None:
            return finish("verified")
        if text is None:
            return finish("failed", error=(
                review.summary if review.netlist is None
                else review.refusal if reward is None
                else f"correctness {reward.correctness:.3f} "
                     "after exhausting revisions"))


def summarize(task: TaskPack, runs: list[TaskRun],
              store: KnowledgeStore) -> list[KnowledgeEntry]:
    """The Summarizer: admit what a task's samples learned; returns the
    admitted entries in admission order.

    Call it on one thread once the task's samples all finish, before
    anything else is written to the store, so extraction sees the entries
    the samples retrieved from. Runs are walked in sample order and each
    distinct verified design is extracted once. The results are merged to
    one entry per (signature, interface) key by `offer_primary`, the rule
    the store admits by: a winner moves to the end, which is where storing
    every entry one by one would leave the surviving primary. The store
    therefore ends with the same primaries in the same relative id order,
    without the archived duplicates. They are admitted in one `store`
    call, so the task costs one index write.
    """
    seen: set[str] = set()
    merged: dict[tuple, KnowledgeEntry] = {}
    for run in runs:
        if run.status != "verified" or run.netlist_text in seen:
            continue
        seen.add(run.netlist_text)
        for entry in store.extract_patterns(
                run.netlist, task_id=task.id, run_id=run.run_id,
                tags=task.tags, text=run.netlist_text):
            offer_primary(merged, entry)
    admitted = list(merged.values())
    if admitted:
        store.store(*admitted)
    return admitted


def _report_row(task: TaskPack, runs: list[TaskRun],
                cfg: RunConfig) -> TaskReportRow:
    n = len(runs)
    c = sum(1 for r in runs if r.status == "verified")
    errors = sum(1 for r in runs if r.status == "error")
    best = None
    for r in runs:
        if r.status == "verified" and r.result and r.result.sei is not None:
            if best is None or r.result.sei > best.sei:
                best = r.result
    return TaskReportRow(
        task_id=task.id,
        difficulty=task.difficulty,
        n=n,
        c=c,
        pass_at={k: pass_at_k(SampleStats(n, c, k)) for k in cfg.pass_ks},
        best_gate_count=best.gate_count if best else None,
        best_delay=best.delay if best else None,
        best_sei=best.sei if best else None,
        status="verified" if c else ("error" if errors == n else "failed"),
        errors=errors,
    )


def run_benchmark(tasks: list[TaskPack], cfg: RunConfig,
                  backend: ModelBackend,
                  store: KnowledgeStore | None = None,
                  profile: str | None = None) -> BenchmarkReport:
    """Benchmark sweep: n independent samples per task, aggregated scores.

    Tasks run in order; the samples of one task run on up to `cfg.workers`
    threads and retrieve from a store snapshot taken when the task starts.
    Once they all finish, `summarize` writes what they learned on this
    thread, and the task's report row is built. Later samples of the same
    task therefore cannot retrieve an earlier sample's answer, later tasks
    do see earlier tasks' knowledge, and no result depends on the worker
    count. The samples of a task share one review memo (see `run_task`),
    dropped with the task's runs.
    """
    if not tasks:
        raise ValueError("run_benchmark needs at least one task")
    t0 = time.monotonic()
    samples = range(cfg.samples_per_task)

    rows: list[TaskReportRow] = []
    with (ThreadPoolExecutor(cfg.workers) if cfg.workers > 1
          else nullcontext()) as pool:
        for task in tasks:
            snapshot = store.snapshot() if store is not None else None
            # One review memo per task, shared by its samples. It goes by
            # keyword, so a wrapper that names only run_task's leading
            # parameters passes it on through **kwargs.
            sample = partial(run_task, task, cfg, backend, snapshot,
                             run_id="bench", reviews={})
            runs = list(pool.map(sample, samples) if pool
                        else map(sample, samples))
            if store is not None:
                summarize(task, runs, store)
            rows.append(_report_row(task, runs, cfg))
            # Neither the runs' netlists nor the memo is needed once the row
            # is built.
            del runs, sample

    overall = sei_benchmark([r.best_sei for r in rows], cfg.weights)
    return BenchmarkReport(
        rows=tuple(rows),
        difficulty_pass_at_1=mean_by_difficulty(rows, lambda r: r.pass_at_1),
        difficulty_sei=mean_by_difficulty(rows, lambda r: r.best_sei or 0.0),
        overall_sei=overall,
        tier=classify_tier(overall),
        config=cfg.echo(backend.identity, profile),
        wall_seconds=time.monotonic() - t0,
    )
