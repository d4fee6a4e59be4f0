"""Every review-loop run on a seeded corpus matches recorded digests.

Each seed task is driven through `run_task` under five configurations (no
store, review retrieval only, full retrieval on a snapshot, full retrieval
with the model-written brief and feedback phrasing, full retrieval on the
live store, where `summarize` learns from each sample before the next)
with seeded reply sequences. Replies are drawn from: prose with
no code block, behavioural or unknown constructs, an extra port, a register
in a combinational task, a register clocked from the wrong port, a gate-kind
swap that fails the testbench, an inverter pair inserted at one of two
places, and the reference. Budgets range from 0 to 3 revisions, so every outcome is seen
both with budget left and with the budget spent.

For each run the `TaskRun` attributes in `RECORDED` are hashed (the
transcript as the `repr` of its messages, attachments included), together
with every prompt the backend received and every retrieval query the store
answered. One digest per (configuration, task) batch is stored in
`data/review_loop_golden.txt`; the last line digests the live store's
records. Any change in what the loop decides, says, asks the model or
retrieves shows up as a batch mismatch.

To record the digests again, when a transcript is meant to change:

    PYTHONPATH=src python tests/test_review_loop_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import tempfile
from pathlib import Path

import pytest

from gateforge.backends import BackendError, ModelBackend
from gateforge.knowledge import (
    KnowledgeStore,
    make_error_fix_entry,
    make_pattern_entry,
)
from gateforge.netlist import structural_report
from gateforge.orchestrator import (
    MSG_EFFICIENCY_REVIEW,
    MSG_STATIC_REVIEW,
    RunConfig,
    TaskRun,
    run_task,
    summarize,
)
from gateforge.parser import parse
from gateforge.taskpack import builtin_task_packs, simulate_task

DIGESTS = Path(__file__).resolve().parent / "data" / "review_loop_golden.txt"
SEED = 20261018
CONFIGS = (
    # name, RunConfig overrides, store: None | "view" | "live", random samples
    ("V0", {"design_rag": False, "review_rag": False}, None, 10),
    ("V1", {"design_rag": False, "review_rag": True}, "view", 6),
    ("V2", {}, "view", 6),
    ("V2-model", {"user_proxy_model": True, "reviewer_phrasing_model": True},
     "view", 10),
    ("V2-live", {}, "live", 3),
)
BUDGETS = (0, 1, 2, 2, 3)
COMB_KINDS = ("nofence", "behavioral", "extra_port", "dff", "swap",
              "invpair", "invpair_twin", "reference")
SEQ_KINDS = ("nofence", "behavioral", "extra_port", "misclocked", "swap",
             "invpair", "invpair_twin", "reference")
BEHAVIORAL_LINES = (
    "  reg spare_r;",
    "  always @(posedge {a}) begin end",
    "  assign {y} = {a} & {b};",
    "  nor gspare(spare_w, {a}, {b});\n  reg spare_r;",
    "  xor gspare(spare_w, {a});",
    "  and gspare(spare_w {a}, {b});",
)
FIXES = (
    ("syntax", "expected ';'", "end every statement with a semicolon"),
    ("behavioral-construct", "always block or reg declaration",
     "instantiate gates instead of procedural code"),
    ("behavioral-construct", "operator in an assign expression",
     "replace operators with explicit gate instances"),
    ("unknown-primitive", "nor gate", "use nand/not or or/not instead"),
    ("interface", "port not in the task interface",
     "declare exactly the ports of the task"),
    ("functional-mismatch", "simulation mismatch",
     "check each output against the truth table"),
)
GATE_LINE = re.compile(r"^(\s*)(and|or|xor|nand|not|dff)(\s+\w+\()(.*)\);$")


def _fence(text: str) -> str:
    return f"Here is the design.\n```\n{text}```\n"


def _gate_lines(text: str) -> list[tuple[int, re.Match]]:
    return [(i, m) for i, ln in enumerate(text.split("\n"))
            if (m := GATE_LINE.match(ln))]


def _swapped(task, ref: str, rng: random.Random) -> str:
    """The reference with one gate's kind changed so the testbench fails."""
    lines = ref.split("\n")
    options = [(i, k) for i, m in _gate_lines(ref)
               if m.group(2) in ("and", "or", "xor", "nand")
               for k in ("and", "or", "xor", "nand") if k != m.group(2)]
    rng.shuffle(options)
    for i, kind in options:
        m = GATE_LINE.match(lines[i])
        text = "\n".join(lines[:i] + [m.group(1) + kind + m.group(3)
                                      + m.group(4) + ");"] + lines[i + 1:])
        if simulate_task(task, parse(text).netlist).correctness < 1.0:
            return text
    raise AssertionError(f"{task.id}: no gate-kind swap fails the testbench")


def _inverter_pairs(task, ref: str, rng: random.Random) -> tuple[str, str]:
    """Two texts of the reference with two inverters between one gate and
    its output, at different gates; equally large where the task allows,
    so that which correct design is kept shows."""
    texts = []
    lines = ref.split("\n")
    sites = [(i, m) for i, m in _gate_lines(ref) if m.group(2) != "dff"]
    rng.shuffle(sites)
    for i, m in sites:
        out, _, rest = m.group(4).partition(", ")
        edited = lines[:i] + [
            f"{m.group(1)}{m.group(2)}{m.group(3)}spare_n0, {rest});",
            "  not gspare1(spare_n1, spare_n0);",
            f"  not gspare2({out}, spare_n1);"] + lines[i + 1:]
        edited.insert(1, "  wire spare_n0, spare_n1;")
        texts.append("\n".join(edited))
    size = {t: structural_report(parse(t).netlist) for t in texts}
    twins = [t for t in texts[1:] if size[t] == size[texts[0]]]
    return texts[0], (twins + texts[1:])[0]


def _misclocked(task, ref: str) -> str | None:
    others = [p.name for p in task.ports if p.direction.value == "in"
              and p.width == 1 and p.name != task.clock]
    if not others:
        return None
    return re.sub(rf"(dff\s+\w+\(.*), {task.clock}\);", rf"\1, {others[0]});",
                  ref, count=1)


def reply_menu(task) -> dict[str, object]:
    """Per task: each reply kind's text, or a function of the rng."""
    rng = random.Random(f"{SEED}:{task.id}")
    ref = task.reference_netlist
    inputs = task.input_bit_names()
    a, b = inputs[0], inputs[-1]
    y = task.output_bit_names()[0]
    behavioral = [_fence(ref.replace("endmodule", line.format(a=a, b=b, y=y)
                                     + "\nendmodule"))
                  for line in BEHAVIORAL_LINES]
    pair, twin = _inverter_pairs(task, ref, rng)
    menu: dict[str, object] = {
        "nofence": lambda r: r.choice([
            "I cannot produce a netlist for this specification.",
            "The design uses two gates; see the description above."]),
        "behavioral": lambda r: r.choice(behavioral),
        "extra_port": _fence(ref.replace("(", "(input spare_in, ", 1)),
        "swap": _fence(_swapped(task, ref, rng)),
        "invpair": _fence(pair),
        "invpair_twin": _fence(twin),
        "reference": _fence(ref),
    }
    if task.circuit_class == "combinational":
        menu["dff"] = _fence(ref.replace(
            "endmodule", f"  wire spare_q;\n  dff gspare(spare_q, {a}, {b});"
            "\nendmodule"))
    else:
        misclocked = _misclocked(task, ref)
        menu["misclocked"] = (_fence(misclocked) if misclocked
                              else menu["swap"])
    return menu


class GoldenBackend(ModelBackend):
    """Serves one sample's seeded plan: coder replies in order (the last
    repeats), and seeded answers to brief and phrasing requests, some of
    them empty and some of them backend errors. Every prompt is logged."""

    identity = "golden"

    def __init__(self) -> None:
        self.plan: dict = {}
        self.log: list[str] = []
        self._coder = 0
        self._phrase = 0

    def start_sample(self, task_id, sample_index):
        self.log.append(f"start {task_id} {sample_index}")
        self._coder = self._phrase = 0

    def complete(self, messages, params):
        self.log.append(hashlib.sha256(json.dumps(
            [[m.role, m.content] for m in messages]).encode()).hexdigest())
        system = messages[0].content
        if system.startswith("Rewrite"):
            return self._answer(self.plan["brief"], messages[1].content,
                                "Formal requirement.\n")
        if system.startswith("Rephrase"):
            actions = self.plan["phrase"]
            action = actions[min(self._phrase, len(actions) - 1)]
            self._phrase += 1
            return self._answer(action, messages[1].content, "In short: ")
        if self._coder == self.plan["coder_error_at"]:
            raise BackendError("connection reset by peer")
        replies = self.plan["replies"]
        reply = replies[min(self._coder, len(replies) - 1)]
        self._coder += 1
        return reply

    @staticmethod
    def _answer(action: str, text: str, prefix: str) -> str:
        if action == "error":
            raise BackendError("rate limited")
        if action == "empty":
            return "  \n"
        return prefix + text.split("\n", 1)[0]


def sample_plans(rng: random.Random, kinds: tuple[str, ...], menu: dict,
                 samples: int, ladders: bool):
    """(plan, budget) per sample. With `ladders`, every kind first comes
    alone with one revision, then after an inefficient design with two;
    `samples` random sequences follow."""
    picks = []
    if ladders:
        picks = [((k,), 1) for k in kinds] + [(("invpair", k), 2)
                                              for k in kinds]
    picks += [(tuple(rng.choice(kinds) for _ in range(rng.randint(1, 4))),
               rng.choice(BUDGETS)) for _ in range(samples)]
    for seq, budget in picks:
        yield {
            "replies": [menu[k](rng) if callable(menu[k]) else menu[k]
                        for k in seq],
            "coder_error_at": rng.choice([None] * 9 + [1]),
            "brief": rng.choice(["text"] * 6 + ["empty", "error"]),
            "phrase": [rng.choice(["text", "text", "empty", "error"])
                       for _ in range(4)],
        }, budget


def _seeded_store(root: Path) -> KnowledgeStore:
    store = KnowledgeStore(root)
    for cls, symptom, fix in FIXES:
        store.store(make_error_fix_entry(cls, symptom, fix))
    for task in builtin_task_packs():
        if task.id in ("full_adder", "mux2", "xnor2", "seq101"):
            store.store(make_pattern_entry(parse(task.reference_netlist).netlist,
                                           tags=tuple(task.tags)))
    return store


def _logged_retrieval(store, log: list[str]):
    retrieve = store.retrieve

    def logging_retrieve(query):
        hits = retrieve(query)
        log.append(f"{query!r} -> {[e.id for e in hits]}")
        return hits

    store.retrieve = logging_retrieve
    return store


RECORDED = ("task_id", "sample_index", "status", "transcript", "attempts",
            "netlist_text", "netlist", "result", "run_id", "error")


def run_record(run: TaskRun, calls: list[str], queries: list[str]) -> list:
    record = [repr(getattr(run, name)) for name in RECORDED]
    return record + [list(calls), list(queries)]


def corpus_runs(root: Path,
                ) -> tuple[list[list[list]], list[TaskRun], list, list]:
    """(records per batch, every run, the live store's records, the entries
    `summarize` admitted after each live sample)."""
    tasks = builtin_task_packs()
    menus = {t.id: reply_menu(t) for t in tasks}
    batches, runs, learned = [], [], []
    live = _seeded_store(root / "live")
    for name, overrides, store_kind, samples in CONFIGS:
        base = _seeded_store(root / name) if store_kind == "view" else None
        for task in tasks:
            rng = random.Random(f"{SEED}:{name}:{task.id}")
            kinds = COMB_KINDS if task.circuit_class == "combinational" \
                else SEQ_KINDS
            backend = GoldenBackend()
            queries: list[str] = []
            store = None
            if store_kind == "view":
                store = _logged_retrieval(base.snapshot(), queries)
            elif store_kind == "live":
                store = _logged_retrieval(live, queries)
            batch = []
            plans = sample_plans(rng, kinds, menus[task.id], samples,
                                 ladders=store_kind != "live")
            for i, (backend.plan, budget) in enumerate(plans):
                cfg = RunConfig(max_revisions=budget, samples_per_task=1,
                                **overrides)
                del backend.log[:], queries[:]
                run = run_task(task, cfg, backend, store, i, run_id=name)
                if store_kind == "live":
                    learned.append(summarize(task, [run], live))
                runs.append(run)
                batch.append(run_record(run, backend.log, queries))
            batches.append(batch)
    records = [{k: v for k, v in e.to_record().items()
                if k != "netlist_text"}
               | {"netlist_text": e.netlist_text}
               for e in live.entries(include_archived=True)]
    return batches, runs, records, learned


def digests(batches: list[list[list]], records: list) -> list[str]:
    return [hashlib.sha256(json.dumps(b).encode()).hexdigest()
            for b in batches + [records]]


@pytest.fixture(scope="module")
def corpus():
    with tempfile.TemporaryDirectory() as tmp:
        return corpus_runs(Path(tmp))


def final_outcome(run: TaskRun) -> str:
    """How the last candidate of a run was judged."""
    return run.attempts[-1].verdict


def test_corpus_covers_every_path(corpus):
    batches, runs, records, learned = corpus
    statuses = {r.status for r in runs}
    assert statuses == {"verified", "failed", "error"}
    # One attempt record per candidate that reached the Reviewer.
    assert all(len(r.attempts) == sum(m.kind == MSG_STATIC_REVIEW
                                      for m in r.transcript) for r in runs)
    errors = [r.error for r in runs if r.status == "failed"]
    # Budget spent on each failing outcome.
    assert any(e.startswith("rejected: ") for e in errors)
    assert any(e.startswith("no netlist module") for e in errors)
    assert any("is not clocked by" in e for e in errors)
    assert any("after exhausting revisions" in e for e in errors)
    # Budget spent on an inefficient correct design, and every outcome
    # met after the optimization round.
    optimized = [r for r in runs if r.status == "verified" and any(
        m.kind == MSG_EFFICIENCY_REVIEW for m in r.transcript)]
    assert {final_outcome(r) for r in optimized} == {
        "static-rejection", "simulation-refused", "functional-feedback",
        "efficiency-feedback", "accept"}
    assert any(r.status == "verified" and r.revisions_used == 0 and
               r.result.gate_count > 5 for r in runs)
    bodies = [m.body for r in runs for m in r.transcript]
    assert any("Known fixes for similar errors" in b for b in bodies)
    assert any(m.attachments.get("fixes") for r in runs for m in r.transcript)
    assert any("Verbatim findings" in b for b in bodies)
    assert any(b.startswith("Formal requirement.") for b in bodies)
    assert any("First failure" in b for b in bodies)
    assert any("Optimization hints" in b for b in bodies)
    assert any(learned) and not all(learned)
    assert any(rec["kind"] == "circuit-pattern" and rec["run_id"] == "V2-live"
               for rec in records)
    assert sum(len(b) for b in batches) == len(runs) > 500


def test_runs_match_recorded_digests(corpus):
    batches, runs, records, _ = corpus
    want = DIGESTS.read_text().split()
    got = digests(batches, records)
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    names = [(c[0], t.id) for c in CONFIGS for t in builtin_task_packs()]
    assert not bad, (f"{len(bad)} of {len(want)} batches differ, first "
                     f"{(names + ['live store'])[bad[0]]}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        batches, _, records, _ = corpus_runs(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(digests(batches, records)) + "\n")
