"""The three benchmark workloads and the checks on their outputs.

Each workload runs closed-loop in this process (workers=1, no threads):
the next unit of work starts only when the previous one has returned.
Inputs come from the seed alone. A workload offers:

- `setup()`: the timed set-up before each round (load the task packs,
  build the backend, create the store), returning the round's state;
- `run_round(state)`: one timed round, checked, as a `Round`;
- `time_opens()`: cold opens, with verification, of a store, timed after
  each round so that they sample the whole run;
- `knowledge_counts()`: store counts after the last round.

The checks are plain functions so that `selftest.py` can feed them
tampered output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import refnet

HERE = os.path.dirname(os.path.abspath(__file__))

SEED_TASKS = ("adder2", "adder4", "alu1", "and3", "counter2", "full_adder",
              "mux2", "seq101", "xnor2")
# Cold store opens timed after each round: of the store the round's learn
# sweep left or, for the store-less workloads, of the store a one-sample
# quick start leaves (109 entries, all primary, as in the learn store).
OPENS_PER_ROUND = 3


@dataclass
class Round:
    seconds: float
    samples: int          # task samples (learn, evaluate) or oracle calls
    solved: int           # verified samples, or oracle calls answered
    failed: int           # samples or calls whose output check failed
    factor: float = 1.0   # machine speed factor measured around the round


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def quick_start_setup(gf, root: str) -> tuple[str, str]:
    """The README quick start's inputs: load the task packs, write the
    script that replies with each reference, build the backend from it and
    create an empty store. Returns (script, store)."""
    packs = gf.taskpack.builtin_task_packs()
    rules = [{"contains": f"Task: {t.id}",
              "replies": [f"```\n{t.reference_netlist}```"]} for t in packs]
    script = os.path.join(root, "script.json")
    with open(script, "w", encoding="utf-8") as fh:
        json.dump({"rules": rules, "default": ["pass"]}, fh)
    gf.backends.ScriptedBackend.from_file(script)
    store = os.path.join(root, "store")
    gf.knowledge.KnowledgeStore(store)
    return script, store


def quick_start(gf, root: str, script: str, store: str, n: int,
                ) -> tuple[int, float, str]:
    """`gateforge bench` at V2 with n samples per task, in-process.
    Returns (exit code, seconds, results file)."""
    results = os.path.join(root, "results.json")
    argv = ["bench", "--backend", f"scripted:{script}", "--n", str(n),
            "--k", "1", "--profile", "V2", "--store", store, "--out", results]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = gf.cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, seconds, results


def _store_counts(store_dir: str) -> dict[str, float]:
    with open(os.path.join(store_dir, "index.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    primary = sum(1 for r in records if r["status"] == "primary")
    disk = sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(store_dir) for f in files)
    return {
        "knowledge.entries_total": len(records),
        "knowledge.entries_primary": primary,
        "knowledge.disk_kb": round(disk / 1024, 1),
        # Every admission appends one index record, so admissions = total.
        "knowledge.primary_ratio": primary / len(records) if records else 0.0,
    }


class _Workload:
    name = ""
    backend_class = None     # a ModelBackend subclass defined here, if any

    def __init__(self, gf, seed: int, work_dir: str):
        self.gf = gf
        self.seed = seed
        self.work_dir = work_dir
        self.task_dir = gf.taskpack.builtin_task_dir()
        self.refs = {t: refnet.load_task(os.path.join(self.task_dir, t))
                     for t in SEED_TASKS}
        self._dirs = 0
        self._open_store: str | None = None

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{stem}{self._dirs}")
        os.makedirs(path)
        return path

    def open_store(self) -> str:
        """A child process builds this store, so that the build does not
        count toward this process's peak memory."""
        if self._open_store is None:
            root = self.fresh_dir("openstore")
            subprocess.run([sys.executable, os.path.join(HERE, "make_store.py"),
                            root], check=True, capture_output=True, timeout=170)
            self._open_store = os.path.join(root, "store")
        return self._open_store

    def time_opens(self) -> list[float]:
        times = []
        for _ in range(OPENS_PER_ROUND):
            t0 = time.perf_counter()
            self.gf.knowledge.KnowledgeStore(self.open_store())
            times.append(time.perf_counter() - t0)
        return times

    def results_digest(self) -> str | None:
        return None

    def knowledge_counts(self) -> dict[str, float]:
        return {"knowledge.entries_total": 0, "knowledge.entries_primary": 0,
                "knowledge.disk_kb": 0.0, "knowledge.primary_ratio": 0.0}


# ---------------------------------------------------------------------------
# learn: the README quick start through the CLI.
# ---------------------------------------------------------------------------

LEARN_SAMPLES = 3


def check_learn_results(text: str, first_text: str | None, n: int,
                        declared: dict[str, tuple[int, int]]) -> int:
    """Failed samples of one sweep: every sample must verify, best G/D must
    equal each pack's declared reference, and the results file must be
    byte-identical to the run's first sweep."""
    doc = json.loads(text)
    rows = {r["task_id"]: r for r in doc["tasks"]}
    if first_text is not None and text != first_text:
        return n * len(declared)
    failed = 0
    for task_id, (g, d) in declared.items():
        row = rows.get(task_id)
        if row is None or row["n"] != n:
            failed += n
        elif (row["best_gate_count"], row["best_delay"]) != (g, d):
            failed += n
        else:
            failed += n - row["c"]
    return failed


class Learn(_Workload):
    name = "learn"

    def __init__(self, gf, seed, work_dir):
        super().__init__(gf, seed, work_dir)
        # The quick start's inputs do not depend on the seed: replies are
        # the references, and every sample returns the same design.
        self.declared = {t: (m["human_reference"]["gate_count"],
                             m["human_reference"]["delay"])
                         for t, (m, _, _) in self.refs.items()}
        self.first_results: str | None = None
        self.last_store: str | None = None
        self.inputs_digest = _digest({
            "n": LEARN_SAMPLES, "profile": "V2",
            "replies": {t: self._reference_text(t) for t in SEED_TASKS}})

    def _reference_text(self, task_id: str) -> str:
        path = os.path.join(self.task_dir, task_id, "reference.nl")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def setup(self):
        root = self.fresh_dir("learn")
        return (root, *quick_start_setup(self.gf, root))

    def run_round(self, state) -> Round:
        rc, seconds, results = quick_start(self.gf, *state, LEARN_SAMPLES)
        samples = LEARN_SAMPLES * len(SEED_TASKS)
        if rc != 0:
            return Round(seconds, samples, 0, samples)
        with open(results, encoding="utf-8") as fh:
            text = fh.read()
        failed = check_learn_results(text, self.first_results, LEARN_SAMPLES,
                                     self.declared)
        if self.first_results is None:
            self.first_results = text
        self.last_store = state[2]
        return Round(seconds, samples, samples - failed, failed)

    def results_digest(self) -> str:
        return hashlib.sha256((self.first_results or "").encode()).hexdigest()

    def open_store(self) -> str:
        return self.last_store

    def knowledge_counts(self) -> dict[str, float]:
        return _store_counts(self.last_store)


# ---------------------------------------------------------------------------
# evaluate: the store-less harness with a seeded mix of replies.
# ---------------------------------------------------------------------------

EVAL_MAX_REVISIONS = 2
REPLY_KINDS = ("rejected", "interface", "wrong", "larger", "reference")
# Every task gets the same 25 sequences of reply kinds: each pair of first
# and second kinds once, the third kind by Latin square. All seeds so send
# the same mix down the review paths; the seed picks the sample order and
# each reply's details (which gate changes, where the inverter pair goes,
# which banned construct), and the replies never repeat.
EVAL_SEQUENCES = tuple(
    (a, b, REPLY_KINDS[(i + j) % len(REPLY_KINDS)])
    for i, a in enumerate(REPLY_KINDS) for j, b in enumerate(REPLY_KINDS))
EVAL_SAMPLES = len(EVAL_SEQUENCES)
_BANNED_RE = re.compile(r"\b(always|initial|reg)\b|assign\s+\S+\s*=.*[|&^~]")
_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.S)


@dataclass(frozen=True)
class PlannedSample:
    replies: tuple[str, ...]
    classes: tuple[str, ...]
    status: str
    attempts: int


def classify_reply(reply: str, meta: dict, bench: refnet.Testbench) -> str:
    """Independent verdict on one reply: rejected | wrong | inefficient |
    accept."""
    fenced = _FENCE_RE.search(reply)
    if fenced is None or "module" not in fenced.group(1):
        return "rejected"
    body = fenced.group(1)
    if _BANNED_RE.search(body):
        return "rejected"
    net = refnet.read(body)
    want = {(p["name"], p["dir"] + "put", p.get("width", 1)) for p in meta["ports"]}
    got = {(p.name, p.direction, p.msb - p.lsb + 1) for p in net.ports}
    if want != got:
        return "rejected"
    if not refnet.passes(net, bench):
        return "wrong"
    g, d = refnet.size(net)
    ref = meta["human_reference"]
    if g + d > ref["gate_count"] + ref["delay"]:
        return "inefficient"
    return "accept"


def planned_outcome(classes: tuple[str, ...],
                    max_revisions: int = EVAL_MAX_REVISIONS) -> tuple[str, int]:
    """(status, attempts) under the review policy: static faults and
    functional faults each cost one revision, an inefficient correct design
    earns one optimization round, and the budget is shared."""
    revisions = 0
    optimized = False   # set once a correct design is held
    attempt = 0
    while True:
        cls = classes[min(attempt, len(classes) - 1)]
        attempt += 1
        if cls == "accept":
            return "verified", attempt
        if cls == "inefficient":
            if optimized or revisions >= max_revisions:
                return "verified", attempt
            optimized = True
        elif optimized:
            return "verified", attempt
        elif revisions >= max_revisions:
            return "failed", attempt
        revisions += 1


def _fence(text: str) -> str:
    return f"Here is the design.\n```\n{text}```\n"


def _make_reply(kind: str, ref: refnet.RefNet, bench: refnet.Testbench,
                rng: random.Random) -> str:
    if kind == "rejected":
        if rng.random() < 0.5:
            return "I cannot produce a netlist for this specification."
        src = rng.choice(ref.bits("input"))
        line = rng.choice(("  reg spare_r;",
                           f"  always @(posedge {src}) begin end"))
        return _fence(refnet.render(ref, extra_lines=(line,)))
    if kind == "interface":
        return _fence(refnet.render(ref, extra_ports=("input spare_in",)))
    if kind == "wrong":
        options = [(i, k) for i, g in enumerate(ref.gates)
                   if g.kind in refnet.BINARY_KINDS
                   for k in refnet.BINARY_KINDS if k != g.kind]
        rng.shuffle(options)
        for i, k in options:
            mutated = refnet.with_gate_kind(ref, i, k)
            if not refnet.passes(mutated, bench):
                return _fence(refnet.render(mutated))
        raise RuntimeError(f"{ref.name}: no gate-kind change fails the testbench")
    if kind == "larger":
        comb = [i for i, g in enumerate(ref.gates) if g.kind != "dff"]
        return _fence(refnet.render(refnet.with_inverter_pair(ref, rng.choice(comb))))
    return _fence(refnet.render(ref))


def make_plan(seed: int, refs: dict) -> dict[tuple[str, int], PlannedSample]:
    plan = {}
    for task_id in SEED_TASKS:
        meta, ref, bench = refs[task_id]
        rng = random.Random(f"evaluate:{seed}:{task_id}")
        sequences = list(EVAL_SEQUENCES)
        rng.shuffle(sequences)
        for i, kinds in enumerate(sequences):
            replies = tuple(_make_reply(k, ref, bench, rng) for k in kinds)
            classes = tuple(classify_reply(r, meta, bench) for r in replies)
            status, used = planned_outcome(classes)
            plan[(task_id, i)] = PlannedSample(replies, classes, status, used)
    return plan


def check_statuses(observed: dict[tuple[str, int], tuple[str, int]],
                   plan: dict[tuple[str, int], PlannedSample]) -> int:
    """Samples whose (status, attempts) differ from the plan, or that did
    not run."""
    return sum(1 for key, p in plan.items()
               if observed.get(key) != (p.status, p.attempts))


def planned_backend_class(gf):
    class PlannedBackend(gf.backends.ModelBackend):
        """Serves each sample's planned replies in order; the last repeats."""

        identity = "planned"

        def __init__(self, plan):
            self.plan = plan
            self.calls: dict[tuple[str, int], int] = {}
            self._key: tuple[str, int] | None = None

        def start_sample(self, task_id, sample_index):
            self._key = (task_id, sample_index)
            self.calls[self._key] = 0

        def complete(self, messages, params):
            replies = self.plan[self._key].replies
            i = self.calls[self._key]
            self.calls[self._key] = i + 1
            return replies[min(i, len(replies) - 1)]

    return PlannedBackend


class Evaluate(_Workload):
    name = "evaluate"

    def __init__(self, gf, seed, work_dir):
        super().__init__(gf, seed, work_dir)
        self.plan = make_plan(seed, self.refs)
        self.inputs_digest = _digest(
            [[t, i, p.replies] for (t, i), p in sorted(self.plan.items())])
        self.backend_class = planned_backend_class(gf)
        self.statuses: dict[tuple[str, int], str] = {}
        self._record_statuses()

    def _record_statuses(self) -> None:
        """Wrap run_task where run_benchmark looks it up, to see each
        sample's status."""
        orchestrator = self.gf.orchestrator
        run_task = orchestrator.run_task
        statuses = self.statuses

        def recording_run_task(task, cfg, backend, store=None, sample_index=0,
                               **kwargs):
            run = run_task(task, cfg, backend, store, sample_index, **kwargs)
            statuses[(task.id, sample_index)] = run.status
            return run

        orchestrator.run_task = recording_run_task

    def setup(self):
        packs = self.gf.taskpack.builtin_task_packs()
        backend = self.backend_class(self.plan)
        cfg = self.gf.orchestrator.RunConfig.from_profile(
            "V0", samples_per_task=EVAL_SAMPLES, workers=1, pass_ks=(1,))
        return packs, backend, cfg

    def run_round(self, state) -> Round:
        packs, backend, cfg = state
        self.statuses.clear()
        t0 = time.perf_counter()
        report = self.gf.orchestrator.run_benchmark(packs, cfg, backend,
                                                    store=None)
        seconds = time.perf_counter() - t0
        observed = {k: (s, backend.calls.get(k)) for k, s in self.statuses.items()}
        failed = check_statuses(observed, self.plan)
        planned_c = {t: 0 for t in SEED_TASKS}
        for (t, _), p in self.plan.items():
            planned_c[t] += p.status == "verified"
        if {r.task_id: r.c for r in report.rows} != planned_c:
            failed = max(failed, 1)
        verified = sum(1 for s in self.statuses.values() if s == "verified")
        return Round(seconds, len(self.plan), verified, failed)


# ---------------------------------------------------------------------------
# oracle: exact synthesis and two-level minimization.
# ---------------------------------------------------------------------------

# Gate sets for min_gate_network, each searched up to three gates. Functions
# are drawn in equal numbers from each formula-size class: 1, 2, 3, or no
# formula within three gates. A circuit of two gates or fewer is a formula,
# so up to three the smallest circuit has exactly the formula's size, and a
# function with no such formula needs three gates or more. The class so
# fixes the answer's size and the search cost, and every seed costs the
# same. The cap keeps each call under a tenth of a second; three-input
# parity over {and, or, not} at the seven-gate cap ran 114 s.
ORACLE_BASES = (("full", ("and", "or", "not", "xor", "nand")),
                ("and-or-not", ("and", "or", "not")),
                ("nand", ("nand",)))
ORACLE_CAP = 3
ORACLE_PER_CLASS = 8
QM_ARITIES = range(3, 9)
QM_PER_ARITY = 4
_X = (0xAA, 0xCC, 0xF0)


def _op(kind: str, a: int, b: int) -> int:
    return {"and": a & b, "or": a | b, "xor": a ^ b,
            "nand": ~(a & b) & 0xFF}[kind]


def formula_sizes(kinds: tuple[str, ...], cap: int) -> dict[int, int]:
    """Smallest formula (tree) size, up to `cap`, of every 3-input truth
    table reachable over `kinds`, with inputs and constants as leaves."""
    best = {t: 0 for t in (0, 0xFF) + _X}
    levels = [set(best)]
    binary = [k for k in kinds if k != "not"]
    for size in range(1, cap + 1):
        new = set()
        if "not" in kinds:
            new.update(~a & 0xFF for a in levels[size - 1])
        for left in range(size):
            for a in levels[left]:
                for b in levels[size - 1 - left]:
                    for k in binary:
                        new.add(_op(k, a, b))
        level = {t for t in new if t not in best}
        best.update(dict.fromkeys(level, size))
        levels.append(level)
    return best


def formula_bound(sizes: dict[int, int], table: int, dont_care: int) -> int | None:
    care = 0xFF & ~dont_care
    fits = [s for t, s in sizes.items() if (t ^ table) & care == 0]
    return min(fits) if fits else None


def check_network(gf, f, kinds: tuple[str, ...], bound: int | None,
                  result) -> bool:
    """A returned network must realize f on its care set, use only the gate
    set, and have exactly the formula size `bound`, or the cap when no
    formula fits (see ORACLE_BASES). None is right only when no formula
    fits."""
    if result is None:
        return bound is None
    netlist, report = result
    column = gf.simulator.truth_table(netlist).columns[0]
    if not f.agrees_with(column):
        return False
    if any(g.kind.value not in kinds for g in netlist.gates):
        return False
    return report.gate_count == (ORACLE_CAP if bound is None else bound)


def check_cover(f, cover) -> bool:
    """Evaluate the cover's cubes directly on every care minterm."""
    for m in range(1 << f.n):
        if (f.dont_care >> m) & 1:
            continue
        hit = any((m & c.mask) == (c.value & c.mask) for c in cover.cubes)
        if hit != bool((f.table >> m) & 1):
            return False
    return True


def _qm_table(rng: random.Random, n: int) -> tuple[int, int]:
    """A sum of a few random cubes plus sparse don't-cares: wide enough to
    exercise QM at 8 inputs without the blow-up of a uniform table."""
    rows = 1 << n
    table = 0
    for _ in range(rng.randint(2, n)):
        fixed = rng.sample(range(n), rng.randint(max(1, n - 4), n))
        want = {i: rng.getrandbits(1) for i in fixed}
        for m in range(rows):
            if all((m >> i) & 1 == v for i, v in want.items()):
                table |= 1 << m
    dc = rng.getrandbits(rows) & rng.getrandbits(rows) & rng.getrandbits(rows) \
        & rng.getrandbits(rows)
    return table & ~dc, dc


class Oracle(_Workload):
    name = "oracle"

    def __init__(self, gf, seed, work_dir):
        super().__init__(gf, seed, work_dir)
        rng = random.Random(f"oracle:{seed}")
        self.items = []
        self.bounds: dict[tuple, int | None] = {}
        for basis, kinds in ORACLE_BASES:
            sizes = formula_sizes(kinds, ORACLE_CAP)
            for cls in [*range(1, ORACLE_CAP + 1), None]:
                for _ in range(ORACLE_PER_CLASS):
                    while True:
                        table, dc = rng.getrandbits(8), 0
                        if rng.random() < 1 / 3:
                            dc = (1 << rng.randrange(8)) | (1 << rng.randrange(8))
                        if formula_bound(sizes, table, dc) == cls:
                            break
                    item = ("mgn", basis, 3, table & ~dc, dc)
                    self.items.append(item)
                    self.bounds[item] = cls
        for n in QM_ARITIES:
            for _ in range(QM_PER_ARITY):
                self.items.append(("qm", None, n) + _qm_table(rng, n))
        self.inputs_digest = _digest(self.items)
        self.kinds = dict(ORACLE_BASES)

    def setup(self):
        self.gf.taskpack.builtin_task_packs()
        kind_of = self.gf.netlist.GateKind
        sets = {b: frozenset(kind_of(k) for k in kinds)
                for b, kinds in self.kinds.items()}
        calls = []
        for item in self.items:
            kind, basis, n, table, dc = item
            f = self.gf.boolopt.BoolFunction(n, table, dc)
            calls.append((item, f, sets.get(basis)))
        return calls

    def run_round(self, calls) -> Round:
        boolopt = self.gf.boolopt
        outputs = []
        t0 = time.perf_counter()
        for (kind, basis, *_), f, gate_set in calls:
            if kind == "qm":
                outputs.append(boolopt.quine_mccluskey(f))
            else:
                outputs.append(boolopt.min_gate_network(f, gate_set,
                                                        max_gates=ORACLE_CAP))
        seconds = time.perf_counter() - t0
        failed = 0
        for (item, f, _), out in zip(calls, outputs):
            if item[0] == "qm":
                failed += not check_cover(f, out)
            else:
                failed += not check_network(self.gf, f, self.kinds[item[1]],
                                            self.bounds[item], out)
        return Round(seconds, len(calls), len(calls), failed)


WORKLOADS = {w.name: w for w in (Learn, Evaluate, Oracle)}
