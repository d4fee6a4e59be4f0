"""The learning step (extraction and admission) against reference versions
that enumerate connected subsets as lists, carve every sub-pattern and admit
every extracted entry one by one."""

import random
import threading
from dataclasses import replace

import pytest
from conftest import random_netlist
from hypothesis import given, settings, strategies as st

from gateforge import knowledge
from gateforge.backends import ModelBackend, ScriptedBackend, ScriptRule
from gateforge.knowledge import (
    SUBPATTERN_EMIT_CAP,
    SUBPATTERN_ENUM_CAP,
    SUBPATTERN_MAX_GATES,
    SUBPATTERN_MAX_INPUTS,
    AdmissionError,
    KnowledgeStore,
    KnowledgeView,
    RetrievalQuery,
    make_pattern_entry,
    verify_pattern_entry,
)
from gateforge.netlist import NetlistBuilder, PortDir
from gateforge.orchestrator import (
    RunConfig,
    TaskRun,
    run_benchmark,
    run_task,
    summarize,
)
from gateforge.parser import parse, render
from gateforge.taskpack import builtin_task_packs

TASKS = {t.id: t for t in builtin_task_packs()}
ADDER4 = TASKS["adder4"]

# alu1 with an inverter pair after its first gate: 17 gates and 4,510
# connected subsets, so SUBPATTERN_ENUM_CAP decides which are kept.
PADDED_ALU1 = (TASKS["alu1"].reference_netlist
               .replace("wire w1,", "wire spare_n0, spare_n1, w1,")
               .replace("and g1(w1, a, b);",
                        "and g1(spare_n0, a, b);\n  not gspare1(spare_n1, "
                        "spare_n0);\n  not gspare2(w1, spare_n1);"))


def reference_subsets(netlist, cap=SUBPATTERN_ENUM_CAP):
    """Connected subsets of `netlist.schedule` positions as the list-based
    ESU enumerator finds them, in depth-first order, then sorted smallest
    first (stably); the first `cap` of those (all when `cap` is None)."""
    gates = netlist.schedule
    n = len(gates)
    if n < 2:
        return []
    touching = {}
    for pos, g in enumerate(gates):
        for net in (g.output, *g.inputs):
            touching.setdefault(net, []).append(pos)
    neighbors = [set() for _ in range(n)]
    for group in touching.values():
        for a in group:
            for b in group:
                if a != b:
                    neighbors[a].add(b)
    subsets = []

    def extend(start, subset, ext):
        if 2 <= len(subset):
            subsets.append(sorted(subset))
        if len(subset) >= SUBPATTERN_MAX_GATES:
            return
        closed = set(subset)
        for u in subset:
            closed |= neighbors[u]
        for i, w in enumerate(ext):
            exclusive = sorted(u for u in neighbors[w]
                               if u > start and u not in closed)
            extend(start, subset + [w], ext[i + 1:] + exclusive)

    for v in range(n):
        extend(v, [v], sorted(u for u in neighbors[v] if u > v))
    subsets.sort(key=len)
    return subsets[:cap]


def reference_carve(netlist, positions):
    """The sub-netlist of the gates at `positions`, carved as a netlist of
    its own by scanning the whole design; None when it has too many inputs."""
    chosen = [netlist.schedule[pos] for pos in positions]
    chosen_outputs = {g.output for g in chosen}
    outside_readers = {n for g in netlist.gates
                       if g.output not in chosen_outputs for n in g.inputs}
    port_bound = {n for _, n in netlist.output_bits}
    boundary_inputs = []
    for g in chosen:
        for net in g.inputs:
            if net in chosen_outputs or netlist.nets[net].value is not None:
                continue
            if net not in boundary_inputs:
                boundary_inputs.append(net)
    if len(boundary_inputs) > SUBPATTERN_MAX_INPUTS:
        return None
    exposed = [g.output for g in chosen
               if g.output in outside_readers or g.output in port_bound]
    if not exposed:
        read_inside = {n for g in chosen for n in g.inputs}
        exposed = [g.output for g in chosen if g.output not in read_inside]
    b = NetlistBuilder("pattern")
    net_map = {}
    for k, net in enumerate(boundary_inputs):
        net_map[net] = b.input(f"in{k}")
    for g in chosen:
        for net in g.inputs:
            value = netlist.nets[net].value
            if value is not None and net not in net_map:
                net_map[net] = b.const(value)
    for g in chosen:
        net_map.setdefault(g.output, b.wire())
    for g in chosen:
        b.gate(g.kind, tuple(net_map[n] for n in g.inputs), net_map[g.output])
    for k, net in enumerate(exposed):
        b.bind(f"out{k}", PortDir.OUT, net_map[net])
    return b.build()


def eager_extract(store, netlist, task_id, tags):
    """extract_patterns as written before carving became lazy: carve every
    connected subset, sort the carved sub-netlists by size, then walk them
    until the emit cap."""
    existing = {}
    for e in store.entries():
        key = (e.signature_digest, e.inputs, e.outputs)
        if e.kind == knowledge.KIND_PATTERN and e.sei > existing.get(key, -1.0):
            existing[key] = e.sei
    out, emitted = [], {}

    def consider(entry):
        key = (entry.signature_digest, entry.inputs, entry.outputs)
        for held in (existing.get(key), emitted.get(key)):
            if held is not None and held >= (entry.sei or 0.0) - 1e-12:
                return
        emitted[key] = entry.sei or 0.0
        out.append(entry)

    consider(make_pattern_entry(netlist, tags=tags, task_id=task_id,
                                name=f"{task_id}-design"))
    carved = [sub for sub in (reference_carve(netlist, s)
                              for s in reference_subsets(netlist))
              if sub is not None]
    for sub in sorted(carved, key=lambda s: len(s.gates)):
        if len(out) > SUBPATTERN_EMIT_CAP:
            break
        entry = make_pattern_entry(sub, tags=tuple(tags) + ("subcircuit",),
                                   task_id=task_id)
        entry = replace(entry, name=f"pat-{entry.signature_digest[:10]}")
        try:
            verify_pattern_entry(entry)
        except AdmissionError:
            continue
        consider(entry)
    return out


@pytest.mark.parametrize("task_id", ["adder4", "alu1"])
def test_lazy_extraction_matches_the_eager_reference(tmp_path, monkeypatch,
                                                     task_id):
    task = TASKS[task_id]
    netlist = parse(task.reference_netlist).netlist
    store = KnowledgeStore(tmp_path / "store")
    store.seed_baseline()
    want = eager_extract(store, netlist, task_id, task.tags)

    builds = []
    build = NetlistBuilder.build
    monkeypatch.setattr(NetlistBuilder, "build",
                        lambda self: builds.append(1) or build(self))
    got = store.extract_patterns(netlist, task_id=task_id, tags=task.tags)

    assert got == want
    assert len(got) == SUBPATTERN_EMIT_CAP + 1
    # The emitted sub-patterns are rendered from the design's own gates:
    # none is built as a netlist.
    assert len(builds) == 0


# A half adder with an inverter pair on its sum, which the seed set's half
# adder beats, and a three-input AND with an inverter pair, which the
# two-gate one then displaces.
WORSE_HALF_ADDER = ("module ha(input a, input b, output s, output c);\n"
                    "  wire w1, w2;\n  xor g1(w1, a, b);\n  not g2(w2, w1);\n"
                    "  not g3(s, w2);\n  and g4(c, a, b);\nendmodule\n")
SLOW_AND3 = ("module and3_slow(input a, input b, input c, output y);\n"
             "  wire w1, w2, w3;\n  and g1(w1, a, b);\n  not g2(w2, w1);\n"
             "  not g3(w3, w2);\n  and g4(y, w3, c);\nendmodule\n")
# A three-gate mux.
XOR_MUX2 = ("module mux2(input a, input b, input sel, output y);\n"
            "  wire w1, w2;\n  xor g1(w1, a, b);\n  and g2(w2, w1, sel);\n"
            "  xor g3(y, a, w2);\nendmodule\n")


@pytest.mark.parametrize("task_id", ["adder4", "alu1"])
def test_extraction_from_a_reopened_store_matches_the_eager_reference(
        tmp_path, task_id):
    # Held primaries come from the store's own map: here one built at load
    # from archive records and a displaced primary.
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    store.seed_baseline()
    for text in (WORSE_HALF_ADDER, SLOW_AND3,
                 TASKS["and3"].reference_netlist):
        store.store(make_pattern_entry(parse(text).netlist))
    store = KnowledgeStore(root)
    archived = [e.name for e in store.entries(include_archived=True)
                if e.status == "archived"]
    assert archived == ["ha", "and3_slow"]
    assert store._held_primaries() == knowledge._RetrievalBase._held_primaries(
        store)

    task = TASKS[task_id]
    netlist = parse(task.reference_netlist).netlist
    got = store.extract_patterns(netlist, task_id=task_id, tags=task.tags)
    assert got == eager_extract(store, netlist, task_id, task.tags)
    assert got == store.snapshot().extract_patterns(netlist, task_id=task_id,
                                                    tags=task.tags)


def test_a_task_snapshot_ranks_each_query_once(tmp_path, monkeypatch):
    # The README quick start at n=3: each task's three samples ask the same
    # two design-side queries of one snapshot, and the view ranks each once.
    ranks = []
    rank = knowledge._rank
    monkeypatch.setattr(knowledge, "_rank",
                        lambda entries, q: ranks.append(q) or rank(entries, q))
    tasks = list(TASKS.values())
    backend = ScriptedBackend([
        ScriptRule([f"```\n{t.reference_netlist}```"], f"Task: {t.id}")
        for t in tasks])
    store = KnowledgeStore(tmp_path / "store")
    report = run_benchmark(tasks, RunConfig.from_profile(
        "V2", samples_per_task=3), backend, store)
    assert all(row.c == 3 for row in report.rows)
    assert len(ranks) == 2 * len(tasks) == 18
    assert len(store.entries()) == 109


def test_a_snapshot_hands_each_caller_its_own_list():
    entry = make_pattern_entry(parse(XOR_MUX2).netlist)
    view = KnowledgeView((replace(entry, id=1),))
    query = RetrievalQuery.by_interface((3, 1))
    first = view.retrieve(query)
    first.clear()
    assert view.retrieve(query) == [replace(entry, id=1)]
    assert view.retrieve(query) is not view.retrieve(query)


def designs():
    out = {t.id: parse(t.reference_netlist).netlist for t in TASKS.values()}
    out["alu1-padded"] = parse(PADDED_ALU1).netlist
    # A register is the only outside reader of a net that a gate in the
    # same subset also reads.
    out["register-reader"] = parse(
        "module r(input a, input b, input clk, output y, output q);\n"
        "  wire w;\n  and g1(w, a, b);\n  xor g2(y, w, a);\n"
        "  dff g3(q, w, clk);\nendmodule\n").netlist
    return out


DESIGNS = designs()


def assert_cuts_match_the_reference(netlist):
    """The bitmask enumerator yields the reference subsets that fit the
    input bound, in order, and each cut renders and measures as its carved
    netlist."""
    carved = [(s, sub) for s in reference_subsets(netlist)
              if (sub := reference_carve(netlist, s)) is not None]
    cuts = list(knowledge._connected_cuts(netlist))
    assert [positions for positions, _, _ in cuts] == [s for s, _ in carved]
    for cut, (_, sub) in zip(cuts, carved):
        assert render(knowledge._cut_fields(netlist, *cut)) == render(sub)
        assert knowledge._measure_cut(netlist, *cut) == knowledge._measure(sub)
    return cuts


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_bitmask_cuts_are_the_reference_subsets_in_order(name):
    netlist = DESIGNS[name]
    cuts = assert_cuts_match_the_reference(netlist)
    if name == "alu1-padded":
        assert len(netlist.schedule) == 17
        assert len(reference_subsets(netlist, cap=None)) == 4510
        assert len(cuts) <= SUBPATTERN_ENUM_CAP < 4510


def test_the_enumeration_cap_keeps_every_small_subset():
    # The cap is counted smallest first: a design with more connected
    # subsets than it admits loses only its largest ones.
    netlist = DESIGNS["alu1-padded"]
    every = reference_subsets(netlist, cap=None)
    kept = [positions for positions, _, _ in knowledge._connected_cuts(netlist)]
    for size, count in ((2, 28), (3, 58)):
        want = [s for s in every if len(s) == size]
        assert len(want) == count
        assert [p for p in kept if len(p) == size] == want
    assert max(map(len, kept)) == SUBPATTERN_MAX_GATES


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cut_measure_equals_the_carved_netlist_measure(seed):
    rng = random.Random(seed)
    netlist = random_netlist(rng, rng.randint(1, 7), rng.randint(2, 10))
    assert_cuts_match_the_reference(netlist)


def test_extraction_renders_only_what_it_emits(tmp_path, monkeypatch):
    netlist = parse(ADDER4.reference_netlist).netlist
    text = render(netlist)
    renders = []
    monkeypatch.setattr(knowledge.nl_parser, "render",
                        lambda n: renders.append(1) or render(n))
    got = KnowledgeView(()).extract_patterns(netlist, task_id="adder4",
                                             tags=ADDER4.tags, text=text)
    # The whole design's entry takes the caller's text; no sub-pattern
    # is rendered unless its entry is emitted.
    assert got[0].netlist_text == text
    assert len(renders) == len(got) - 1
    # Two samples with one design: the Summarizer extracts it once, from
    # the run's own netlist and text.
    renders.clear()
    runs = [TaskRun("adder4", i, "verified", [], netlist_text=text,
                    netlist=netlist) for i in range(2)]
    admitted = summarize(ADDER4, runs, KnowledgeStore(tmp_path / "store"))
    assert admitted == got
    assert len(renders) == len(got) - 1


def test_summarize_admits_each_task_in_one_write(tmp_path, index_writes):
    store = KnowledgeStore(tmp_path / "store")
    admitted = {}
    for task in TASKS.values():
        netlist = parse(task.reference_netlist).netlist
        runs = [TaskRun(task.id, 0, "verified", [],
                        netlist_text=render(netlist), netlist=netlist)]
        admitted[task.id] = summarize(task, runs, store)
    # One write per task that learns anything, not one per entry, and no
    # archive record: and3 and full_adder bring nothing the store lacks.
    assert index_writes == [len(entries) for entries in admitted.values()
                            if entries]
    assert {t for t, entries in admitted.items() if not entries} == {
        "and3", "full_adder"}
    assert sum(index_writes) == 109
    assert (content(store.entries(include_archived=True))
            == content(e for entries in admitted.values() for e in entries))


def scripted(replies_by_sample):
    """Replies with the design listed for the sample index being run."""

    class PerSample(ModelBackend):
        identity = "per-sample"

        def start_sample(self, task_id, sample_index):
            self.reply = replies_by_sample[sample_index]

        def complete(self, messages, params):
            return f"```\n{self.reply}```\n"

    return PerSample()


def content(entries):
    """Entry content, netlist text included, without the id."""
    out = []
    for e in entries:
        rec = e.to_record()
        del rec["id"]
        out.append(rec)
    return out


def test_identical_samples_extract_once_and_store_no_duplicates(
        tmp_path, monkeypatch):
    inner = []
    extract = knowledge._RetrievalBase.extract_patterns
    monkeypatch.setattr(knowledge._RetrievalBase, "extract_patterns",
                        lambda *a, **kw: inner.append(1) or extract(*a, **kw))
    stores = {}
    for n in (1, 3):
        stores[n] = KnowledgeStore(tmp_path / f"n{n}")
        report = run_benchmark([ADDER4], RunConfig(samples_per_task=n),
                               scripted([ADDER4.reference_netlist] * n),
                               stores[n])
        assert report.rows[0].c == n
    assert inner == [1, 1]
    everything = stores[3].entries(include_archived=True)
    assert all(e.status == "primary" for e in everything)
    assert content(everything) == content(stores[1].entries())


# The reference with a redundant inverter pair in front of cout.
WORSE_ADDER4 = (ADDER4.reference_netlist
                .replace("wire w9,", "wire w16, w17, w9,")
                .replace("or g20(cout, w8, w15);",
                         "or g20(w16, w8, w15);\n  not g21(w17, w16);\n"
                         "  not g22(cout, w17);"))


def test_merged_commit_keeps_the_later_better_sample(tmp_path):
    designs = [WORSE_ADDER4, ADDER4.reference_netlist, WORSE_ADDER4]
    config = RunConfig(samples_per_task=3, efficiency_accept_threshold=0.1)

    merged = KnowledgeStore(tmp_path / "merged")
    report = run_benchmark([ADDER4], config, scripted(designs), merged)
    assert report.rows[0].c == 3

    # Every sample's entries extracted from the empty store and admitted
    # one by one, in sample order.
    one_by_one = KnowledgeStore(tmp_path / "one_by_one")
    snapshot = one_by_one.snapshot()
    backend = scripted(designs)
    extracted = []
    for i in range(3):
        run = run_task(ADDER4, config, backend, snapshot, sample_index=i,
                       run_id="bench")
        extracted.append(snapshot.extract_patterns(
            run.netlist, task_id=ADDER4.id, run_id=run.run_id,
            tags=ADDER4.tags, text=run.netlist_text))
    for entries in extracted:
        for entry in entries:
            one_by_one.store(entry)

    worse = {(e.signature_digest, e.inputs, e.outputs): e.sei
             for e in extracted[0]}
    better = {(e.signature_digest, e.inputs, e.outputs): e.sei
              for e in extracted[1]}
    improved = {k for k in worse.keys() & better.keys() if better[k] > worse[k]}
    assert improved  # the whole design at least
    primaries = merged.entries()
    by_key = {(e.signature_digest, e.inputs, e.outputs): e for e in primaries}
    for key in improved:
        assert by_key[key].sei == better[key]
    assert all(e.status == "primary"
               for e in merged.entries(include_archived=True))

    assert content(primaries) == content(one_by_one.entries())
    queries = [RetrievalQuery.by_tags(("adder", "subcircuit"), limit=50),
               RetrievalQuery.by_interface((9, 5), limit=50),
               RetrievalQuery.by_interface((2, 1), limit=50)]
    for q in queries:
        assert (content(merged.retrieve(q))
                == content(one_by_one.retrieve(q)))


def test_extraction_runs_on_the_calling_thread_once_per_design(tmp_path,
                                                              monkeypatch):
    calls = []
    extract = knowledge._RetrievalBase.extract_patterns

    def recording(self, netlist, task_id="", *args, **kwargs):
        calls.append((threading.get_ident(), task_id, render(netlist)))
        return extract(self, netlist, task_id, *args, **kwargs)

    monkeypatch.setattr(knowledge._RetrievalBase, "extract_patterns",
                        recording)

    class PerThread(ModelBackend):
        """Replies with the design listed for the sample each thread runs."""

        identity = "per-thread"

        def __init__(self, designs):
            self.designs = designs
            self.local = threading.local()

        def start_sample(self, task_id, sample_index):
            self.local.reply = self.designs[task_id][sample_index]

        def complete(self, messages, params):
            return f"```\n{self.local.reply}```\n"

    full_adder = TASKS["full_adder"]
    designs = {"adder4": [WORSE_ADDER4, ADDER4.reference_netlist] * 4,
               "full_adder": [full_adder.reference_netlist] * 8}
    config = RunConfig(samples_per_task=8, efficiency_accept_threshold=0.1,
                       workers=4)
    report = run_benchmark([ADDER4, full_adder], config, PerThread(designs),
                           KnowledgeStore(tmp_path / "store"))
    assert [r.c for r in report.rows] == [8, 8]
    # Each task's distinct designs, in sample order, on this thread only.
    canonical = [(t, render(parse(d).netlist)) for t, d in (
        ("adder4", WORSE_ADDER4), ("adder4", ADDER4.reference_netlist),
        ("full_adder", full_adder.reference_netlist))]
    assert [(t, text) for _, t, text in calls] == canonical
    assert {ident for ident, _, _ in calls} == {threading.get_ident()}
