"""The learning step (extraction and admission) against reference versions
that carve every sub-pattern and admit every extracted entry one by one."""

import threading

import pytest

from gateforge import knowledge
from gateforge.backends import ModelBackend
from gateforge.knowledge import (
    SUBPATTERN_EMIT_CAP,
    AdmissionError,
    KnowledgeStore,
    KnowledgeView,
    Provenance,
    RetrievalQuery,
    make_pattern_entry,
    verify_pattern_entry,
)
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


def eager_extract(store, netlist, task_id, tags):
    """extract_patterns as written before carving became lazy: carve every
    connected subset, sort the carved sub-netlists by size, then walk them
    until the emit cap."""
    from dataclasses import replace

    provenance = Provenance(task_id=task_id)
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

    consider(make_pattern_entry(netlist, tags=tags, provenance=provenance,
                                name=f"{task_id}-design"))
    carved = list(knowledge._enumerate_subnetlists(netlist))
    for sub in sorted(carved, key=lambda s: len(s.gates)):
        if len(out) > SUBPATTERN_EMIT_CAP:
            break
        entry = make_pattern_entry(sub, tags=tuple(tags) + ("subcircuit",),
                                   provenance=provenance)
        entry = replace(entry, name=f"pat-{entry.signature_digest[:10]}")
        try:
            verify_pattern_entry(entry)
        except AdmissionError:
            continue
        consider(entry)
    return out, len(carved)


@pytest.mark.parametrize("task_id", ["adder4", "alu1"])
def test_lazy_extraction_matches_the_eager_reference(tmp_path, monkeypatch,
                                                     task_id):
    task = TASKS[task_id]
    netlist = parse(task.reference_netlist).netlist
    store = KnowledgeStore(tmp_path / "store")
    store.seed_baseline()
    want, n_carved = eager_extract(store, netlist, task_id, task.tags)

    carves = []
    carve = knowledge._carve_subnetlist
    monkeypatch.setattr(knowledge, "_carve_subnetlist",
                        lambda *a: carves.append(1) or carve(*a))
    got = store.extract_patterns(netlist, task_id=task_id, tags=task.tags)

    assert got == want
    assert len(got) == SUBPATTERN_EMIT_CAP + 1
    # The cap was reached long before the last subset.
    assert len(carves) < n_carved / 4


def test_extraction_renders_only_what_it_emits(tmp_path, monkeypatch):
    netlist = parse(ADDER4.reference_netlist).netlist
    text = render(netlist)
    renders = []
    monkeypatch.setattr(knowledge.nl_parser, "render",
                        lambda n: renders.append(1) or render(n))
    got = KnowledgeView(()).extract_patterns(netlist, task_id="adder4",
                                             tags=ADDER4.tags, text=text)
    # The whole design's entry takes the caller's text; no carved
    # sub-netlist is rendered unless its entry is emitted.
    assert got[0].netlist_text == text
    assert len(renders) == len(got) - 1
    # Two samples with one design: the Summarizer extracts it once, from
    # the run's own netlist and text.
    renders.clear()
    runs = [TaskRun("adder4", i, "verified", [], 0, netlist_text=text,
                    netlist=netlist) for i in range(2)]
    admitted = summarize(ADDER4, runs, KnowledgeStore(tmp_path / "store"))
    assert admitted == got
    assert len(renders) == len(got) - 1


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
    """Entry content without the id and the admission time."""
    out = []
    for e in entries:
        rec = e.to_record()
        del rec["id"], rec["created_at"]
        out.append((rec, e.netlist_text))
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
