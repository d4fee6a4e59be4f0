import hashlib
import json
import os
import re
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import pytest
from conftest import build_full_adder, build_half_adder
from hypothesis import given, settings, strategies as st

from gateforge import knowledge
from gateforge.boolopt import BoolFunction, min_gate_network
from gateforge.cli import main
from gateforge.knowledge import (
    AdmissionError,
    KnowledgeStore,
    RetrievalQuery,
    StoreError,
    _BASELINE,
    _baseline_netlists,
    make_error_fix_entry,
    make_pattern_entry,
    sequential_fingerprint,
    verify_pattern_entry,
)
from gateforge.netlist import (
    COMBINATIONAL_KINDS,
    GateKind,
    NetlistBuilder,
    PortDir,
)
from gateforge.orchestrator import summarize
from gateforge.parser import parse, render
from gateforge.simulator import truth_table
from gateforge.taskpack import builtin_task_packs


@pytest.fixture
def store(tmp_path):
    return KnowledgeStore(tmp_path / "store")


def build_worse_half_adder():
    """Half adder with a useless double inverter on the sum path."""
    b = NetlistBuilder("half_adder_waste")
    a = b.input("a")
    c = b.input("b")
    s = b.output("s")
    co = b.output("c")
    w = b.gate(GateKind.XOR, (a, c))
    w2 = b.gate(GateKind.NOT, (w,))
    b.gate(GateKind.NOT, (w2,), s)
    b.gate(GateKind.AND, (a, c), co)
    return b.build()


def test_store_and_retrieve_by_signature(store):
    entry = make_pattern_entry(build_half_adder(), tags=("adder",))
    assert entry.sei == pytest.approx(1 / 3)
    eid = store.store(entry)
    sig = truth_table(build_half_adder()).digest
    hits = store.retrieve(RetrievalQuery.by_function(sig, (2, 2)))
    assert hits and hits[0].id == eid


def test_lower_sei_duplicate_is_archived(store):
    store.store(make_pattern_entry(build_half_adder(), tags=("adder",)))
    worse_id = store.store(make_pattern_entry(build_worse_half_adder(),
                                              tags=("adder",)))
    all_entries = store.entries(include_archived=True)
    worse = next(e for e in all_entries if e.id == worse_id)
    assert worse.status == "archived"
    primaries = [e for e in store.entries()
                 if e.signature_digest == worse.signature_digest]
    assert len(primaries) == 1 and primaries[0].name == "half_adder"


def test_higher_sei_displaces_the_incumbent(store):
    store.store(make_pattern_entry(build_worse_half_adder()))
    better_id = store.store(make_pattern_entry(build_half_adder()))
    primaries = [e for e in store.entries() if e.kind == "circuit-pattern"]
    assert [e.id for e in primaries] == [better_id]


def test_monotone_quality_per_key(store):
    # The primary entry's index never decreases, whatever the insert order.
    store.store(make_pattern_entry(build_half_adder()))
    best = max(e.sei for e in store.entries())
    store.store(make_pattern_entry(build_worse_half_adder()))
    assert max(e.sei for e in store.entries()) >= best


def test_tampered_entry_is_refused(store):
    from dataclasses import replace

    entry = make_pattern_entry(build_half_adder())
    bad = replace(entry, gate_count=1, sei=0.5)
    with pytest.raises(AdmissionError):
        store.store(bad)


def test_a_refused_entry_ends_its_batch(store):
    bad = replace(make_pattern_entry(build_half_adder()), gate_count=1,
                  sei=0.5)
    with pytest.raises(AdmissionError):
        store.store(make_pattern_entry(build_full_adder()), bad,
                    make_error_fix_entry("syntax", "x", "y"))
    # What came before it is admitted, as storing one by one would leave it.
    assert [(e.id, e.name) for e in store.entries(include_archived=True)
            ] == [(1, "full_adder")]
    assert [r["id"] for r in index_lines(store)] == [1]
    with pytest.raises(AdmissionError):
        store.store(bad)
    with pytest.raises(TypeError):
        store.store()
    assert store.store(make_error_fix_entry("syntax", "x", "y")) == 2


@pytest.mark.parametrize("bad, fault", [
    (lambda e: replace(e, task_id=5), "task_id: must be a string"),
    (lambda e: replace(e, tags=["x", 3]), "tags: must be a list of strings"),
    (lambda e: replace(e, tags=5), "tags: must be a list of strings"),
    (lambda e: replace(e, tags="adder"), "tags: must be a list of strings"),
    (lambda e: replace(e, kind="weird"),
     "kind: must be 'circuit-pattern' or 'error-fix'"),
    (lambda e: make_error_fix_entry(5, "s", "f"),
     "error_class: must be a string or null"),
    (lambda e: replace(e, netlist_text=5),
     "netlist_text: must be a string or null"),
], ids=["task_id", "tags", "tags-int", "tags-str", "kind", "error_class",
        "netlist_text"])
def test_an_entry_the_loader_would_refuse_is_refused_at_admission(
        tmp_path, bad, fault):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    good = make_pattern_entry(build_half_adder())
    entry = bad(make_pattern_entry(build_full_adder()))
    with pytest.raises(AdmissionError) as refused:
        store.store(good, entry)
    assert str(refused.value) == f"{entry.name}: invalid index record: {fault}"
    # The entry before it is admitted, and the store still opens.
    assert [e.name for e in KnowledgeStore(root).entries()] == ["half_adder"]
    # The loader refuses that record in the same words.
    append_record(root / "index.jsonl",
                  **replace(entry, id=2, status="primary").to_record())
    with pytest.raises(StoreError, match=re.escape(
            f"index.jsonl:2: invalid index record: {fault}") + "$"):
        KnowledgeStore(root, verify=False)


@pytest.mark.parametrize("tags", ["adder", 5, ("a", 3)],
                         ids=["str", "int", "int-item"])
def test_an_entry_is_made_only_with_a_list_of_tags(tags):
    with pytest.raises(ValueError, match="^tags: must be a list of strings$"):
        make_pattern_entry(build_half_adder(), tags=tags)
    with pytest.raises(ValueError, match="^tags: must be a list of strings$"):
        make_error_fix_entry("syntax", "s", "f", tags=tags)


def test_wrong_signature_is_refused(store):
    from dataclasses import replace

    entry = make_pattern_entry(build_half_adder())
    bad = replace(entry, signature_digest="0" * 64)
    with pytest.raises(AdmissionError):
        verify_pattern_entry(bad)
    with pytest.raises(AdmissionError):
        store.store(bad)


def test_gate_free_pattern_has_no_index_and_is_refused(store):
    from dataclasses import replace

    b = NetlistBuilder("buf1")
    b.bind("y", PortDir.OUT, b.input("a"))
    entry = make_pattern_entry(b.build())
    assert entry.sei is None
    assert store.extract_patterns(b.build()) == []
    for bad in (entry, replace(entry, sei=1.0)):
        with pytest.raises(AdmissionError):
            store.store(bad)
    assert store.entries(include_archived=True) == []


def test_seed_baseline(store):
    count = store.seed_baseline()
    assert count >= 6
    assert store.verify_all() == []
    with pytest.raises(StoreError):
        store.seed_baseline()


def test_seed_baseline_is_one_write_of_the_one_by_one_records(
        tmp_path, index_writes):
    seeded = KnowledgeStore(tmp_path / "seeded")
    assert seeded.seed_baseline() == 9
    assert index_writes == [9]
    one_by_one = KnowledgeStore(tmp_path / "one_by_one")
    for netlist, tags in _baseline_netlists():
        one_by_one.store(make_pattern_entry(netlist, tags=tags,
                                            task_id="baseline"))
    # Same ids and records, and2 first: `gateforge store seed` output that
    # edits line 1 edits the same pattern.
    assert index_lines(seeded) == index_lines(one_by_one)
    assert index_lines(seeded)[0]["name"] == "and2"


def test_seed_records_are_pinned():
    # The seed set's records are those of the nine modules as they were
    # first built, with `mux2` since rebuilt as the exact search's 3-gate
    # network; any change to them shows here.
    records = [make_pattern_entry(n, tags=t, task_id="baseline").to_record()
               for n, t in _baseline_netlists()]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == ("a92eafe461259fcf80af4014e5986d57ebdce9e918d43cef"
                      "7f56d77a8994478b")
    # Each seed text is what `render` writes of its own parse.
    for text, _tags in _BASELINE:
        assert render(parse(text).netlist) == text


def test_each_small_combinational_seed_is_a_minimum_network():
    # A seed of one output and at most three inputs has the gate count and
    # delay of the exact search's network for its function on the locked
    # basis, and computes that network's function on every input row.
    checked = []
    for netlist, _tags in _baseline_netlists():
        inputs = len(netlist.input_bits)
        if netlist.registers or len(netlist.output_bits) != 1 or inputs > 3:
            continue
        table = truth_table(netlist)
        network, report = min_gate_network(
            BoolFunction(inputs, table.columns[0]), COMBINATIONAL_KINDS)
        assert (netlist.report.gate_count, netlist.report.delay) == (
            report.gate_count, report.delay), netlist.name
        assert truth_table(network).columns == table.columns
        checked.append(netlist.name)
    assert checked == ["and2", "or2", "not1", "xor2", "nand2", "mux2"]


def test_bootstrap_two_in_one_out_retrieval(store):
    store.seed_baseline()
    hits = store.retrieve(RetrievalQuery.by_interface((2, 1)))
    assert len(hits) >= 1


def test_seeded_xor_retrievable_by_function(store):
    store.seed_baseline()
    b = NetlistBuilder("probe")
    a = b.input("a")
    c = b.input("b")
    y = b.output("y")
    b.gate(GateKind.XOR, (a, c), y)
    sig = truth_table(b.build()).digest
    hits = store.retrieve(RetrievalQuery.by_function(sig, (2, 1)))
    assert hits[0].name == "xor2"


def test_by_tags_ranked_by_overlap_then_sei(store):
    store.store(make_pattern_entry(build_half_adder(), tags=("adder",)))
    store.store(make_pattern_entry(build_worse_half_adder(), tags=("adder",)))
    store.store(make_pattern_entry(build_full_adder(), tags=("adder",)))
    hits = store.retrieve(RetrievalQuery.by_tags(("adder",), limit=5))
    seis = [e.sei for e in hits]
    assert seis == sorted(seis, reverse=True)
    # the archived worse half adder never surfaces
    assert all(e.status == "primary" for e in hits)


def test_by_error_retrieval(store):
    store.store(make_error_fix_entry(
        "combinational-loop",
        "gate output feeds back into its own cone",
        "cut the feedback path or register it with a dff"))
    store.store(make_error_fix_entry(
        "arity", "nand with one input", "nand takes two inputs plus output"))
    hits = store.retrieve(RetrievalQuery.by_error(
        "combinational-loop", "combinational feedback in my netlist"))
    assert len(hits) == 1
    assert hits[0].error_class == "combinational-loop"


def test_retrieval_determinism(store):
    store.seed_baseline()
    q = RetrievalQuery.by_interface((2, 1), limit=5)
    a = [e.id for e in store.retrieve(q)]
    b = [e.id for e in store.retrieve(q)]
    assert a == b


def test_snapshot_is_isolated_from_later_writes(store):
    store.seed_baseline()
    snap = store.snapshot()
    before = len(snap.entries())
    store.store(make_error_fix_entry("syntax", "stray token", "remove it"))
    assert len(snap.entries()) == before
    assert len(store.entries()) == before + 1


def test_persistence_across_reopen(tmp_path):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    store.seed_baseline()
    # A three-gate mux no better than the seeded mux2 is archived.
    b = NetlistBuilder("mux_xor")
    a, c, sel = b.input("a"), b.input("b"), b.input("sel")
    picked = b.gate(GateKind.AND, (sel, b.gate(GateKind.XOR, (a, c))))
    b.gate(GateKind.XOR, (a, picked), b.output("y"))
    store.store(make_pattern_entry(b.build(), tags=("mux",)))
    store.store(make_error_fix_entry("syntax", "stray token", "remove it",
                                     tags=("lint",), task_id="t", run_id="r"))
    written = store.entries(include_archived=True)
    assert {e.status for e in written} == {"primary", "archived"}
    reopened = KnowledgeStore(root)  # verify-on-load runs here
    assert reopened.entries(include_archived=True) == written


def set_netlist_text(store, text):
    """Replace the netlist text of the store's only record."""
    with open(store.index_path, encoding="utf-8") as fh:
        record = json.loads(fh.read())
    with open(store.index_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "netlist_text": text}) + "\n")


def test_tampered_pattern_file_detected_on_load(tmp_path):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    store.store(make_pattern_entry(build_half_adder()))
    set_netlist_text(
        store, "module half_adder(input a, input b, output s, output c);\n"
        "  xor g1(s, a, b);\n  xor g2(c, a, b);\nendmodule\n")
    with pytest.raises(AdmissionError):
        KnowledgeStore(root)


def test_unsimulatable_pattern_is_a_store_error_on_load(tmp_path):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    b = NetlistBuilder("dff1")
    d = b.input("d")
    clk = b.input("clk")
    b.gate(GateKind.DFF, (d, clk), b.output("q"))
    store.store(make_pattern_entry(b.build()))
    # Two register clocks: the sequential fingerprint cannot be taken.
    set_netlist_text(
        store, "module dff1(input d, input clk, input c2, output q);\n"
        "  wire w;\n  dff g1(w, d, c2);\n  dff g2(q, w, clk);\nendmodule\n")
    with pytest.raises(StoreError, match="cannot be simulated"):
        KnowledgeStore(root)
    assert KnowledgeStore(root, verify=False).verify_all() == [
        "dff1: stored netlist cannot be simulated: expected exactly one "
        "clock port, found 2"]


def test_compact_drops_archived(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_worse_half_adder()))
    assert len(store.entries(include_archived=True)) == 2
    removed = store.compact()
    assert removed == 1
    reopened = KnowledgeStore(tmp_path / "store")
    assert len(reopened.entries(include_archived=True)) == 1


@pytest.mark.parametrize("reopen", [False, True],
                         ids=["same-handle", "reopened"])
def test_the_next_id_after_compact_follows_the_highest_remaining_id(
        tmp_path, reopen):
    store = KnowledgeStore(tmp_path / "store")
    assert store.store(make_pattern_entry(build_half_adder())) == 1
    assert store.store(make_pattern_entry(build_worse_half_adder())) == 2
    assert store.compact() == 1
    if reopen:
        store = KnowledgeStore(tmp_path / "store")
    assert store.store(make_pattern_entry(build_full_adder())) == 2
    reopened = KnowledgeStore(tmp_path / "store")
    assert [(e.id, e.name) for e in reopened.entries()] == [
        (1, "half_adder"), (2, "full_adder")]


def test_index_is_json_lines(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    with open(store.index_path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert lines[0]["kind"] == "circuit-pattern"
    assert lines[0]["id"] == 1


# -- pattern extraction -------------------------------------------------------

def test_extract_from_full_adder_finds_the_half_adder(store):
    ha_sig = truth_table(build_half_adder()).digest
    entries = store.extract_patterns(build_full_adder(), task_id="fa")
    names = {e.name for e in entries}
    assert any(n.endswith("-design") for n in names)
    ha_like = [e for e in entries if e.signature_digest == ha_sig]
    assert len(ha_like) == 1
    assert ha_like[0].gate_count == 2


def test_extract_respects_existing_better_entries(store):
    store.store(make_pattern_entry(build_full_adder(), tags=("adder",)))
    store.store(make_pattern_entry(build_half_adder(), tags=("adder",)))
    # Re-extracting from the same design yields nothing better.
    leftovers = [e for e in store.extract_patterns(build_full_adder())
                 if e.signature_digest in
                 {x.signature_digest for x in store.entries()}]
    assert leftovers == []


def test_one_gate_design_has_no_sub_patterns(store):
    b = NetlistBuilder("inv")
    a = b.input("a")
    y = b.output("y")
    b.gate(GateKind.NOT, (a,), y)
    entries = store.extract_patterns(b.build(), task_id="inv")
    assert len(entries) == 1
    assert entries[0].name == "inv-design"


def test_extracted_entries_pass_admission(store):
    for e in store.extract_patterns(build_full_adder(), task_id="fa"):
        verify_pattern_entry(e)
        store.store(e)
    assert store.verify_all() == []


def test_sequential_pattern_fingerprint_roundtrip(store):
    b = NetlistBuilder("dff1")
    d = b.input("d")
    clk = b.input("clk")
    q = b.output("q")
    b.gate(GateKind.DFF, (d, clk), q)
    n = b.build()
    fp1 = sequential_fingerprint(n)
    entry = make_pattern_entry(n, tags=("register",))
    assert entry.signature_kind == "sequential"
    assert entry.signature_digest == fp1
    store.store(entry)
    assert store.verify_all() == []


# -- append-only index ----------------------------------------------------------

def index_lines(store):
    with open(store.index_path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_an_index_with_admission_times_opens_and_compacts_without_them(
        tmp_path):
    # The layout of a store that stamped each record with its admission
    # time: the key is read past, and compact() drops it.
    store = KnowledgeStore(tmp_path / "store")
    store.seed_baseline()
    with open(store.index_path, "rb") as fh:
        seeded = fh.read()
    records = index_lines(store)
    with open(store.index_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record | {"created_at": "2026-08-08T00:00:00"},
                                sort_keys=True) + "\n")
    reopened = KnowledgeStore(tmp_path / "store")
    assert reopened.entries() == store.entries()
    assert reopened.compact() == 0
    assert all("created_at" not in record
               for record in index_lines(reopened))
    with open(store.index_path, "rb") as fh:
        assert fh.read() == seeded


def test_archiving_appends_instead_of_rewriting(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_worse_half_adder()))
    better_id = store.store(make_pattern_entry(build_half_adder()))
    assert [(r["id"], r["status"]) for r in index_lines(store)] == [
        (1, "primary"), (better_id, "primary"), (1, "archived")]
    reopened = KnowledgeStore(tmp_path / "store")
    assert [(e.id, e.status) for e in reopened.entries(include_archived=True)
            ] == [(1, "archived"), (better_id, "primary")]
    assert reopened.store(make_error_fix_entry("syntax", "x", "y")) == 3
    assert reopened.compact() == 1
    assert [r["id"] for r in index_lines(reopened)] == [better_id, 3]


def tear_last_line(store):
    with open(store.index_path, "rb") as fh:
        data = fh.read()
    with open(store.index_path, "wb") as fh:
        fh.write(data[:-20])


@pytest.mark.parametrize("complete", [1, 3])
def test_torn_batch_keeps_its_complete_records(tmp_path, complete):
    # One write logs [1 worse, 2 better, 1 archived, 3 full adder]; the
    # tear falls in the record after the first `complete` ones.
    store = KnowledgeStore(tmp_path / "store")
    assert store.store(make_pattern_entry(build_worse_half_adder()),
                       make_pattern_entry(build_half_adder()),
                       make_pattern_entry(build_full_adder())) == 1
    assert [(r["id"], r["status"]) for r in index_lines(store)] == [
        (1, "primary"), (2, "primary"), (1, "archived"), (3, "primary")]
    with open(store.index_path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(store.index_path, "wb") as fh:
        fh.write(b"".join(lines[:complete + 1]))
    tear_last_line(store)
    reopened = KnowledgeStore(tmp_path / "store")
    kept = {1: [(1, "primary")],
            3: [(1, "archived"), (2, "primary")]}[complete]
    assert [(e.id, e.status) for e in reopened.entries(include_archived=True)
            ] == kept
    # The torn record's id is handed out again, on a fresh line.
    torn_id = len(kept) + 1
    assert reopened.store(make_error_fix_entry("syntax", "x", "y")) == torn_id
    again = KnowledgeStore(tmp_path / "store")
    assert [(e.id, e.status) for e in again.entries(include_archived=True)
            ] == kept + [(torn_id, "primary")]


def test_torn_archive_record_leaves_the_better_entry_primary(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_worse_half_adder()))
    with open(store.index_path, "rb") as fh:
        before = len(fh.read())
    better_id = store.store(make_pattern_entry(build_half_adder()))
    with open(store.index_path, "rb") as fh:
        data = fh.read()
    # Cut inside the second record the displacing admission appended.
    second = data.index(b"\n", before) + 1
    with open(store.index_path, "wb") as fh:
        fh.write(data[:second + 20])
    reopened = KnowledgeStore(tmp_path / "store")
    key = make_pattern_entry(build_half_adder()).signature_digest
    primaries = [e for e in reopened.entries() if e.signature_digest == key]
    assert [(e.id, e.name) for e in primaries] == [(better_id, "half_adder")]
    assert [(e.id, e.status) for e in reopened.entries(include_archived=True)
            ] == [(1, "archived"), (better_id, "primary")]


def test_equal_primaries_at_load_keep_the_lower_id(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    with open(store.index_path, encoding="utf-8") as fh:
        record = json.loads(fh.readline())
    with open(store.index_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "id": 2}) + "\n")
    reopened = KnowledgeStore(tmp_path / "store")
    assert [(e.id, e.status) for e in reopened.entries(include_archived=True)
            ] == [(1, "primary"), (2, "archived")]


def retype_last_line(store):
    """The last record complete but for its newline, with a string sei."""
    with open(store.index_path, "rb") as fh:
        head, _, last = fh.read().rstrip(b"\n").rpartition(b"\n")
    with open(store.index_path, "wb") as fh:
        fh.write(head + b"\n" + json.dumps(
            {**json.loads(last), "sei": "high"}).encode())


def test_torn_last_line_is_dropped_at_load(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_full_adder()))
    tear_last_line(store)
    reopened = KnowledgeStore(tmp_path / "store")
    assert [e.name for e in reopened.entries()] == ["half_adder"]


def test_wrong_typed_unterminated_last_line_is_dropped_at_load(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_full_adder()))
    retype_last_line(store)
    reopened = KnowledgeStore(tmp_path / "store")
    assert [e.name for e in reopened.entries()] == ["half_adder"]


def test_store_after_a_torn_tail_starts_a_fresh_line(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_full_adder()))
    tear_last_line(store)
    reopened = KnowledgeStore(tmp_path / "store")
    # The torn record's id is free again.
    assert reopened.store(make_pattern_entry(build_full_adder())) == 2
    assert [r["id"] for r in index_lines(reopened)] == [1, 2]
    again = KnowledgeStore(tmp_path / "store")
    assert [(e.id, e.name) for e in again.entries()] == [
        (1, "half_adder"), (2, "full_adder")]


def test_unterminated_complete_last_line_is_kept(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    with open(store.index_path, "rb") as fh:
        data = fh.read()
    with open(store.index_path, "wb") as fh:
        fh.write(data.rstrip(b"\n"))
    reopened = KnowledgeStore(tmp_path / "store")
    assert reopened.store(make_pattern_entry(build_full_adder())) == 2
    assert [r["id"] for r in index_lines(reopened)] == [1, 2]


def test_corrupt_middle_line_raises_store_error(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_full_adder()))
    with open(store.index_path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[0] = lines[0][:30] + "\n"
    with open(store.index_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with pytest.raises(StoreError, match=r"index\.jsonl:1:"):
        KnowledgeStore(tmp_path / "store")


def test_record_without_an_id_raises_store_error(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    with open(store.index_path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "error-fix", "name": "x"}\n')
    with pytest.raises(StoreError, match=r"index\.jsonl:2:"):
        KnowledgeStore(tmp_path / "store")


# -- one primary per key --------------------------------------------------------

def padded_gate(kind, pad):
    """A two-input gate followed by `pad` pairs of inverters: the same
    function at a lower efficiency index for each pair."""
    b = NetlistBuilder(f"{kind.value}_pad{pad}")
    net = b.gate(kind, (b.input("a"), b.input("b")))
    for _ in range(2 * pad):
        net = b.gate(GateKind.NOT, (net,))
    b.bind("y", PortDir.OUT, net)
    return b.build()


RULE_KINDS = (GateKind.AND, GateKind.OR, GateKind.XOR)
RULE_ENTRIES = {(kind, pad): make_pattern_entry(padded_gate(kind, pad))
                for kind in RULE_KINDS for pad in range(3)}


def replay(admissions):
    """The rule written out: per key, a later entry takes over only when
    its index is higher by more than 1e-12, and then moves to the end.
    Returns the admission positions of the primaries, in map order."""
    held = {}
    for pos, choice in enumerate(admissions):
        kind, sei = choice[0], RULE_ENTRIES[choice].sei
        if kind not in held or sei > held[kind][0] + 1e-12:
            held.pop(kind, None)
            held[kind] = (sei, pos)
    return [pos for _, pos in held.values()]


def primary_ids(store):
    return [e.id for e in store.entries()]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(RULE_KINDS), st.integers(0, 2)),
                min_size=1, max_size=12))
def test_every_path_applies_the_same_primary_rule(admissions):
    # Repeated choices are ties: same function, same index, new name.
    entries = [replace(RULE_ENTRIES[choice], name=f"e{pos}")
               for pos, choice in enumerate(admissions)]
    want = replay(admissions)
    with tempfile.TemporaryDirectory() as root, \
            tempfile.TemporaryDirectory() as batch_root:
        store = KnowledgeStore(root)
        for entry in entries:
            store.store(entry)
        assert primary_ids(store) == [pos + 1 for pos in want]
        assert primary_ids(KnowledgeStore(root)) == [pos + 1 for pos in want]

        # One call admitting them all leaves the same log and memory.
        batch = KnowledgeStore(batch_root)
        assert batch.store(*entries) == 1
        assert index_lines(batch) == index_lines(store)
        for a, b in ((batch, store),
                     (KnowledgeStore(batch_root), KnowledgeStore(root))):
            assert primary_ids(a) == [pos + 1 for pos in want]
            assert (a.entries(include_archived=True)
                    == b.entries(include_archived=True))

        # Drop every archive record, as if each displacement had torn after
        # its new record: load must archive the same losers.
        lines = index_lines(store)
        seen = set()
        with open(store.index_path, "w", encoding="utf-8") as fh:
            for record in lines:
                if record["id"] not in seen:
                    fh.write(json.dumps(record) + "\n")
                seen.add(record["id"])
        assert primary_ids(KnowledgeStore(root)) == [pos + 1 for pos in want]

    class Extracted:
        """A store whose extraction yields the entry each run stands for."""

        def __init__(self):
            self.stored = []

        def extract_patterns(self, netlist, text, **_):
            return [entries[int(text)]]

        def store(self, *entries):
            self.stored.extend(entries)

    runs = [SimpleNamespace(status="verified", netlist_text=str(pos),
                            netlist=None, run_id="")
            for pos in range(len(entries))]
    summarized = Extracted()
    admitted = summarize(SimpleNamespace(id="t", tags=()), runs, summarized)
    assert [e.name for e in admitted] == [f"e{pos}" for pos in want]
    assert summarized.stored == admitted


# -- the verification stamp -----------------------------------------------------

@pytest.fixture
def verify_calls(monkeypatch) -> list[str]:
    """The name of each entry `verify_pattern_entry` checks, in order."""
    calls: list[str] = []
    check = knowledge.verify_pattern_entry

    def counting(entry):
        calls.append(entry.name)
        check(entry)

    monkeypatch.setattr(knowledge, "verify_pattern_entry", counting)
    return calls


def seeded(root):
    KnowledgeStore(root).seed_baseline()
    return root / "index.jsonl", root / "index.verified"


def build_and3():
    b = NetlistBuilder("and3")
    ab = b.gate(GateKind.AND, (b.input("a"), b.input("b")))
    b.gate(GateKind.AND, (ab, b.input("c")), b.output("y"))
    return b.build()


def append_record(index, **fields):
    with open(index, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(fields, sort_keys=True) + "\n")


def assert_stamps_the_whole_index(index, stamp):
    data = index.read_bytes()
    assert json.loads(stamp.read_text()) == {
        "length": len(data), "rules": knowledge._rules_digest(),
        "sha256": hashlib.sha256(data).hexdigest()}


def test_an_open_of_a_stamped_store_verifies_nothing(tmp_path, verify_calls):
    # The store a one-sample README quick start leaves.
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": [
        {"contains": f"Task: {t.id}",
         "replies": [f"```\n{t.reference_netlist}```"]}
        for t in builtin_task_packs()], "default": ["pass"]}))
    root = tmp_path / "store"
    assert main(["bench", "--backend", f"scripted:{script}", "--n", "1",
                 "--profile", "V2", "--store", str(root),
                 "--out", str(tmp_path / "results.json")]) == 0
    assert_stamps_the_whole_index(root / "index.jsonl",
                                  root / "index.verified")
    verify_calls.clear()
    store = KnowledgeStore(root)
    assert len(store.entries()) == 109
    assert verify_calls == []


def test_each_write_stamps_the_whole_index(tmp_path):
    root = tmp_path / "store"
    index, stamp = seeded(root)
    assert_stamps_the_whole_index(index, stamp)
    store = KnowledgeStore(root)
    store.store(make_pattern_entry(build_worse_half_adder()))
    assert_stamps_the_whole_index(index, stamp)
    assert store.compact() == 1
    assert_stamps_the_whole_index(index, stamp)
    # An append that first truncates a torn tail, and one that first ends
    # an unterminated last record.
    tear_last_line(store)
    KnowledgeStore(root).store(make_pattern_entry(build_and3()))
    assert_stamps_the_whole_index(index, stamp)
    index.write_bytes(index.read_bytes().rstrip(b"\n"))
    KnowledgeStore(root).store(make_error_fix_entry("syntax", "x", "y"))
    assert_stamps_the_whole_index(index, stamp)
    assert sorted(p.name for p in root.iterdir()) == [
        "index.jsonl", "index.verified"]


def test_a_record_edited_after_a_stamped_write_fails_the_next_open(tmp_path):
    root = tmp_path / "store"
    index, stamp = seeded(root)
    assert stamp.exists()
    first, rest = index.read_text().split("\n", 1)
    index.write_text(first.replace("and g1(", "or g1(") + "\n" + rest)
    with pytest.raises(AdmissionError, match="^and2: "):
        KnowledgeStore(root)


def test_only_records_past_the_stamp_are_verified(tmp_path, verify_calls):
    root = tmp_path / "store"
    index, stamp = seeded(root)
    stamped = stamp.read_bytes()
    record = replace(make_pattern_entry(build_and3()), id=10).to_record()
    append_record(index, **record)
    verify_calls.clear()
    KnowledgeStore(root)
    assert verify_calls == ["and3"]
    # An open writes nothing, not even a stamp over what it verified.
    assert stamp.read_bytes() == stamped
    # A tampered primary past the stamp fails the open: and3's record again,
    # computing something else.
    append_record(index, **dict(record, name="and3-or",
                                netlist_text=record["netlist_text"].replace(
                                    "and g2(", "or g2(")))
    with pytest.raises(AdmissionError, match="^and3-or: "):
        KnowledgeStore(root)


def test_an_entry_promoted_past_the_stamp_is_verified(tmp_path):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    store.store(make_pattern_entry(build_half_adder()))
    index = root / "index.jsonl"
    good = index_lines(store)[0]
    # A forged copy ties the half adder, so it loads archived and is not
    # verified; the next admission stamps past it.
    forged = dict(good, id=2, name="forged", netlist_text=good[
        "netlist_text"].replace("and g2(", "or g2("))
    append_record(index, **forged)
    KnowledgeStore(root).store(make_error_fix_entry("syntax", "x", "y"))
    assert [r["id"] for r in index_lines(store)] == [1, 2, 3]
    # Archiving the half adder past the stamp makes the forgery primary.
    append_record(index, **dict(good, status="archived"))
    with pytest.raises(AdmissionError, match="^forged: "):
        KnowledgeStore(root)


def spoil_rules(index, stamp):
    stamp.write_text(json.dumps({**json.loads(stamp.read_text()),
                                 "rules": "0" * 64}))


def spoil_prefix_hash(index, stamp):
    stamp.write_text(json.dumps({**json.loads(stamp.read_text()),
                                 "sha256": "0" * 64}))


def tear_stamp(index, stamp):
    stamp.write_bytes(stamp.read_bytes()[:-12])


def garble_stamp(index, stamp):
    stamp.write_text("garbage\n")


def list_stamp(index, stamp):
    stamp.write_text(json.dumps([json.loads(stamp.read_text())]))


def shorten_index(index, stamp):
    index.write_bytes(index.read_bytes().rstrip(b"\n").rpartition(b"\n")[0]
                      + b"\n")


@pytest.mark.parametrize("spoil", [
    spoil_rules, spoil_prefix_hash, tear_stamp, garble_stamp, list_stamp,
    shorten_index])
def test_a_stamp_that_does_not_hold_leads_to_full_verification(
        tmp_path, verify_calls, spoil):
    root = tmp_path / "store"
    index, stamp = seeded(root)
    assert stamp.exists()
    spoil(index, stamp)
    primaries = [e.name for e in KnowledgeStore(root, verify=False).entries()]
    verify_calls.clear()
    KnowledgeStore(root)
    assert verify_calls == primaries
    assert len(primaries) == len(_BASELINE) - (spoil is shorten_index)


def test_an_unverified_handle_stamps_only_after_a_clean_verify_all(
        tmp_path, verify_calls):
    root = tmp_path / "store"
    index, stamp = seeded(root)
    stamp.unlink()
    store = KnowledgeStore(root, verify=False)
    store.store(make_pattern_entry(build_and3()))
    assert not stamp.exists()
    assert store.verify_all() == []
    assert_stamps_the_whole_index(index, stamp)
    verify_calls.clear()
    KnowledgeStore(root)
    assert verify_calls == []


def test_an_unverified_admission_leaves_a_tampered_prefix_unstamped(
        tmp_path):
    root = tmp_path / "store"
    index, stamp = seeded(root)
    stamped = stamp.read_bytes()
    first, rest = index.read_text().split("\n", 1)
    index.write_text(first.replace("and g1(", "or g1(") + "\n" + rest)
    store = KnowledgeStore(root, verify=False)
    store.store(make_pattern_entry(build_and3()))
    assert store.verify_all() != []
    assert stamp.read_bytes() == stamped
    with pytest.raises(AdmissionError, match="^and2: "):
        KnowledgeStore(root)


def test_a_store_in_a_read_only_directory_opens_and_writes_nothing(
        tmp_path, monkeypatch, verify_calls):
    """Every write is refused, as a read-only directory refuses it,
    whoever runs the test."""
    root = tmp_path / "store"
    seeded(root)
    files = {p.name: p.read_bytes() for p in root.iterdir()}

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    def read_only_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            refuse()
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(knowledge, "open", read_only_open, raising=False)
    for name in ("replace", "truncate", "remove", "makedirs"):
        monkeypatch.setattr(os, name, refuse)
    verify_calls.clear()
    store = KnowledgeStore(root)
    assert verify_calls == []
    assert len(store.entries()) == len(_BASELINE)
    # verify_all stamps a clean store; here the stamp cannot be written.
    assert store.verify_all() == []
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in root.iterdir()} == files


def test_a_failed_stamp_write_raises_nothing(tmp_path, verify_calls):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    # A directory where the stamp goes: reading it fails, and so does
    # renaming the new stamp over it.
    (root / "index.verified").mkdir()
    assert store.store(make_pattern_entry(build_half_adder())) == 1
    assert sorted(p.name for p in root.iterdir()) == [
        "index.jsonl", "index.verified"]
    verify_calls.clear()
    assert [e.name for e in KnowledgeStore(root).entries()] == ["half_adder"]
    assert verify_calls == ["half_adder"]


def test_a_stamp_is_written_in_place(tmp_path, monkeypatch):
    written: list[tuple[str, str]] = []

    def recording_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            written.append((os.path.basename(file), mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(knowledge, "open", recording_open, raising=False)
    root = tmp_path / "store"
    index, stamp = seeded(root)
    store = KnowledgeStore(root)
    store.store(make_pattern_entry(build_worse_half_adder()))
    assert store.compact() == 1
    assert store.verify_all() == []
    assert_stamps_the_whole_index(index, stamp)
    # Seed, store, compact and verify_all each wrote the stamp, in place:
    # opened for update, and created only by the first write, which found
    # no stamp to open.
    assert [mode for name, mode in written if name == "index.verified"] == [
        "r+b", "wb", "r+b", "r+b", "r+b"]
    assert {name for name, _ in written} == {"index.jsonl", "index.verified",
                                             "index.jsonl.tmp"}


def archive_until_the_index_is(root, size):
    """Admit worse half adders, each archived on arrival, until the index
    holds at least `size` bytes; returns the handle that admitted them."""
    store = KnowledgeStore(root)
    while os.path.getsize(store.index_path) < size:
        store.store(make_pattern_entry(build_worse_half_adder()))
    return store


def test_a_shorter_stamp_overwrites_a_longer_one_exactly(tmp_path,
                                                         verify_calls):
    # A log of five digits' length, compacted back to four: the new stamp
    # is one byte shorter than the one it overwrites.
    root = tmp_path / "store"
    index, stamp = seeded(root)
    assert os.path.getsize(index) < 10_000
    store = archive_until_the_index_is(root, 10_000)
    longer = stamp.read_bytes()
    assert store.compact() > 0
    data = index.read_bytes()
    assert len(data) < 10_000
    want = json.dumps({"length": len(data), "rules": knowledge._rules_digest(),
                       "sha256": hashlib.sha256(data).hexdigest()},
                      sort_keys=True).encode()
    assert len(want) == len(longer) - 1
    assert stamp.read_bytes() == want
    verify_calls.clear()
    assert len(KnowledgeStore(root).entries()) == len(_BASELINE)
    assert verify_calls == []


def test_every_torn_stamp_leads_to_full_verification(tmp_path, verify_calls):
    root = tmp_path / "store"
    _index, stamp = seeded(root)
    whole = stamp.read_bytes()
    primaries = [e.name for e in KnowledgeStore(root, verify=False).entries()]
    for cut in range(len(whole)):
        stamp.write_bytes(whole[:cut])
        verify_calls.clear()
        KnowledgeStore(root)
        assert verify_calls == primaries, whole[:cut]

    # A stamp is overwritten in place and then cut at its new end, so an
    # overwrite torn before the cut leaves a prefix of the new stamp, or all
    # of it, followed by the rest of the longer old one.
    store = archive_until_the_index_is(root, 10_000)
    old = stamp.read_bytes()
    store.compact()
    new = stamp.read_bytes()
    assert len(new) < len(old)
    for cut in range(len(new) + 1):
        stamp.write_bytes(new[:cut] + old[cut:])
        verify_calls.clear()
        KnowledgeStore(root)
        assert verify_calls == primaries, new[:cut] + old[cut:]
