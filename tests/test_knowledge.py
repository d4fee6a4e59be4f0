import json
import os

import pytest
from conftest import build_full_adder, build_half_adder

from gateforge.knowledge import (
    AdmissionError,
    KnowledgeStore,
    RetrievalQuery,
    StoreError,
    make_error_fix_entry,
    make_pattern_entry,
    sequential_fingerprint,
    verify_pattern_entry,
)
from gateforge.netlist import GateKind, NetlistBuilder
from gateforge.simulator import truth_table


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


def test_wrong_signature_is_refused(store):
    from dataclasses import replace

    entry = make_pattern_entry(build_half_adder())
    bad = replace(entry, signature_digest="0" * 64)
    with pytest.raises(AdmissionError):
        verify_pattern_entry(bad)
    with pytest.raises(AdmissionError):
        store.store(bad)


def test_seed_baseline(store):
    count = store.seed_baseline()
    assert count >= 6
    assert store.verify_all() == []
    with pytest.raises(StoreError):
        store.seed_baseline()


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
    ids = sorted(e.id for e in store.entries())
    reopened = KnowledgeStore(root)  # verify-on-load runs here
    assert sorted(e.id for e in reopened.entries()) == ids


def test_corrupt_missing_pattern_file_detected(tmp_path):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    store.store(make_pattern_entry(build_half_adder()))
    os.remove(os.path.join(store.patterns_dir, "1.nl"))
    with pytest.raises(StoreError):
        KnowledgeStore(root)


def test_tampered_pattern_file_detected_on_load(tmp_path):
    root = tmp_path / "store"
    store = KnowledgeStore(root)
    store.store(make_pattern_entry(build_half_adder()))
    path = os.path.join(store.patterns_dir, "1.nl")
    with open(path, "w") as fh:
        fh.write("module half_adder(input a, input b, output s, output c);\n"
                 "  xor g1(s, a, b);\n  xor g2(c, a, b);\nendmodule\n")
    with pytest.raises(AdmissionError):
        KnowledgeStore(root)


def test_compact_drops_archived(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_worse_half_adder()))
    assert len(store.entries(include_archived=True)) == 2
    removed = store.compact()
    assert removed == 1
    reopened = KnowledgeStore(tmp_path / "store")
    assert len(reopened.entries(include_archived=True)) == 1


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
    os.link(os.path.join(store.patterns_dir, "1.nl"),
            os.path.join(store.patterns_dir, "2.nl"))
    reopened = KnowledgeStore(tmp_path / "store")
    assert [(e.id, e.status) for e in reopened.entries(include_archived=True)
            ] == [(1, "primary"), (2, "archived")]


def test_torn_last_line_is_dropped_at_load(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_full_adder()))
    tear_last_line(store)
    reopened = KnowledgeStore(tmp_path / "store")
    assert [e.name for e in reopened.entries()] == ["half_adder"]


def test_store_after_a_torn_tail_starts_a_fresh_line(tmp_path):
    store = KnowledgeStore(tmp_path / "store")
    store.store(make_pattern_entry(build_half_adder()))
    store.store(make_pattern_entry(build_full_adder()))
    tear_last_line(store)
    reopened = KnowledgeStore(tmp_path / "store")
    # The torn record's id is free again and its orphan file is replaced.
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
