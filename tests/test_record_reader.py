"""The store's index reader against the one it replaced.

`ReferenceStore` reads the index one line at a time, as the store once did:
`json.loads`, then each field checked with `is_json`, then the entry built
by keyword, and the stamp's prefix hashed on its own and re-offered in
full. Both readers open the same generated logs, under the same stamps,
and must agree on every outcome: the entries (archived ones included),
where the next append goes, the hashed bytes, the patterns verified, or
the `StoreError` text.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gateforge import knowledge
from gateforge.jsonfields import (REQUIRED, _JSON_TYPES, FieldError, is_json,
                                  json_field, take, take_all)
from gateforge.knowledge import (KIND_PATTERN, RECORD_FIELDS, KnowledgeEntry,
                                 KnowledgeStore, StoreError,
                                 make_error_fix_entry, make_pattern_entry,
                                 offer_primary)
from gateforge.netlist import GateKind, NetlistBuilder, PortDir


def reference_take_all(doc: dict, where: str, table) -> dict:
    """`take_all` as it tested each value: `is_json` against the types."""
    values = {}
    for key, types, default in table:
        value = doc.get(key, default)
        if type(value) not in types and value is not default \
                and not is_json(value, *types) or value is REQUIRED:
            take(doc, key, where, *types)
        values[key] = value
    return values


REFERENCE_FIELDS = tuple((f.key, f.rule.types, f.default)
                         for f in RECORD_FIELDS)


class ReferenceStore(KnowledgeStore):
    """The store with the per-line index reader it replaced."""

    def _load(self, verify: bool) -> None:
        with open(self.index_path, "rb") as fh:
            data = fh.read()
        stamped = self._stamped_length(data) if verify else 0
        lines = data.split(b"\n")
        tail = lines.pop()
        entries: dict[int, KnowledgeEntry] = {}
        in_stamp: dict[int, KnowledgeEntry] = {}
        start = 0
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                entry = self._parse_entry(line, lineno)
                entries[entry.id] = entry
                if start < stamped:
                    in_stamp[entry.id] = entry
            start += len(line) + 1
        if tail:
            try:
                entry = self._parse_entry(tail, len(lines) + 1)
            except StoreError:
                self._append_at = (start, b"")
            else:
                entries[entry.id] = entry
                self._append_at = (len(data), b"\n")
        seen = data[:self._append_at[0]] if self._append_at else data
        self._seen = hashlib.sha256(seen)
        self._seen_length = len(seen)
        for _, entry in sorted(entries.items()):
            self._commit(entry)
        if verify:
            vouched: dict[tuple, KnowledgeEntry] = {}
            for _, entry in sorted(in_stamp.items()):
                offer_primary(vouched, entry)
            by_id = {e.id: e for e in vouched.values()}
            for entry in self._entries.values():
                if entry.status == "primary" and by_id.get(entry.id) != entry:
                    knowledge.verify_pattern_entry(entry)

    def _stamped_length(self, data: bytes) -> int:
        try:
            with open(self.stamp_path, "rb") as fh:
                stamp = json.load(fh)
        except (OSError, ValueError):
            return 0
        if not is_json(stamp, dict):
            return 0
        length = stamp.get("length")
        if not (is_json(length, int) and 0 < length <= len(data)
                and data[length - 1] == ord("\n")):
            return 0
        rules = knowledge._rules_digest()
        if rules is None or stamp.get("rules") != rules:
            return 0
        prefix = hashlib.sha256(memoryview(data)[:length]).hexdigest()
        return length if stamp.get("sha256") == prefix else 0

    def _parse_entry(self, line: bytes, lineno: int) -> KnowledgeEntry:
        try:
            rec = json.loads(line)
            if not is_json(rec, dict):
                raise ValueError("not a JSON object")
            rec = reference_take_all(rec, "", REFERENCE_FIELDS)
        except FieldError as exc:
            raise StoreError(f"{self.index_path}:{lineno}: invalid index "
                             f"record: {exc}") from None
        except ValueError as exc:
            raise StoreError(f"{self.index_path}:{lineno}: unparsable index "
                             f"record: {exc}") from None
        return KnowledgeEntry(**dict(rec, tags=tuple(rec["tags"])))


def open_outcome(cls, root, monkeypatch, verify: bool = True):
    """What opening `root` with `cls` leaves, or the StoreError it raises:
    the entries by id, archived included, the primaries, where the next
    append goes, the hashed bytes and the patterns verified, in order."""
    verified: list[int | None] = []
    check = knowledge.verify_pattern_entry

    def counting(entry):
        if entry.kind == KIND_PATTERN:   # the others have nothing to verify
            verified.append(entry.id)
        check(entry)

    monkeypatch.setattr(knowledge, "verify_pattern_entry", counting)
    try:
        store = cls(root, verify=verify)
    except StoreError as exc:
        return type(exc).__name__, str(exc), verified
    finally:
        monkeypatch.setattr(knowledge, "verify_pattern_entry", check)
    return (list(store._entries.items()), list(store._primaries.items()),
            store._append_at, store._seen.hexdigest(), store._seen_length,
            verified)


def padded(kind: GateKind, pad: int):
    """A two-input gate and `pad` inverter pairs: one function at a lower
    efficiency index per pair."""
    b = NetlistBuilder(f"{kind.value}_pad{pad}")
    net = b.gate(kind, (b.input("a"), b.input("b")))
    for _ in range(2 * pad):
        net = b.gate(GateKind.NOT, (net,))
    b.bind("y", PortDir.OUT, net)
    return b.build()


ENTRIES = (
    [make_pattern_entry(padded(kind, pad), tags=(kind.value,))
     for kind in (GateKind.AND, GateKind.XOR) for pad in range(3)]
    + [make_error_fix_entry("syntax", "missing semicolon", "add it",
                            tags=("parse",)),
       make_error_fix_entry("width", "bus too wide", "narrow it")])
# A pattern whose record no longer matches its netlist.
TAMPERED = replace(ENTRIES[0], gate_count=7)

# Per field, JSON values of the wrong type for it.
WRONG = {"id": ["1", 1.5, True, None], "kind": ["weird", 1, None],
         "name": [5, None, ["x"]], "tags": ["abc", ["a", 1], {"a": "b"}],
         "netlist_text": [5, ["x"]], "signature_digest": [1, True],
         "signature_kind": ["fuzzy", 0], "inputs": ["2", 2.0, False, None],
         "outputs": [None, "1"], "gate_count": ["3", 3.5],
         "delay": [True, "1"], "sei": ["high", [0.5], False],
         "error_class": [1], "symptom": [False], "fix": [{}],
         "task_id": [5, None], "run_id": [0], "status": ["gone", None, 1]}
# Fields whose default a record may leave out.
OPTIONAL = [f.key for f in RECORD_FIELDS if f.default is not REQUIRED]


def record_line(rng: random.Random, entry_id: int, fault: bool) -> bytes:
    """One index line for `entry_id`: a record of one of ENTRIES, maybe
    archived, maybe missing defaulted fields or holding extra keys; with
    `fault`, a line the loader refuses or reads in an unusual form."""
    entry = rng.choice(ENTRIES + [TAMPERED] * fault)
    rec = replace(entry, id=entry_id, status=rng.choice(
        ["primary"] * 3 + ["archived"])).to_record()
    for key in rng.sample(OPTIONAL, rng.choice([0, 0, 0, 1, 3])):
        del rec[key]
    if rng.random() < 0.2:
        rec["extra"] = rng.choice([1, "x", None, [1, 2]])
    line = json.dumps(rec, sort_keys=rng.random() < 0.8).encode()
    if not fault:
        return line
    kind = rng.randrange(8)
    if kind == 0:   # a wrong-typed field
        key = rng.choice(list(WRONG))
        rec[key] = rng.choice(WRONG[key])
        return json.dumps(rec).encode()
    if kind == 1:   # a required field missing
        del rec[rng.choice(["id", "kind", "name"])]
        return json.dumps(rec).encode()
    if kind == 2:   # not an object
        return rng.choice([b"[1, 2]", b'"record"', b"42", b"null", b"true"])
    if kind == 3:   # not UTF-8
        at = rng.randrange(len(line))
        return line[:at] + b"\xff" + line[at:]
    if kind == 4:   # a UTF-8 byte order mark, which `json.loads` skips
        return b"\xef\xbb\xbf" + line
    if kind == 5:   # space around the object, which JSON allows
        return rng.choice([b" ", b"\t", b"\r", b"  "]) + line + rng.choice(
            [b"", b" ", b"\r", b"\t "])
    if kind == 6:   # torn
        return line[:rng.randrange(1, len(line))]
    return line + rng.choice([b" {}", b"x", b",", b"}"])   # extra data


def write_log(rng: random.Random, root) -> bytes:
    """A generated index log at `root`, with a stamp that covers none, part
    or all of its complete lines, or a stale one. Returns its bytes."""
    root.mkdir(exist_ok=True)
    faulty = rng.random() < 0.4
    lines = []
    next_id = 1
    for _ in range(rng.randrange(0, 12)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice([b"", b"  ", b"\t", b" \r"]))
            continue
        if roll < 0.3 and next_id > 1:   # a repeated id
            entry_id = rng.randrange(1, next_id)
        else:
            entry_id, next_id = next_id, next_id + 1
        lines.append(record_line(rng, entry_id,
                                 faulty and rng.random() < 0.3))
    data = b"".join(line + b"\n" for line in lines)
    tail = rng.random()
    if tail < 0.15:   # a torn tail, valid as far as it goes or not
        line = record_line(rng, next_id, False)
        data += line[:rng.randrange(1, len(line))]
    elif tail < 0.3:   # an unterminated tail that is a whole record
        data += record_line(rng, next_id, False)
    elif tail < 0.4:   # an unterminated tail with a wrong-typed field
        rec = json.loads(record_line(rng, next_id, False))
        key = rng.choice(list(WRONG))
        rec[key] = rng.choice(WRONG[key])
        data += json.dumps(rec).encode()
    elif tail < 0.45:   # a blank tail
        data += rng.choice([b" ", b"\t "])
    (root / "index.jsonl").write_bytes(data)
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    stamp = root / "index.verified"
    if stamp.exists():
        stamp.unlink()
    if ends and rng.random() < 0.8:
        length = rng.choice([ends[-1]] * 2 + ends)
        digest = hashlib.sha256(data[:length]).hexdigest()
        if rng.random() < 0.1:
            digest = "0" * 64
        stamp.write_text(json.dumps({"length": length, "sha256": digest,
                                     "rules": knowledge._rules_digest()}))
    return data


@pytest.mark.parametrize("seed", range(8))
def test_the_reader_matches_the_per_line_reader(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    outcomes = set()
    for case in range(60):
        root = tmp_path / f"store{case}"
        data = write_log(rng, root)
        verify = rng.random() < 0.9
        want = open_outcome(ReferenceStore, root, monkeypatch, verify)
        got = open_outcome(KnowledgeStore, root, monkeypatch, verify)
        assert got == want, (seed, case, data)
        outcomes.add(want[0] if type(want[0]) is str else "opened")
    # Each batch both opens stores and refuses them.
    assert outcomes >= {"opened", "StoreError"}


@pytest.mark.parametrize("lines", [
    [b"", b"  \t", b"\r"],
    [b"\xef\xbb\xbf{LINE}"],
    [b"  {LINE}\r"],
    [b"{LINE}", b"\xff{LINE}"],
    [b"{LINE}", b'{"id": 2, "kind": "error-fix", "name": "n\xff"}'],
    [b"[1]"],
    [b"{LINE}", b"{LINE} {}"],
    [b"{LINE}", b'{"id": 3, "name": "x"}'],
    [b"{LINE}", b'{"id": 3, "kind": "error-fix", "name": "x", "more": 1}'],
], ids=["blank", "bom", "spaces", "ff-start", "ff-inside", "array",
        "extra-data", "missing-kind", "extra-key"])
@pytest.mark.parametrize("stamp", ["none", "first", "whole"])
def test_unusual_lines_read_as_the_per_line_reader_reads_them(
        tmp_path, monkeypatch, lines, stamp):
    line = json.dumps(replace(ENTRIES[0], id=1).to_record()).encode()
    data = b"".join(row.replace(b"{LINE}", line) + b"\n" for row in lines)
    root = tmp_path / "store"
    root.mkdir()
    (root / "index.jsonl").write_bytes(data)
    if stamp != "none":
        length = data.index(b"\n") + 1 if stamp == "first" else len(data)
        (root / "index.verified").write_text(json.dumps({
            "length": length, "rules": knowledge._rules_digest(),
            "sha256": hashlib.sha256(data[:length]).hexdigest()}))
    want = open_outcome(ReferenceStore, root, monkeypatch)
    assert open_outcome(KnowledgeStore, root, monkeypatch) == want


# -- the compiled field rows -----------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(-2, 2)
    | st.sampled_from(["", "x", "exact", "primary", "in", "12", "-1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "1", "20", "x1"]), inner,
                      max_size=3),
    max_leaves=6)
TYPE_SETS = sorted(set(_JSON_TYPES.values()), key=repr) + [
    ("exact", "sampled", "sequential", None), ("primary", "archived"),
    (dict, None), (list[dict],), (dict[str, float],), (bool, int)]


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES, types=st.sampled_from(TYPE_SETS),
       absent=st.booleans())
def test_a_compiled_row_admits_what_is_json_admits(value, types, absent):
    doc = {} if absent else {"k": value}
    for default in (REQUIRED, None, 0):
        row = json_field("k", types, default)
        try:
            got = take_all(doc, "w", (row,))
        except FieldError as exc:
            got = str(exc)
        try:
            want = reference_take_all(doc, "w", (("k", types, default),))
        except FieldError as exc:
            want = str(exc)
        assert got == want


def test_a_fault_names_the_first_faulty_field_in_table_order():
    table = (json_field("a", (int,)), json_field("b", ("x", "y"), "x"),
             json_field("c", (list[str],), ()))
    doc = {"a": 1, "b": "z", "c": [1]}
    with pytest.raises(FieldError, match=r"^w\.b: must be 'x' or 'y'$"):
        take_all(doc, "w", table)
    with pytest.raises(FieldError, match=r"^w\.a: must be an integer$"):
        take_all({"b": "z"}, "w", table)
    assert take_all({"a": 2}, "w", table) == {"a": 2, "b": "x", "c": ()}
    with pytest.raises(TypeError):
        json_field("d", (list[list[int]],))
