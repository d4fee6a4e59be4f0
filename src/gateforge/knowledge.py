"""Persistent store of verified circuit patterns and error-fix records.

Layout on disk: a directory holding index.jsonl, with one JSON record per
entry carrying all its fields, a circuit pattern's canonical netlist text
included, and the stamp index.verified. The index is an append-only log
(the last record per id wins) that only compact() rewrites. Each `store`
call is one append of its entries' records, so a crash can tear at most the
last line; the complete records before it stay. The stamp names a prefix of
the log, by length and sha256, whose primaries were verified under the
current verification rules, so an open re-verifies only what lies past it.
The exact schema is documented in docs/knowledge_store.md.

Retrieval is symbolic and deterministic: exact functional-signature match,
interface shape, tag overlap and error-class/symptom token overlap. Entries
competing for the same (signature, interface) key are resolved by
efficiency: the higher index stays primary, the loser is archived.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import random
import sys
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import parser as nl_parser
from .jsonfields import FieldError, is_json, json_field, json_fields, take_all
from .metrics import measure
from .netlist import (Netlist, Port, PortDir, StructuralReport,
                      _levelization, gate_depths, structural_report)
from .simulator import (FunctionalSignature, SimulationError,
                        exhaustive_columns, functional_signature,
                        sequential_trace)

KIND_PATTERN = "circuit-pattern"
KIND_ERROR_FIX = "error-fix"

SUBPATTERN_MAX_GATES = 8
SUBPATTERN_MAX_INPUTS = 6
# Connected-subgraph enumeration stops after this many subsets, counted
# smallest first, so pathological designs cannot stall a run; alu1 with one
# inverter pair already has 4,510 subsets and loses only 8-gate ones.
SUBPATTERN_ENUM_CAP = 4096
# Extraction stops once it has emitted more than this many entries, so a
# design yields at most 33, smallest sub-patterns first (33 sub-patterns
# when its own entry is held); dense designs otherwise flood the store.
SUBPATTERN_EMIT_CAP = 32

_SEQ_FINGERPRINT_SEED = 0xD1F0
_SEQ_FINGERPRINT_CYCLES = 32

# The modules whose code decides whether a record verifies.
_RULE_MODULES = ("parser", "netlist", "simulator", "metrics", "knowledge")


class StoreError(RuntimeError):
    pass


class AdmissionError(StoreError):
    """Entry failed re-verification and was refused."""


@dataclass(frozen=True)
class KnowledgeEntry:
    kind: str
    name: str
    tags: tuple[str, ...] = ()
    # Circuit-pattern fields.
    netlist_text: str | None = None
    signature_digest: str | None = None
    signature_kind: str | None = None   # exact | sampled | sequential
    inputs: int = 0
    outputs: int = 0
    gate_count: int | None = None
    delay: int | None = None
    sei: float | None = None
    # Error-fix fields.
    error_class: str | None = None
    symptom: str | None = None
    fix: str | None = None
    # Where the entry was learned.
    task_id: str = ""
    run_id: str = ""
    id: int | None = None
    status: str = "primary"             # primary | archived

    def to_record(self) -> dict:
        rec = {key: getattr(self, key) for key in _RECORD_KEYS}
        if type(self.tags) is tuple:
            rec["tags"] = list(self.tags)
        return rec


# Each index record field, in record order, as a compiled `take_all` row:
# the id, which every record has, then the other fields in declaration
# order, then the status. `_entry` relies on this order.
RECORD_FIELDS = (
    json_field("id", (int,)),
    *json_fields(KnowledgeEntry, skip=("id", "status"),
                 kind=(KIND_PATTERN, KIND_ERROR_FIX),
                 signature_kind=("exact", "sampled", "sequential", None)),
    json_field("status", ("primary", "archived"), "primary"),
)
_RECORD_KEYS = tuple(f.key for f in RECORD_FIELDS)
# The fields `store` checks of an entry's record; it sets the other two.
_ADMITTED_FIELDS = RECORD_FIELDS[1:-1]


def _entry(values) -> KnowledgeEntry:
    """The entry of a checked record's values, in record order."""
    entry_id, kind, name, tags, *fields, status = values
    return KnowledgeEntry(kind, name, tuple(tags), *fields, entry_id, status)


def pattern_key(entry: KnowledgeEntry | _Measure,
                ) -> tuple[str | None, int, int]:
    """The key circuit patterns compete under: one primary per function
    and interface shape."""
    return (entry.signature_digest, entry.inputs, entry.outputs)


def displaces(new_sei: float | None, held_sei: float | None) -> bool:
    """Whether a pattern displaces the one held under its key: it must be
    more efficient by more than 1e-12, so the incumbent wins ties."""
    return (new_sei or 0.0) > (held_sei or 0.0) + 1e-12


def offer_primary(primaries: dict[tuple, KnowledgeEntry],
                  entry: KnowledgeEntry) -> KnowledgeEntry | None:
    """The one primary-per-key rule, which admission, load repair,
    extraction and the Summarizer all apply. Offers `entry` to `primaries`
    (`pattern_key` -> primary, in admission order) and returns the loser:
    the primary the entry `displaces`, which it replaces and then moves to
    the end; else the entry itself, or None if its key held nothing. Only
    primary circuit patterns compete."""
    if entry.kind != KIND_PATTERN or entry.status != "primary":
        return None
    key = pattern_key(entry)
    held = primaries.get(key)
    if held is not None:
        if not displaces(entry.sei, held.sei):
            return entry
        del primaries[key]
    primaries[key] = entry
    return held


@dataclass(frozen=True)
class RetrievalQuery:
    mode: str                       # by-function | by-interface | by-tags | by-error
    signature_digest: str | None = None
    shape: tuple[int, int] | None = None
    tags: tuple[str, ...] = ()
    error_class: str | None = None
    symptom: str = ""
    limit: int = 3

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError("limit must be >= 1")

    @classmethod
    def by_function(cls, signature_digest: str, shape: tuple[int, int],
                    tags: tuple[str, ...] = (), limit: int = 3) -> "RetrievalQuery":
        return cls("by-function", signature_digest=signature_digest,
                   shape=shape, tags=tags, limit=limit)

    @classmethod
    def by_interface(cls, shape: tuple[int, int], limit: int = 3) -> "RetrievalQuery":
        return cls("by-interface", shape=shape, limit=limit)

    @classmethod
    def by_tags(cls, tags: tuple[str, ...], limit: int = 3) -> "RetrievalQuery":
        return cls("by-tags", tags=tags, limit=limit)

    @classmethod
    def by_error(cls, error_class: str, symptom: str = "",
                 limit: int = 3) -> "RetrievalQuery":
        return cls("by-error", error_class=error_class, symptom=symptom,
                   limit=limit)


def _tokens(text: str) -> set[str]:
    return {t for t in "".join(c.lower() if c.isalnum() else " "
                               for c in text).split() if t}


def _rank(entries: list[KnowledgeEntry], q: RetrievalQuery) -> list[KnowledgeEntry]:
    primaries = [e for e in entries if e.status == "primary"]

    def sei_key(e: KnowledgeEntry) -> float:
        return e.sei if e.sei is not None else -1.0

    if q.mode == "by-function":
        exact = [e for e in primaries if e.kind == KIND_PATTERN
                 and e.signature_digest == q.signature_digest]
        exact.sort(key=lambda e: (-sei_key(e), e.id))
        rest = [e for e in primaries if e.kind == KIND_PATTERN
                and e.signature_digest != q.signature_digest
                and q.shape is not None
                and (e.inputs, e.outputs) == q.shape]
        qt = set(q.tags)
        rest.sort(key=lambda e: (-len(qt & set(e.tags)), -sei_key(e), e.id))
        return (exact + rest)[:q.limit]
    if q.mode == "by-interface":
        hits = [e for e in primaries if e.kind == KIND_PATTERN
                and (e.inputs, e.outputs) == q.shape]
        hits.sort(key=lambda e: (-sei_key(e), e.id))
        return hits[:q.limit]
    if q.mode == "by-tags":
        qt = set(q.tags)
        hits = [(len(qt & set(e.tags)), e) for e in primaries
                if e.kind == KIND_PATTERN]
        hits = [(o, e) for o, e in hits if o > 0]
        hits.sort(key=lambda oe: (-oe[0], -sei_key(oe[1]), oe[1].id))
        return [e for _, e in hits][:q.limit]
    if q.mode == "by-error":
        qt = _tokens(q.symptom)
        hits = [e for e in primaries if e.kind == KIND_ERROR_FIX
                and e.error_class == q.error_class]
        hits.sort(key=lambda e: (-len(qt & _tokens(e.symptom or "")), e.id))
        return hits[:q.limit]
    raise ValueError(f"unknown retrieval mode {q.mode}")


def sequential_fingerprint(netlist: Netlist) -> str:
    """Deterministic behavior digest for register-bearing patterns.

    Drives every non-clock input with a fixed-seed random stream for a fixed
    number of cycles and hashes the resulting output streams.
    """
    rng = random.Random(_SEQ_FINGERPRINT_SEED)
    clock_nets = netlist.clock_nets()
    drive = [name for name, nid in netlist.input_bits
             if nid not in clock_nets]
    stimulus = [{n: rng.getrandbits(1) for n in drive}
                for _ in range(_SEQ_FINGERPRINT_CYCLES)]
    streams = sequential_trace(netlist, stimulus)
    out_names = [name for name, _ in netlist.output_bits]
    h = hashlib.sha256()
    h.update(f"seq:{len(drive)}:{len(out_names)}".encode())
    for n in out_names:
        h.update(bytes(streams[n]))
    return h.hexdigest()


class _Measure(NamedTuple):
    """What a circuit-pattern entry records about its netlist, under the
    entry's field names. `sei` is at default weights, so one store serves
    runs under any weights."""

    signature_digest: str
    signature_kind: str       # exact | sampled | sequential
    inputs: int
    outputs: int
    gate_count: int
    delay: int
    sei: float | None


def _measure(netlist: Netlist) -> _Measure:
    """The one measurement behind building and verifying a pattern entry."""
    if netlist.registers:
        digest, kind = sequential_fingerprint(netlist), "sequential"
    else:
        sig = functional_signature(netlist)
        digest, kind = sig.digest, "exact" if sig.exact else "sampled"
    report = structural_report(netlist)
    return _Measure(digest, kind, len(netlist.input_bits),
                    len(netlist.output_bits), report.gate_count, report.delay,
                    measure(report))


def _tag_tuple(tags) -> tuple[str, ...]:
    """`tags` as an entry holds them; FieldError, in the loader's words,
    unless they are a list or tuple of strings."""
    if type(tags) not in (list, tuple) or not is_json(list(tags), list[str]):
        raise FieldError("", "tags", "a list of strings")
    return tuple(tags)


def make_pattern_entry(netlist: Netlist, tags: tuple[str, ...] = (),
                       task_id: str = "", run_id: str = "",
                       name: str | None = None) -> KnowledgeEntry:
    """Build a circuit-pattern entry from a verified netlist."""
    return KnowledgeEntry(KIND_PATTERN, name or netlist.name, _tag_tuple(tags),
                          nl_parser.render(netlist),
                          **_measure(netlist)._asdict(), task_id=task_id,
                          run_id=run_id)


def make_error_fix_entry(error_class: str, symptom: str, fix: str,
                         tags: tuple[str, ...] = (), task_id: str = "",
                         run_id: str = "",
                         name: str | None = None) -> KnowledgeEntry:
    return KnowledgeEntry(
        kind=KIND_ERROR_FIX,
        name=name or f"fix-{error_class}",
        tags=_tag_tuple(tags),
        error_class=error_class,
        symptom=symptom,
        fix=fix,
        task_id=task_id,
        run_id=run_id,
    )


def verify_pattern_entry(entry: KnowledgeEntry) -> None:
    """Re-simulate a circuit pattern against its stored metadata."""
    if entry.kind != KIND_PATTERN:
        return
    if not entry.netlist_text:
        raise AdmissionError(f"{entry.name}: pattern entry has no netlist text")
    result = nl_parser.parse(entry.netlist_text)
    if not result.ok:
        raise AdmissionError(
            f"{entry.name}: stored netlist no longer parses: "
            + "; ".join(str(e) for e in result.errors))
    try:
        m = _measure(result.netlist)
    except SimulationError as exc:
        raise AdmissionError(
            f"{entry.name}: stored netlist cannot be simulated: {exc}") from None
    if m.signature_digest != entry.signature_digest:
        raise AdmissionError(f"{entry.name}: netlist does not match its "
                             "stored functional signature")
    if m.sei is None:
        raise AdmissionError(f"{entry.name}: stored netlist has no gates "
                             "and no delay, so no efficiency index")
    # The record holds the float `json.dumps` wrote of this same
    # computation, which reads back exactly, so `sei` compares exactly too.
    for field, measured in m._asdict().items():
        stored = getattr(entry, field)
        if stored != measured:
            raise AdmissionError(f"{entry.name}: stored {field} {stored!r} "
                                 f"does not match measured {measured!r}")


@functools.cache
def _rules_digest() -> str | None:
    """sha256 of the verification rules: the Python version and the source
    of `_RULE_MODULES`. None when a source cannot be read; then no stamp is
    valid and none is written."""
    h = hashlib.sha256(sys.version.encode())
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        for name in _RULE_MODULES:
            with open(os.path.join(here, f"{name}.py"), "rb") as fh:
                source = fh.read()
            h.update(f"\0{name}\0{len(source)}\0".encode() + source)
    except OSError:
        return None
    return h.hexdigest()


_SCAN = json.JSONDecoder().raw_decode


def _json_value(line: bytes):
    """`json.loads(line)`. The usual index line, an object with no space
    around it, is scanned as the UTF-8 text `json.loads` would decode it
    to; any other line goes through `json.loads`, which also words each
    fault."""
    if line[:1] == b"{":
        with contextlib.suppress(ValueError):
            text = line.decode("utf-8", "surrogatepass")
            value, end = _SCAN(text)
            if end == len(text):
                return value
    return json.loads(line)


# Writes what `json.dumps(record, sort_keys=True)` does, without building
# an encoder per record.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _record_lines(records) -> bytes:
    """The index lines of the record dicts `records`, in order."""
    return "".join([_ENCODE(rec) + "\n" for rec in records]).encode()


def _admissible_record(entry: KnowledgeEntry) -> dict:
    """The record `entry` is written as, once `store` sets its id and
    status; AdmissionError, in the loader's words, if the loader would
    refuse it."""
    rec = entry.to_record()
    try:
        take_all(rec, "", _ADMITTED_FIELDS)
    except FieldError as exc:
        raise AdmissionError(
            f"{entry.name}: invalid index record: {exc}") from None
    return rec


class _RetrievalBase:
    """Shared read-side behavior of the store and its frozen snapshots."""

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        raise NotImplementedError

    def retrieve(self, query: RetrievalQuery) -> list[KnowledgeEntry]:
        return _rank(self._snapshot_entries(), query)

    def _held_primaries(self) -> dict[tuple, KnowledgeEntry]:
        """A fresh `pattern_key` -> primary map of the held entries, as
        `offer_primary` leaves it."""
        primaries: dict[tuple, KnowledgeEntry] = {}
        for held in self.entries():
            offer_primary(primaries, held)
        return primaries

    def entries(self, include_archived: bool = False) -> list[KnowledgeEntry]:
        entries = self._snapshot_entries()
        if include_archived:
            return entries
        return [e for e in entries if e.status == "primary"]

    def extract_patterns(self, netlist: Netlist, task_id: str = "",
                         run_id: str = "", tags: tuple[str, ...] = (),
                         text: str | None = None) -> list[KnowledgeEntry]:
        """Candidate entries from a verified design: the whole design plus
        small combinational sub-DAGs whose behavior is not already held at
        equal or better efficiency. Nothing is inserted here; callers pass
        the results to a writable store. `text` is `render(netlist)`, when
        the caller already holds it."""
        # Held primaries, then each emitted entry, compete under the rule.
        primaries = self._held_primaries()
        out: list[KnowledgeEntry] = []

        def offer(m: _Measure, name: str, entry_tags: tuple[str, ...],
                  render: Callable[[], str]) -> None:
            # A measure that does not displace its key's held primary is
            # dropped before any entry is built; most are. Only an emitted
            # entry is built and rendered.
            held = primaries.get(pattern_key(m))
            if held is not None and not displaces(m.sei, held.sei):
                return
            entry = KnowledgeEntry(KIND_PATTERN, name, entry_tags, render(),
                                   **m._asdict(), task_id=task_id,
                                   run_id=run_id)
            offer_primary(primaries, entry)
            out.append(entry)

        whole = _measure(netlist)
        if whole.sei is None:
            # A design with no gates and no delay has no index to rank it by,
            # and no gates to carve sub-patterns from.
            return []
        tags = _tag_tuple(tags)
        offer(whole, f"{task_id or netlist.name}-design", tags,
              lambda: text or nl_parser.render(netlist))

        sub_tags = tags + ("subcircuit",)
        for cut in _connected_cuts(netlist):
            m = _measure_cut(netlist, *cut)
            offer(m, f"pat-{m.signature_digest[:10]}", sub_tags,
                  lambda: nl_parser.render(_cut_fields(netlist, *cut)))
            if len(out) > SUBPATTERN_EMIT_CAP:
                break
        return out


class KnowledgeStore(_RetrievalBase):
    """Directory-backed store; many readers, one writer at a time."""

    def __init__(self, root: str | os.PathLike, verify: bool = True):
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._entries: dict[int, KnowledgeEntry] = {}   # by id, in id order
        self._primaries: dict[tuple, KnowledgeEntry] = {}  # see offer_primary
        # (size, prefix) when the index does not end on a complete line:
        # the next append first truncates the log to `size` bytes, then
        # writes `prefix` and its records.
        self._append_at: tuple[int, bytes] | None = None
        # The running sha256 and length of the index bytes that memory was
        # loaded from or that this handle appended, and whether every
        # primary they hold has been verified under the current rules. Only
        # then may the handle stamp them.
        self._seen = hashlib.sha256()
        self._seen_length = 0
        self._verified = verify
        # Only what is missing is created, so a read-only store opens, and
        # a root that is a file raises NotADirectoryError at the open.
        if not os.path.exists(self.root):
            os.makedirs(self.root, exist_ok=True)
        if not os.path.exists(self.index_path):
            open(self.index_path, "ab").close()
        self._load(verify=verify)

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        with self._lock:
            return list(self._entries.values())

    def _held_primaries(self) -> dict[tuple, KnowledgeEntry]:
        # Admission and load keep this map already.
        with self._lock:
            return dict(self._primaries)

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    @property
    def stamp_path(self) -> str:
        return os.path.join(self.root, "index.verified")

    def _load(self, verify: bool) -> None:
        with open(self.index_path, "rb") as fh:
            data = fh.read()
        # The sha256 that checks the stamp's prefix goes on over the rest
        # of the loaded bytes, so each byte is hashed once.
        length, digest = self._stamp_claim(data) if verify else (0, None)
        view = memoryview(data)
        self._seen = hashlib.sha256(view[:length])
        stamped = length if self._seen.hexdigest() == digest else 0
        lines = data.split(b"\n")
        # The last piece is empty when the log ends on a newline; otherwise
        # an append was cut short.
        tail = lines.pop()
        parse = self._parse_entry
        covered = data.count(b"\n", 0, stamped)   # the lines in the stamp
        in_stamp = [parse(line, lineno) for lineno, line
                    in enumerate(lines[:covered], 1) if line.strip()]
        past = [parse(line, lineno) for lineno, line
                in enumerate(lines[covered:], covered + 1) if line.strip()]
        end = len(data) - len(tail)
        if tail:
            try:
                past.append(parse(tail, len(lines) + 1))
            except StoreError:
                # Torn or blank tail: drop it; the next append overwrites it.
                self._append_at = (end, b"")
            else:
                end = len(data)
                self._append_at = (end, b"\n")
        self._seen.update(view[length:end])
        self._seen_length = end
        entries = {entry.id: entry for entry in in_stamp + past}
        for entry_id in sorted(entries):
            self._commit(entries[entry_id])
        if verify and past:
            # The stamp vouches for the primaries of its prefix loaded on
            # its own. A record past it can add a primary or change one, and
            # an archive record there can promote an entry the stamp never
            # vouched for; each of those is verified. With no record past
            # it, the loaded primaries are the vouched ones.
            vouched: dict[tuple, KnowledgeEntry] = {}
            for _, entry in sorted({e.id: e for e in in_stamp}.items()):
                offer_primary(vouched, entry)
            by_id = {e.id: e for e in vouched.values()}
            for entry in self._entries.values():
                if entry.status == "primary" and by_id.get(entry.id) != entry:
                    verify_pattern_entry(entry)

    def _stamp_claim(self, data: bytes) -> tuple[int, str | None]:
        """The (length, sha256) the stamp claims for a prefix of the index
        `data`; (0, None) unless the stamp parses, its length ends on a line
        of `data` and it was made under the current rules. The claim holds
        if the sha256 matches that prefix's."""
        try:
            with open(self.stamp_path, "rb") as fh:
                stamp = json.load(fh)
        except (OSError, ValueError):
            return 0, None
        if not is_json(stamp, dict):
            return 0, None
        length = stamp.get("length")
        if not (is_json(length, int) and 0 < length <= len(data)
                and data[length - 1] == ord("\n")):
            return 0, None
        rules = _rules_digest()
        if rules is None or stamp.get("rules") != rules:
            return 0, None
        return length, stamp.get("sha256")

    def _write_stamp(self) -> None:
        """Stamp the index bytes this handle has seen, when it may: every
        primary they hold is verified under rules that can be digested, and
        they end on a newline. A stamp that cannot be written is left out;
        the next open then verifies more.

        The stamp is overwritten in place from its first byte, with no
        newline after the object, and then cut at its new end; it is never
        first truncated to nothing. A stamp torn at any byte, which leaves
        a prefix of the new one before the rest of the old, or one mixed
        from two writers, fails its own JSON, length, prefix-hash or rules
        check, and the next open then verifies everything."""
        rules = _rules_digest()
        # A log that ends in an unterminated record ends mid-line until the
        # next append writes the newline `_append_at` holds.
        mid_line = self._append_at is not None and self._append_at[1]
        if not self._verified or rules is None or mid_line:
            return
        stamp = json.dumps({"length": self._seen_length, "rules": rules,
                            "sha256": self._seen.hexdigest()}, sort_keys=True)
        with contextlib.suppress(OSError):
            try:
                fh = open(self.stamp_path, "r+b")
            except FileNotFoundError:
                fh = open(self.stamp_path, "wb")
            with fh:
                fh.write(stamp.encode())
                fh.truncate()

    def _parse_entry(self, line: bytes, lineno: int) -> KnowledgeEntry:
        # The record's location is formatted only for a refusal.
        try:
            rec = _json_value(line)
            if type(rec) is not dict:
                raise ValueError("not a JSON object")
            values = take_all(rec, "", RECORD_FIELDS).values()
        except FieldError as exc:
            raise StoreError(f"{self.index_path}:{lineno}: invalid index "
                             f"record: {exc}") from None
        except ValueError as exc:
            raise StoreError(f"{self.index_path}:{lineno}: unparsable index "
                             f"record: {exc}") from None
        return _entry(values)

    def _append(self, records: list[dict]) -> None:
        text = _record_lines(records)
        if self._append_at is not None:
            size, prefix = self._append_at
            os.truncate(self.index_path, size)
            text = prefix + text
            self._append_at = None
        # One write per `store` call, so a crash tears at most the last line.
        with open(self.index_path, "ab") as fh:
            fh.write(text)
        self._seen.update(text)
        self._seen_length += len(text)

    def _rewrite_index(self) -> None:
        text = _record_lines(e.to_record() for e in self._entries.values())
        tmp = self.index_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(text)
        os.replace(tmp, self.index_path)
        self._append_at = None
        self._seen = hashlib.sha256(text)
        self._seen_length = len(text)

    # -- write path ---------------------------------------------------------

    def store(self, *entries: KnowledgeEntry) -> int:
        """Admit entries in order; returns the first one's id, and the
        others take the ids after it.

        An entry whose record the loader would refuse is refused, and
        circuit patterns are re-verified before admission. Then
        `offer_primary` archives either each entry or the primary it
        displaces. Each new record, followed by the archived incumbent's
        record if there is one, is appended to the index, all in one
        write. If an entry is refused, the ones before it are admitted
        and its `AdmissionError` propagates, as storing them one by one
        would leave it.
        """
        if not entries:
            raise TypeError("store() needs at least one entry")
        records: list[dict] = []
        for entry in entries:
            try:
                rec = _admissible_record(entry)
                verify_pattern_entry(entry)
            except AdmissionError:
                if records:
                    self._admit(records)
                raise
            records.append(rec)
        return self._admit(records)

    def _admit(self, records: list[dict]) -> int:
        """Log and commit the checked records of verified entries; returns
        the first one's id."""
        with self._lock:
            # The rule decides on a copy of the keys' slots: memory changes
            # only once the log holds the outcome.
            slots: dict[tuple, KnowledgeEntry] = {}
            entries, logged = [], []
            first_id = max(self._entries, default=0) + 1
            for entry_id, rec in enumerate(records, first_id):
                rec["id"], rec["status"] = entry_id, "primary"
                entry = _entry(rec.values())
                key = pattern_key(entry)
                if key not in slots and key in self._primaries:
                    slots[key] = self._primaries[key]
                loser = offer_primary(slots, entry)
                if loser is entry:
                    rec["status"] = "archived"
                    entry, loser = _entry(rec.values()), None
                entries.append(entry)
                logged.append(rec)
                if loser is not None:
                    # New record first: a tear in the archive record
                    # leaves two primaries, which _load resolves,
                    # never none.
                    entries.append(replace(loser, status="archived"))
                    logged.append(entries[-1].to_record())
            self._append(logged)
            for entry in entries:
                self._commit(entry)
            self._write_stamp()
            return entries[0].id

    def _commit(self, entry: KnowledgeEntry) -> None:
        """Apply one logged record to memory, replacing any earlier record
        with its id and archiving the loser of `offer_primary`."""
        self._entries[entry.id] = entry
        loser = offer_primary(self._primaries, entry)
        if loser is not None:
            self._entries[loser.id] = replace(loser, status="archived")

    def seed_baseline(self) -> int:
        """Populate an empty store with the primitives and canonical blocks."""
        with self._lock:
            if self._entries:
                raise StoreError("seed_baseline requires an empty store")
        entries = [make_pattern_entry(netlist, tags=tags, task_id="baseline")
                   for netlist, tags in _baseline_netlists()]
        self.store(*entries)
        return len(entries)

    # -- read path ----------------------------------------------------------

    def snapshot(self) -> "KnowledgeView":
        with self._lock:
            return KnowledgeView(tuple(self._entries.values()))

    def verify_all(self) -> list[str]:
        """Re-check every primary pattern, stamp or no stamp; returns
        failure descriptions. When there are none, the index is stamped."""
        problems = []
        for e in self.entries():
            try:
                verify_pattern_entry(e)
            except AdmissionError as exc:
                problems.append(str(exc))
        if not problems:
            with self._lock:
                self._verified = True
                self._write_stamp()
        return problems

    def compact(self) -> int:
        """Drop archived entries; returns count removed."""
        with self._lock:
            dropped = [e for e in self._entries.values()
                       if e.status != "primary"]
            for e in dropped:
                del self._entries[e.id]
            self._rewrite_index()
            self._write_stamp()
            return len(dropped)


class KnowledgeView(_RetrievalBase):
    """Frozen read-only view with the same retrieval and extraction
    contract as the store.

    `run_benchmark` gives the samples of one task a view taken when the
    task starts. Nothing is written to the store until they all finish;
    then `orchestrator.summarize` admits what they learned, once per task.
    """

    def __init__(self, entries: tuple[KnowledgeEntry, ...]):
        self._frozen = entries
        # Each distinct query is ranked once: the entries never change.
        # Threads that race on a miss both rank it, to the same result.
        self._ranked: dict[RetrievalQuery, tuple[KnowledgeEntry, ...]] = {}

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        return list(self._frozen)

    def retrieve(self, query: RetrievalQuery) -> list[KnowledgeEntry]:
        ranked = self._ranked.get(query)
        if ranked is None:
            ranked = self._ranked[query] = tuple(super().retrieve(query))
        return list(ranked)


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _connected_cuts(netlist: Netlist) -> Iterator[tuple[list[int], ...]]:
    """Connected combinational sub-DAGs within the extraction bounds, as
    (ascending `schedule` positions, nets read from outside bar constants,
    exposed nets), on demand and smallest first.

    Gates are taken in compiled (levelized) order, the order `render`
    emits, so a design and its rendered-and-parsed copy give the same
    sub-DAGs. ESU enumeration (Wernicke, TCBB 2006) over bitmasks finds
    each connected gate subset once. It runs level by level: every subset
    of k gates comes before any of k + 1, and within a size the subsets
    keep the order of the depth-first ESU walk. The first
    `SUBPATTERN_ENUM_CAP` subsets in this order are considered; those
    with too many inputs are skipped.
    """
    gates = netlist.schedule
    n = len(gates)
    # Gates are adjacent when they touch a common net, including shared
    # inputs; that is what makes e.g. the XOR/AND pair of an adder one
    # connected pattern. A net's readers are the positions of the gates
    # reading it, plus bit n when an output port or a register reads it.
    readers = dict.fromkeys([nid for _, nid in netlist.output_bits] + [
        net for g in netlist.registers for net in g.inputs], 1 << n)
    touching: dict[int, int] = {}
    for pos, g in enumerate(gates):
        for net in (g.output, *g.inputs):
            touching[net] = touching.get(net, 0) | 1 << pos
        for net in g.inputs:
            readers[net] = readers.get(net, 0) | 1 << pos
    neighbors = [0] * n
    for group in touching.values():
        for pos in _bit_positions(group):
            neighbors[pos] |= group & ~(1 << pos)

    # ESU states, one per subset of the previous size, starting from single
    # gates: (`above`, the positions past the start gate; the subset;
    # `closed`, the subset and its neighbors; `ext`, the positions it may
    # grow by). A child adds one position of `ext` and may grow further by
    # those after it there, or by its exclusive neighbors past the start.
    level = [(-1 << (v + 1), 1 << v, 1 << v | neighbors[v],
              _bit_positions(neighbors[v] & -1 << (v + 1))) for v in range(n)]
    room = SUBPATTERN_ENUM_CAP
    for size in range(2, SUBPATTERN_MAX_GATES + 1):
        # A level is built as it is consumed, from the one before it, so an
        # extraction that stops early never builds the levels past it.
        grow = size < SUBPATTERN_MAX_GATES
        children = []
        for above, subset, closed, ext in level:
            for i, w in enumerate(ext):
                if not room:
                    return
                subset_w = subset | 1 << w
                if grow:
                    children.append((above, subset_w, closed | neighbors[w],
                                     ext[i + 1:] + _bit_positions(
                                         neighbors[w] & above & ~closed)))
                room -= 1
                positions = _bit_positions(subset_w)
                outs = [gates[pos].output for pos in positions]
                inputs = list(dict.fromkeys(
                    net for pos in positions for net in gates[pos].inputs
                    if net not in outs and netlist.nets[net].value is None))
                if len(inputs) <= SUBPATTERN_MAX_INPUTS:
                    # Expose what is read outside, else a terminal cone's
                    # sinks.
                    yield positions, inputs, (
                        [net for net in outs if readers.get(net, 0) & ~subset_w]
                        or [net for net in outs if net not in readers])
        level = children


def _measure_cut(netlist: Netlist, positions: list[int], inputs: list[int],
                 outputs: list[int]) -> _Measure:
    """`_measure` of the cut's carved sub-netlist, taken from the design's
    own compiled gates without building it."""
    k = len(inputs)
    mask = (1 << (1 << k)) - 1
    values = {nid: mask if value else 0 for nid, value in netlist.const_nets}
    values.update(zip(inputs, exhaustive_columns(k)))
    for pos in positions:
        evaluate, out, a, b = netlist.ops[pos]
        values[out] = evaluate(values[a], values[b], mask)
    columns = tuple(values[net] for net in outputs)
    depth = gate_depths(netlist.schedule[pos] for pos in positions)
    report = StructuralReport(len(positions), max(map(depth.get, outputs)), 0)
    return _Measure(FunctionalSignature(k, len(columns), columns).digest,
                    "exact", k, len(columns), report.gate_count, report.delay,
                    measure(report))


def _cut_fields(netlist: Netlist, positions: list[int], inputs: list[int],
                outputs: list[int]) -> nl_parser.RenderedFields:
    """What `render` reads of the cut as a netlist of its own (ports in0..,
    out0..), taken from the design's own compiled gates without building
    that netlist: its gates are levelized as its construction would."""
    schedule, _ = _levelization([netlist.schedule[pos] for pos in positions])
    input_bits = tuple([(f"in{k}", net) for k, net in enumerate(inputs)])
    output_bits = tuple([(f"out{k}", net) for k, net in enumerate(outputs)])
    ports = tuple([Port(bit, PortDir.IN) for bit, _ in input_bits]
                  + [Port(bit, PortDir.OUT) for bit, _ in output_bits])
    return nl_parser.RenderedFields("pattern", ports, netlist.const_nets,
                                    input_bits, output_bits, schedule, ())


# The six primitives plus canonical small blocks, as `render` writes them,
# with their tags; `store seed` admits them in this order.
_BASELINE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("module and2(input a, input b, output y);\n"
     "  and g1(y, a, b);\nendmodule\n", ("and", "primitive")),
    ("module or2(input a, input b, output y);\n"
     "  or g1(y, a, b);\nendmodule\n", ("or", "primitive")),
    ("module not1(input a, output y);\n"
     "  not g1(y, a);\nendmodule\n", ("not", "inverter", "primitive")),
    ("module xor2(input a, input b, output y);\n"
     "  xor g1(y, a, b);\nendmodule\n", ("xor", "primitive")),
    ("module nand2(input a, input b, output y);\n"
     "  nand g1(y, a, b);\nendmodule\n", ("nand", "primitive")),
    ("module dff1(input d, input clk, output q);\n"
     "  dff g1(q, d, clk);\nendmodule\n",
     ("dff", "register", "primitive", "sequential")),
    ("module half_adder(input a, input b, output s, output c);\n"
     "  xor g1(s, a, b);\n  and g2(c, a, b);\nendmodule\n",
     ("adder", "half-adder")),
    ("module full_adder(input a, input b, input cin, output sum,"
     " output cout);\n"
     "  wire w1, w2, w3;\n  xor g1(w1, a, b);\n  and g2(w2, a, b);\n"
     "  xor g3(sum, w1, cin);\n  and g4(w3, w1, cin);\n"
     "  or g5(cout, w2, w3);\nendmodule\n", ("adder", "full-adder")),
    ("module mux2(input a, input b, input sel, output y);\n"
     "  wire w1, w2;\n  xor g1(w1, a, b);\n  and g2(w2, sel, w1);\n"
     "  xor g3(y, a, w2);\nendmodule\n", ("mux", "selector")),
)


def _baseline_netlists() -> list[tuple[Netlist, tuple[str, ...]]]:
    """The seed set's modules, parsed, with their tags."""
    return [(nl_parser.parse(text).netlist, tags) for text, tags in _BASELINE]
