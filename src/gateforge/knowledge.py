"""Persistent store of verified circuit patterns and error-fix records.

Layout on disk: a directory holding one file, index.jsonl, with one JSON
record per entry carrying all its fields, a circuit pattern's canonical
netlist text included. The index is an append-only log (the last record per
id wins) that only compact() rewrites. Each admission is one append, so a
crash can tear at most the last line. The exact schema is documented in
docs/knowledge_store.md.

Retrieval is symbolic and deterministic: exact functional-signature match,
interface shape, tag overlap and error-class/symptom token overlap. Entries
competing for the same (signature, interface) key are resolved by
efficiency: the higher index stays primary, the loser is archived.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

from . import parser as nl_parser
from .jsonfields import REQUIRED, FieldError, is_json, json_fields, take_all
from .metrics import measure
from .netlist import (GateKind, Netlist, NetlistBuilder, PortDir,
                      StructuralReport, gate_depths, structural_report)
from .simulator import (FunctionalSignature, SimulationError,
                        functional_signature, pack_columns, sequential_trace)

KIND_PATTERN = "circuit-pattern"
KIND_ERROR_FIX = "error-fix"

SUBPATTERN_MIN_GATES = 2
SUBPATTERN_MAX_GATES = 8
SUBPATTERN_MAX_INPUTS = 6
# Connected-subgraph enumeration stops here so pathological designs cannot
# stall a run; alu1 with one inverter pair already has 4,510 subsets.
SUBPATTERN_ENUM_CAP = 4096
# Extraction stops once it has emitted more than this many entries, so a
# design yields at most 33, smallest sub-patterns first (33 sub-patterns
# when its own entry is held); dense designs otherwise flood the store.
SUBPATTERN_EMIT_CAP = 32

_SEQ_FINGERPRINT_SEED = 0xD1F0
_SEQ_FINGERPRINT_CYCLES = 32


class StoreError(RuntimeError):
    pass


class AdmissionError(StoreError):
    """Entry failed re-verification and was refused."""


@dataclass(frozen=True)
class Provenance:
    task_id: str = ""
    run_id: str = ""
    created_at: str = ""


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
    provenance: Provenance = field(default_factory=Provenance)
    id: int | None = None
    status: str = "primary"             # primary | archived

    def to_record(self) -> dict:
        rec = {key: getattr(self.provenance if key in _PROVENANCE else self,
                            key) for key, _, _ in RECORD_FIELDS}
        rec["tags"] = list(self.tags)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "KnowledgeEntry":
        """The entry an index record stands for; `rec` holds every field
        of RECORD_FIELDS, as `KnowledgeStore._parse_record` returns it."""
        values = dict(rec, tags=tuple(rec["tags"]))
        provenance = Provenance(*(values.pop(key) for key in _PROVENANCE))
        return cls(**values, provenance=provenance)


# Each index record field, in record order: (key, JSON types, value when
# absent). Every record has an id; the provenance fields are stored flat.
RECORD_FIELDS = (
    ("id", (int,), REQUIRED),
    *json_fields(KnowledgeEntry,
                 skip=("provenance", "id", "status")),
    *json_fields(Provenance),
    ("status", ("primary", "archived"), "primary"),
)
_PROVENANCE = ("task_id", "run_id", "created_at")


def pattern_key(entry: KnowledgeEntry) -> tuple[str | None, int, int]:
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


@dataclass(frozen=True)
class _Measure:
    """What a circuit-pattern entry records about its netlist."""

    digest: str
    signature_kind: str       # exact | sampled | sequential
    report: StructuralReport
    shape: tuple[int, int]    # (input bits, output bits)

    @property
    def sei(self) -> float | None:
        # Always at default weights, so one store serves runs under any
        # weights.
        return measure(self.report)

    def entry(self, netlist_text: str | None, name: str, tags: tuple[str, ...],
              provenance: Provenance | None) -> KnowledgeEntry:
        """The circuit-pattern entry for this netlist, given its text."""
        return KnowledgeEntry(
            kind=KIND_PATTERN,
            name=name,
            tags=tuple(tags),
            netlist_text=netlist_text,
            signature_digest=self.digest,
            signature_kind=self.signature_kind,
            inputs=self.shape[0],
            outputs=self.shape[1],
            gate_count=self.report.gate_count,
            delay=self.report.delay,
            sei=self.sei,
            provenance=provenance or Provenance(),
        )


def _measure(netlist: Netlist) -> _Measure:
    """The one measurement behind building and verifying a pattern entry."""
    if netlist.registers:
        digest, kind = sequential_fingerprint(netlist), "sequential"
    else:
        sig = functional_signature(netlist)
        digest, kind = sig.digest, "exact" if sig.exact else "sampled"
    shape = (len(netlist.input_bits), len(netlist.output_bits))
    return _Measure(digest, kind, structural_report(netlist), shape)


def make_pattern_entry(netlist: Netlist, tags: tuple[str, ...] = (),
                       provenance: Provenance | None = None,
                       name: str | None = None) -> KnowledgeEntry:
    """Build a circuit-pattern entry from a verified netlist."""
    return _measure(netlist).entry(nl_parser.render(netlist),
                                   name or netlist.name, tags, provenance)


def make_error_fix_entry(error_class: str, symptom: str, fix: str,
                         tags: tuple[str, ...] = (),
                         provenance: Provenance | None = None,
                         name: str | None = None) -> KnowledgeEntry:
    return KnowledgeEntry(
        kind=KIND_ERROR_FIX,
        name=name or f"fix-{error_class}",
        tags=tuple(tags),
        error_class=error_class,
        symptom=symptom,
        fix=fix,
        provenance=provenance or Provenance(),
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
    if m.digest != entry.signature_digest:
        raise AdmissionError(f"{entry.name}: netlist does not match its "
                             "stored functional signature")
    measured = (m.report.gate_count, m.report.delay)
    if measured != (entry.gate_count, entry.delay):
        raise AdmissionError(f"{entry.name}: stored gate count/delay "
                             f"({entry.gate_count}, {entry.delay}) do not match "
                             f"measured {measured}")
    want_sei = m.sei
    if want_sei is None or entry.sei is None or abs(entry.sei - want_sei) > 1e-9:
        raise AdmissionError(f"{entry.name}: stored efficiency index "
                             f"{entry.sei} does not match {want_sei}")
    if m.shape != (entry.inputs, entry.outputs):
        raise AdmissionError(f"{entry.name}: interface shape mismatch")


class _RetrievalBase:
    """Shared read-side behavior of the store and its frozen snapshots."""

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        raise NotImplementedError

    def retrieve(self, query: RetrievalQuery) -> list[KnowledgeEntry]:
        return _rank(self._snapshot_entries(), query)

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
        provenance = Provenance(task_id=task_id, run_id=run_id)
        # Held primaries, then each emitted entry, compete under the rule.
        primaries: dict[tuple, KnowledgeEntry] = {}
        for held in self.entries():
            offer_primary(primaries, held)
        out: list[KnowledgeEntry] = []

        def offer(m: _Measure, name: str, entry_tags: tuple[str, ...],
                  render: Callable[[], str]) -> None:
            # Only an emitted entry is built and rendered; most are not.
            entry = m.entry(None, name, entry_tags, provenance)
            if offer_primary(primaries, entry) is not entry:
                out.append(replace(entry, netlist_text=render()))

        whole = _measure(netlist)
        if whole.sei is None:
            # A design with no gates and no delay has no index to rank it by,
            # and no gates to carve sub-patterns from.
            return []
        offer(whole, f"{task_id or netlist.name}-design", tags,
              lambda: text or nl_parser.render(netlist))

        sub_tags = tuple(tags) + ("subcircuit",)
        for cut in _connected_cuts(netlist):
            m = _measure_cut(netlist, *cut)
            offer(m, f"pat-{m.digest[:10]}", sub_tags,
                  lambda: nl_parser.render(_carve(netlist, *cut)))
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
        self._next_id = 1
        # (size, prefix) when the index does not end on a complete line:
        # the next append first truncates the log to `size` bytes, then
        # writes `prefix` and its records.
        self._append_at: tuple[int, bytes] | None = None
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

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    def _load(self, verify: bool) -> None:
        with open(self.index_path, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        # The last piece is empty when the log ends on a newline; otherwise
        # an append was cut short.
        tail = lines.pop()
        records: dict[int, dict] = {}
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                rec = self._parse_record(line, lineno)
                records[rec["id"]] = rec
        if tail.strip():
            try:
                rec = self._parse_record(tail, len(lines) + 1)
            except StoreError:
                # Torn tail: drop it; the next append overwrites it.
                self._append_at = (len(data) - len(tail), b"")
            else:
                records[rec["id"]] = rec
                self._append_at = (len(data), b"\n")
        for _, rec in sorted(records.items()):
            self._commit(KnowledgeEntry.from_record(rec))
        if verify:
            for entry in self._entries.values():
                if entry.status == "primary":
                    verify_pattern_entry(entry)

    def _parse_record(self, line: bytes, lineno: int) -> dict:
        where = f"{self.index_path}:{lineno}"
        try:
            rec = json.loads(line)
            if not is_json(rec, dict):
                raise ValueError("not a JSON object")
            return take_all(rec, "", RECORD_FIELDS)
        except FieldError as exc:
            raise StoreError(f"{where}: invalid index record: {exc}") from None
        except ValueError as exc:
            raise StoreError(f"{where}: unparsable index record: {exc}") from None

    def _append(self, entries: list[KnowledgeEntry]) -> None:
        text = "".join(json.dumps(e.to_record(), sort_keys=True) + "\n"
                       for e in entries).encode()
        if self._append_at is not None:
            size, prefix = self._append_at
            os.truncate(self.index_path, size)
            text = prefix + text
            self._append_at = None
        # One write per admission, so a crash tears at most the last line.
        with open(self.index_path, "ab") as fh:
            fh.write(text)

    def _rewrite_index(self) -> None:
        tmp = self.index_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for e in self._entries.values():
                fh.write(json.dumps(e.to_record(), sort_keys=True) + "\n")
        os.replace(tmp, self.index_path)
        self._append_at = None

    # -- write path ---------------------------------------------------------

    def store(self, entry: KnowledgeEntry) -> int:
        """Admit one entry; returns its id.

        Circuit patterns are re-verified before admission, and
        `offer_primary` archives either the entry or the primary it
        displaces. The new record, followed by the archived incumbent's
        record if there is one, is appended to the index in one write.
        """
        verify_pattern_entry(entry)
        with self._lock:
            entry_id = self._next_id
            entry = replace(entry, id=entry_id, status="primary")
            if not entry.provenance.created_at:
                entry = replace(entry, provenance=replace(
                    entry.provenance,
                    created_at=time.strftime("%Y-%m-%dT%H:%M:%S",
                                             time.gmtime())))
            records = [entry]
            if entry.kind == KIND_PATTERN:
                # The rule decides on a copy of the key's slot: memory
                # changes only once the log holds the outcome.
                key = pattern_key(entry)
                held = self._primaries.get(key)
                loser = offer_primary({key: held} if held else {}, entry)
                if loser is entry:
                    records = [replace(entry, status="archived")]
                elif loser is not None:
                    # New record first: a tear in the archive record leaves
                    # two primaries, which _load resolves, never none.
                    records.append(replace(loser, status="archived"))
            self._append(records)
            for record in records:
                self._commit(record)
            return entry_id

    def _commit(self, entry: KnowledgeEntry) -> None:
        """Apply one logged record to memory, replacing any earlier record
        with its id and archiving the loser of `offer_primary`."""
        self._entries[entry.id] = entry
        loser = offer_primary(self._primaries, entry)
        if loser is not None:
            self._entries[loser.id] = replace(loser, status="archived")
        self._next_id = max(self._next_id, entry.id + 1)

    def seed_baseline(self) -> int:
        """Populate an empty store with the primitives and canonical blocks."""
        with self._lock:
            if self._entries:
                raise StoreError("seed_baseline requires an empty store")
        count = 0
        for netlist, tags in _baseline_netlists():
            self.store(make_pattern_entry(
                netlist, tags=tags, provenance=Provenance(task_id="baseline")))
            count += 1
        return count

    # -- read path ----------------------------------------------------------

    def snapshot(self) -> "KnowledgeView":
        with self._lock:
            return KnowledgeView(tuple(self._entries.values()))

    def verify_all(self) -> list[str]:
        """Re-check every primary pattern; returns failure descriptions."""
        problems = []
        for e in self.entries():
            try:
                verify_pattern_entry(e)
            except AdmissionError as exc:
                problems.append(str(exc))
        return problems

    def compact(self) -> int:
        """Drop archived entries; returns count removed."""
        with self._lock:
            dropped = [e for e in self._entries.values()
                       if e.status != "primary"]
            for e in dropped:
                del self._entries[e.id]
            self._rewrite_index()
            self._next_id = max(self._entries, default=0) + 1
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

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        return list(self._frozen)


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _connected_cuts(netlist: Netlist) -> Iterator[tuple[list[int], ...]]:
    """Connected combinational sub-DAGs within the extraction bounds,
    smallest first, as (ascending `schedule` positions, nets read from
    outside bar constants, exposed nets).

    Gates are taken in compiled (levelized) order, the order `render`
    emits, so a design and its rendered-and-parsed copy give the same
    sub-DAGs. ESU enumeration (Wernicke, TCBB 2006) over bitmasks yields
    each connected gate subset once, in a deterministic depth-first order.
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

    found: list[tuple[int, int]] = []   # (size, subset), depth-first

    def extend(above: int, size: int, subset: int, closed: int,
               ext: list[int]) -> None:
        # Records each child of `subset`, of `size` gates, before the
        # child's own children, which grow from the start gate by exclusive
        # neighborhoods (the start alone is never recorded); `closed` is the
        # subset and its neighbors, `above` the positions past the start.
        for i, w in enumerate(ext):
            if len(found) >= SUBPATTERN_ENUM_CAP:
                return
            if size >= SUBPATTERN_MIN_GATES:
                found.append((size, subset | 1 << w))
            if size < SUBPATTERN_MAX_GATES:
                exclusive = neighbors[w] & above & ~closed
                extend(above, size + 1, subset | 1 << w,
                       closed | neighbors[w],
                       ext[i + 1:] + _bit_positions(exclusive))

    for v in range(n):
        above = -1 << (v + 1)
        extend(above, 2, 1 << v, 1 << v | neighbors[v],
               _bit_positions(neighbors[v] & above))

    # Smallest first (stable, so enumeration order breaks ties); a cut is
    # found only when consumed, as the caller stops at SUBPATTERN_EMIT_CAP.
    found.sort(key=lambda size_subset: size_subset[0])
    for _, subset in found:
        positions = _bit_positions(subset)
        outs = [gates[pos].output for pos in positions]
        inputs = list(dict.fromkeys(
            net for pos in positions for net in gates[pos].inputs
            if net not in outs and netlist.nets[net].value is None))
        if len(inputs) <= SUBPATTERN_MAX_INPUTS:
            # Expose what is read outside, else a terminal cone's sinks.
            yield positions, inputs, (
                [net for net in outs if readers.get(net, 0) & ~subset]
                or [net for net in outs if net not in readers])


_EXHAUSTIVE_COLUMNS = [pack_columns(range(1 << k), k)
                       for k in range(SUBPATTERN_MAX_INPUTS + 1)]


def _measure_cut(netlist: Netlist, positions: list[int], inputs: list[int],
                 outputs: list[int]) -> _Measure:
    """`_measure` of the cut's carved sub-netlist, taken from the design's
    own compiled gates without building it."""
    k = len(inputs)
    mask = (1 << (1 << k)) - 1
    values = {nid: mask if value else 0 for nid, value in netlist.const_nets}
    values.update(zip(inputs, _EXHAUSTIVE_COLUMNS[k]))
    for pos in positions:
        evaluate, out, a, b = netlist.ops[pos]
        values[out] = evaluate(values[a], values[b], mask)
    columns = tuple(values[net] for net in outputs)
    depth = gate_depths(netlist.schedule[pos] for pos in positions)
    report = StructuralReport(len(positions), max(map(depth.get, outputs)), 0)
    return _Measure(FunctionalSignature(k, len(columns), columns).digest,
                    "exact", report, (k, len(columns)))


def _carve(netlist: Netlist, positions: list[int], inputs: list[int],
           outputs: list[int]) -> Netlist:
    """The cut as a netlist of its own (ports in0.., out0..)."""
    chosen = [netlist.schedule[pos] for pos in positions]
    b = NetlistBuilder("pattern")
    net_map = {net: b.input(f"in{k}") for k, net in enumerate(inputs)}
    for net in (net for g in chosen for net in g.inputs):
        value = netlist.nets[net].value
        if value is not None and net not in net_map:
            net_map[net] = b.const(value)
    net_map.update((g.output, b.wire()) for g in chosen)
    for g in chosen:
        b.gate(g.kind, tuple(net_map[n] for n in g.inputs), net_map[g.output])
    for k, net in enumerate(outputs):
        b.bind(f"out{k}", PortDir.OUT, net_map[net])
    return b.build()


def _baseline_netlists() -> list[tuple[Netlist, tuple[str, ...]]]:
    """The six primitives plus canonical small blocks, all as valid modules."""
    out: list[tuple[Netlist, tuple[str, ...]]] = []

    def unary(kind: GateKind, name: str, tags: tuple[str, ...]) -> None:
        b = NetlistBuilder(name)
        a = b.input("a")
        y = b.output("y")
        b.gate(kind, (a,), y)
        out.append((b.build(), tags))

    def binary(kind: GateKind, name: str, tags: tuple[str, ...]) -> None:
        b = NetlistBuilder(name)
        a = b.input("a")
        c = b.input("b")
        y = b.output("y")
        b.gate(kind, (a, c), y)
        out.append((b.build(), tags))

    binary(GateKind.AND, "and2", ("and", "primitive"))
    binary(GateKind.OR, "or2", ("or", "primitive"))
    unary(GateKind.NOT, "not1", ("not", "inverter", "primitive"))
    binary(GateKind.XOR, "xor2", ("xor", "primitive"))
    binary(GateKind.NAND, "nand2", ("nand", "primitive"))

    b = NetlistBuilder("dff1")
    d = b.input("d")
    clk = b.input("clk")
    q = b.output("q")
    b.gate(GateKind.DFF, (d, clk), q)
    out.append((b.build(), ("dff", "register", "primitive", "sequential")))

    b = NetlistBuilder("half_adder")
    a = b.input("a")
    c = b.input("b")
    s = b.output("s")
    co = b.output("c")
    b.gate(GateKind.XOR, (a, c), s)
    b.gate(GateKind.AND, (a, c), co)
    out.append((b.build(), ("adder", "half-adder")))

    b = NetlistBuilder("full_adder")
    a = b.input("a")
    c = b.input("b")
    cin = b.input("cin")
    s = b.output("sum")
    co = b.output("cout")
    axb = b.gate(GateKind.XOR, (a, c))
    b.gate(GateKind.XOR, (axb, cin), s)
    ab = b.gate(GateKind.AND, (a, c))
    axb_cin = b.gate(GateKind.AND, (axb, cin))
    b.gate(GateKind.OR, (ab, axb_cin), co)
    out.append((b.build(), ("adder", "full-adder")))

    b = NetlistBuilder("mux2")
    a = b.input("a")
    c = b.input("b")
    sel = b.input("sel")
    y = b.output("y")
    nsel = b.gate(GateKind.NOT, (sel,))
    t0 = b.gate(GateKind.AND, (a, nsel))
    t1 = b.gate(GateKind.AND, (c, sel))
    b.gate(GateKind.OR, (t0, t1), y)
    out.append((b.build(), ("mux", "selector")))

    return out
