"""Persistent store of verified circuit patterns and error-fix records.

Layout on disk: a directory holding one canonical netlist text file per
circuit pattern under patterns/, plus index.jsonl with one JSON record per
entry carrying all metadata. The index is an append-only log (the last
record per id wins) that only compact() rewrites. Pattern files are written
before their index record is appended, so a crash can leave an orphan file
but never an index record pointing at missing content. The exact schema is
documented in docs/knowledge_store.md.

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
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from . import parser as nl_parser
from .metrics import DEFAULT_WEIGHTS, MetricWeights, sei_task
from .netlist import GateKind, Netlist, NetlistBuilder, structural_report
from .simulator import functional_signature, sequential_trace

KIND_PATTERN = "circuit-pattern"
KIND_ERROR_FIX = "error-fix"

SUBPATTERN_MIN_GATES = 2
SUBPATTERN_MAX_GATES = 8
SUBPATTERN_MAX_INPUTS = 6
# Connected-subgraph enumeration is cut off here so pathological designs
# cannot stall a run; seed-scale designs never get close.
SUBPATTERN_ENUM_CAP = 4096
# At most this many sub-patterns are emitted per design, smallest first;
# dense designs (wide selector trees) otherwise flood the store.
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
        return {
            "id": self.id,
            "kind": self.kind,
            "name": self.name,
            "tags": list(self.tags),
            "signature_digest": self.signature_digest,
            "signature_kind": self.signature_kind,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "gate_count": self.gate_count,
            "delay": self.delay,
            "sei": self.sei,
            "error_class": self.error_class,
            "symptom": self.symptom,
            "fix": self.fix,
            "task_id": self.provenance.task_id,
            "run_id": self.provenance.run_id,
            "created_at": self.provenance.created_at,
            "status": self.status,
        }

    @classmethod
    def from_record(cls, rec: dict, netlist_text: str | None) -> "KnowledgeEntry":
        return cls(
            kind=rec["kind"],
            name=rec["name"],
            tags=tuple(rec.get("tags", [])),
            netlist_text=netlist_text,
            signature_digest=rec.get("signature_digest"),
            signature_kind=rec.get("signature_kind"),
            inputs=rec.get("inputs", 0),
            outputs=rec.get("outputs", 0),
            gate_count=rec.get("gate_count"),
            delay=rec.get("delay"),
            sei=rec.get("sei"),
            error_class=rec.get("error_class"),
            symptom=rec.get("symptom"),
            fix=rec.get("fix"),
            provenance=Provenance(rec.get("task_id", ""), rec.get("run_id", ""),
                                  rec.get("created_at", "")),
            id=rec["id"],
            status=rec.get("status", "primary"),
        )


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


def _interface_shape(netlist: Netlist) -> tuple[int, int]:
    return (len(netlist.input_bits()), len(netlist.output_bits()))


def sequential_fingerprint(netlist: Netlist) -> str:
    """Deterministic behavior digest for register-bearing patterns.

    Drives every non-clock input with a fixed-seed random stream for a fixed
    number of cycles and hashes the resulting output streams.
    """
    rng = random.Random(_SEQ_FINGERPRINT_SEED)
    clock_nets = netlist.clock_nets()
    drive = [name for name, nid in netlist.input_bits()
             if nid not in clock_nets]
    stimulus = [{n: rng.getrandbits(1) for n in drive}
                for _ in range(_SEQ_FINGERPRINT_CYCLES)]
    streams = sequential_trace(netlist, stimulus)
    out_names = [name for name, _ in netlist.output_bits()]
    h = hashlib.sha256()
    h.update(f"seq:{len(drive)}:{len(out_names)}".encode())
    for n in out_names:
        h.update(bytes(streams[n]))
    return h.hexdigest()


def make_pattern_entry(netlist: Netlist, tags: tuple[str, ...] = (),
                       provenance: Provenance | None = None,
                       name: str | None = None,
                       weights: MetricWeights = DEFAULT_WEIGHTS) -> KnowledgeEntry:
    """Build a circuit-pattern entry from a verified netlist."""
    report = structural_report(netlist)
    if netlist.dff_gates():
        digest = sequential_fingerprint(netlist)
        sig_kind = "sequential"
    else:
        sig = functional_signature(netlist)
        digest = sig.digest
        sig_kind = "exact" if sig.exact else "sampled"
    shape = _interface_shape(netlist)
    sei = sei_task(report.gate_count, report.delay, weights)
    return KnowledgeEntry(
        kind=KIND_PATTERN,
        name=name or netlist.name,
        tags=tuple(tags),
        netlist_text=nl_parser.render(netlist),
        signature_digest=digest,
        signature_kind=sig_kind,
        inputs=shape[0],
        outputs=shape[1],
        gate_count=report.gate_count,
        delay=report.delay,
        sei=sei,
        provenance=provenance or Provenance(),
    )


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


def verify_pattern_entry(entry: KnowledgeEntry,
                         weights: MetricWeights = DEFAULT_WEIGHTS) -> None:
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
    netlist = result.netlist
    report = structural_report(netlist)
    if netlist.dff_gates():
        digest = sequential_fingerprint(netlist)
    else:
        digest = functional_signature(netlist).digest
    if digest != entry.signature_digest:
        raise AdmissionError(f"{entry.name}: netlist does not match its "
                             "stored functional signature")
    if (report.gate_count, report.delay) != (entry.gate_count, entry.delay):
        raise AdmissionError(f"{entry.name}: stored gate count/delay "
                             f"({entry.gate_count}, {entry.delay}) do not match "
                             f"measured ({report.gate_count}, {report.delay})")
    want_sei = sei_task(report.gate_count, report.delay, weights)
    if entry.sei is None or abs(entry.sei - want_sei) > 1e-9:
        raise AdmissionError(f"{entry.name}: stored efficiency index "
                             f"{entry.sei} does not match {want_sei}")
    shape = _interface_shape(netlist)
    if shape != (entry.inputs, entry.outputs):
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

    def _best_sei_by_key(self) -> dict[tuple, float]:
        best: dict[tuple, float] = {}
        for e in self.entries():
            if e.kind != KIND_PATTERN:
                continue
            key = (e.signature_digest, e.inputs, e.outputs)
            if e.sei is not None and e.sei > best.get(key, -1.0):
                best[key] = e.sei
        return best

    def extract_patterns(self, netlist: Netlist, task_id: str = "",
                         run_id: str = "", tags: tuple[str, ...] = (),
                         ) -> list[KnowledgeEntry]:
        """Candidate entries from a verified design: the whole design plus
        small combinational sub-DAGs whose behavior is not already held at
        equal or better efficiency. Nothing is inserted here; callers pass
        the results to a writable store."""
        provenance = Provenance(task_id=task_id, run_id=run_id)
        existing = self._best_sei_by_key()
        out: list[KnowledgeEntry] = []
        emitted: dict[tuple, float] = {}

        def kept(entry: KnowledgeEntry) -> bool:
            """Whether no held or emitted entry is at least as efficient."""
            key = (entry.signature_digest, entry.inputs, entry.outputs)
            bar = (entry.sei or 0.0) - 1e-12
            return all(best is None or best < bar
                       for best in (existing.get(key), emitted.get(key)))

        def emit(entry: KnowledgeEntry) -> None:
            emitted[(entry.signature_digest, entry.inputs, entry.outputs)] = \
                entry.sei or 0.0
            out.append(entry)

        whole = make_pattern_entry(netlist, tags=tags, provenance=provenance,
                                   name=f"{task_id or netlist.name}-design")
        if kept(whole):
            emit(whole)

        for sub in _enumerate_subnetlists(netlist):
            entry = make_pattern_entry(
                sub, tags=tuple(tags) + ("subcircuit",),
                provenance=provenance)
            entry = replace(entry, name=f"pat-{entry.signature_digest[:10]}")
            # Only entries that would be kept are worth re-verifying.
            if not kept(entry):
                continue
            try:
                verify_pattern_entry(entry)
            except AdmissionError:
                continue
            emit(entry)
            if len(out) > SUBPATTERN_EMIT_CAP:
                break
        return out


class KnowledgeStore(_RetrievalBase):
    """Directory-backed store; many readers, one writer at a time."""

    def __init__(self, root: str | os.PathLike, verify: bool = True):
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._entries: list[KnowledgeEntry] = []
        self._next_id = 1
        # (size, prefix) when the index does not end on a complete line:
        # the next append first truncates the log to `size` bytes, then
        # writes `prefix` and its records.
        self._append_at: tuple[int, bytes] | None = None
        os.makedirs(self.patterns_dir, exist_ok=True)
        self._load(verify=verify)

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        with self._lock:
            return list(self._entries)

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    @property
    def patterns_dir(self) -> str:
        return os.path.join(self.root, "patterns")

    def _pattern_path(self, entry_id: int) -> str:
        return os.path.join(self.patterns_dir, f"{entry_id}.nl")

    def _load(self, verify: bool) -> None:
        if not os.path.exists(self.index_path):
            return
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
        _archive_duplicate_primaries(records)
        for entry_id in sorted(records):
            rec = records[entry_id]
            text = None
            if rec["kind"] == KIND_PATTERN:
                path = self._pattern_path(entry_id)
                if not os.path.exists(path):
                    raise StoreError(
                        f"index references missing pattern file {path}")
                with open(path, encoding="utf-8") as pf:
                    text = pf.read()
            entry = KnowledgeEntry.from_record(rec, text)
            if verify and entry.status == "primary":
                verify_pattern_entry(entry)
            self._entries.append(entry)
        self._next_id = max(records, default=0) + 1

    def _parse_record(self, line: bytes, lineno: int) -> dict:
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise StoreError(f"{self.index_path}:{lineno}: unparsable "
                             f"index record: {exc}") from None
        if not (isinstance(rec, dict) and isinstance(rec.get("id"), int)
                and "kind" in rec and "name" in rec):
            raise StoreError(f"{self.index_path}:{lineno}: index record "
                             "lacks an integer id, a kind or a name")
        return rec

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
            for e in self._entries:
                fh.write(json.dumps(e.to_record(), sort_keys=True) + "\n")
        os.replace(tmp, self.index_path)
        self._append_at = None

    def _write_pattern(self, entry_id: int, text: str) -> None:
        path = self._pattern_path(entry_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    # -- write path ---------------------------------------------------------

    def store(self, entry: KnowledgeEntry) -> int:
        """Admit one entry; returns its id.

        Circuit patterns are re-verified before admission. When an entry
        with the same signature and interface already exists, the one with
        the higher efficiency index stays primary and the other is archived
        (the incumbent wins ties). The pattern file lands first; then the
        new record, followed by the archived incumbent's updated record if
        there is one, is appended to the index in one write.
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
            displaced: tuple[int, KnowledgeEntry] | None = None
            if entry.kind == KIND_PATTERN:
                self._write_pattern(entry_id, entry.netlist_text or "")
                key = (entry.signature_digest, entry.inputs, entry.outputs)
                for i, other in enumerate(self._entries):
                    if other.kind != KIND_PATTERN or other.status != "primary":
                        continue
                    if (other.signature_digest, other.inputs,
                            other.outputs) != key:
                        continue
                    if (entry.sei or 0.0) > (other.sei or 0.0) + 1e-12:
                        displaced = (i, replace(other, status="archived"))
                    else:
                        entry = replace(entry, status="archived")
                    break
            if displaced is None:
                self._append([entry])
            else:
                # New record first: a tear in the archive record leaves two
                # primaries, which _load resolves, never none.
                self._append([entry, displaced[1]])
                self._entries[displaced[0]] = displaced[1]
            self._entries.append(entry)
            self._next_id += 1
            return entry_id

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
            return KnowledgeView(tuple(self._entries))

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
        """Drop archived entries and their pattern files; returns count removed."""
        with self._lock:
            keep = [e for e in self._entries if e.status == "primary"]
            dropped = [e for e in self._entries if e.status != "primary"]
            self._entries = keep
            self._rewrite_index()
            self._next_id = max((e.id for e in keep), default=0) + 1
            for e in dropped:
                if e.kind == KIND_PATTERN and e.id is not None:
                    path = self._pattern_path(e.id)
                    if os.path.exists(path):
                        os.remove(path)
            return len(dropped)


def _archive_duplicate_primaries(records: dict[int, dict]) -> None:
    """Leave one primary per (signature, interface) key, in place.

    Two primaries share a key only when a crash tore the archive record of
    a displacement. The higher efficiency index stays primary and the lower
    id wins ties, as in KnowledgeStore.store.
    """
    held: dict[tuple, dict] = {}
    for entry_id in sorted(records):
        rec = records[entry_id]
        if rec["kind"] != KIND_PATTERN or rec.get("status", "primary") != "primary":
            continue
        key = (rec.get("signature_digest"), rec.get("inputs", 0),
               rec.get("outputs", 0))
        other = held.get(key)
        if other is None:
            held[key] = rec
            continue
        loser = rec
        if (rec.get("sei") or 0.0) > (other.get("sei") or 0.0) + 1e-12:
            held[key], loser = rec, other
        records[loser["id"]] = {**loser, "status": "archived"}


class KnowledgeView(_RetrievalBase):
    """Frozen read-only view with the same retrieval and extraction
    contract as the store."""

    def __init__(self, entries: tuple[KnowledgeEntry, ...]):
        self._frozen = entries
        self._extracted: dict[tuple, tuple[KnowledgeEntry, ...]] = {}

    def _snapshot_entries(self) -> list[KnowledgeEntry]:
        return list(self._frozen)

    def extract_patterns(self, netlist: Netlist, task_id: str = "",
                         run_id: str = "", tags: tuple[str, ...] = (),
                         ) -> list[KnowledgeEntry]:
        # Over frozen entries, extraction depends only on the canonical text
        # and these arguments; samples of one task share a view, so each
        # distinct verified design is extracted once.
        key = (nl_parser.render(netlist), task_id, run_id, tuple(tags))
        if key not in self._extracted:
            self._extracted[key] = tuple(super().extract_patterns(
                netlist, task_id, run_id, tags))
        return list(self._extracted[key])


def _enumerate_subnetlists(netlist: Netlist) -> Iterator[Netlist]:
    """Connected combinational sub-DAGs within the extraction bounds,
    smallest first.

    Enumeration follows the classic grow-only-with-larger-indices scheme so
    each connected gate subset appears exactly once, in deterministic order.
    """
    comb = [(i, g) for i, g in enumerate(netlist.gates)
            if g.kind is not GateKind.DFF]
    if len(comb) < SUBPATTERN_MIN_GATES:
        return
    gates = [g for _, g in comb]
    n = len(gates)
    # Gates are adjacent when they touch a common net, including shared
    # inputs; that is what makes e.g. the XOR/AND pair of an adder one
    # connected pattern.
    touching: dict[int, list[int]] = {}
    for pos, g in enumerate(gates):
        for net in (g.output, *g.inputs):
            touching.setdefault(net, []).append(pos)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for group in touching.values():
        for a in group:
            for b in group:
                if a != b:
                    neighbors[a].add(b)

    subsets: list[list[int]] = []
    budget = [SUBPATTERN_ENUM_CAP]

    def extend(start: int, subset: list[int], ext: list[int]) -> None:
        # ESU-style enumeration via exclusive neighborhoods: each connected
        # subset whose smallest member is `start` appears exactly once.
        if budget[0] <= 0:
            return
        if SUBPATTERN_MIN_GATES <= len(subset):
            budget[0] -= 1
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

    # Smallest first (stable, so enumeration order breaks ties); carving is
    # lazy because the caller stops at SUBPATTERN_EMIT_CAP.
    subsets.sort(key=len)
    for subset in subsets:
        sub = _carve_subnetlist(netlist, [comb[pos][0] for pos in subset])
        if sub is not None:
            yield sub


def _carve_subnetlist(netlist: Netlist, gate_indices: list[int]) -> Netlist | None:
    chosen = [netlist.gates[i] for i in gate_indices]
    chosen_outputs = {g.output for g in chosen}
    outside_readers: set[int] = set()
    for j, g in enumerate(netlist.gates):
        if j in gate_indices:
            continue
        outside_readers.update(g.inputs)
    port_bound = {n for p in netlist.output_ports()
                  for n in netlist.port_nets[p.name]}

    boundary_inputs: list[int] = []
    for g in chosen:
        for net in g.inputs:
            if net in chosen_outputs:
                continue
            if netlist.nets[net].is_const:
                continue
            if net not in boundary_inputs:
                boundary_inputs.append(net)
    if len(boundary_inputs) > SUBPATTERN_MAX_INPUTS:
        return None
    exposed = [g.output for g in chosen
               if g.output in outside_readers or g.output in port_bound]
    if not exposed:
        # Terminal cone: expose the sinks (outputs no chosen gate reads).
        read_inside = {n for g in chosen for n in g.inputs}
        exposed = [g.output for g in chosen if g.output not in read_inside]
    if not exposed:
        return None

    b = NetlistBuilder("pattern")
    net_map: dict[int, int] = {}
    for k, net in enumerate(boundary_inputs):
        net_map[net] = b.input(f"in{k}")
    for g in chosen:
        for net in g.inputs:
            if netlist.nets[net].is_const and net not in net_map:
                net_map[net] = b.const(netlist.nets[net].const_value)
    for g in chosen:
        net_map.setdefault(g.output, b.wire())
    for g in chosen:
        b.gate(g.kind, tuple(net_map[n] for n in g.inputs), net_map[g.output])
    for k, net in enumerate(exposed):
        b.bind_output(f"out{k}", net_map[net])
    try:
        return b.build()
    except Exception:
        return None


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
