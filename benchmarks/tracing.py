"""Run-time spans around calls into gateforge's public functions.

`Tracer.install` replaces each target function with a timing wrapper in
every `gateforge.*` module namespace that holds it (and on the class, for
methods), so calls made through any import path are seen. Each call leaves
one span `(id, name, start, end, parent id, round)` in memory; nothing is
written until the benchmark ends. Counts recorded at the same boundaries
(prompt and reply sizes) are kept per round.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (metric name, gateforge module, attribute path). Metric names are
# `<layer>.<fn>`; every later performance claim uses these names.
TARGETS = (
    ("knowledge.store", "knowledge", "KnowledgeStore.store"),
    ("knowledge.extract_patterns", "knowledge", "_RetrievalBase.extract_patterns"),
    ("knowledge.retrieve", "knowledge", "_RetrievalBase.retrieve"),
    ("knowledge.snapshot", "knowledge", "KnowledgeStore.snapshot"),
    ("knowledge.open", "knowledge", "KnowledgeStore.__init__"),
    ("netlist.validate", "netlist", "validate"),
    ("netlist.structural_report", "netlist", "structural_report"),
    ("netlist.levelize", "netlist", "levelize"),
    ("netlist.build", "netlist", "NetlistBuilder.build"),
    ("parser.parse", "parser", "parse"),
    ("parser.render", "parser", "render"),
    ("parser.extract_netlist_block", "parser", "extract_netlist_block"),
    ("simulator.simulate_combinational", "simulator", "simulate_combinational"),
    ("simulator.simulate_sequential", "simulator", "simulate_sequential"),
    ("simulator.functional_signature", "simulator", "functional_signature"),
    ("simulator.sequential_trace", "simulator", "sequential_trace"),
    ("boolopt.suggest_optimizations", "boolopt", "suggest_optimizations"),
    ("boolopt.quine_mccluskey", "boolopt", "quine_mccluskey"),
    ("boolopt.min_gate_network", "boolopt", "min_gate_network"),
    ("orchestrator.run_task", "orchestrator", "run_task"),
    ("orchestrator.run_benchmark", "orchestrator", "run_benchmark"),
    ("backends.complete", "backends", "ScriptedBackend.complete"),
    ("taskpack.load_task_pack", "taskpack", "load_task_pack"),
    ("taskpack.simulate_task", "taskpack", "simulate_task"),
    ("taskpack.emit_report", "taskpack", "emit_report"),
    ("metrics.dual_reward", "metrics", "dual_reward"),
    ("metrics.sei_task", "metrics", "sei_task"),
    ("metrics.sei_benchmark", "metrics", "sei_benchmark"),
    ("metrics.pass_at_k", "metrics", "pass_at_k"),
    ("metrics.classify_tier", "metrics", "classify_tier"),
    ("cli.main", "cli", "main"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[int, collections.Counter] = collections.defaultdict(
            collections.Counter)
        self.round = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.round))
            if on_return is not None:
                on_return(self.counts[self.round], args, result)
            return result
        return traced

    def install(self, extra_methods=()) -> None:
        """Wrap every target; `extra_methods` are (name, class, attribute)
        for ModelBackend subclasses that live outside gateforge."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gateforge" or n.startswith("gateforge.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[f"gateforge.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            hook = _count_chars if name == "backends.complete" else None
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hook)
            if classes:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, cls, attr in extra_methods:
            hook = _count_chars if name == "backends.complete" else None
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))


def _count_chars(counts: collections.Counter, args: tuple, reply: str) -> None:
    messages = args[1]
    counts["backends.prompt_chars"] += sum(len(m.content) for m in messages)
    counts["backends.reply_chars"] += len(reply)
