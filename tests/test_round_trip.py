"""A verified netlist and its rendered-and-parsed copy are one design.

`run_task` reports and learns from the candidate it simulated, not from a
copy parsed again from its rendered text. That is sound only because the
copy would give the same text, report, behaviour and extracted patterns,
which these tests check on every seed reference, on each reference with
its gate lines in reverse order, and on every case of the parse-golden
corpus that parses. They also check the guarantee that lets extraction
skip verifying its entries: each one passes the store's admission check.
"""

from __future__ import annotations

import re

import pytest
from test_parse_golden import corpus

from gateforge.knowledge import (
    KnowledgeView,
    sequential_fingerprint,
    verify_pattern_entry,
)
from gateforge.netlist import GateKind, structural_report
from gateforge.parser import parse, render
from gateforge.simulator import SimulationError, functional_signature
from gateforge.taskpack import builtin_task_packs, simulate_task

TASKS = builtin_task_packs()
GATE_LINE = re.compile(r"\s*(and|or|not|xor|nand|dff)\b")


def reversed_gate_lines(text: str) -> str:
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if GATE_LINE.match(line)]
    for i, line in zip(at, [lines[i] for i in reversed(at)]):
        lines[i] = line
    return "".join(lines)


def behaviour(netlist):
    if netlist.registers:
        try:
            return sequential_fingerprint(netlist)
        except SimulationError as exc:
            return str(exc)
    return functional_signature(netlist)


def parsed(text: str):
    result = parse(text)
    assert result.ok, result.errors
    return result.netlist


@pytest.fixture(scope="module")
def references():
    """(task, label, netlist) for every seed reference, as written and with
    its gates reversed."""
    out = []
    for t in TASKS:
        out.append((t, t.id, parsed(t.reference_netlist)))
        out.append((t, f"{t.id}-reversed",
                    parsed(reversed_gate_lines(t.reference_netlist))))
    return out


@pytest.fixture(scope="module")
def pairs(references):
    """(label, netlist, its rendered-and-parsed copy)."""
    designs = [(label, n) for _, label, n in references]
    for i, text in enumerate(corpus()):
        result = parse(text)
        if result.ok:
            designs.append((f"golden-{i}", result.netlist))
    return [(label, n, parsed(render(n))) for label, n in designs]


def test_corpus_has_designs_out_of_render_order(pairs):
    # Without them, enumerating in gate-list order would pass unnoticed.
    reordered = [label for label, n, _ in pairs
                 if tuple(g for g in n.gates if g.kind is not GateKind.DFF)
                 != n.schedule]
    assert len(pairs) > 150 and len(reordered) >= 10


def test_render_is_a_fixpoint(pairs):
    for label, n, m in pairs:
        assert render(m) == render(n), label


def test_structural_report_survives(pairs):
    for label, n, m in pairs:
        assert structural_report(m) == structural_report(n), label


def test_behaviour_survives(pairs):
    for label, n, m in pairs:
        assert behaviour(m) == behaviour(n), label


def test_references_simulate_alike(references):
    for task, label, n in references:
        outcome = simulate_task(task, n)
        assert outcome.correctness == 1.0, label
        assert simulate_task(task, parsed(render(n))) == outcome, label


def test_extraction_is_the_same_for_both(pairs):
    view = KnowledgeView(())  # a view holds no state that extraction writes
    for label, n, m in pairs:
        assert (view.extract_patterns(m, task_id="t")
                == view.extract_patterns(n, task_id="t")), label


def test_every_extracted_entry_passes_admission(pairs):
    checked = 0
    for label, n, _ in pairs:
        for entry in KnowledgeView(()).extract_patterns(n, task_id="t"):
            verify_pattern_entry(entry)
            checked += 1
    assert checked > 1000
