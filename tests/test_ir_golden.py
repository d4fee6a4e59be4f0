"""Every netlist `parse` builds, on two corpora, matches recorded digests.

`test_parse_golden` hashes what a parse renders, and rendering renames
nets and instances, so it cannot see a change in the IR itself: a net's id
or name, an instance name, or the order of a dict. This golden hashes the
IR. For each text that parses it records the netlist's name, its ports,
`port_nets` in order, the net table in dict order (key, id, name, value),
the gates (kind, output, inputs, name), `input_bits`, `output_bits`,
`const_nets` and the warnings; a text that does not parse records None.
One digest per batch of texts is stored in `data/ir_golden.txt`.

The corpora are the parse-golden corpus and the canonical texts of every
sub-pattern cut from the seed reference netlists, as extraction renders
them, in the order the extractor meets them, each text once.

To record the digests again, when the IR of a parse is meant to change:

    PYTHONPATH=src python tests/test_ir_golden.py
"""

from __future__ import annotations

import pytest

from gateforge.knowledge import _connected_cuts, _cut_fields
from gateforge.netlist import Netlist
from gateforge.parser import parse, render
from test_parse_golden import BATCH, DIGESTS, TASKS, batch_digests, corpus

IR_DIGESTS = DIGESTS.parent / "ir_golden.txt"


def cut_texts() -> list[str]:
    texts: dict[str, None] = {}
    for path in sorted(TASKS.glob("*/reference.nl")):
        netlist = parse(path.read_text()).netlist
        for cut in _connected_cuts(netlist):
            texts.setdefault(render(_cut_fields(netlist, *cut)))
    return list(texts)


def ir_of(text: str) -> list | None:
    n = parse(text).netlist
    return None if n is None else netlist_ir(n)


def netlist_ir(n: Netlist) -> list:
    return [
        n.name,
        [[p.name, p.direction.value, p.width, p.lsb] for p in n.ports],
        [[name, list(nets)] for name, nets in n.port_nets.items()],
        [[key, net.id, net.name, net.value] for key, net in n.nets.items()],
        [[g.kind.value, g.output, list(g.inputs), g.name] for g in n.gates],
        [list(bit) for bit in n.input_bits],
        [list(bit) for bit in n.output_bits],
        [list(const) for const in n.const_nets],
        [str(w) for w in n.warnings],
    ]


def ir_corpus() -> list[str]:
    return corpus() + cut_texts()


@pytest.fixture(scope="module")
def cases() -> list[str]:
    return ir_corpus()


@pytest.fixture(scope="module")
def irs(cases) -> list[list | None]:
    return [ir_of(t) for t in cases]


def test_corpus_holds_netlists_of_every_shape(irs):
    irs = [ir for ir in irs if ir is not None]
    assert len(irs) > 2000
    assert any(ir[7] for ir in irs)                           # constants
    assert any(ir[8] for ir in irs)                           # warnings
    assert any(g[0] == "dff" for ir in irs for g in ir[4])    # registers


def test_parsed_netlists_match_recorded_digests(cases, irs):
    want = IR_DIGESTS.read_text().split()
    got = batch_digests(irs)
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, (
        f"{len(bad)} of {len(want)} batches differ; first batch {bad[0]} "
        f"holds cases {bad[0] * BATCH}..{bad[0] * BATCH + BATCH - 1}: "
        f"{cases[bad[0] * BATCH:bad[0] * BATCH + BATCH]!r}")


if __name__ == "__main__":
    IR_DIGESTS.write_text("\n".join(batch_digests(
        [ir_of(t) for t in ir_corpus()])) + "\n")
