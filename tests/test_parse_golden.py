"""Every `parse` output on a seeded corpus matches recorded digests.

The corpus holds the seed reference netlists, random edits of them drawn
from every token class (comments, unterminated block comments, sized
literals with inner spaces and newlines, `$`, `. { }`, every operator,
control and non-ASCII characters), line-level edits that reach the
structural checks, behavioural-construct texts and random token soup.
For each case the errors (as strings: kind, line, column, message, token),
the rendered netlist or None, and the warnings are hashed; one digest per
batch of cases is stored in `data/parse_golden.txt`. Any change in what
the parser accepts, where it reports an error, or what it renders shows
up as a batch mismatch.

To record the digests again, when a parse output is meant to change:

    PYTHONPATH=src python tests/test_parse_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from gateforge.parser import _lex, parse, render

TASKS = Path(__file__).resolve().parent.parent / "src" / "gateforge" / "tasks"
DIGESTS = Path(__file__).resolve().parent / "data" / "parse_golden.txt"
SEED = 20261018
EDITS_PER_REFERENCE = 240
REWIRES_PER_REFERENCE = 30
SOUP_CASES = 200
BATCH = 20
TRIVIA = re.compile(r"(?:[ \t\r\f\v\n]+|//[^\n]*|/\*.*?\*/)*", re.S)

OPERATORS = [
    "===", "!==", "<<<", ">>>", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "**", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", "@",
    "#", "<", ">",
]

BANNED_WORDS = [
    "always", "initial", "if", "else", "case", "endcase", "begin", "end",
    "for", "while", "function", "endfunction", "task", "reg", "integer",
    "parameter", "generate", "genvar", "posedge", "negedge", "fork", "force",
    "signed",
]

FRAGMENTS = [
    " ", "  ", "\t", "\n", "\n\n", "\r\n", "\f", "\v",
    "//", "// note\n", "// tail", "/* c */", "/* a\nb */", "/**/", "/*", "*/",
    "1'b0", "1'b1", "1'B1", "1 ' b 1", "1\n'b0", "1'\nb1", "2'b10", "4'hF",
    "8'd255", "1'bx", "3'o7", "1'b", "12 'h_z",
    "$", "$display", "a$b", "x$", ".", "{", "}", "(", ")", "[", "]", ":", ";",
    ",", "=", "'", '"', "`", "\\", "\x1c", "\x00", "é", "λ", " ", "€",
    "0", "1", "7", "42", "007", "a", "b", "y", "w1", "_x", "Z9",
    "module", "endmodule", "input", "output", "inout", "wire", "assign",
    "and", "or", "not", "xor", "nand", "dff", "AND", "Nand", "nor", "xnor",
    "mux", *BANNED_WORDS, *OPERATORS,
]

HEADER = "module t(input a, input b, input [1:0] v, input clk, output y);"


def _char_edit(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + rng.choice(FRAGMENTS) + text[i:]
    j = min(len(text), i + rng.randint(1, 5))
    if op == 1:
        return text[:i] + text[j:]
    return text[:i] + rng.choice(FRAGMENTS) + text[j:]


def _line_edit(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        line_words, all_words = _words(lines[i]), _words(text)
        if line_words:
            lines[i] = lines[i].replace(rng.choice(line_words),
                                        rng.choice(all_words), 1)
    return "\n".join(lines)


def _rewire(rng: random.Random, text: str) -> str:
    """Reconnect one pin of one gate to another name in the text."""
    lines = text.split("\n")
    gates = [i for i, ln in enumerate(lines) if ln.strip().endswith(");")
             and not ln.startswith("module")]
    i = rng.choice(gates)
    head, _, pins = lines[i].partition("(")
    pins = pins[:-2].split(", ")
    pins[rng.randrange(len(pins))] = rng.choice(_words(text) + ["1'b0", "1'b1"])
    lines[i] = f"{head}({', '.join(pins)});"
    return "\n".join(lines)


def _words(text: str) -> list[str]:
    for c in "()[],;":
        text = text.replace(c, " ")
    return sorted({w for w in text.split() if w.isidentifier()})


def _behavioral_texts() -> list[str]:
    stmts = [f"{w} not g1(y, a);" for w in BANNED_WORDS]
    stmts += [f"wire {w};" for w in BANNED_WORDS]
    for op in OPERATORS:
        stmts += [f"assign y = a {op} b;", f"assign y = {op}a;",
                  f"and g1(y, a {op} b, b);", f"{op} not g1(y, a);"]
    stmts += ["always @(a) y = a;", "always @(posedge clk) y <= a;",
              "case (a) endcase", "assign y = a ? b : a;",
              "assign y = {a, b};", "assign y = v[0] & v[1];",
              "initial y = 0;", "reg r; not g1(y, a);", "begin end",
              "for (;;) not g1(y, a);", "wire w; assign w = a * 2;"]
    texts = [f"{HEADER} {s} endmodule" for s in stmts]
    texts += [f"{w} t(input a, output y); endmodule" for w in BANNED_WORDS[:6]]
    return texts


def corpus() -> list[str]:
    rng = random.Random(SEED)
    refs = [p.read_text() for p in sorted(TASKS.glob("*/reference.nl"))]
    cases = list(refs)
    for ref in refs:
        for _ in range(EDITS_PER_REFERENCE):
            text = ref
            for _ in range(rng.randint(1, 3)):
                edit = _line_edit if rng.random() < 0.4 else _char_edit
                text = edit(rng, text)
            cases.append(text)
        cases += [_rewire(rng, ref) for _ in range(REWIRES_PER_REFERENCE)]
    cases += _behavioral_texts()
    for _ in range(SOUP_CASES):
        cases.append("".join(rng.choice(FRAGMENTS + [" "] * 8)
                             for _ in range(rng.randint(0, 40))))
    return cases


def outcome(text: str) -> list:
    r = parse(text)
    return [[str(e) for e in r.errors],
            render(r.netlist) if r.ok else None,
            [str(w) for w in r.warnings]]


def batch_digests(outs: list[list]) -> list[str]:
    return [hashlib.sha256(json.dumps(outs[i:i + BATCH]).encode()).hexdigest()
            for i in range(0, len(outs), BATCH)]


@pytest.fixture(scope="module")
def cases() -> list[str]:
    return corpus()


@pytest.fixture(scope="module")
def outs(cases) -> list[list]:
    return [outcome(t) for t in cases]


def test_corpus_covers_every_outcome(cases, outs):
    assert len(cases) >= 2000
    kinds = {e.split("[", 1)[1].split("]", 1)[0] for o in outs for e in o[0]}
    assert kinds >= {"lex", "syntax", "behavioral-construct",
                     "unknown-primitive", "arity", "width", "duplicate-name"}
    assert sum(o[1] is not None for o in outs) > 100
    assert any(o[2] for o in outs)
    messages = " ".join(e for o in outs for e in o[0])
    for violation in ("dangling-net:", "multi-driver:", "combinational-loop:",
                      "dff clock must be"):
        assert violation in messages


def test_parse_outputs_match_recorded_digests(cases, outs):
    want = DIGESTS.read_text().split()
    got = batch_digests(outs)
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, (
        f"{len(bad)} of {len(want)} batches differ; first batch {bad[0]} "
        f"holds cases {bad[0] * BATCH}..{bad[0] * BATCH + BATCH - 1}: "
        f"{cases[bad[0] * BATCH:bad[0] * BATCH + BATCH]!r}")


def test_lexer_tokens_tile_the_text(cases):
    """Tokens are slices of the text, in order, with only trivia between."""
    for text in cases:
        *toks, eof = _lex(text)
        assert eof[:2] == ("eof", "")
        pos = 0
        for kind, tok, start in toks:
            assert kind != "eof" and tok and start >= pos
            assert TRIVIA.fullmatch(text, pos, start), (text, start)
            assert text[start:start + len(tok)] == tok
            pos = start + len(tok)
        end = eof[2]
        if end < pos:  # an unterminated `/*` ends the stream at its start
            assert toks[-1] == ("bad", "/*", end) and "*/" not in text[end + 2:]
        else:
            assert TRIVIA.fullmatch(text, pos, end)
            assert re.fullmatch(r"(//[^\n]*)?", text[end:])


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(batch_digests([outcome(t) for t in corpus()]))
                       + "\n")
