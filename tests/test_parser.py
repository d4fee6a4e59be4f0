import hashlib
import json
import random
import re
import time

import pytest
from conftest import build_full_adder, build_half_adder, random_netlist
from hypothesis import given, settings, strategies as st
from test_ir_golden import cut_texts, netlist_ir
from test_parse_golden import TASKS, corpus

from gateforge import knowledge, parser
from gateforge.netlist import GateKind, PortDir, structural_report
from gateforge.parser import (
    _Parser,
    extract_netlist_block,
    parse,
    render,
)
from gateforge.simulator import truth_table

BEHAVIORAL_CORPUS = [
    "module t(input a, output y); always @(a) y = a; endmodule",
    "module t(input a, output y); always @(posedge a) y <= a; endmodule",
    "module t(input a, output y); if (a) not g1(y, a); endmodule",
    "module t(input a, output y); else not g1(y, a); endmodule",
    "module t(input a, output y); case (a) endcase endmodule",
    "module t(input a, input b, output y); assign y = a & b; endmodule",
    "module t(input a, input b, output y); assign y = a | b; endmodule",
    "module t(input a, input b, output y); assign y = a + b; endmodule",
    "module t(input a, input b, output y); assign y = a - b; endmodule",
    "module t(input a, input b, output y); assign y = a ? b : a; endmodule",
    "module t(input a, output y); assign y = ~a; endmodule",
    "module t(input a, output y); assign y = !a; endmodule",
    "module t(input a, output y); initial y = 0; endmodule",
    "module t(input a, output y); function f; endfunction endmodule",
    "module t(input a, output y); reg r; not g1(y, a); endmodule",
    "module t(input a, output y); for (;;) not g1(y, a); endmodule",
    "module t(input a, output y); wire w; assign w = a * 2; endmodule",
    "module t(input a, output y); begin end endmodule",
]


def test_minimal_module_parses():
    r = parse("module top(input a, output y); not g1(y, a); endmodule")
    assert r.ok and not r.errors
    assert r.netlist.report.gate_count == 1
    assert [g.kind for g in r.netlist.gates] == [GateKind.NOT]


@pytest.mark.parametrize("text", BEHAVIORAL_CORPUS)
def test_behavioral_constructs_rejected(text):
    r = parse(text)
    assert not r.ok
    assert any(e.kind == "behavioral-construct" for e in r.errors), \
        [str(e) for e in r.errors]


def test_assign_pure_alias_accepted():
    r = parse("module t(input a, output y); assign y = a; endmodule")
    assert r.ok
    assert r.netlist.report.gate_count == 0
    # y and a are the same net
    assert r.netlist.port_nets["y"] == r.netlist.port_nets["a"]


def test_assign_constant_alias_accepted():
    r = parse("module t(input a, output y); assign y = 1'b1; endmodule")
    assert r.ok
    net = r.netlist.nets[r.netlist.port_nets["y"][0]]
    assert net.value == 1


@pytest.mark.parametrize("op", ["==", "==="])
def test_equality_operators_are_behavioral_constructs(op):
    # Like every other operator, not a run of '=' tokens.
    r = parse(f"module t(input a, input b, output y); assign y = a {op} b; "
              "endmodule")
    assert [(e.kind, e.token) for e in r.errors] == [
        ("behavioral-construct", op)]


@pytest.mark.parametrize("literal", ["1 'b1", "1\t'b1", "1\n'b1", "1'\tb1",
                                     "1 \r\n' \fB1"])
def test_sized_literal_inner_whitespace_is_ignored(literal):
    r = parse(f"module t(input a, output y); assign y = {literal}; endmodule")
    assert r.ok, [str(e) for e in r.errors]
    net = r.netlist.nets[r.netlist.port_nets["y"][0]]
    assert net.value == 1


def test_sized_literal_across_a_newline_advances_the_line():
    r = parse("module t(input a, output y);\nassign y = 1\n'b1;\n"
              "nor g(y, a);\nendmodule")
    assert [(e.kind, e.line, e.column) for e in r.errors] == [
        ("unknown-primitive", 4, 1)]
    r = parse("module t(input a, output y);\nassign y = 1\n 'b1 &\na;\n"
              "endmodule")
    assert [(e.kind, e.line, e.column) for e in r.errors] == [
        ("behavioral-construct", 3, 6)]


HEADER = "module t(input a, output y);"


@pytest.mark.parametrize("text, want", [
    # A `//` comment at the very end leaves EOF at the comment's start.
    (f"{HEADER} not g1(y, a); // tail",
     [("syntax", 1, 44, "", "missing 'endmodule'")]),
    ("// tail", [("syntax", 1, 1, "", "expected 'module'")]),
    ("  // tail", [("syntax", 1, 3, "", "expected 'module'")]),
    # After a newline-terminated comment EOF is at the end of the text.
    (f"{HEADER}\nnot g1(y, a); // tail\n",
     [("syntax", 3, 1, "", "missing 'endmodule'")]),
    # An unterminated `/*` is one token, and EOF sits at its start.
    (f"{HEADER}\n  not g1(y, a); /* open\nmore",
     [("lex", 2, 17, "/*", "unrecognized character"),
      ("syntax", 2, 17, "", "missing 'endmodule'")]),
    # `\r` and a tab are one column each; `\r\n` starts one new line.
    (f"{HEADER}\r\n\tnot g1(y, a);\r\n\tfoo\r\nendmodule",
     [("unknown-primitive", 3, 2, "foo", "'foo' is not a locked gate "
       "primitive (allowed: and, or, not, xor, nand, dff)")]),
    # A sized literal spanning a newline moves the next token's line.
    (f"{HEADER}\nassign y = 1\n 'b1 & a;\nendmodule",
     [("behavioral-construct", 3, 6, "&", "operator '&' makes this an "
       "expression; only plain net aliasing is allowed")]),
    # `\x1c` and `\xa0` are whitespace to `\s` but not to the lexer.
    (f"{HEADER}\n \x1c not g1(y, a);\nendmodule",
     [("lex", 2, 2, "\x1c", "unrecognized character")]),
    (f"{HEADER}\n\xa0not g1(y, a);\nendmodule",
     [("lex", 2, 1, "\xa0", "unrecognized character")]),
    (f"{HEADER} not g1(y, a); endmodule\n", []),
    (f"{HEADER} not g1(y, a); endmodule\n x",
     [("syntax", 2, 2, "x", "text after 'endmodule'")]),
    ("module t(inout a, output y); not g1(y, a); endmodule",
     [("syntax", 1, 10, "inout", "inout ports are not supported"),
      ("syntax", 1, 16, "a", "expected ')'")]),
    (f"{HEADER} assign y a; endmodule",
     [("syntax", 1, 39, "a", "expected '=' in assign")]),
    # A `//` comment and then a `/* */` one are trivia like any other.
    ("// x\n/**/", [("syntax", 2, 5, "", "expected 'module'")]),
    ("// x\n/**/ // y", [("syntax", 2, 6, "", "expected 'module'")]),
    (" */$\\a1'b1task// note\n/**/}",
     [("syntax", 1, 2, "*", "expected 'module'")]),
])
def test_error_positions_follow_the_text(text, want):
    assert [(e.kind, e.line, e.column, e.token, e.message)
            for e in parse(text).errors] == want


HALF_ADDER = ("module ha(input a, input b, output s, output c);\n"
              "  xor g1(s, a, b);\n  and g2(c, a, b);\nendmodule\n")


@pytest.mark.parametrize("comments", [
    "// half adder\n/* generated */\n", "// x\n/**/", "/* a */ // b\n/* c */"])
def test_comments_in_any_order_lead_a_module(comments):
    r = parse(comments + HALF_ADDER)
    assert r.ok, [str(e) for e in r.errors]
    assert render(r.netlist) == render(parse(HALF_ADDER).netlist)


def test_arity_error_on_short_nand():
    r = parse("module t(input a, output y); nand g1(y, a); endmodule")
    assert not r.ok
    assert {e.kind for e in r.errors} == {"arity"}


def test_unknown_primitive():
    r = parse("module t(input a, input b, output y); nor g1(y, a, b); endmodule")
    assert not r.ok
    assert {e.kind for e in r.errors} == {"unknown-primitive"}


def test_duplicate_names():
    r = parse("module t(input a, input a, output y); not g1(y, a); endmodule")
    assert any(e.kind == "duplicate-name" for e in r.errors)
    r = parse("module t(input a, output y); wire a; not g1(y, a); endmodule")
    assert any(e.kind == "duplicate-name" for e in r.errors)
    r = parse("module t(input a, input b, output y); wire w;"
              " and g1(w, a, b); and g1(y, a, w); endmodule")
    assert any(e.kind == "duplicate-name" for e in r.errors)


def test_width_errors():
    r = parse("module t(input [1:0] a, output y); not g1(y, a); endmodule")
    assert any(e.kind == "width" for e in r.errors)
    r = parse("module t(input [1:0] a, output y); not g1(y, a[5]); endmodule")
    assert any(e.kind == "width" for e in r.errors)
    r = parse("module t(input a, output y); not g1(y, a[0]); endmodule")
    assert any(e.kind == "width" for e in r.errors)
    r = parse("module t(input a, output y); wire w; assign y = 2'b10; endmodule")
    assert any(e.kind == "width" for e in r.errors)


# A number past `int`'s default digit limit (4,300 digits).
LONG = "9" * 5000


def _width_error_at_long_number(text: str) -> None:
    """`parse` reports a `width` error at the long number, the statement
    reader refuses the text, and no exception escapes."""
    r = parse(text)
    column = text.index(LONG) + 1
    assert [(e.kind, e.line, e.column) for e in r.errors][:1] == [
        ("width", 1, column)]
    assert "5000-digit number" in r.errors[0].message
    assert _Parser(text).read_statements() is None


def test_a_long_range_bound_in_a_port_is_a_width_error():
    # Well formed otherwise: the statement reader's `_read_decl` sees it.
    _width_error_at_long_number(
        f"module t(input [{LONG}:0] a, output y); not g1(y, a[0]); endmodule")


def test_a_long_range_bound_in_a_wire_is_a_width_error():
    _width_error_at_long_number(
        f"module t(input a, output y); wire [0:{LONG}] w; not g1(y, a); endmodule")


def test_a_long_bit_index_is_a_width_error():
    # The statement reader finds no bit of that name.
    _width_error_at_long_number(
        f"module t(input [1:0] a, output y); not g1(y, a[{LONG}]); endmodule")


def test_a_long_number_the_token_grammar_reads_is_a_width_error():
    # The statement reader reads past the comment and refuses the number;
    # the grammar's `_Parser._number` reports it where it stands.
    _width_error_at_long_number(
        f"module t(/* a */ input [{LONG}:0] a, output y); not g1(y, a[0]); "
        "endmodule")


# An 18-digit range bound: short enough for `_MAX_DIGITS`, and far more
# bits than `_MAX_BITS` lets a module declare.
WIDE = "9" * 18


def _width_error_at_wide_declaration(text: str, name: str) -> None:
    """`parse` reports a `width` error at the declared name, the statement
    reader refuses the text as the grammar does, and nothing is allocated
    for the declaration."""
    r = parse(text)
    column = re.search(rf"\b{name}\b", text).start() + 1
    assert [(e.kind, e.line, e.column, e.token) for e in r.errors][:1] == [
        ("width", 1, column, name)]
    assert f"a module declares at most {parser._MAX_BITS} bits" \
        in r.errors[0].message
    assert taken(text) is False


def test_a_wide_port_is_a_width_error():
    _width_error_at_wide_declaration(
        f"module t(input [{WIDE}:0] a, output y); not g1(y, a[0]); endmodule",
        "a")


def test_a_wide_wire_is_a_width_error():
    _width_error_at_wide_declaration(
        f"module t(input a, output y); wire [{WIDE}:1] w; not g1(y, a); "
        "endmodule", "w")


@pytest.mark.parametrize("text", [
    f"module t(input [{WIDE}:0] a, output [1:0] y);\n"
    "  not g1(y[0], a[0]);\n  and g2(y[1], a[1], a);\nendmodule",
    f"module t(input b, output [1:0] y); wire [{WIDE}:0] a;\n"
    "  not g1(y[0], a[0]);\n  and g2(y[1], a[1], a);\n"
    "  assign a[2] = b;\nendmodule"], ids=["port", "wire"])
def test_a_wide_declaration_is_reported_once_however_often_it_is_used(text):
    # The refused name is entered with no slots: its uses are skipped, not
    # reported as undeclared.
    assert [(e.kind, e.token) for e in parse(text).errors] == [("width", "a")]


def test_the_bit_limit_counts_every_declaration_of_the_module():
    # Two bits of ports, then wires up to the limit and one bit past it.
    bound = parser._MAX_BITS
    fits = f"wire [{bound - 3}:0] w"
    text = f"module t(input a, output y); {fits}; not g1(y, a); endmodule"
    assert parse(text).ok and taken(text)
    _width_error_at_wide_declaration(
        f"module t(input a, output y); {fits}; wire v; not g1(y, a); "
        "endmodule", "v")


def test_vector_ports_and_bit_selects():
    r = parse(
        "module t(input [1:0] a, output [1:0] y);\n"
        "  not g1(y[0], a[1]);\n"
        "  not g2(y[1], a[0]);\n"
        "endmodule")
    assert r.ok
    assert len(r.netlist.input_bits) == 2


def test_nonzero_lsb_ranges_round_trip():
    r = parse(
        "module t(input [5:4] a, output [5:4] y);\n"
        "  not g1(y[4], a[5]);\n"
        "  not g2(y[5], a[4]);\n"
        "endmodule")
    assert r.ok, [str(e) for e in r.errors]
    port, = r.netlist.input_ports()
    assert (port.lsb, port.msb) == (4, 5)
    assert [n for n, _ in r.netlist.input_bits] == ["a[4]", "a[5]"]
    out = render(r.netlist)
    assert "[5:4]" in out
    r2 = parse(out)
    assert r2.ok and render(r2.netlist) == out
    # selecting below the declared lsb is out of range
    bad = parse("module t(input [5:4] a, output y); not g1(y, a[0]); endmodule")
    assert any(e.kind == "width" for e in bad.errors)


def test_undeclared_net_is_an_error():
    r = parse("module t(input a, output y); not g1(y, bogus); endmodule")
    assert not r.ok
    assert any("not declared" in e.message for e in r.errors)


def test_undriven_output_is_an_error():
    r = parse("module t(input a, output y); wire w; not g1(w, a); endmodule")
    assert not r.ok
    assert any("dangling-net" in e.message for e in r.errors)
    # It points at the output port's declaration.
    assert [(e.line, e.column, e.token) for e in r.errors] == [(1, 26, "y")]


def test_multi_driver_is_an_error():
    r = parse("module t(input a, output y);"
              " not g1(y, a); not g2(y, a); endmodule")
    assert not r.ok
    assert any("multi-driver" in e.message for e in r.errors)
    assert [(e.line, e.column, e.token) for e in r.errors] == [(1, 26, "y")]
    # A wire driven by two gates points at the wire's declaration.
    r = parse("module t(input a, output y);\n  wire w;\n"
              "  not g1(w, a);\n  not g2(w, a);\n  not g3(y, w);\nendmodule")
    assert [(e.line, e.column, e.message, e.token) for e in r.errors] == [
        (2, 8, "multi-driver: driven by g1 and g2", "w")]


def test_two_constants_joined_by_assign_are_a_multi_driver():
    for body, line in (("assign y = 1'b0;\nassign y = 1'b1;", 3),
                       ("wire w;\nassign w = 1'b0;\nassign y = 1'b1;\n"
                        "assign y = w;", 5)):
        r = parse(f"module t(input a, output y);\n{body}\nendmodule")
        assert [(e.kind, e.line, e.column, e.message, e.token)
                for e in r.errors] == [
            ("syntax", line, 1,
             "multi-driver: driven by constant 0 and constant 1", "assign")]
    assert parse("module t(input a, output y); assign y = 1'b1;"
                 " assign y = 1'b1; endmodule").ok


def test_a_gate_driving_a_constant_net_is_reported_at_its_instance():
    for instance in ("g1", "constant"):
        r = parse("module t(input a, input b, output y);\n"
                  "  wire w;\n"
                  "  assign w = 1'b0;\n"
                  f"  and {instance}(w, a, b);\n"
                  "  or g2(y, w, a);\n"
                  "endmodule")
        assert [(e.kind, e.line, e.column, e.message, e.token)
                for e in r.errors] == [
            ("syntax", 4, 7,
             f"multi-driver: driven by constant 0 and {instance}", instance)]


def test_an_input_joined_to_a_constant_is_reported_at_its_declaration():
    for decl, bit, column in (("a", "a", 16), ("[1:0] a", "a[1]", 22)):
        r = parse(f"module t(input {decl}, input b, output y);\n"
                  f"  assign {bit} = 1'b1;\n"
                  f"  and g1(y, {bit}, b);\n"
                  "endmodule")
        assert [(e.kind, e.line, e.column, e.message, e.token)
                for e in r.errors] == [
            ("syntax", 1, column,
             f"multi-driver: driven by constant 1 and input {bit}", "a")]


def test_combinational_loop_is_an_error():
    r = parse("module t(input a, output y); xor g1(y, a, y); endmodule")
    assert not r.ok
    assert any("combinational-loop" in e.message for e in r.errors)


def test_dff_clock_must_be_an_input_port():
    r = parse("module t(input d, input clk, output q);"
              " dff g1(q, d, clk); endmodule")
    assert r.ok
    r = parse("module t(input d, output q); wire w; not g1(w, d);"
              " dff g2(q, d, w); endmodule")
    assert not r.ok
    assert any("clock" in e.message for e in r.errors)


def test_multiple_errors_reported_after_resync():
    r = parse("module t(input a, output y, output z);\n"
              "  nor g1(y, a, a);\n"
              "  nand g2(z, a);\n"
              "endmodule")
    kinds = sorted(e.kind for e in r.errors)
    assert kinds == ["arity", "unknown-primitive"]


def test_error_positions_are_tracked():
    r = parse("module t(input a, output y);\n  assign y = a & a;\nendmodule")
    err = r.errors[0]
    assert err.line == 2
    assert err.column > 1


def test_a_loop_is_reported_at_module_even_beside_a_wire_named_netlist():
    r = parse("module t(input a, output y);\n"
              "  wire netlist;\n"
              "  and g1(netlist, a, y);\n"
              "  and g2(y, a, netlist);\n"
              "endmodule")
    assert [(e.line, e.column, e.token) for e in r.errors] == [(1, 1, "module")]
    assert "combinational-loop" in r.errors[0].message


def test_a_dangling_wire_is_reported_at_its_declaration_not_a_namesake():
    r = parse("module t(input a, output y);\n"
              "  wire w;\n"
              "  and w(y, a, w);\n"
              "endmodule")
    assert [(e.line, e.column, e.token) for e in r.errors] == [(2, 8, "w")]
    assert "dangling-net: undriven net read as input of w" in r.errors[0].message


def test_parse_builds_netlists_without_the_builder(monkeypatch):
    from gateforge.netlist import NetlistBuilder
    from gateforge.taskpack import builtin_task_packs

    references = [t.reference_netlist for t in builtin_task_packs()]

    def refuse(self):
        raise AssertionError("parse must not go through NetlistBuilder")

    monkeypatch.setattr(NetlistBuilder, "build", refuse)
    for text in references:
        assert parse(text).ok, text


def test_parser_never_raises_on_garbage_bytes():
    rng = random.Random(0)
    for _ in range(200):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
        text = blob.decode("utf-8", errors="replace")
        result = parse(text)
        assert result.ok or result.errors


def test_determinism_byte_identical_input():
    text = "module t(input a, output y); not g1(y, a); endmodule"
    r1, r2 = parse(text), parse(text)
    assert r1.ok and r2.ok
    assert render(r1.netlist) == render(r2.netlist)
    bad = "module t(input a, output y); assign y = a + 1; endmodule"
    assert [str(e) for e in parse(bad).errors] == \
        [str(e) for e in parse(bad).errors]


def test_error_placement_is_linear_in_the_error_count():
    """Four times the faulty lines, each as long, parse in about four times
    the time: placing an error does not count lines from the start."""
    def text(lines: int) -> str:
        body = "".join(f"  bogus{i} ;  // {'p' * 200}\n" for i in range(lines))
        return f"module t(input a, output y);\n{body}  not g1(y, a);\nendmodule\n"

    def best_seconds(text: str) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            parse(text)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = text(500), text(2000)
    errors = parse(large).errors
    assert len(errors) == 2000
    assert (errors[-1].line, errors[-1].column) == (2001, 3)
    assert best_seconds(large) < 8 * best_seconds(small)


# -- one reader builds every netlist ------------------------------------------
#
# `parse` builds a netlist only with `_Parser.read_statements`. The token
# grammar, `_Parser(text).parse()`, reads a text the reader gives up, to
# report its errors. So the reader must take exactly the texts in which the
# grammar finds no error, and `parse` returns a netlist or an error.

def grammar_errors(text: str) -> list[str]:
    """The errors the token grammar finds in `text` itself."""
    return [str(e) for e in _Parser(text).parse().errors
            if e.message != parser._NOT_READ]


def taken(text: str) -> bool:
    """Assert that the statement reader takes `text` iff the token grammar
    finds no error in it, and that `parse` returns a netlist or an error;
    True when the reader takes it."""
    result = parse(text)
    assert result.ok or result.errors, text
    took = _Parser(text).read_statements() is not None
    assert took == (not grammar_errors(text)), text
    return took


def ir_less_name(text: str) -> list:
    """The IR of the netlist `text` parses to, but the module name."""
    result = parse(text)
    assert result.ok, [str(e) for e in result.errors]
    return netlist_ir(result.netlist)[1:]


def test_parse_reads_every_corpus_text_as_the_token_grammar():
    # The IR golden's corpus: the parse-golden corpus and every cut text.
    cuts = cut_texts()
    took = [text for text in corpus() + cuts if taken(text)]
    assert set(cuts) <= set(took)
    # Texts whose only fault the reader finds once it has read them.
    assert sum(not parse(text).ok for text in took) > 100


def test_a_text_the_reader_gives_up_is_refused_with_an_error(monkeypatch):
    monkeypatch.setattr(_Parser, "read_statements", lambda self: None)
    r = parse(HALF_ADDER)
    assert r.netlist is None
    assert [(e.kind, e.line, e.column, e.token, e.message)
            for e in r.errors] == [
        ("syntax", 1, 1, "module", "text not read as a netlist")]


# Texts the statement reader takes, each with its nets' names by id: the
# reader numbers nets as it reads, in the grammar's claim order, and an
# `assign` leaves one net per joined class, named by its first claimant or
# by the constant in it. The `assign` cases' names are those the token
# grammar gave when it built netlists too.
NUMBERED = {
    "output-first": (
        "module t(output y, input a, input b);\n"
        "  and g1(y, a, b);\nendmodule", ["a", "b", "y"]),
    "vector-ports": (
        "module t(output [3:2] y, input [5:4] a);\n"
        "  not g1(y[2], a[5]);\n  not g2(y[3], a[4]);\nendmodule",
        ["a[4]", "a[5]", "y[2]", "y[3]"]),
    "late-wire": (
        "module t(input a, output y);\n  wire u;\n"
        "  and g1(u, 1'b1, 1'b0);\n  wire v;\n  or g2(v, u, a);\n"
        "  not g3(y, v);\nendmodule", ["a", "y", "u", "v", "1'b1", "1'b0"]),
    "unused-wire": (
        "module t(input a, output y);\n  wire spare, w;\n"
        "  not g1(w, a);\n  not g2(y, w);\nendmodule",
        ["a", "y", "spare", "w"]),
    "dff": (
        "module t(output q, input d, input clk);\n  wire n;\n"
        "  not g1(n, d);\n  dff g2(q, n, clk);\nendmodule",
        ["d", "clk", "q", "n"]),
    "alias-chain": (
        "module t(input a, output y);\n  wire u, v, w;\n  not g1(w, a);\n"
        "  assign u = v;\n  assign v = w;\n  not g2(y, u);\nendmodule",
        ["a", "y", "u"]),
    "wire-to-constant": (
        "module t(input a, output y);\n  wire z, w;\n  assign z = 1'b0;\n"
        "  or g1(w, a, z);\n  and g2(y, w, 1'b1);\nendmodule",
        ["a", "y", "1'b0", "w", "1'b1"]),
    "output-to-input": (
        "module t(input a, input b, output y, output z);\n"
        "  assign y = b;\n  not g1(z, a);\nendmodule", ["a", "b", "z"]),
}

# Texts the statement reader takes whose one fault it finds once it has
# read them, with the error as the token grammar placed it when it built
# netlists too.
FAULTY = {
    "multi-driver": (
        "module t(input a, output y);\n  wire w;\n  not g1(w, a);\n"
        "  not g2(w, a);\n  not g3(y, w);\nendmodule",
        "line 2 col 8 [syntax] multi-driver: driven by g1 and g2 near 'w'"),
    "driven-input": (
        "module t(input a, input b, output y);\n"
        "  not g1(a, b);\n  not g2(y, a);\nendmodule",
        "line 1 col 16 [syntax] multi-driver: driven by input a and g1 "
        "near 'a'"),
    "undriven-wire": (
        "module t(input a, output y);\n  wire w;\n"
        "  and g1(y, a, w);\nendmodule",
        "line 2 col 8 [syntax] dangling-net: undriven net read as input of "
        "g1 near 'w'"),
    "undriven-output": (
        "module t(input a, output y, output z);\n"
        "  not g1(y, a);\nendmodule",
        "line 1 col 36 [syntax] dangling-net: undriven net read as output z "
        "near 'z'"),
    "loop": (
        "module t(input a, output y);\n  wire w;\n"
        "  and g1(w, a, y);\n  and g2(y, a, w);\nendmodule",
        "line 1 col 1 [syntax] combinational-loop: cycle through g1 -> g2 "
        "near 'module'"),
    "dff-clock": (
        "module t(input d, output q);\n  wire c;\n"
        "  not g1(c, d);\n  dff g2(q, d, c);\nendmodule",
        "line 4 col 3 [syntax] dff clock must be a primary input port bit "
        "near 'dff'"),
    "aliased-clock": (
        "module t(input d, input clk, output q);\n  wire c, n;\n"
        "  assign c = clk;\n  not g1(n, d);\n  dff g2(q, n, c);\n"
        "  dff g3(n, d, q);\nendmodule",
        "line 6 col 3 [syntax] dff clock must be a primary input port bit "
        "near 'dff'"),
}


@pytest.mark.parametrize("name", sorted(NUMBERED))
def test_the_reader_numbers_nets_in_the_grammars_claim_order(name):
    text, names = NUMBERED[name]
    assert taken(text)
    assert [n.name for n in parse(text).netlist.nets.values()] == names


@pytest.mark.parametrize("name", sorted(FAULTY))
def test_the_reader_places_a_structural_fault_as_the_grammar(name):
    text, error = FAULTY[name]
    assert taken(text)
    assert [str(e) for e in parse(text).errors] == [error]


def _comment_each_gate(text: str, line: str, gate: str) -> str:
    """`text` led by the comment `line`, with the comment `gate` after
    each gate line."""
    return line + re.sub(r"^(  (?:and|or|not|xor|nand|dff) .*;)$",
                         rf"\1{gate}", text, flags=re.M)


def _taken_forms(text: str) -> list[str]:
    """Canonical `text` written in each form that only the token grammar
    used to read: comments of both kinds, the first gate's output driven
    through an `assign`, upper-case gate kinds, `$` in the module name and
    leading zeros in bit indexes."""
    gate = r"^  (and|or|not|xor|nand|dff) "
    first = re.search(gate + r"\w+\(([^,]+),", text, flags=re.M)
    header, body = text[:first.start(2)].split("\n", 1)
    aliased = (f"{header}\n  wire alias;\n{body}alias"
               + text[first.end(2):].replace(
                   "endmodule", f"  assign {first[2]} = alias;\nendmodule"))
    return [
        _comment_each_gate(text, "// generated\n", "  // one gate"),
        _comment_each_gate(text, "/* generated */\n", " /* one\ngate */"),
        aliased,
        re.sub(gate, lambda m: f"  {m[1].upper()} ", text, flags=re.M),
        text.replace("(", "$(", 1),
        re.sub(r"\[(\d+)\](?=[,)])", r"[0\1]", text),
    ]


def test_canonical_text_never_reaches_the_token_grammar(monkeypatch):
    references = [p.read_text() for p in sorted(TASKS.glob("*/reference.nl"))]
    texts = references + [text for text, _tags in knowledge._BASELINE]
    texts += cut_texts()
    texts += [form for text in references for form in _taken_forms(text)]
    # Constants spelled every way the grammar takes them.
    texts += [f"module k(input a, output y, output z);\n"
              f"  and g1(y, a, {one});\n  or g2(z, a, {zero});\nendmodule"
              for one, zero in (("1'B1", "1'B0"), ("1 ' b1", "1\t'　b0"),
                                ("1\n'b1", "0"), ("1", "1' B0"))]

    def refuse(text):
        raise AssertionError("canonical text reached the token grammar")

    monkeypatch.setattr(parser, "_lex", refuse)
    for text in texts:
        assert parse(text).ok, text
    assert parse(_taken_forms(references[0])[4]).netlist.name == "adder2$"


TRIVIA = " \t\r\f\v\n"


def _gate_lines(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.endswith(");")
            and not line.startswith(("module", "  wire", "  assign"))]


def _edit_pins(rng: random.Random, text: str, edit) -> str:
    """Apply `edit` to the connection list of one gate."""
    lines = text.split("\n")
    i = rng.choice(_gate_lines(lines))
    head, _, pins = lines[i].partition("(")
    lines[i] = f"{head}({', '.join(edit(pins[:-2].split(', ')))});"
    return "\n".join(lines)


def _set_pin(rng: random.Random, text: str, value: str, *,
             output: bool = False) -> str:
    """Connect `value` to one gate's output, or to one of its inputs."""
    def edit(pins):
        pins[0 if output else rng.randrange(1, len(pins))] = value
        return pins
    return _edit_pins(rng, text, edit)


def _set_instance(rng: random.Random, text: str, name: str) -> str:
    lines = text.split("\n")
    i = rng.choice(_gate_lines(lines))
    lines[i] = re.sub(r"^(  \w+ )\w+", rf"\g<1>{name}", lines[i])
    return "\n".join(lines)


def _insert_after_header(text: str, lines: str) -> str:
    header, body = text.split("\n", 1)
    return f"{header}\n{lines}\n{body}"


def spaced(rng, text):
    def pad(least):
        return "".join(rng.choice(TRIVIA) for _ in range(rng.randint(least, 3)))
    spaced = re.sub(r"\s*([(),;:\[\]])\s*", lambda m: pad(0) + m[1] + pad(0),
                    text)
    return pad(0) + re.sub(" ", lambda m: pad(1), spaced) + pad(0), text


def vectors(rng, text):
    """The inputs as one vector and the outputs as another, each with a
    non-zero lsb."""
    header, body = text.split("\n", 1)
    name = header[len("module "):header.index("(")]
    low = {"i": rng.randint(1, 4), "o": rng.randint(1, 4)}
    count = {"i": header.count("input "), "o": header.count("output ")}
    ranges = {p: f"[{low[p] + count[p] - 1}:{low[p]}]" for p in "io"}
    body = re.sub(r"\b([io])(\d+)\b",
                  lambda m: f"{m[1]}[{low[m[1]] + int(m[2])}]", body)
    return f"module {name}(input {ranges['i']} i, output {ranges['o']} o);\n{body}"


def constant_inputs(rng, text):
    return _set_pin(rng, text, rng.choice(["1'b0", "1'b1"]))


# Each form below that the reader takes returns the perturbed text and the
# same design written canonically, which must parse to the same IR.

def leading_zero(rng, text):
    text = vectors(rng, text)
    selects = list(re.finditer(r"\[(\d+)\](?=[,)])", text))
    m = rng.choice(selects)
    zeros = "0" * rng.randint(1, 3)
    return text[:m.start(1)] + zeros + text[m.start(1):], text


def constant_spelling(rng, text):
    value = rng.choice("01")
    text = _set_pin(rng, text, "\0")
    spelling = rng.choice([f"1'B{value}", f"1 'b{value}", f"1' b{value}",
                           f"1'\nb{value}", f"1\u3000'\tB{value}", value])
    return text.replace("\0", spelling), text.replace("\0", f"1'b{value}")


def empty_port_list(rng, text):
    """No ports: the outputs are wires and constants replace the inputs."""
    header, body = text.split("\n", 1)
    name = header[len("module "):header.index("(")]
    outputs = re.findall(r"output (o\d+)", header)
    body = re.sub(r"\bi\d+\b", lambda m: rng.choice(["1'b0", "1'b1"]), body)
    return f"module {name}();\n  wire {', '.join(outputs)};\n{body}"


def comment(rng, text):
    i = rng.choice([m.end() for m in re.finditer(r"[;,(]", text)])
    return text[:i] + rng.choice([" // note\n", "/* c */", "\n// x\n",
                                  "/* a\nb */", "/**/"]) + text[i:], text


def assign(rng, text):
    """A fresh wire joined to a port bit, which a gate may read through
    it: the wire is that bit's net."""
    lines = text.split("\n")
    i = rng.choice(_gate_lines(lines))
    head, _, pins = lines[i].partition("(")
    pins = pins[:-2].split(", ")
    ports = [k for k in range(1, len(pins))
             if re.fullmatch(r"[io]\d+", pins[k])]
    bit = "i0"
    if ports:
        k = rng.choice(ports)
        bit, pins[k] = pins[k], "x"
        lines[i] = f"{head}({', '.join(pins)});"
    join = rng.choice([f"assign x = {bit};", f"assign {bit} = x;"])
    return _insert_after_header("\n".join(lines), f"  wire x;\n  {join}"), text


def upper_case_kind(rng, text):
    lines = text.split("\n")
    i = rng.choice(_gate_lines(lines))
    lines[i] = re.sub(r"^  (\w+)", lambda m: "  " + rng.choice(
        [m[1].upper(), m[1].capitalize()]), lines[i])
    return "\n".join(lines), text


def dollar_module_name(rng, text):
    return text.replace("(", "$1(", 1), text


def dollar_instance_name(rng, text):
    return _set_instance(rng, text, "g$1")


def constants_joined(rng, text):
    """Two constants joined through wires: a fault the reader reports."""
    return _insert_after_header(text, "  wire x, z;\n  assign x = 1'b0;\n"
                                      "  assign z = 1'b1;\n  assign x = z;")


def unterminated_comment(rng, text):
    i = rng.randrange(len(text) + 1)
    return text[:i] + "/* open" + text[i:]


def keyword_name(rng, text):
    word = rng.choice(["wire", "assign", "module", "nand", "dff", "always",
                       "reg", "begin"])
    if rng.random() < 0.5:
        return _set_instance(rng, text, word)
    return _insert_after_header(text, f"  wire {word};")


def duplicate_name(rng, text):
    lines = text.split("\n")
    gates = _gate_lines(lines)
    if len(gates) > 1 and rng.random() < 0.5:
        first = re.match(r"  \w+ (\w+)", lines[gates[0]])[1]
        lines[gates[1]] = re.sub(r"^(  \w+ )\w+", rf"\g<1>{first}",
                                 lines[gates[1]])
        return "\n".join(lines)
    return _insert_after_header(text, rng.choice(["  wire i0;", "  wire o0;"]))


def undeclared_net(rng, text):
    return _set_pin(rng, text, rng.choice(["u0", "w99", "i"]))


def range_fault(rng, text):
    decl, pin = rng.choice([
        ("", "i0[0]"),                    # a select on a scalar
        ("  wire [0:0] v;", "v[0]"),      # a select on a one-bit range
        ("  wire [0:1] v;", "v[0]"),      # a descending range
        ("  wire [2:1] v;", "v[0]"),      # bits out of range
        ("  wire [2:1] v;", "v[3]"),
        ("  wire [1:0] v;", "v"),         # a vector without a select
    ])
    text = _set_pin(rng, text, pin)
    return _insert_after_header(text, decl) if decl else text


def constant_output(rng, text):
    return _set_pin(rng, text, rng.choice(["1'b0", "1'b1"]), output=True)


def other_constant(rng, text):
    return _set_pin(rng, text, rng.choice([
        "1'bx", "1'bz", "2'b01", "1'h1", "1'd0", "01'b1", "1'b0_", "1'b",
        "1'/**/b1", "1 /* c */ 'b0", "1 // c\n'b1", "1'b/**/1"]))


def bare_number(rng, text):
    return _set_pin(rng, text, rng.choice(["7", "00", "01", "2"]))


def wrong_arity(rng, text):
    return _edit_pins(rng, text, lambda pins: pins[:-1] if rng.random() < 0.5
                      else pins + ["i0"])


def other_trivia(rng, text):
    spaces = [i for i, c in enumerate(text) if c == " "]
    i = rng.choice(spaces)
    return text[:i] + rng.choice(["\x1c", "\xa0", "\u3000"]) + text[i + 1:]


def text_after_endmodule(rng, text):
    return text + rng.choice(["x", ";", "endmodule", "module", "\x00", "1"])


# Each perturbation of a rendered design, and whether the statement reader
# takes the text it makes.
PERTURBATIONS = {f.__name__: (f, took) for f, took in [
    (spaced, True), (vectors, True), (constant_inputs, True),
    (empty_port_list, True), (comment, True), (assign, True),
    (upper_case_kind, True), (dollar_module_name, True),
    (leading_zero, True), (constant_spelling, True), (constants_joined, True),
    (dollar_instance_name, False), (keyword_name, False),
    (duplicate_name, False), (undeclared_net, False), (range_fault, False),
    (constant_output, False), (other_constant, False), (bare_number, False),
    (wrong_arity, False), (other_trivia, False),
    (text_after_endmodule, False), (unterminated_comment, False),
]}


def perturbed_design(seed: int, name: str) -> str | tuple[str, str]:
    """A rendered random design, perturbed by `PERTURBATIONS[name]`."""
    rng = random.Random(seed)
    # Two inputs or more and outputs on distinct gates, so no `assign` and
    # neither port vector is one bit wide.
    while "assign" in (text := render(random_netlist(
            rng, rng.randint(2, 4), rng.randint(2, 10), rng.randint(2, 3)))):
        pass
    return PERTURBATIONS[name][0](rng, text)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(PERTURBATIONS)))
def test_parse_reads_perturbed_designs_as_the_token_grammar(seed, name):
    perturbed = perturbed_design(seed, name)
    if type(perturbed) is tuple:
        perturbed, canonical = perturbed
        assert ir_less_name(perturbed) == ir_less_name(canonical)
    assert taken(perturbed) is PERTURBATIONS[name][1]


# The perturbations that change the design: a digest of what `parse` makes
# of the first 20 seeds' texts, recorded while the token grammar also built
# netlists and the two builders were checked to agree on each form.
CHANGED_DESIGNS = {
    "constant_inputs":
        "cb8afc911b303154bd452a55b9cae75dc3e147d4202f79cf2905f878f0334267",
    "empty_port_list":
        "7b707506b8a45bd8e97c1cbddf7a605b30d6f99de47b7c32ae9ca56a5b76cf38",
    "vectors":
        "d347b0ac37fe1e65faa5d2b6cd5da0ddf72b6cd50ab977045cbc1c18a29672f7",
}


@pytest.mark.parametrize("name", sorted(CHANGED_DESIGNS))
def test_a_changed_design_parses_as_recorded(name):
    digest = hashlib.sha256()
    for seed in range(20):
        result = parse(perturbed_design(seed, name))
        read = netlist_ir(result.netlist) if result.ok \
            else [str(e) for e in result.errors]
        digest.update(json.dumps(read).encode())
    assert digest.hexdigest() == CHANGED_DESIGNS[name]


# -- reply extraction ---------------------------------------------------------

def test_extract_single_fenced_block():
    reply = "Sure!\n```\nmodule m(input a, output y); not g1(y, a); endmodule\n```\nDone."
    text = extract_netlist_block(reply)
    assert text is not None and text.startswith("module m")


def test_extract_prose_only_is_none():
    assert extract_netlist_block("I could not produce a design, sorry.") is None


def test_extract_skips_non_module_blocks():
    reply = ("First some helper notes:\n```python\nprint('hi')\n```\n"
             "then the design:\n```verilog\nmodule m(input a, output y);"
             " not g1(y, a); endmodule\n```")
    text = extract_netlist_block(reply)
    assert text is not None
    assert "module m" in text and "print" not in text


def test_extract_skips_a_block_whose_prose_names_a_module():
    design = "module m(input a, output y); not g1(y, a); endmodule"
    reply = (f"```text\nThis module is a 2-input AND.\n```\nThe design:\n"
             f"```verilog\n{design}\n```")
    assert extract_netlist_block(reply) == design
    # Without fences, the span starts at the module header.
    assert extract_netlist_block(f"This module inverts: {design}") == design


def test_extract_reads_the_trivia_after_module_one_way():
    # After `module`, a banner of slashes is one comment, not one of the
    # Fibonacci-many splits into `//` comments, each tried whenever the
    # header fails later: 34 slashes took seconds that way.
    design = "module m(input a, output y); not g1(y, a); endmodule"
    banner = "/" * 34
    for reply, want in [
            (f"module\n{banner}\n{design}", design),
            (f"```\n// a 1-input module\n{banner}\n{design}\n```",
             f"// a 1-input module\n{banner}\n{design}")]:
        start = time.perf_counter()
        assert extract_netlist_block(reply) == want
        assert time.perf_counter() - start < 0.5


def test_extract_bare_module_span():
    reply = ("No fences, just code: module m(input a, output y); "
             "not g1(y, a); endmodule and some trailing prose")
    text = extract_netlist_block(reply)
    assert text is not None
    assert text.startswith("module") and text.endswith("endmodule")


# -- rendering ----------------------------------------------------------------

def _isomorphic(a, b) -> bool:
    """Same canonical text and same behavior: good enough for a graph
    produced by render/parse round trips."""
    if render(a) != render(b):
        return False
    if not a.registers and not b.registers:
        return truth_table(a).digest == truth_table(b).digest
    return True


def test_render_half_adder_round_trip():
    n = build_half_adder()
    text = render(n)
    r = parse(text)
    assert r.ok
    assert _isomorphic(r.netlist, n)
    assert structural_report(r.netlist) == structural_report(n)


def test_render_passthrough_module():
    from gateforge.netlist import NetlistBuilder

    b = NetlistBuilder("wirepass")
    a = b.input("a")
    b.bind("y", PortDir.OUT, a)
    text = render(b.build())
    assert "assign y = a;" in text
    r = parse(text)
    assert r.ok and r.netlist.report.gate_count == 0


def test_render_full_adder_fixpoint():
    n = build_full_adder()
    text = render(n)
    r = parse(text)
    assert r.ok
    assert render(r.netlist) == text


def test_render_random_round_trip_property():
    rng = random.Random(42)
    for _ in range(60):
        n = random_netlist(rng, rng.randint(1, 5), rng.randint(1, 25))
        text = render(n)
        r = parse(text)
        assert r.ok, [str(e) for e in r.errors]
        assert render(r.netlist) == text
        assert truth_table(r.netlist).digest == truth_table(n).digest
        assert structural_report(r.netlist) == structural_report(n)


def test_render_sequential_round_trip():
    text = ("module d2(input d, input clk, output q);\n"
            "  wire w1;\n"
            "  dff g1(w1, d, clk);\n"
            "  dff g2(q, w1, clk);\n"
            "endmodule\n")
    r = parse(text)
    assert r.ok
    out = render(r.netlist)
    r2 = parse(out)
    assert r2.ok
    assert render(r2.netlist) == out
    assert len(r2.netlist.registers) == 2
