import random

import pytest
from conftest import build_full_adder, build_half_adder, random_netlist

from gateforge.netlist import GateKind, PortDir, structural_report
from gateforge.parser import extract_netlist_block, parse, render
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
])
def test_error_positions_follow_the_text(text, want):
    assert [(e.kind, e.line, e.column, e.token, e.message)
            for e in parse(text).errors] == want


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
