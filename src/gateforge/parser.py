"""Structural netlist text format: parser, renderer, reply extraction.

The accepted language is a deliberately small structural subset of common
HDL syntax: one flat module, wire declarations, gate instantiations over the
locked primitive set, and operator-free `assign` aliasing. Everything a
general HDL would accept beyond that is rejected, and constructs that exist
only to express behavioral logic (always blocks, conditionals, operators,
functions, ...) are reported with the dedicated `behavioral-construct` error
class so callers can distinguish "illegal here" from "illegal anywhere".

The full grammar, token set and banned-construct list are documented in
docs/netlist_format.md and must stay in sync with this module.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .netlist import (
    Gate,
    GateKind,
    InvalidNetlistError,
    Net,
    Netlist,
    Port,
    PortDir,
    StructuralViolation,
)

GATE_KEYWORDS = {k.value: k for k in GateKind}
# Each kind's keyword, for `render`.
_GATE_TEXT = {k: text for text, k in GATE_KEYWORDS.items()}

STRUCTURAL_KEYWORDS = {"module", "endmodule", "input", "output", "wire", "assign"}

# Constructs that are legal in a general HDL but banned by the locked syntax.
BEHAVIORAL_KEYWORDS = {
    "always", "initial", "if", "else", "case", "casex", "casez", "endcase",
    "default", "begin", "end", "for", "while", "repeat", "forever",
    "function", "endfunction", "task", "endtask", "reg", "integer", "real",
    "time", "parameter", "localparam", "defparam", "generate", "endgenerate",
    "genvar", "posedge", "negedge", "edge", "wait", "fork", "join", "force",
    "release", "deassign", "disable", "specify", "endspecify", "signed",
}

# One match per token: whitespace and comments are a possessive prefix, which
# no alternative can take back (`\s` would also skip `\x1c` and `\xa0`, which
# are 'bad'). The prefix holds no capture group: CPython's `re` can raise
# SystemError for one inside a possessive repeat. A `//` comment in it ends
# at a newline; one that runs to the end of the text is `eof`'s own text, so
# `eof` starts where that comment does. No other alternative starts like
# `ident` or `punct`, so they go first; `sized` precedes `number`, and
# `open` and `eof` the `/` operator.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\f\v\n]++|//[^\n]*+(?=\n)|/\*.*?\*/)*+
    (?: (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
      | (?P<punct>[()\[\]:;,.{}])
      | (?P<sized>[0-9]+\s*'\s*[bBdDhHoO][0-9a-fA-FxXzZ_]*)
      | (?P<number>[0-9]+)
      | (?P<open>/\*)
      | (?P<eof>(?://[^\n]*+)?\Z)
      | (?P<op>===|==|!==|<<<|>>>|!=|<=|>=|&&|\|\||<<|>>|\*\*|[-+*/%&|^~!?@\#<>])
      | (?P<eq>=)
      | (?P<bad>.))
""", re.VERBOSE | re.DOTALL)

# The statement reader's patterns: one match per module header, port, wire
# declaration, `assign`, gate instantiation and `endmodule`, each with the
# trivia after it. Trivia is only the six whitespace characters, since
# `read_statements` blanks comments first. Only the module name may hold `$`;
# a gate kind may be in any case. A constant is spelled as the grammar takes
# it: 1'b0 or 1'b1 with `b` in either case and `\s` around the `'`, or a
# bare 0 or 1; a gate's output or an `assign`'s left side is never one.
# Every keyword is followed by `\b`, so `andx` or `wire1` is not read as a
# keyword and a name. Whatever else follows a token, in the token grammar
# it would end or extend that token, and here it fails the match.
_WS = r"[ \t\r\f\v\n]*+"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*+"
_NAME = rf"({_IDENT})"
_RANGE = rf"\[{_WS}([0-9]++){_WS}:{_WS}([0-9]++){_WS}\]{_WS}"
_SELECT = rf"{_IDENT}(?:{_WS}\[{_WS}[0-9]++{_WS}\])?"
_BIT = rf"({_SELECT})"
_CONN = rf"({_SELECT}|1\s*'\s*[bB][01]|[01])"
_HEADER_RE = re.compile(
    rf"{_WS}(module)\b{_WS}([A-Za-z_][A-Za-z0-9_$]*+){_WS}\({_WS}"
    rf"(\){_WS};)?{_WS}")
_PORT_RE = re.compile(
    rf"(input|output)\b{_WS}(?:{_RANGE})?{_NAME}{_WS}(?:(,)|\){_WS};){_WS}")
# A gate kind is tried in lower case before in any case: canonical text
# holds lower case, and a case-blind match is slower.
_GATE_RE = re.compile(
    rf"(and|or|not|xor|nand|dff|(?ai:and|or|not|xor|nand|dff))\b{_WS}{_NAME}"
    rf"{_WS}\({_WS}{_BIT}{_WS},{_WS}{_CONN}(?:{_WS},{_WS}{_CONN})?{_WS}\)"
    rf"{_WS};{_WS}")
_WIRE_RE = re.compile(
    rf"wire\b{_WS}(?:{_RANGE})?({_IDENT}(?:{_WS},{_WS}{_IDENT})*+){_WS};{_WS}")
_ASSIGN_RE = re.compile(rf"assign\b{_WS}{_BIT}{_WS}={_WS}{_CONN}{_WS};{_WS}")
_END_RE = re.compile(rf"endmodule{_WS}\Z")
# A comment, as the lexer skips one. `read_statements` blanks each to spaces,
# keeping its newlines, so every offset stays; an unterminated `/*` is left,
# and no reader pattern takes its `/`. The group makes `split` return each
# comment between the texts around it.
_COMMENT = r"//[^\n]*+|/\*.*?\*/"
_COMMENT_RE = re.compile(f"({_COMMENT})", re.DOTALL)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")
# The head of a sized constant. To the grammar a comment inside one is no
# trivia: `1'/**/b1` is an error there.
_SIZED_HEAD_RE = re.compile(r"1\s*'\s*[bB]")
_KEYWORDS = frozenset(BEHAVIORAL_KEYWORDS | STRUCTURAL_KEYWORDS
                      | GATE_KEYWORDS.keys())
# The most digits a bit index or range bound may have. No declaration can
# be that wide, and `int` refuses a string past its own digit limit.
_MAX_DIGITS = 18
# The most bits the ports and wires of one module may declare together. A
# seed design declares a few dozen; every declared bit gets a net before
# anything else is checked.
_MAX_BITS = 1 << 16
# The grammar's report on a text it finds no error in, should the statement
# reader ever give one up.
_NOT_READ = "text not read as a netlist"


@dataclass(frozen=True)
class ParseError:
    kind: str      # lex | syntax | behavioral-construct | unknown-primitive
    #              # | arity | width | duplicate-name
    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self) -> str:
        tok = f" near '{self.token}'" if self.token else ""
        return f"line {self.line} col {self.column} [{self.kind}] {self.message}{tok}"


@dataclass
class ParseResult:
    netlist: Netlist | None
    errors: list[ParseError] = field(default_factory=list)
    warnings: list[StructuralViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.netlist is not None


# A token is (kind, text, start offset); kind is one of ident | number |
# sized | punct | op | eq | bad | eof.
_Token = tuple[str, str, int]


def _lex(text: str) -> list[_Token]:
    """Tokenize arbitrary text; malformed input yields 'bad' tokens.

    An unterminated `/*` is one 'bad' token and ends the token stream. The
    'eof' token sits at the end of the text, or at the start of an
    unterminated `/*` or of a final `//` comment with no newline.
    """
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "eof":
            toks.append(("eof", "", start))
            break
        if kind == "open":
            toks += [("bad", "/*", start), ("eof", "", start)]
            break
        toks.append((kind, m[kind], start))
    return toks


class _Parser:
    """Two readers of one module, of which only the first builds a netlist.

    `read_statements` reads a text one statement per regex match and
    builds its netlist, which validates itself; `_violation_token` places
    a structural error. It takes every text the grammar reads without an
    error and reports only what it finds once the text is read. At the
    first thing it does not take it gives the text up, reporting nothing.
    `parse`, the token grammar, runs only on a text given up: a recursive
    descent over the token list of the whole text, which reports every
    error in it.

    In the grammar, punctuation and keywords are known by their text alone:
    no token of another kind has the text ';' or 'module'. Where the
    current token is known not to be 'eof', stepping past it is
    `self.pos += 1`; `advance` never steps past 'eof'.
    """

    def __init__(self, text: str):
        self.text = text
        # The token list; `read_statements` records only `module`'s, the
        # one token `_violation_token` reads from it.
        self.toks: list[_Token] = []
        self.pos = 0
        self.errors: list[ParseError] = []
        # The offset of each newline in the text, found at the first error.
        self.line_breaks: list[int] | None = None
        # Ports and wires share one table: name -> (token, width, lsb); a
        # name refused for its width has width 0. `declared_bits` counts
        # the bits entered.
        self.decls: dict[str, tuple[_Token, int, int]] = {}
        self.declared_bits = 0
        # Each instance name's start offset.
        self.instance_names: dict[str, int] = {}
        # The statement reader's alone: the module name, each declared
        # bit's net, by the bit's name, and each constant's, by its value
        # ('0' or '1'), as `~i` for the i-th read (`_read_net`).
        self.module_name = ""
        self.net_of: dict[str, int] = {}
        self.consts: dict[str, int] = {}

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def error(self, kind: str, tok: _Token, message: str) -> None:
        """Report an error at `tok`, placed by the newlines before its start."""
        _kind, text, start = tok
        if self.line_breaks is None:
            self.line_breaks = [m.start() for m in re.finditer("\n", self.text)]
        before = bisect_left(self.line_breaks, start)   # newlines before it
        column = start - (self.line_breaks[before - 1] if before else -1)
        self.errors.append(ParseError(kind, before + 1, column, message, text))

    def skip_statement(self, kind: str, message: str) -> None:
        """Report the current token, step past it and resync."""
        self.error(kind, self.advance(), message)
        self.resync()

    def resync(self) -> None:
        """Skip to just past the next ';' so later statements still parse."""
        while True:
            kind, text, _ = self.advance()
            if kind == "eof" or text == ";":
                return
            if text == "endmodule":
                self.pos -= 1
                return

    def expect_punct(self, text: str) -> _Token | None:
        t = self.toks[self.pos]
        if t[1] == text:
            self.pos += 1
            return t
        self.error("syntax", t, f"expected '{text}'")
        return None

    # -- grammar -----------------------------------------------------------

    def parse(self) -> ParseResult:
        """Report every error in a text `read_statements` gave up."""
        self.toks = _lex(self.text)
        kind, text, _ = t = self.toks[0]
        if text != "module":
            if text in BEHAVIORAL_KEYWORDS:
                self.error("behavioral-construct", t,
                           f"'{text}' is a behavioral construct; "
                           "only structural modules are accepted")
            elif kind == "bad":
                self.error("lex", t, "unrecognized character")
            else:
                self.error("syntax", t, "expected 'module'")
            return ParseResult(None, self.errors)

        kind, text, _ = name_tok = self.toks[1]
        if kind != "ident" or text in _KEYWORDS:
            self.error("syntax", name_tok, "expected module name")
            return ParseResult(None, self.errors)
        self.pos = 2

        if self.expect_punct("(") is None:
            return ParseResult(None, self.errors)
        self._port_list()
        if self.expect_punct(")") is None:
            return ParseResult(None, self.errors)
        if self.expect_punct(";") is None:
            self.resync()

        while True:
            t = self.toks[self.pos]
            if t[0] == "eof":
                self.error("syntax", t, "missing 'endmodule'")
                break
            if t[1] == "endmodule":
                self.pos += 1
                trailing = self.toks[self.pos]
                if trailing[0] != "eof":
                    self.error("syntax", trailing, "text after 'endmodule'")
                break
            self._statement()

        if not self.errors:
            # The statement reader takes every text this grammar reads
            # without an error; should it give one up, the text is still
            # refused with an error.
            self.error("syntax", self.toks[0], _NOT_READ)
        return ParseResult(None, self.errors)

    def _number(self) -> int | None:
        """Parse one bit index."""
        kind, text, _ = t = self.toks[self.pos]
        if kind != "number":
            self.error("syntax", t, "expected bit index")
            return None
        self.pos += 1
        if len(text) > _MAX_DIGITS:
            self.error("width", t, f"{len(text)}-digit number; a bit index "
                                   f"has at most {_MAX_DIGITS} digits")
            return None
        return int(text)

    def _range(self) -> tuple[int, int] | None:
        """Parse optional [msb:lsb]; returns (width, lsb)."""
        if self.toks[self.pos][1] != "[":
            return (1, 0)
        self.pos += 1
        msb_tok = self.toks[self.pos]
        msb = self._number()
        if msb is None or self.expect_punct(":") is None:
            return None
        lsb = self._number()
        if lsb is None or self.expect_punct("]") is None:
            return None
        if msb < lsb:
            self.error("width", msb_tok, f"descending range [{msb}:{lsb}]")
            return None
        return (msb - lsb + 1, lsb)

    def _port_list(self) -> None:
        if self.toks[self.pos][1] == ")":
            return
        while True:
            t = self.toks[self.pos]
            if t[1] in ("input", "output"):
                self.pos += 1
                rng = self._range()
                if rng is None:
                    return
                name_tok = self.toks[self.pos]
                if name_tok[0] != "ident" or not self._usable_name(name_tok):
                    self.error("syntax", name_tok, "expected port name")
                    return
                self.pos += 1
                self._declare(name_tok, *rng)
            elif t[1] == "inout":
                self.error("syntax", t, "inout ports are not supported")
                self.pos += 1
                return
            else:
                self.error("syntax", t, "expected 'input' or 'output'")
                return
            if self.toks[self.pos][1] != ",":
                return
            self.pos += 1

    def _declare(self, name_tok: _Token, width: int, lsb: int) -> None:
        """Enter a port or wire name, unless it is a duplicate. A name that
        takes the module past its bit limit is entered with width 0, so
        that its uses are skipped without a second report."""
        name = name_tok[1]
        if name in self.decls:
            self.error("duplicate-name", name_tok, f"'{name}' already declared")
            return
        if self.declared_bits + width > _MAX_BITS:
            self.error("width", name_tok,
                       f"'{name}' is {width} bits wide; a module declares at "
                       f"most {_MAX_BITS} bits")
            width = 0
        self.declared_bits += width
        self.decls[name] = (name_tok, width, lsb)

    def _usable_name(self, tok: _Token) -> bool:
        text = tok[1]
        if text in BEHAVIORAL_KEYWORDS:
            self.error("behavioral-construct", tok,
                       f"'{text}' is a banned behavioral construct")
            return False
        if text in _KEYWORDS:
            return False
        if "$" in text:
            self.error("syntax", tok, "system identifiers are not allowed")
            return False
        return True

    def _statement(self) -> None:
        kind, text, _ = self.toks[self.pos]
        if kind == "ident":
            if text in BEHAVIORAL_KEYWORDS:
                self.skip_statement("behavioral-construct",
                                    f"'{text}' is a banned behavioral construct")
            elif text == "wire":
                self._wire_decl()
            elif text == "assign":
                self._assign()
            elif text.lower() in GATE_KEYWORDS:
                self._instantiation(GATE_KEYWORDS[text.lower()])
            # Identifier statement: looks like an instantiation of something
            # outside the locked primitive set.
            elif self.toks[self.pos + 1][0] == "ident" \
                    or self.toks[self.pos + 1][1] == "(":
                self.skip_statement("unknown-primitive",
                                    f"'{text}' is not a locked gate primitive "
                                    "(allowed: and, or, not, xor, nand, dff)")
            else:
                self.skip_statement("syntax", "unexpected identifier")
        elif kind == "op":
            self.skip_statement("behavioral-construct",
                                f"operator '{text}' is not part of the structural language")
        elif kind == "bad":
            self.skip_statement("lex", "unrecognized character")
        else:
            self.skip_statement("syntax", "expected a statement")

    def _wire_decl(self) -> None:
        self.pos += 1  # 'wire'
        rng = self._range()
        if rng is None:
            self.resync()
            return
        while True:
            name_tok = self.toks[self.pos]
            if name_tok[0] != "ident" or not self._usable_name(name_tok):
                self.error("syntax", name_tok, "expected wire name")
                self.resync()
                return
            self.pos += 1
            self._declare(name_tok, *rng)
            t = self.toks[self.pos]
            if t[1] == ",":
                self.pos += 1
                continue
            if t[1] == ";":
                self.pos += 1
                return
            self.error("syntax", t, "expected ',' or ';'")
            self.resync()
            return

    def _connection(self, *, allow_const: bool) -> bool:
        """Parse one scalar connection; False once it reports an error, or
        at a name refused at its declaration."""
        kind, text, _ = t = self.toks[self.pos]
        # Common case: a declared scalar without a bit-select. Only
        # identifiers are declared, and never a keyword (`_usable_name`).
        decl = self.decls.get(text)
        if decl and decl[1] == 1 and self.toks[self.pos + 1][1] != "[":
            self.pos += 1
            return True
        if kind == "sized":
            self.pos += 1
            if "".join(text.split()) not in ("1'b0", "1'B0", "1'b1", "1'B1"):
                self.error("width", t,
                           "only 1'b0 and 1'b1 constants are allowed")
                return False
            if not allow_const:
                self.error("syntax", t, "constant cannot be driven")
                return False
            return True
        if kind == "number":
            self.pos += 1
            if text in ("0", "1") and allow_const:
                return True
            self.error("syntax", t, "bare numbers are not connections; use 1'b0 / 1'b1")
            return False
        if kind == "op":
            self.error("behavioral-construct", t,
                       f"operator '{text}' is not part of the structural language")
            return False
        if text in BEHAVIORAL_KEYWORDS:
            self.error("behavioral-construct", t,
                       f"'{text}' is a banned behavioral construct")
            return False
        if kind != "ident" or text in _KEYWORDS:
            self.error("syntax", t, "expected a net name")
            return False
        self.pos += 1
        if decl is None:
            self.error("syntax", t, f"'{text}' is not declared")
            return False
        _tok, width, lsb = decl
        if not width:
            # Refused at its declaration, which reported it.
            return False
        if self.toks[self.pos][1] != "[":
            self.error("width", t,
                       f"'{text}' is {width} bits wide; a scalar connection needs a bit-select")
            return False
        self.pos += 1
        idx_tok = self.toks[self.pos]
        idx = self._number()
        if idx is None or self.expect_punct("]") is None:
            return False
        if width == 1:
            self.error("width", idx_tok, f"'{text}' is scalar; bit-select not allowed")
            return False
        if not (lsb <= idx <= lsb + width - 1):
            self.error("width", idx_tok,
                       f"bit {idx} out of range for {text}[{lsb + width - 1}:{lsb}]")
            return False
        return True

    def _after_term_check(self) -> bool:
        """Reject a trailing operator, turning expressions into the banned class."""
        t = self.toks[self.pos]
        if t[0] == "op":
            self.error("behavioral-construct", t,
                       f"operator '{t[1]}' makes this an expression; "
                       "only plain net aliasing is allowed")
            return False
        return True

    def _assign(self) -> None:
        self.pos += 1  # 'assign'
        if not self._connection(allow_const=False):
            self.resync()
            return
        t = self.toks[self.pos]
        if t[0] != "eq":
            self.error("syntax", t, "expected '=' in assign")
            self.resync()
            return
        self.pos += 1
        if not self._connection(allow_const=True) \
                or not self._after_term_check() \
                or self.expect_punct(";") is None:
            self.resync()

    def _instantiation(self, kind: GateKind) -> None:
        kw = self.toks[self.pos]
        self.pos += 1
        name_tok = self.toks[self.pos]
        if name_tok[0] != "ident" or not self._usable_name(name_tok):
            self.error("syntax", name_tok, "expected instance name")
            self.resync()
            return
        self.pos += 1
        name = name_tok[1]
        if name in self.instance_names:
            self.error("duplicate-name", name_tok,
                       f"instance '{name}' already defined")
            self.resync()
            return
        self.instance_names[name] = name_tok[2]
        if self.expect_punct("(") is None:
            self.resync()
            return
        conns = 0
        while True:
            # Only the first connection, the output, may not be a constant.
            if not self._connection(allow_const=conns > 0) \
                    or not self._after_term_check():
                self.resync()
                return
            conns += 1
            t = self.toks[self.pos]
            if t[1] == ",":
                self.pos += 1
                continue
            if t[1] == ")":
                self.pos += 1
                break
            self.error("syntax", t, "expected ',' or ')'")
            self.resync()
            return
        if self.expect_punct(";") is None:
            self.resync()
            return
        if conns != kind.arity + 1:
            self.error("arity", kw,
                       f"{kind.value} takes {kind.arity} input(s) plus an output, "
                       f"got {conns} connection(s)")

    # -- statement reader ----------------------------------------------------

    def read_statements(self) -> ParseResult | None:
        """Read a text straight into a netlist; None at the first thing this
        reader does not accept, with nothing reported.

        It takes every text the grammar reads without an error. Comments
        are blanked to spaces first, keeping every offset, so each token it
        records keeps its start offset and an error is placed where the
        grammar would place it. Each declared bit gets its net as it is
        read, in claim order: input bits, then output bits, then wire bits as
        declared, then the constants in first-read order. An `assign`
        joins two nets; the joins are made once the text is read
        (`_join`)."""
        text = self.text
        if "/" in text:
            pieces = _COMMENT_RE.split(text)
            pieces[1::2] = [_NOT_NEWLINE_RE.sub(" ", c) if "\n" in c
                            else " " * len(c) for c in pieces[1::2]]
            text = "".join(pieces)
            if "'" in text and any(self.text[m.start():m.end()] != m[0]
                                   for m in _SIZED_HEAD_RE.finditer(text)):
                return None
        m = _HEADER_RE.match(text)
        if m is None or m[2] in _KEYWORDS:
            return None
        self.toks = [("ident", "module", m.start(1))]
        self.module_name = m[2]
        pos = m.end()
        heads: list[re.Match[str]] = []
        more = m[3] is None
        while more:
            m = _PORT_RE.match(text, pos)
            if m is None:
                return None
            heads.append(m)
            more = m[5]
            pos = m.end()
        nets: dict[int, Net] = {}
        # Ports in declaration order; input bits take the first nets, then
        # output bits: "input" sorts before "output".
        port_nets = dict.fromkeys(map(itemgetter(4), heads), ())
        for m in sorted(heads, key=itemgetter(1)):
            base = self._read_decl(nets, m[4], m.start(4), m[2], m[3])
            if base is None:
                return None
            port_nets[m[4]] = tuple(range(base, len(nets)))
        ports: list[Port] = []
        inputs = 0
        for m in heads:
            _tok, width, lsb = self.decls[m[4]]
            ports.append(Port(m[4], PortDir.IN if m[1] == "input"
                              else PortDir.OUT, width, lsb))
            if m[1] == "input":
                inputs += width
        read: list[tuple[GateKind, int, tuple[int, ...], str]] = []
        # Each dff's keyword and clock net, and each `assign`'s offset and
        # the two nets it joins.
        clocks: list[tuple[_Token, int]] = []
        joins: list[tuple[int, int, int]] = []
        while True:
            if m := _GATE_RE.match(text, pos):
                gate = self._read_gate(m, clocks)
                if gate is None:
                    return None
                read.append(gate)
            elif m := _WIRE_RE.match(text, pos):
                msb, lsb, names = m.groups()
                start = m.start(3)
                for piece in names.split(","):
                    name = piece.strip()
                    if self._read_decl(nets, name, start + piece.index(name),
                                       msb, lsb) is None:
                        return None
                    start += len(piece) + 1
            elif m := _ASSIGN_RE.match(text, pos):
                lhs, rhs = self._read_net(m[1]), self._read_net(m[2])
                if lhs is None or rhs is None:
                    return None
                joins.append((m.start(), lhs, rhs))
            else:
                break
            pos = m.end()
        if _END_RE.match(text, pos) is None:
            return None
        if self.consts or joins:
            # The constants' nets follow every wire's, in first-read order.
            # `net_id` maps each id read to its net: the i-th constant,
            # read as `~i`, indexes it from the end.
            base = len(nets)
            for value, k in self.consts.items():
                nets[base + ~k] = Net(base + ~k, f"1'b{value}", int(value))
            net_id = [*range(base), *reversed(range(base, len(nets)))]
            if joins:
                joined = self._join(nets, [(start, net_id[a], net_id[b])
                                           for start, a, b in joins])
                if joined is None:
                    return ParseResult(None, self.errors)
                net_id = [joined[n] for n in net_id]
                # Joining keeps the order of the classes' lowest ids, so
                # the input bits' nets still come first.
                inputs = len(set(net_id[:inputs]))
            read = [(kind, net_id[out], tuple([net_id[n] for n in ins]), name)
                    for kind, out, ins, name in read]
            clocks = [(kw, net_id[n]) for kw, n in clocks]
            port_nets = {name: tuple([net_id[n] for n in bits])
                         for name, bits in port_nets.items()}
        for kw, clock in clocks:
            if clock >= inputs:
                self.error("syntax", kw,
                           "dff clock must be a primary input port bit")
        if self.errors:
            return ParseResult(None, self.errors)
        gates = [Gate(*gate) for gate in read]
        try:
            netlist = Netlist(self.module_name, tuple(ports), nets,
                              tuple(gates), port_nets)
        except InvalidNetlistError as exc:
            for v in exc.violations:
                self.error("syntax",
                           self._violation_token(v, nets, ports, port_nets,
                                                 gates),
                           f"{v.kind}: {v.message}")
            return ParseResult(None, self.errors)
        return ParseResult(netlist, [], list(netlist.warnings))

    def _read_decl(self, nets: dict[int, Net], name: str, start: int,
                   msb: str | None, lsb: str | None) -> int | None:
        """Enter a port or wire as `_declare` does, with a net per bit from
        the next free id, and return the first; None where the grammar
        reports an error."""
        if name in _KEYWORDS or name in self.decls:
            return None
        width, low = 1, 0
        if msb is not None:
            if max(len(msb), len(lsb)) > _MAX_DIGITS:
                return None
            low = int(lsb)
            width = int(msb) - low + 1
            if width < 1:
                return None
        self.declared_bits += width
        if self.declared_bits > _MAX_BITS:
            return None
        base = len(nets)
        self.decls[name] = (("ident", name, start), width, low)
        if width == 1:
            nets[base] = Net(base, name)
            self.net_of[name] = base
        else:
            for i in range(width):
                bit = f"{name}[{low + i}]"
                nets[base + i] = Net(base + i, bit)
                self.net_of[bit] = base + i
        return base

    def _read_gate(self, m: re.Match[str], clocks: list[tuple[_Token, int]]
                   ) -> tuple[GateKind, int, tuple[int, ...], str] | None:
        """The gate `_GATE_RE` matched, as `Gate`'s fields; None where this
        reader gives the text up. A dff's keyword and clock net go on
        `clocks`."""
        gate, name, out, a, b = m.groups()
        kind = GATE_KEYWORDS[gate.lower()]
        if name in _KEYWORDS or name in self.instance_names \
                or kind.arity != (1 if b is None else 2):
            return None
        net = self._read_net
        output = net(out)
        ins = (net(a),) if b is None else (net(a), net(b))
        if output is None or None in ins:
            return None
        self.instance_names[name] = m.start(2)
        if kind is GateKind.DFF:
            clocks.append((("ident", gate, m.start(1)), ins[1]))
        return (kind, output, ins, name)

    def _read_net(self, conn: str) -> int | None:
        """The net of a connection: the net named as it is spelled, or a
        constant's, or that of a bit-select with whitespace or a leading
        zero in it; None for anything else, which the grammar reports. A
        constant's net is numbered once every wire is declared, so until
        then it is `~i` for the i-th constant read."""
        net = self.net_of.get(conn)
        if net is not None:
            return net
        if conn[0] in "01":
            return self.consts.setdefault(conn[-1], ~len(self.consts))
        name, _, index = "".join(conn.split()).partition("[")
        if index:
            if len(index) > _MAX_DIGITS + 1:    # the digits and ']'
                return None
            name = f"{name}[{int(index[:-1])}]"
        return self.net_of.get(name)

    def _join(self, nets: dict[int, Net], joins: list[tuple[int, int, int]]
              ) -> list[int] | None:
        """Join the nets each `assign` aliases, in text order, and renumber
        `nets` with one net per class; returns each old id's new id, or
        None once a join is refused.

        Ids are in claim order, so a class's lowest id is the bit that
        claims its net, and the net is named after that bit, or after the
        constant in the class. An `assign` that would join the class of
        1'b0 to that of 1'b1 is reported at its keyword, and not made."""
        parent = list(range(len(nets)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]    # path halving
                i = parent[i]
            return i

        consts = [n.id for n in nets.values() if n.value is not None]
        for start, a, b in joins:
            ra, rb = find(a), find(b)
            if ra != rb and len(consts) == 2 \
                    and {ra, rb} == {find(c) for c in consts}:
                self.error("syntax", ("ident", "assign", start),
                           "multi-driver: driven by constant 0 and constant 1")
                continue
            parent[max(ra, rb)] = min(ra, rb)
        if self.errors:
            return None
        # Each id's root in one pass: a join keeps the lower root and path
        # halving only lowers a parent, so parents precede ids.
        roots: list[int] = []
        for i, p in enumerate(parent):
            roots.append(i if p == i else roots[p])
        named = {roots[c]: nets[c] for c in consts}
        old = dict(nets)
        nets.clear()
        new_id: dict[int, int] = {}
        for i, root in enumerate(roots):
            if root == i:
                nid = new_id[i] = len(nets)
                net = named.get(i, old[i])
                nets[nid] = Net(nid, net.name, net.value)
        return [new_id[root] for root in roots]

    def _violation_token(self, v: StructuralViolation, nets: dict[int, Net],
                         ports: list[Port],
                         port_nets: dict[str, tuple[int, ...]],
                         gates: list[Gate]) -> _Token:
        """Where a structural error points: the declaration of the net
        `validate` names, and `module` for a combinational loop, which names
        none. A constant's net has no declaration, so a second driver of it
        is the place: the first input bit on it in port order, else the
        gate."""
        if v.net is None:
            return self.toks[0]
        net = nets[v.net]
        if net.value is None:
            return self.decls[net.name.split("[")[0]][0]
        for p in ports:
            if p.direction is PortDir.IN and v.net in port_nets[p.name]:
                return self.decls[p.name][0]
        name = next(g.name for g in gates if g.output == v.net)
        return ("ident", name, self.instance_names[name])


def parse(text: str) -> ParseResult:
    """Parse structural netlist text into the IR.

    Deterministic and total: any byte sequence yields either a netlist that
    satisfies every structural invariant, or one or more positioned errors.
    The parser builds the netlist's net, port and gate tables itself and
    constructs the `Netlist` from them, which validates it once, so it is
    returned validated, with its compiled fields set. A structural error
    points at the declaration of the net it names or, for a combinational
    loop, at `module`. A net joined to a constant and driven again points at
    that other driver: an input port's declaration or a gate's instance
    name.

    One reader builds every netlist: `_Parser.read_statements` reads the
    text one statement per regex match, comments, `assign` and every other
    form the language allows included, and numbers the nets as it reads
    them. A text it gives up holds an error, and the token grammar,
    `_Parser.parse`, reads it again only to report every error in it.
    """
    result = _Parser(text).read_statements()
    return _Parser(text).parse() if result is None else result


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.S)
# A module header, `module`, a name and `(` with trivia between, so that
# prose such as "this module is an AND" is not taken for a design. The trivia
# is possessive: a run of `/` or a `/*` could be split into comments in many
# ways, and trying each whenever a header fails later takes exponential time.
_GAP = rf"(?:\s|{_COMMENT})"
_MODULE_RE = re.compile(rf"\bmodule{_GAP}++[A-Za-z_][\w$]*+{_GAP}*+\(", re.S)
_MODULE_SPAN_RE = re.compile(_MODULE_RE.pattern + r".*?\bendmodule\b", re.S)


def extract_netlist_block(reply: str) -> str | None:
    """Pull the first code block with a module header out of a model reply.

    Fenced blocks are scanned in order; as a fallback a bare span from a
    module header to `endmodule` is accepted. Returns None when no
    candidate exists.
    """
    for m in _FENCE_RE.finditer(reply):
        body = m.group(1)
        if _MODULE_RE.search(body):
            return body.strip("\n")
    m = _MODULE_SPAN_RE.search(reply)
    if m:
        return m.group(0)
    return None


class RenderedFields(NamedTuple):
    """What `render` reads of a netlist, for text whose netlist is never
    built: extraction renders a cut of a design from the design's own
    compiled gates this way."""

    name: str
    ports: tuple[Port, ...]
    const_nets: tuple[tuple[int, int], ...]
    input_bits: tuple[tuple[str, int], ...]
    output_bits: tuple[tuple[str, int], ...]
    schedule: tuple[Gate, ...]
    registers: tuple[Gate, ...]


def render(netlist: Netlist | RenderedFields) -> str:
    """Emit canonical text for a netlist.

    Canonical choices: combinational gates in levelized order, registers
    after them; internal nets renamed w1..wk in first-use order; instance
    names renumbered g1..gN; aliased port bits emitted as assigns. The
    result re-parses to a graph-isomorphic netlist and rendering is a
    fixpoint: render(parse(render(n))) == render(n), as
    tests/test_round_trip.py checks.
    """
    names: dict[int, str] = {}
    assigns: list[tuple[str, int]] = []

    for nid, value in netlist.const_nets:
        names[nid] = f"1'b{value}"
    for bit, nid in netlist.input_bits + netlist.output_bits:
        if nid in names:
            assigns.append((bit, nid))  # alias to a constant or earlier bit
        else:
            names[nid] = bit

    wire_names: list[str] = []

    def claim(nid: int) -> str:
        if nid not in names:
            w = f"w{len(wire_names) + 1}"
            wire_names.append(w)
            names[nid] = w
        return names[nid]

    for g in netlist.schedule:
        for n in g.inputs:
            claim(n)
        claim(g.output)
    for g in netlist.registers:
        for n in (g.output, *g.inputs):
            claim(n)

    ports_text = ", ".join(p.declaration() for p in netlist.ports)
    lines = [f"module {netlist.name}({ports_text});"]
    for i in range(0, len(wire_names), 8):
        lines.append("  wire " + ", ".join(wire_names[i:i + 8]) + ";")
    for bit, nid in assigns:
        lines.append(f"  assign {bit} = {names[nid]};")
    for seq, g in enumerate(netlist.schedule + netlist.registers, 1):
        conns = ", ".join([names[g.output]] + [names[n] for n in g.inputs])
        lines.append(f"  {_GATE_TEXT[g.kind]} g{seq}({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
