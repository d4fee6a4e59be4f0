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
from dataclasses import dataclass, field

from .netlist import (
    Gate,
    GateKind,
    InvalidNetlistError,
    Net,
    NetKind,
    Netlist,
    Port,
    PortDir,
    StructuralViolation,
    compile_netlist,
)

GATE_KEYWORDS = {k.value: k for k in GateKind}

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

_OPERATORS = (
    "===", "!==", "<<<", ">>>", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "**", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", "@",
    "#", "<", ">",
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(r"[0-9]+")
_SIZED_RE = re.compile(r"[0-9]+\s*'\s*[bBdDhHoO][0-9a-fA-FxXzZ_]*")


@dataclass(frozen=True)
class SourceText:
    text: str
    origin: str = "<memory>"


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


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | number | sized | punct | op | eq | bad | eof
    text: str
    line: int
    column: int


def _lex(text: str) -> list[_Token]:
    """Tokenize arbitrary bytes; malformed input yields 'bad' tokens."""
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def emit(kind: str, s: str) -> None:
        toks.append(_Token(kind, s, line, col))

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                emit("bad", "/*")
                i = n
                continue
            skipped = text[i:j + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue
        m = _SIZED_RE.match(text, i)
        if m:
            emit("sized", m.group())
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            emit("ident", m.group())
            col += m.end() - i
            i = m.end()
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            emit("number", m.group())
            col += m.end() - i
            i = m.end()
            continue
        if c in "()[]:;,.{}":
            emit("punct", c)
            i += 1
            col += 1
            continue
        if c == "=":
            emit("eq", c)
            i += 1
            col += 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                emit("op", op)
                i += len(op)
                col += len(op)
                break
        else:
            emit("bad", c)
            i += 1
            col += 1
    toks.append(_Token("eof", "", line, col))
    return toks


@dataclass
class _NetRef:
    """A scalar net slot prior to alias resolution."""
    index: int


class _ModuleScope:
    """Declared names, bit slots and the alias union-find."""

    def __init__(self) -> None:
        self.ports: list[tuple[str, PortDir, int, int]] = []  # name, dir, width, lsb
        self.wires: dict[str, tuple[int, int]] = {}           # name -> (width, lsb)
        self.declared: dict[str, _Token] = {}
        self.slots: dict[tuple[str, int], int] = {}           # (name, bit idx) -> slot
        self.parent: list[int] = []
        self.const_slot: dict[int, int] = {}

    def new_slot(self) -> int:
        s = len(self.parent)
        self.parent.append(s)
        return s

    def find(self, s: int) -> int:
        while self.parent[s] != s:
            self.parent[s] = self.parent[self.parent[s]]
            s = self.parent[s]
        return s

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def declare(self, name: str, width: int, lsb: int) -> None:
        for i in range(width):
            self.slots[(name, lsb + i)] = self.new_slot()

    def const(self, value: int) -> int:
        if value not in self.const_slot:
            self.const_slot[value] = self.new_slot()
        return self.const_slot[value]


class _Parser:
    def __init__(self, source: SourceText):
        self.src = source
        self.toks = _lex(source.text)
        self.pos = 0
        self.errors: list[ParseError] = []
        self.scope = _ModuleScope()
        self.module_name = ""
        self.instances: list[tuple[GateKind, str, list[int], _Token]] = []
        self.instance_names: dict[str, _Token] = {}
        self.decl_pos: dict[str, _Token] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, kind: str, tok: _Token, message: str) -> None:
        self.errors.append(ParseError(kind, tok.line, tok.column, message, tok.text))

    def resync(self) -> None:
        """Skip to just past the next ';' so later statements still parse."""
        while True:
            t = self.advance()
            if t.kind == "eof":
                return
            if t.kind == "punct" and t.text == ";":
                return
            if t.kind == "ident" and t.text == "endmodule":
                self.pos -= 1
                return

    def expect_punct(self, text: str) -> _Token | None:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            return self.advance()
        self.error("syntax", t, f"expected '{text}'")
        return None

    # -- grammar -----------------------------------------------------------

    def parse(self) -> ParseResult:
        t = self.peek()
        if not (t.kind == "ident" and t.text == "module"):
            if t.kind == "ident" and t.text in BEHAVIORAL_KEYWORDS:
                self.error("behavioral-construct", t,
                           f"'{t.text}' is a behavioral construct; "
                           "only structural modules are accepted")
            elif t.kind == "bad":
                self.error("lex", t, "unrecognized character")
            else:
                self.error("syntax", t, "expected 'module'")
            return ParseResult(None, self.errors)
        self.advance()

        name_tok = self.peek()
        if name_tok.kind != "ident" or name_tok.text in BEHAVIORAL_KEYWORDS \
                or name_tok.text in STRUCTURAL_KEYWORDS or name_tok.text in GATE_KEYWORDS:
            self.error("syntax", name_tok, "expected module name")
            return ParseResult(None, self.errors)
        self.module_name = self.advance().text

        if self.expect_punct("(") is None:
            return ParseResult(None, self.errors)
        self._port_list()
        if self.expect_punct(")") is None:
            return ParseResult(None, self.errors)
        if self.expect_punct(";") is None:
            self.resync()

        while True:
            t = self.peek()
            if t.kind == "eof":
                self.error("syntax", t, "missing 'endmodule'")
                break
            if t.kind == "ident" and t.text == "endmodule":
                self.advance()
                trailing = self.peek()
                if trailing.kind != "eof":
                    self.error("syntax", trailing, "text after 'endmodule'")
                break
            self._statement()

        if self.errors:
            return ParseResult(None, self.errors)
        return self._finalize()

    def _range(self) -> tuple[int, int] | None:
        """Parse optional [msb:lsb]; returns (width, lsb)."""
        t = self.peek()
        if not (t.kind == "punct" and t.text == "["):
            return (1, 0)
        self.advance()
        msb_tok = self.peek()
        if msb_tok.kind != "number":
            self.error("syntax", msb_tok, "expected bit index")
            return None
        msb = int(self.advance().text)
        if self.expect_punct(":") is None:
            return None
        lsb_tok = self.peek()
        if lsb_tok.kind != "number":
            self.error("syntax", lsb_tok, "expected bit index")
            return None
        lsb = int(self.advance().text)
        if self.expect_punct("]") is None:
            return None
        if msb < lsb:
            self.error("width", msb_tok, f"descending range [{msb}:{lsb}]")
            return None
        return (msb - lsb + 1, lsb)

    def _port_list(self) -> None:
        if self.peek().kind == "punct" and self.peek().text == ")":
            return
        while True:
            t = self.peek()
            if t.kind == "ident" and t.text in ("input", "output"):
                direction = PortDir.IN if t.text == "input" else PortDir.OUT
                self.advance()
                rng = self._range()
                if rng is None:
                    return
                width, lsb = rng
                name_tok = self.peek()
                if name_tok.kind != "ident" or not self._usable_name(name_tok):
                    self.error("syntax", name_tok, "expected port name")
                    return
                self.advance()
                if name_tok.text in self.scope.declared:
                    self.error("duplicate-name", name_tok,
                               f"'{name_tok.text}' already declared")
                else:
                    self.scope.declared[name_tok.text] = name_tok
                    self.scope.ports.append((name_tok.text, direction, width, lsb))
                    self.scope.declare(name_tok.text, width, lsb)
                    self.decl_pos[name_tok.text] = name_tok
            elif t.kind == "ident" and t.text == "inout":
                self.error("syntax", t, "inout ports are not supported")
                self.advance()
                return
            else:
                self.error("syntax", t, "expected 'input' or 'output'")
                return
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == ",":
                self.advance()
                continue
            return

    def _usable_name(self, tok: _Token) -> bool:
        if tok.text in BEHAVIORAL_KEYWORDS:
            self.error("behavioral-construct", tok,
                       f"'{tok.text}' is a banned behavioral construct")
            return False
        if tok.text in STRUCTURAL_KEYWORDS or tok.text in GATE_KEYWORDS:
            return False
        if "$" in tok.text:
            self.error("syntax", tok, "system identifiers are not allowed")
            return False
        return True

    def _statement(self) -> None:
        t = self.peek()
        if t.kind == "ident":
            if t.text in BEHAVIORAL_KEYWORDS:
                self.error("behavioral-construct", t,
                           f"'{t.text}' is a banned behavioral construct")
                self.advance()
                self.resync()
                return
            if t.text == "wire":
                self._wire_decl()
                return
            if t.text == "assign":
                self._assign()
                return
            if t.text in GATE_KEYWORDS:
                self._instantiation(GATE_KEYWORDS[t.text])
                return
            if t.text.lower() in GATE_KEYWORDS:
                self._instantiation(GATE_KEYWORDS[t.text.lower()])
                return
            # Identifier statement: looks like an instantiation of something
            # outside the locked primitive set.
            if self.toks[self.pos + 1].kind == "ident" or (
                    self.toks[self.pos + 1].kind == "punct"
                    and self.toks[self.pos + 1].text == "("):
                self.error("unknown-primitive", t,
                           f"'{t.text}' is not a locked gate primitive "
                           "(allowed: and, or, not, xor, nand, dff)")
                self.advance()
                self.resync()
                return
            self.error("syntax", t, "unexpected identifier")
            self.advance()
            self.resync()
            return
        if t.kind == "op":
            self.error("behavioral-construct", t,
                       f"operator '{t.text}' is not part of the structural language")
            self.advance()
            self.resync()
            return
        if t.kind == "bad":
            self.error("lex", t, "unrecognized character")
            self.advance()
            self.resync()
            return
        self.error("syntax", t, "expected a statement")
        self.advance()
        self.resync()

    def _wire_decl(self) -> None:
        self.advance()  # 'wire'
        rng = self._range()
        if rng is None:
            self.resync()
            return
        width, lsb = rng
        while True:
            name_tok = self.peek()
            if name_tok.kind != "ident" or not self._usable_name(name_tok):
                self.error("syntax", name_tok, "expected wire name")
                self.resync()
                return
            self.advance()
            if name_tok.text in self.scope.declared:
                self.error("duplicate-name", name_tok,
                           f"'{name_tok.text}' already declared")
            else:
                self.scope.declared[name_tok.text] = name_tok
                self.scope.wires[name_tok.text] = (width, lsb)
                self.scope.declare(name_tok.text, width, lsb)
                self.decl_pos[name_tok.text] = name_tok
            t = self.peek()
            if t.kind == "punct" and t.text == ",":
                self.advance()
                continue
            if t.kind == "punct" and t.text == ";":
                self.advance()
                return
            self.error("syntax", t, "expected ',' or ';'")
            self.resync()
            return

    def _connection(self, *, allow_const: bool) -> int | None:
        """Parse one scalar connection; returns its slot."""
        t = self.peek()
        if t.kind == "sized":
            self.advance()
            value = self._const_value(t)
            if value is None:
                return None
            if not allow_const:
                self.error("syntax", t, "constant cannot be driven")
                return None
            return self.scope.const(value)
        if t.kind == "number":
            self.advance()
            if t.text in ("0", "1") and allow_const:
                return self.scope.const(int(t.text))
            self.error("syntax", t, "bare numbers are not connections; use 1'b0 / 1'b1")
            return None
        if t.kind == "op":
            self.error("behavioral-construct", t,
                       f"operator '{t.text}' is not part of the structural language")
            return None
        if t.kind != "ident" or t.text in STRUCTURAL_KEYWORDS or t.text in GATE_KEYWORDS:
            if t.kind == "ident" and t.text in BEHAVIORAL_KEYWORDS:
                self.error("behavioral-construct", t,
                           f"'{t.text}' is a banned behavioral construct")
            else:
                self.error("syntax", t, "expected a net name")
            return None
        if t.text in BEHAVIORAL_KEYWORDS:
            self.error("behavioral-construct", t,
                       f"'{t.text}' is a banned behavioral construct")
            return None
        self.advance()
        name = t.text
        if name not in self.scope.declared:
            self.error("syntax", t, f"'{name}' is not declared")
            return None
        width, lsb = self._shape_of(name)
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text == "[":
            self.advance()
            idx_tok = self.peek()
            if idx_tok.kind != "number":
                self.error("syntax", idx_tok, "expected bit index")
                return None
            self.advance()
            idx = int(idx_tok.text)
            if self.expect_punct("]") is None:
                return None
            if width == 1:
                self.error("width", idx_tok, f"'{name}' is scalar; bit-select not allowed")
                return None
            if not (lsb <= idx <= lsb + width - 1):
                self.error("width", idx_tok,
                           f"bit {idx} out of range for {name}[{lsb + width - 1}:{lsb}]")
                return None
            return self.scope.slots[(name, idx)]
        if width != 1:
            self.error("width", t,
                       f"'{name}' is {width} bits wide; a scalar connection needs a bit-select")
            return None
        return self.scope.slots[(name, lsb)]

    def _const_value(self, tok: _Token) -> int | None:
        text = tok.text.replace(" ", "")
        if text in ("1'b0", "1'B0"):
            return 0
        if text in ("1'b1", "1'B1"):
            return 1
        self.error("width", tok, "only 1'b0 and 1'b1 constants are allowed")
        return None

    def _shape_of(self, name: str) -> tuple[int, int]:
        for pname, _d, width, lsb in self.scope.ports:
            if pname == name:
                return (width, lsb)
        return self.scope.wires[name]

    def _after_term_check(self) -> bool:
        """Reject a trailing operator, turning expressions into the banned class."""
        t = self.peek()
        if t.kind == "op":
            self.error("behavioral-construct", t,
                       f"operator '{t.text}' makes this an expression; "
                       "only plain net aliasing is allowed")
            return False
        return True

    def _assign(self) -> None:
        kw = self.advance()  # 'assign'
        lhs = self._connection(allow_const=False)
        if lhs is None:
            self.resync()
            return
        t = self.peek()
        if t.kind != "eq":
            self.error("syntax", t, "expected '=' in assign")
            self.resync()
            return
        self.advance()
        rhs = self._connection(allow_const=True)
        if rhs is None:
            self.resync()
            return
        if not self._after_term_check():
            self.resync()
            return
        if self.expect_punct(";") is None:
            self.resync()
            return
        del kw
        self.scope.union(lhs, rhs)

    def _instantiation(self, kind: GateKind) -> None:
        kw = self.advance()
        name_tok = self.peek()
        if name_tok.kind != "ident" or not self._usable_name(name_tok):
            self.error("syntax", name_tok, "expected instance name")
            self.resync()
            return
        self.advance()
        if name_tok.text in self.instance_names:
            self.error("duplicate-name", name_tok,
                       f"instance '{name_tok.text}' already defined")
            self.resync()
            return
        self.instance_names[name_tok.text] = name_tok
        if self.expect_punct("(") is None:
            self.resync()
            return
        conns: list[int] = []
        first = True
        while True:
            conn = self._connection(allow_const=not first)
            if conn is None:
                self.resync()
                return
            if not self._after_term_check():
                self.resync()
                return
            conns.append(conn)
            t = self.peek()
            first = False
            if t.kind == "punct" and t.text == ",":
                self.advance()
                continue
            if t.kind == "punct" and t.text == ")":
                self.advance()
                break
            self.error("syntax", t, "expected ',' or ')'")
            self.resync()
            return
        if self.expect_punct(";") is None:
            self.resync()
            return
        want = kind.arity + 1
        if len(conns) != want:
            self.error("arity", kw,
                       f"{kind.value} takes {kind.arity} input(s) plus an output, "
                       f"got {len(conns)} connection(s)")
            return
        self.instances.append((kind, name_tok.text, conns, kw))

    # -- finalization --------------------------------------------------------

    def _finalize(self) -> ParseResult:
        scope = self.scope
        nets: dict[int, Net] = {}
        next_net = 0

        def make_net(kind: NetKind, name: str | None) -> int:
            nonlocal next_net
            nid = next_net
            next_net += 1
            nets[nid] = Net(nid, kind, name)
            return nid

        # One net per alias class. Classes containing a constant become that
        # constant's net; classes containing an input bit take the input's
        # identity; the rest become internal or output nets.
        const_roots = {scope.find(slot): value
                       for value, slot in scope.const_slot.items()}
        class_net: dict[int, int] = {}

        def materialize(slot: int, kind: NetKind, name: str | None) -> int:
            root = scope.find(slot)
            if root not in class_net:
                if root in const_roots:
                    value = const_roots[root]
                    ckind = NetKind.CONST1 if value else NetKind.CONST0
                    class_net[root] = make_net(ckind, f"1'b{value}")
                else:
                    class_net[root] = make_net(kind, name)
            return class_net[root]

        # Inputs claim their class first, then outputs, then wires; the port
        # list itself keeps declaration order.
        ports = [Port(pname, d, width, lsb)
                 for pname, d, width, lsb in scope.ports]
        port_nets: dict[str, tuple[int, ...]] = {}
        for p in ports:
            if p.direction is PortDir.IN:
                port_nets[p.name] = tuple(
                    materialize(scope.slots[(p.name, p.lsb + i)],
                                NetKind.PRIMARY_INPUT, p.bit_name(i))
                    for i in range(p.width))
        for p in ports:
            if p.direction is PortDir.OUT:
                port_nets[p.name] = tuple(
                    materialize(scope.slots[(p.name, p.lsb + i)],
                                NetKind.PRIMARY_OUTPUT, p.bit_name(i))
                    for i in range(p.width))
        for wname, (width, lsb) in scope.wires.items():
            for i in range(width):
                materialize(scope.slots[(wname, lsb + i)], NetKind.INTERNAL,
                            wname if width == 1 else f"{wname}[{lsb + i}]")

        input_bit_nets = {n for p in ports if p.direction is PortDir.IN
                          for n in port_nets[p.name]}

        gates: list[Gate] = []
        for kind, iname, conns, kw in self.instances:
            out = materialize(conns[0], NetKind.INTERNAL, None)
            ins = tuple(materialize(c, NetKind.INTERNAL, None)
                        for c in conns[1:])
            if kind is GateKind.DFF and ins[1] not in input_bit_nets:
                self.error("syntax", kw,
                           "dff clock must be a primary input port bit")
                continue
            gates.append(Gate(kind, out, ins, iname))

        if self.errors:
            return ParseResult(None, self.errors)

        netlist = Netlist(self.module_name, tuple(ports), nets,
                          tuple(gates), port_nets)
        try:
            compiled = compile_netlist(netlist)
        except InvalidNetlistError as exc:
            for v in exc.violations:
                tok = self._violation_token(v)
                self.errors.append(ParseError(
                    "syntax", tok.line, tok.column,
                    f"{v.kind}: {v.message}", tok.text))
            return ParseResult(None, self.errors)
        return ParseResult(netlist, [], list(compiled.warnings))

    def _violation_token(self, v: StructuralViolation) -> _Token:
        name = v.where.split()[-1].split("[")[0]
        tok = self.instance_names.get(name) or self.decl_pos.get(name)
        if tok is None:
            return self.toks[0]
        return tok


def parse(source: SourceText | str) -> ParseResult:
    """Parse structural netlist text into the IR.

    Deterministic and total: any byte sequence yields either a netlist that
    satisfies every structural invariant, or one or more positioned errors.
    """
    if isinstance(source, str):
        source = SourceText(source)
    return _Parser(source).parse()


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.S)
_MODULE_SPAN_RE = re.compile(r"\bmodule\b.*?\bendmodule\b", re.S)
_MODULE_RE = re.compile(r"\bmodule\b")


def extract_netlist_block(reply: str, origin: str = "llm-reply") -> SourceText | None:
    """Pull the first code block with a module header out of a model reply.

    Fenced blocks are scanned in order; as a fallback a bare
    module...endmodule span is accepted. Returns None when no candidate
    exists.
    """
    for m in _FENCE_RE.finditer(reply):
        body = m.group(1)
        if _MODULE_RE.search(body):
            return SourceText(body.strip("\n"), origin)
    m = _MODULE_SPAN_RE.search(reply)
    if m:
        return SourceText(m.group(0), origin)
    return None


def render(netlist: Netlist) -> str:
    """Emit canonical text for a netlist.

    Canonical choices: combinational gates in levelized order, registers
    after them; internal nets renamed w1..wk in first-use order; instance
    names renumbered g1..gN; aliased port bits emitted as assigns. The
    result re-parses to a graph-isomorphic netlist and rendering is a
    fixpoint: render(parse(render(n))) == render(n).
    """
    compiled = compile_netlist(netlist)

    names: dict[int, str] = {}
    assigns: list[tuple[str, int]] = []

    for nid, value in compiled.const_nets:
        names[nid] = f"1'b{value}"
    for p in netlist.input_ports():
        for i, nid in enumerate(netlist.port_nets[p.name]):
            bit = p.bit_name(i)
            if nid in names:
                assigns.append((bit, nid))  # input aliased to an earlier input
            else:
                names[nid] = bit
    for p in netlist.output_ports():
        for i, nid in enumerate(netlist.port_nets[p.name]):
            bit = p.bit_name(i)
            if nid in names:
                assigns.append((bit, nid))  # alias to an input, const or twin
            else:
                names[nid] = bit

    wire_names: list[str] = []

    def claim(nid: int) -> str:
        if nid not in names:
            w = f"w{len(wire_names) + 1}"
            wire_names.append(w)
            names[nid] = w
        return names[nid]

    for g in compiled.schedule:
        for n in g.inputs:
            claim(n)
        claim(g.output)
    for g in compiled.registers:
        for n in (g.output, *g.inputs):
            claim(n)

    ports_text = ", ".join(
        f"{'input' if p.direction is PortDir.IN else 'output'}"
        + (f" [{p.msb}:{p.lsb}]" if p.width > 1 else "")
        + f" {p.name}"
        for p in netlist.ports
    )
    lines = [f"module {netlist.name}({ports_text});"]
    for i in range(0, len(wire_names), 8):
        lines.append("  wire " + ", ".join(wire_names[i:i + 8]) + ";")
    for bit, nid in assigns:
        lines.append(f"  assign {bit} = {names[nid]};")
    for seq, g in enumerate(compiled.schedule + compiled.registers, 1):
        conns = ", ".join([names[g.output]] + [names[n] for n in g.inputs])
        lines.append(f"  {g.kind.value} g{seq}({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
