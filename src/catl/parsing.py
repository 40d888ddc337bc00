"""Parser for the textual specification grammar.

Both layers share one grammar; only the leaf rule differs (EBNF)::

    formula   := or ;
    or        := and { "|" and } ;
    and       := until { "&" until } ;
    until     := unary [ "U" interval unary ] ;
    unary     := "!" unary | "F" interval unary | "G" interval unary | atom ;
    atom      := "true" | leaf | "(" or ")" ;
    interval  := "[" INT "," INT "]" ;

    leaf      := predicate            (inner formulas, one agent)
               | task [ "@" INT ] ;   (outer formulas, the team)
    predicate := "in" "(" IDENT ")" | "halfplane" "(" NUM "," NUM "," NUM ")" ;
    task      := "task" "(" inner formula "," IDENT "," INT ")" ;
    NUM       := [ "-" ] ( INT | FLOAT ) ;

``&``/``|`` chains at one level collapse into a single n-ary node;
parentheses preserve nesting, so pretty-printed formulas reparse to
structurally identical ASTs. Until is non-associative: chains need explicit
parentheses. A task's inner formula cannot contain a task, and a team
formula cannot contain a bare predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formulas import (
    HalfPlane,
    IAlways,
    IAnd,
    IEventually,
    INot,
    InnerFormula,
    InRegion,
    IOr,
    ITrue,
    IUntil,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OOr,
    OTrue,
    OuterFormula,
    OUntil,
    SpecError,
    Task,
    TimedTask,
)
from .geometry import Region

_KEYWORDS = {"true", "task", "in", "halfplane", "U", "F", "G"}
_PUNCT = "()[],&|!@"


class SpecSyntaxError(SpecError):
    """Parse failure carrying 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, INT, FLOAT, punctuation char, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _PUNCT or ch == "-":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():  # not isdigit: int() cannot read a digit like '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            is_float = j < n and text[j] == "."
            if is_float:
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            word = text[i:j]
            tokens.append(_Token("FLOAT" if is_float else "INT", word, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(
        self,
        text: str,
        regions: dict[str, Region] | None = None,
        capabilities: list[str] | None = None,
    ):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.regions = regions
        self.capabilities = capabilities

    # -- token plumbing --

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SpecSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> SpecSyntaxError:
        tok = self.peek()
        return SpecSyntaxError(message, tok.line, tok.col)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    # -- shared pieces --

    def interval(self) -> tuple[int, int]:
        self.expect("[")
        tok_a = self.expect("INT")
        a = int(tok_a.text)
        self.expect(",")
        tok_b = self.expect("INT")
        b = int(tok_b.text)
        self.expect("]")
        if b < a:
            raise SpecSyntaxError(f"reversed interval [{a},{b}]", tok_a.line, tok_a.col)
        return a, b

    def number(self) -> float:
        sign = 1.0
        if self.peek().kind == "-":
            self.next()
            sign = -1.0
        tok = self.peek()
        if tok.kind not in ("INT", "FLOAT"):
            raise self.error("expected a number")
        self.next()
        return sign * float(tok.text)

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in _KEYWORDS:
            raise self.error(f"expected {what}")
        return self.next().text

    # -- one grammar for both layers --

    def parse_or(self, layer: "_Layer"):
        return self.chain(layer, layer.or_, self.parse_and)

    def parse_and(self, layer: "_Layer"):
        return self.chain(layer, layer.and_, self.parse_until)

    def chain(self, layer: "_Layer", node, operand):
        """operand { symbol operand }, collapsed into one n-ary node."""
        parts = [operand(layer)]
        while self.peek().kind == node.symbol:
            self.next()
            parts.append(operand(layer))
        return node.of(parts, None)

    def parse_until(self, layer: "_Layer"):
        left = self.parse_unary(layer)
        if self.at_keyword("U"):
            self.next()
            a, b = self.interval()
            right = self.parse_unary(layer)
            return layer.until(left, right, a, b)
        return left

    def parse_unary(self, layer: "_Layer"):
        if self.peek().kind == "!":
            self.next()
            return layer.not_(self.parse_unary(layer))
        for node in (layer.eventually, layer.always):
            if self.at_keyword(node.symbol):
                self.next()
                a, b = self.interval()
                return node(self.parse_unary(layer), a, b)
        return self.parse_atom(layer)

    def parse_atom(self, layer: "_Layer"):
        if self.peek().kind == "(":
            self.next()
            phi = self.parse_or(layer)
            self.expect(")")
            return phi
        if self.at_keyword("true"):
            self.next()
            return layer.true()
        return layer.leaf(self)

    # -- leaf rules: the last alternative of atom, so they report its error --

    def predicate(self) -> InnerFormula:
        tok = self.peek()
        if self.at_keyword("in"):
            self.next()
            self.expect("(")
            name = self.ident("a region name")
            self.expect(")")
            pred = InRegion(name)
            if self.regions is not None:
                if name not in self.regions:
                    raise SpecSyntaxError(f"unknown region {name!r}", tok.line, tok.col)
                pred = pred.bound(self.regions)
            return pred
        if self.at_keyword("halfplane"):
            self.next()
            self.expect("(")
            nx = self.number()
            self.expect(",")
            ny = self.number()
            self.expect(",")
            c = self.number()
            self.expect(")")
            return HalfPlane((nx, ny), c)
        raise self.error("expected an inner formula")

    def task(self) -> OuterFormula:
        if not self.at_keyword("task"):
            raise self.error("expected a team formula")
        self.next()
        self.expect("(")
        inner = self.parse_or(_INNER)
        self.expect(",")
        cap_tok = self.peek()
        cap_name = self.ident("a capability name")
        self.expect(",")
        m_tok = self.expect("INT")
        m = int(m_tok.text)
        self.expect(")")
        if m < 1:
            raise SpecSyntaxError(f"task count must be >= 1, got {m}", m_tok.line, m_tok.col)
        if self.capabilities is not None and cap_name not in self.capabilities:
            raise SpecSyntaxError(f"unknown capability {cap_name!r}", cap_tok.line, cap_tok.col)
        task = Task(inner, cap_name, m)
        if self.peek().kind == "@":
            self.next()
            t_tok = self.expect("INT")
            return TimedTask(task, int(t_tok.text))
        return task


@dataclass(frozen=True)
class _Layer:
    """Node classes and leaf rule that instantiate the grammar for one layer."""

    true: type
    not_: type
    and_: type
    or_: type
    until: type
    eventually: type
    always: type
    leaf: Callable  # _Parser method parsing the layer's leaf node


_INNER = _Layer(ITrue, INot, IAnd, IOr, IUntil, IEventually, IAlways, _Parser.predicate)
_OUTER = _Layer(OTrue, ONot, OAnd, OOr, OUntil, OEventually, OAlways, _Parser.task)


def parse_spec(
    text: str,
    regions: dict[str, Region] | None = None,
    capabilities: list[str] | None = None,
) -> OuterFormula:
    """Parse a team-level specification.

    With ``regions``/``capabilities`` given, region predicates are bound to
    geometry and capability names validated against the vocabulary; unknown
    names raise :class:`SpecSyntaxError` with position info.
    """
    parser = _Parser(text, regions, capabilities)
    phi = parser.parse_or(_OUTER)
    parser.expect("EOF")
    return phi


def parse_inner(
    text: str,
    regions: dict[str, Region] | None = None,
) -> InnerFormula:
    """Parse a single-agent formula (predicate level)."""
    parser = _Parser(text, regions)
    phi = parser.parse_or(_INNER)
    parser.expect("EOF")
    return phi
