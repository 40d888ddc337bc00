"""Parser for the textual specification grammar.

Surface syntax (EBNF)::

    outer   := or ;           or  := and { "|" and } ;
    and     := until { "&" until } ;
    until   := unary [ "U" "[" INT "," INT "]" unary ] ;
    unary   := "!" unary | "F" interval unary | "G" interval unary | atom ;
    atom    := "true" | task [ "@" INT ] | "(" or ")" ;
    task    := "task" "(" inner "," IDENT "," INT ")" ;

The inner grammar is identical except that the ``task`` atom is replaced by
the predicates ``in(Name)`` and ``halfplane(nx,ny,c)``. ``&``/``|`` chains at
one level collapse into a single n-ary node; parentheses preserve nesting,
so pretty-printed formulas reparse to structurally identical ASTs. Until is
non-associative: chains need explicit parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    Capability,
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
    Predicate,
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = j < n and text[j] == "."
            if is_float:
                j += 1
                while j < n and text[j].isdigit():
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

    # -- inner grammar --

    def inner(self) -> InnerFormula:
        return self.inner_or()

    def inner_or(self) -> InnerFormula:
        parts = [self.inner_and()]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.inner_and())
        return parts[0] if len(parts) == 1 else IOr(tuple(parts))

    def inner_and(self) -> InnerFormula:
        parts = [self.inner_until()]
        while self.peek().kind == "&":
            self.next()
            parts.append(self.inner_until())
        return parts[0] if len(parts) == 1 else IAnd(tuple(parts))

    def inner_until(self) -> InnerFormula:
        left = self.inner_unary()
        if self.at_keyword("U"):
            self.next()
            a, b = self.interval()
            right = self.inner_unary()
            return IUntil(left, right, a, b)
        return left

    def inner_unary(self) -> InnerFormula:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return INot(self.inner_unary())
        if self.at_keyword("F"):
            self.next()
            a, b = self.interval()
            return IEventually(self.inner_unary(), a, b)
        if self.at_keyword("G"):
            self.next()
            a, b = self.interval()
            return IAlways(self.inner_unary(), a, b)
        return self.inner_atom()

    def inner_atom(self) -> InnerFormula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            phi = self.inner_or()
            self.expect(")")
            return phi
        if self.at_keyword("true"):
            self.next()
            return ITrue()
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
            return Predicate(pred)
        if self.at_keyword("halfplane"):
            self.next()
            self.expect("(")
            nx = self.number()
            self.expect(",")
            ny = self.number()
            self.expect(",")
            c = self.number()
            self.expect(")")
            return Predicate(HalfPlane((nx, ny), c))
        raise self.error("expected an inner formula")

    # -- outer grammar --

    def outer(self) -> OuterFormula:
        return self.outer_or()

    def outer_or(self) -> OuterFormula:
        parts = [self.outer_and()]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.outer_and())
        return parts[0] if len(parts) == 1 else OOr(tuple(parts))

    def outer_and(self) -> OuterFormula:
        parts = [self.outer_until()]
        while self.peek().kind == "&":
            self.next()
            parts.append(self.outer_until())
        return parts[0] if len(parts) == 1 else OAnd(tuple(parts))

    def outer_until(self) -> OuterFormula:
        left = self.outer_unary()
        if self.at_keyword("U"):
            self.next()
            a, b = self.interval()
            right = self.outer_unary()
            return OUntil(left, right, a, b)
        return left

    def outer_unary(self) -> OuterFormula:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return ONot(self.outer_unary())
        if self.at_keyword("F"):
            self.next()
            a, b = self.interval()
            return OEventually(self.outer_unary(), a, b)
        if self.at_keyword("G"):
            self.next()
            a, b = self.interval()
            return OAlways(self.outer_unary(), a, b)
        return self.outer_atom()

    def outer_atom(self) -> OuterFormula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            phi = self.outer_or()
            self.expect(")")
            return phi
        if self.at_keyword("true"):
            self.next()
            return OTrue()
        if self.at_keyword("task"):
            self.next()
            self.expect("(")
            inner = self.inner()
            self.expect(",")
            cap_tok = self.peek()
            cap_name = self.ident("a capability name")
            self.expect(",")
            m_tok = self.expect("INT")
            m = int(m_tok.text)
            self.expect(")")
            if m < 1:
                raise SpecSyntaxError(f"task count must be >= 1, got {m}", m_tok.line, m_tok.col)
            index = -1
            if self.capabilities is not None:
                if cap_name not in self.capabilities:
                    raise SpecSyntaxError(f"unknown capability {cap_name!r}",
                                          cap_tok.line, cap_tok.col)
                index = self.capabilities.index(cap_name)
            task = Task(inner, Capability(cap_name, index), m)
            if self.peek().kind == "@":
                self.next()
                t_tok = self.expect("INT")
                return TimedTask(task, int(t_tok.text))
            return task
        raise self.error("expected a team formula")


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
    phi = parser.outer()
    parser.expect("EOF")
    return phi


def parse_inner(
    text: str,
    regions: dict[str, Region] | None = None,
) -> InnerFormula:
    """Parse a single-agent formula (predicate level)."""
    parser = _Parser(text, regions)
    phi = parser.inner()
    parser.expect("EOF")
    return phi
