"""Textual syntax for objects and arrow terms.

Objects::

    object := letter | "T" | "(" object "*" object ")"
    letter := [a-z][a-z0-9_]*

with the outer parentheses optional at top level and the unicode product
sign accepted as a synonym for "*".  Arrows::

    arrow := "id{" object "}" | "p1{" object "," object "}"
           | "p2{" object "," object "}" | "bang{" object "}"
           | "<" arrow "," arrow ">" | arrow "." arrow | "(" arrow ")"
           | macro
    macro := "assoc_r{A,B,C}" | "assoc_l{A,B,C}" | "swap{A,B}" | "dup{A}"
           | "sigma{A}" | "delta{A}" | "prod(" arrow "," arrow ")"

"f . g" denotes the composite applying g first; since composition is
stored flat, the grouping of chained dots is immaterial.  "#" starts a
line comment.

Parsed arrows are typed as they are built: a pairing or composition
whose parts do not fit is reported as soon as it is read, before any
later syntax error and before the check of the mode, which runs on the
whole arrow once it has been read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FreecartError, ModeViolation, TypeMismatch
from .terms import (
    ArrowTerm,
    Bang,
    Compose,
    DERIVED,
    Identity,
    Letter,
    LetterObj,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    compose,
    derived_arrow,
    product_of_arrows,
    typecheck,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    span: tuple[int, int]
    message: str

    def render(self, origin: str = "<input>") -> str:
        lo, hi = self.span
        return f"{origin}:{lo}-{hi}: {self.severity}: {self.message}"


class ParseError(FreecartError):
    def __init__(self, diagnostic: Diagnostic, origin: str = "<input>"):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic
        self.origin = origin


_SYMBOLS = {"{", "}", "(", ")", "<", ">", ",", ".", "*"}

# The primitive arrows by name: their class and how many objects they take.
_PRIMITIVES = {"id": (Identity, 1), "p1": (Proj1, 2), "p2": (Proj2, 2), "bang": (Bang, 1)}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "terminal", a symbol, or "eof"
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "×":
            tokens.append(_Token("*", "*", i, i + 1))
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(_Token(c, c, i, i + 1))
            i += 1
            continue
        if c == "T":
            tokens.append(_Token("terminal", "T", i, i + 1))
            i += 1
            continue
        if "a" <= c <= "z":
            j = i + 1
            while j < n and ("a" <= text[j] <= "z" or "0" <= text[j] <= "9" or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i, j))
            i = j
            continue
        raise ParseError(
            Diagnostic("error", (i, i + 1), f"unexpected character {c!r}")
        )
    tokens.append(_Token("eof", "", n, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text!r}" if tok.kind != "eof" else f"expected {kind!r}, found end of input", tok)
        return self.advance()

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        span = (tok.start, tok.end) if tok.end > tok.start else (tok.start, tok.start)
        raise ParseError(Diagnostic("error", span, message))

    # -- objects ----------------------------------------------------------

    def object_atom(self) -> ObjectExpr:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return LetterObj(Letter(tok.text))
        if tok.kind == "terminal":
            self.advance()
            return Terminal()
        if tok.kind == "(":
            self.advance()
            left = self.object_atom()
            self.expect("*")
            right = self.object_atom()
            self.expect(")")
            return Product(left, right)
        self.fail("expected an object")

    def object_top(self) -> ObjectExpr:
        left = self.object_atom()
        if self.peek().kind == "*":
            self.advance()
            right = self.object_atom()
            return Product(left, right)
        return left

    # -- arrows -----------------------------------------------------------

    def braced_objects(self, count: int) -> list[ObjectExpr]:
        self.expect("{")
        objs = [self.object_top()]
        while len(objs) < count:
            self.expect(",")
            objs.append(self.object_top())
        self.expect("}")
        return objs

    def arrow_item(self) -> ArrowTerm:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.arrow()
            self.expect(")")
            return inner
        if tok.kind == "<":
            self.advance()
            first = self.arrow()
            self.expect(",")
            second = self.arrow()
            self.expect(">")
            return Pair(first, second)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _PRIMITIVES:
                cls, arity = _PRIMITIVES[name]
                return cls(*self.braced_objects(arity))
            if name in DERIVED:
                return derived_arrow(name, *self.braced_objects(DERIVED[name][1]))
            if name == "prod":
                self.expect("(")
                first = self.arrow()
                self.expect(",")
                second = self.arrow()
                self.expect(")")
                return product_of_arrows(first, second)
            self.fail(f"unknown arrow form {name!r}", tok)
        self.fail("expected an arrow")

    def arrow(self) -> ArrowTerm:
        # Written order is display order: the rightmost item applies first.
        items = [self.arrow_item()]
        while self.peek().kind == ".":
            self.advance()
            items.append(self.arrow_item())
        return compose(*reversed(items))


def parse_object(text: str) -> ObjectExpr:
    parser = _Parser(text)
    obj = parser.object_top()
    if parser.peek().kind != "eof":
        parser.fail("unexpected trailing input")
    return obj


def parse_arrow(text: str, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    parser = _Parser(text)
    try:
        term = parser.arrow()
        if parser.peek().kind != "eof":
            parser.fail("unexpected trailing input")
        typecheck(term, mode)
    except (TypeMismatch, ModeViolation) as exc:
        raise ParseError(Diagnostic("error", (0, len(text)), str(exc))) from exc
    return term


def print_object(a: ObjectExpr, spaced: bool = False) -> str:
    sep = " * " if spaced else "*"

    def render(node: ObjectExpr, top: bool) -> str:
        match node:
            case LetterObj(letter):
                return letter.name
            case Terminal():
                return "T"
            case Product(left, right):
                inner = f"{render(left, False)}{sep}{render(right, False)}"
                return inner if top else f"({inner})"
        raise TypeError(f"not an object: {node!r}")

    return render(a, True)


def print_arrow(t: ArrowTerm) -> str:
    """Canonical rendering; parse_arrow(print_arrow(t)) returns t."""
    match t:
        case Identity(obj):
            return f"id{{{print_object(obj)}}}"
        case Proj1(left, right):
            return f"p1{{{print_object(left)},{print_object(right)}}}"
        case Proj2(left, right):
            return f"p2{{{print_object(left)},{print_object(right)}}}"
        case Bang(obj):
            return f"bang{{{print_object(obj)}}}"
        case Pair(first, second):
            return f"<{print_arrow(first)}, {print_arrow(second)}>"
        case Compose(factors):
            return " . ".join(print_arrow(f) for f in reversed(factors))
    raise TypeError(f"not an arrow term: {t!r}")
