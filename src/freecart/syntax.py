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

A text is scanned once, by one regular expression, into plain
(kind, text, start, end) tuples; an unexpected character is reported
before any syntax error.  Objects are shared within a parse: each letter
name is built once, and each product once per pair of parts, so the
equal objects of one term are one object and an equality test between
them stops at the first shared part.
"""

from __future__ import annotations

import re
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
    product_of_arrows,
    typecheck,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    span: tuple[int, int]
    message: str

    def render(self) -> str:
        lo, hi = self.span
        return f"<input>:{lo}-{hi}: {self.severity}: {self.message}"


class ParseError(FreecartError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# The arrows written name{objects}, primitives and macros: what builds
# each and how many objects it takes.
_BRACED = {"id": (Identity, 1), "p1": (Proj1, 2), "p2": (Proj2, 2), "bang": (Bang, 1)} | DERIVED

# One scan: an identifier, a symbol, skipped space or a comment, or one
# unexpected character.  Every character starts a match, so the matches
# tile the text and their offsets are running sums of their lengths.
# \s is exactly str.isspace() on str patterns.
_SCAN = re.compile(r"[a-z][a-z0-9_]*|[{}()<>,.*×T]|\s+|#[^\n]*|.", re.DOTALL)
_SYMBOLS = {c: (c, c) for c in "{}()<>,.*"} | {"×": ("*", "*"), "T": ("terminal", "T")}

# A token is (kind, text, start, end); kind is "ident", "terminal", a
# symbol, or "eof".
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    i = 0
    for s in _SCAN.findall(text):
        j = i + len(s)
        if s in _SYMBOLS:
            kind, sym = _SYMBOLS[s]
            append((kind, sym, i, j))
        elif "a" <= s[0] <= "z":
            append(("ident", s, i, j))
        elif not (s.isspace() or s[0] == "#"):
            raise ParseError(Diagnostic("error", (i, j), f"unexpected character {s!r}"))
        i = j
    append(("eof", "", i, i))
    return tokens


class _Parser:
    """Recursive descent over the tokens of one text, sharing its objects.

    Products are keyed by the ids of their parts, which the stored
    products keep alive for the whole parse.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.letters: dict[str, LetterObj] = {}
        self.products: dict[tuple[int, int], Product] = {}
        self.terminal = Terminal()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "eof" else f"expected {kind!r}, found end of input", tok)
        return self.advance()

    def fail(self, message: str, tok: _Token | None = None):
        _, _, start, end = tok or self.peek()
        raise ParseError(Diagnostic("error", (start, end), message))

    # -- objects ----------------------------------------------------------

    def product(self, left: ObjectExpr, right: ObjectExpr) -> Product:
        key = (id(left), id(right))
        obj = self.products.get(key)
        if obj is None:
            obj = self.products[key] = Product(left, right)
        return obj

    def object_atom(self) -> ObjectExpr:
        kind, name, _, _ = tok = self.advance()
        if kind == "ident":
            obj = self.letters.get(name)
            if obj is None:
                obj = self.letters[name] = LetterObj(Letter(name))
            return obj
        if kind == "terminal":
            return self.terminal
        if kind == "(":
            left = self.object_atom()
            self.expect("*")
            right = self.object_atom()
            self.expect(")")
            return self.product(left, right)
        self.fail("expected an object", tok)

    def object_top(self) -> ObjectExpr:
        left = self.object_atom()
        if self.peek()[0] == "*":
            self.advance()
            return self.product(left, self.object_atom())
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
        kind, name, _, _ = tok = self.advance()
        if kind == "(":
            inner = self.arrow()
            self.expect(")")
            return inner
        if kind == "<":
            first = self.arrow()
            self.expect(",")
            second = self.arrow()
            self.expect(">")
            return Pair(first, second)
        if kind == "ident":
            if name in _BRACED:
                build, arity = _BRACED[name]
                return build(*self.braced_objects(arity))
            if name == "prod":
                self.expect("(")
                first = self.arrow()
                self.expect(",")
                second = self.arrow()
                self.expect(")")
                return product_of_arrows(first, second)
            self.fail(f"unknown arrow form {name!r}", tok)
        self.fail("expected an arrow", tok)

    def arrow(self) -> ArrowTerm:
        # Written order is display order: the rightmost item applies first.
        items = [self.arrow_item()]
        while self.peek()[0] == ".":
            self.advance()
            items.append(self.arrow_item())
        return compose(*reversed(items))


def parse_object(text: str) -> ObjectExpr:
    parser = _Parser(text)
    obj = parser.object_top()
    if parser.peek()[0] != "eof":
        parser.fail("unexpected trailing input")
    return obj


def parse_arrow(text: str, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    parser = _Parser(text)
    try:
        term = parser.arrow()
        if parser.peek()[0] != "eof":
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
