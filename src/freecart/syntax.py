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

A text is scanned once it is cleaned: each comment blanked with as
many spaces and the product sign read as "*", edits that keep every
offset.  `findall` yields the token texts, which the parser compares,
and a text holds an unexpected character exactly when its tokens miss
one of its characters that is not space; only then does one
regular-expression match (_VALID) find the first, which is reported
before any syntax error.  Tokens carry no spans.  A diagnostic
recomputes them with `finditer` over the same cleaned text, so its
match k is the parser's token k.  The printers write from explicit
stacks, so they have no depth limit; print_arrow takes the text of each
object from a memo (_object_text) of the _GROUPS_KEPT objects written
most recently.

parse_arrow and parse_graph first read a text with _GROUPED, under
which a whole leaf name{...}, such as "p1{p*q,T}", is one token, and so
is a braced group that follows no name.  Objects are interned, so a
leaf's text fixes its arrow: a memo (_braced) keeps the arrows, or
None, of the _GROUPS_KEPT leaves read most recently in the process.
Terms are immutable and the mode is checked on the whole arrow, so a
shared leaf changes no verdict.

One parser loop (_Parser.arrow) serves two builders, which join the
items it reads into pairings, compositions and prod(f, g): parse_arrow
builds terms with the constructors themselves (_TERMS), and parse_graph
builds graphs.TypedGraphs (_GRAPHS), a type and a map by the same rules,
since an arrow is fixed by its type and its graph.  Leaves are terms in
both.  A text is read at most twice.  The grouped reading answers or
hands the text over, and builds no diagnostic; the token-level reading
(_TOKEN, one token per name or symbol, as a term) alone reports.  Type
and mode errors arise at the same point of both readings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import FreecartError, ModeViolation, TypeMismatch
from .graphs import TypedGraph, compose_graph, pair_graph, product_graph
from .terms import (
    ArrowTerm,
    Bang,
    Compose,
    DERIVED,
    Identity,
    LetterObj,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    _binary_products,
    product_of_arrows,
    typecheck,
)


@dataclass(frozen=True)
class Diagnostic:
    """An error at offsets `span` of the text read from `origin`, a file's path or "<input>"."""

    span: tuple[int, int]
    message: str
    origin: str = "<input>"

    def render(self) -> str:
        lo, hi = self.span
        return f"{self.origin}:{lo}-{hi}: error: {self.message}"


class ParseError(FreecartError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# The arrows written name{objects}, primitives and macros: what builds
# each and how many objects it takes.
_BRACED = {"id": (Identity, 1), "p1": (Proj1, 2), "p2": (Proj2, 2), "bang": (Bang, 1)} | DERIVED

# A token is a name or a symbol, and a comment runs from "#" to the end
# of its line.
_TOKEN = re.compile(r"[a-z][a-z0-9_]*|[{}()<>,.*T]")
_COMMENT = re.compile(r"#[^\n]*")
# The longest prefix of a cleaned text made of tokens and space ends at
# its first unexpected character.  \s is exactly str.isspace() on str
# patterns, at which str.split() splits.
_VALID = re.compile(rf"(?:{_TOKEN.pattern}|\s+)*")
# A braced group of name characters, T, "*", parentheses, commas and
# space is one token, with the name before it if there is one: a leaf
# name{...}.  One class suffices: a group that is no leaf, such as
# "id{1}", fails in _braced, and the token-level reading reports it.  A
# "{" that starts no group is a token of its own, as in _TOKEN.
# Possessive quantifiers never backtrack, so a scan stays linear.
_GROUPED = re.compile(rf"(?:[a-z][a-z0-9_]*+\s*+)?+\{{[a-z0-9_T*(),\s]*+\}}|{_TOKEN.pattern}")
# How many leaves _braced keeps, and how many texts _object and _object_text keep.
_GROUPS_KEPT = 4096


def _clean(text: str) -> str:
    """The text with each comment blanked and the product sign read as "*".

    Both edits keep every offset, so a token of the cleaned text has its
    span in the text, and every character left outside a token is space
    or unexpected.
    """
    if "#" in text:
        text = _COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    if "×" in text:
        text = text.replace("×", "*")
    return text


def _tokens(text: str, token: re.Pattern = _TOKEN) -> list[str]:
    """The token texts of a text, "" standing for its end.

    The first unexpected character is raised before anything else, and
    placed only by the token-level reading, which reports.
    """
    text = _clean(text)
    tokens = token.findall(text)
    # Tokens are disjoint parts of the text, so they hold all of its
    # characters that are not space exactly when they hold as many.
    if len("".join(text.split())) != len("".join("".join(tokens).split())):
        if token is not _TOKEN:
            raise ParseError(_UNREPORTED)
        i = _VALID.match(text).end()
        raise ParseError(Diagnostic((i, i + 1), f"unexpected character {text[i]!r}"))
    tokens.append("")
    return tokens


def _spans(text: str) -> list[tuple[int, int]]:
    """The spans of the tokens of a valid text, its end's span (n, n) last."""
    spans = [m.span() for m in _TOKEN.finditer(_clean(text))]
    spans.append((len(text), len(text)))
    return spans


# A reading's builders: what joins the values read into a pairing, a
# composition (given in application order) and a prod(f, g).
_TERMS = (Pair, Compose, product_of_arrows)
_GRAPHS = (pair_graph, compose_graph, product_graph)

# What a reading that does not report raises at a syntax error (see _parse).
_UNREPORTED = Diagnostic((0, 0), "not reported")


class _Parser:
    """Recursive descent over the token texts of one text.

    The tokens are kept reversed, so the next one is last and reading it
    is a pop.  A diagnostic finds its token's span by counting: token k
    of _tokens is match k of _spans, since both scan the same cleaned
    text.  Only the token-level reading reports: a parser made with
    `token` _GROUPED raises ParseError(_UNREPORTED) instead, and builds
    no span.  There a leaf name{...} is one token and an arrow from the
    memo _braced.  `build` holds the reading's builders.
    """

    def __init__(self, text: str, token: re.Pattern = _TOKEN, build: tuple = _TERMS):
        self.text = text
        self.token = token
        self.build = build
        tokens = _tokens(text, token)
        self.count = len(tokens)
        self.rest = tokens[::-1]
        self.next = self.rest.pop

    def expect(self, sym: str) -> None:
        tok = self.next()
        if tok != sym:
            self.fail(f"expected {sym!r}, found {tok!r}" if tok else f"expected {sym!r}, found end of input", 1)

    def fail(self, message: str, back: int = 0):
        """Raise at the next token, or at the one read `back` tokens ago."""
        if self.token is not _TOKEN:
            raise ParseError(_UNREPORTED)
        span = _spans(self.text)[self.count - len(self.rest) - back]
        raise ParseError(Diagnostic(span, message))

    # -- objects ----------------------------------------------------------

    def object_atom(self) -> ObjectExpr:
        """A name, T or a parenthesized product, read without recursion.

        `opened` holds the products whose "(" has been read: None until
        the left part is read, then the left part.
        """
        read = self.next
        opened: list[ObjectExpr | None] = []
        while True:
            tok = read()
            if tok == "(":
                opened.append(None)
                continue
            # A name starts with a lowercase letter, "{" follows "z", and a
            # leaf name{...} of the grouped reading is no name.
            if "a" <= tok < "{" and tok[-1] != "}":
                obj = LetterObj(tok)
            elif tok == "T":
                obj = Terminal()
            else:
                self.fail("expected an object", 1)
            # obj ends the left part of the innermost open product, or its
            # right part, which closes it and ends a part of the next one.
            while opened:
                left = opened.pop()
                if left is None:
                    self.expect("*")
                    opened.append(obj)
                    break
                self.expect(")")
                obj = Product(left, obj)
            else:
                return obj

    def object_top(self) -> ObjectExpr:
        left = self.object_atom()
        if self.rest[-1] == "*":
            self.next()
            return Product(left, self.object_atom())
        return left

    # -- arrows -----------------------------------------------------------

    def braced_objects(self, count: int) -> tuple[ObjectExpr, ...]:
        self.expect("{")
        objs = [self.object_top()]
        while len(objs) < count:
            self.expect(",")
            objs.append(self.object_top())
        self.expect("}")
        return tuple(objs)

    def arrow(self):
        """A composition of items, or one item.

        The items are read in a loop, and only "<", "(" and "prod("
        recurse, so each level of nesting costs one call.
        """
        read, rest = self.next, self.rest
        pair, compose, prod = self.build
        items = []
        while True:
            tok = read()
            if tok == "(":
                item = self.arrow()
                self.expect(")")
            elif tok == "<":
                first = self.arrow()
                self.expect(",")
                second = self.arrow()
                self.expect(">")
                item = pair(first, second)
            elif "a" <= tok < "{":
                if tok[-1] == "}":
                    if (item := _braced(tok)) is None:
                        raise ParseError(_UNREPORTED)
                elif tok in _BRACED:
                    # _braced mirrors this branch on a whole leaf token.
                    build, arity = _BRACED[tok]
                    item = build(*self.braced_objects(arity))
                elif tok == "prod":
                    self.expect("(")
                    first = self.arrow()
                    self.expect(",")
                    second = self.arrow()
                    self.expect(")")
                    item = prod(first, second)
                else:
                    self.fail(f"unknown arrow form {tok!r}", 1)
            else:
                self.fail("expected an arrow", 1)
            items.append(item)
            if rest[-1] != ".":
                # Written order is display order: the rightmost item applies first.
                return compose(items[::-1]) if len(items) > 1 else item
            read()


@lru_cache(maxsize=_GROUPS_KEPT)
def _braced(leaf: str) -> ArrowTerm | None:
    """The arrow of a leaf token name{...}, or None if it does not read.

    Its braces hold no brace, and an object holds no comma, so its
    objects are the texts between commas, each read through a memo.
    decide.synth_from_graph reads the leaves of read-back's chains here.
    """
    name, _, group = leaf.partition("{")
    build, arity = _BRACED.get(name.rstrip(), (None, 0))
    try:
        objects = [_object(text) for text in group[:-1].split(",")]
    except ParseError:
        return None
    return build(*objects) if len(objects) == arity else None


def parse_object(text: str) -> ObjectExpr:
    parser = _Parser(text)
    obj = parser.object_top()
    if parser.rest[-1]:
        parser.fail("unexpected trailing input")
    return obj


# parse_object, kept for the _GROUPS_KEPT object texts read in leaves most recently.
_object = lru_cache(maxsize=_GROUPS_KEPT)(parse_object)


def parse_arrow(text: str, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    return _parse(text, mode, _TERMS)


def parse_graph(text: str, mode: Mode = Mode.CARTESIAN) -> ArrowTerm | TypedGraph:
    """The type and graph of what parse_arrow reads: a TypedGraph, or a term.

    A text that does not read raises what parse_arrow raises.
    """
    return _parse(text, mode, _GRAPHS)


def _parse(text: str, mode: Mode, build: tuple):
    """A whole text read with `build` from its grouped tokens, or else reported.

    The grouped reading returns its arrow if it has read the whole text
    and the mode allows it (in binary-products mode, if it is
    terminal-free: a term is typed when built).  Otherwise the token-level
    term reading reports a syntax error where it finds it, and a type or
    mode error spanning the whole text.  Both readings start in this
    frame, so no path to the parser's recursion is deeper than another.
    """
    binary = _binary_products(mode)
    try:
        parser = _Parser(text, _GROUPED, build)
        arrow = parser.arrow()
        if not parser.rest[-1] and (not binary or arrow.terminal_free):
            return arrow
    except (ParseError, TypeMismatch):
        pass
    try:
        parser = _Parser(text)
        arrow = parser.arrow()
        if parser.rest[-1]:
            parser.fail("unexpected trailing input")
        typecheck(arrow, mode)
    except (TypeMismatch, ModeViolation) as exc:
        raise ParseError(Diagnostic((0, len(text)), str(exc))) from exc
    return arrow


def print_object(a: ObjectExpr, spaced: bool = False) -> str:
    """The text of `a`, from a stack of objects and strings to write, the next last."""
    if not isinstance(a, ObjectExpr):
        raise TypeError(f"not an object: {a!r}")
    sep = " * " if spaced else "*"
    out: list[str] = []
    stack: list[ObjectExpr | str] = [a.right, sep, a.left] if isinstance(a, Product) else [a]
    append, push, pop = out.append, stack.extend, stack.pop
    while stack:
        node = pop()
        if isinstance(node, str):
            append(node)
        elif isinstance(node, LetterObj):
            append(node.name)
        elif isinstance(node, Product):
            append("(")
            push((")", node.right, sep, node.left))
        elif isinstance(node, Terminal):
            append("T")
        else:
            raise TypeError(f"not an object: {node!r}")
    return "".join(out)


@lru_cache(maxsize=_GROUPS_KEPT)
def _object_text(a: ObjectExpr) -> str:
    """print_object(a), kept for the _GROUPS_KEPT objects written most recently."""
    return print_object(a)


def print_arrow(t: ArrowTerm) -> str:
    """Canonical rendering; parse_arrow(print_arrow(t)) returns t.

    Like print_object, it writes from a stack of terms and strings.
    """
    if not isinstance(t, ArrowTerm):
        raise TypeError(f"not an arrow term: {t!r}")
    out: list[str] = []
    stack: list[ArrowTerm | str] = [t]
    append, push, pop = out.append, stack.extend, stack.pop
    while stack:
        node = pop()
        if isinstance(node, str):
            append(node)
        elif isinstance(node, Pair):
            append("<")
            push((">", node.second, ", ", node.first))
        elif isinstance(node, Compose):
            # The last factor is written first.
            factors = node.factors
            stack.append(factors[0])
            for f in factors[1:]:
                push((" . ", f))
        elif isinstance(node, Identity):
            append(f"id{{{_object_text(node.obj)}}}")
        elif isinstance(node, Proj1):
            append(f"p1{{{_object_text(node.left)},{_object_text(node.right)}}}")
        elif isinstance(node, Proj2):
            append(f"p2{{{_object_text(node.left)},{_object_text(node.right)}}}")
        elif isinstance(node, Bang):
            append(f"bang{{{_object_text(node.obj)}}}")
        else:
            raise TypeError(f"not an arrow term: {node!r}")
    return "".join(out)
