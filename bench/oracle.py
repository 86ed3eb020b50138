"""The benchmark's own reading of arrow terms: parser, types, Set model.

Nothing here imports `freecart` or the tests, so a change to either can
alter neither the inputs nor the expected answers.

Objects are a letter name (`str`), the terminal object `"T"`, or a pair
`(left, right)` for a product.  Arrows are tuples:

    ("id", A)  ("p1", A, B)  ("p2", A, B)  ("bang", A)
    ("pair", f, g)  ("comp", (f1, f2, ...))   # f1 applied first

The Set model interprets an object as nested tuples of leaf labels and
an arrow as a function on them.  Evaluated at the generic element, whose
letter leaves carry their 1-based positions, an arrow yields its graph,
so two arrows of one type are equal in the free cartesian category
exactly when they agree there.
"""

from __future__ import annotations

import contextlib
import re
import sys

TERMINAL = "T"
CARTESIAN = "cartesian"
BINARY = "binary-products"

# Pair nesting of a few thousand levels is a workload input; the
# recursion limit is raised only while the benchmark's own code runs.
_DEEP_LIMIT = 50_000


class OracleError(Exception):
    """The text is not a well-typed arrow in the benchmark's reading."""


@contextlib.contextmanager
def deep_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, _DEEP_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Printing


def print_object(a, top: bool = True) -> str:
    if isinstance(a, tuple):
        inner = f"{print_object(a[0], False)}*{print_object(a[1], False)}"
        return inner if top else f"({inner})"
    return a


def print_arrow(t) -> str:
    tag = t[0]
    if tag in ("id", "bang"):
        return f"{tag}{{{print_object(t[1])}}}"
    if tag in ("p1", "p2"):
        return f"{tag}{{{print_object(t[1])},{print_object(t[2])}}}"
    if tag == "pair":
        return f"<{print_arrow(t[1])}, {print_arrow(t[2])}>"
    if tag == "comp":
        return " . ".join(print_arrow(f) for f in reversed(t[1]))
    if tag == "sugar":
        return t[1]
    raise OracleError(f"not an arrow: {t!r}")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(r"\s+|#[^\n]*|([a-z][a-z0-9_]*|T|[{}()<>,.*]|×)")


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleError(f"unexpected character {text[pos]!r} at {pos}")
        if m.group(1):
            out.append("*" if m.group(1) == "×" else m.group(1))
        pos = m.end()
    out.append("")
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def take(self, want: str | None = None) -> str:
        tok = self.toks[self.i]
        if want is not None and tok != want:
            raise OracleError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def peek(self) -> str:
        return self.toks[self.i]

    def obj_atom(self):
        tok = self.take()
        if tok == "(":
            left = self.obj_atom()
            self.take("*")
            right = self.obj_atom()
            self.take(")")
            return (left, right)
        if tok == TERMINAL or re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            return tok
        raise OracleError(f"expected an object, found {tok!r}")

    def obj_top(self):
        left = self.obj_atom()
        if self.peek() == "*":
            self.take()
            return (left, self.obj_atom())
        return left

    def objs(self, n: int):
        self.take("{")
        out = [self.obj_top()]
        for _ in range(n - 1):
            self.take(",")
            out.append(self.obj_top())
        self.take("}")
        return out

    def item(self):
        tok = self.take()
        if tok == "(":
            inner = self.arrow()
            self.take(")")
            return inner
        if tok == "<":
            f = self.arrow()
            self.take(",")
            g = self.arrow()
            self.take(">")
            return ("pair", f, g)
        if tok in ("id", "bang"):
            return (tok, self.objs(1)[0])
        if tok in ("p1", "p2"):
            return (tok, *self.objs(2))
        if tok in MACROS:
            build, arity = MACROS[tok]
            return build(*self.objs(arity))
        if tok == "prod":
            self.take("(")
            f = self.arrow()
            self.take(",")
            g = self.arrow()
            self.take(")")
            return prod(f, g)
        raise OracleError(f"expected an arrow, found {tok!r}")

    def arrow(self):
        items = [self.item()]
        while self.peek() == ".":
            self.take()
            items.append(self.item())
        return comp(*reversed(items))


def parse_arrow(text: str):
    reader = _Reader(text)
    with deep_recursion():
        t = reader.arrow()
    if reader.peek() != "":
        raise OracleError(f"trailing input at token {reader.peek()!r}")
    return t


# ---------------------------------------------------------------------------
# Builders, with the macros given by their meaning


def comp(*factors):
    """Composite in application order, kept flat."""
    flat = []
    for f in factors:
        flat.extend(f[1] if f[0] == "comp" else (f,))
    return flat[0] if len(flat) == 1 else ("comp", tuple(flat))


def pair(f, g):
    return ("pair", f, g)


def assoc_r(a, b, c):
    """A*(B*C) -> (A*B)*C."""
    bc = (b, c)
    return pair(
        pair(("p1", a, bc), comp(("p2", a, bc), ("p1", b, c))),
        comp(("p2", a, bc), ("p2", b, c)),
    )


def assoc_l(a, b, c):
    """(A*B)*C -> A*(B*C)."""
    ab = (a, b)
    return pair(
        comp(("p1", ab, c), ("p1", a, b)),
        pair(comp(("p1", ab, c), ("p2", a, b)), ("p2", ab, c)),
    )


def swap(a, b):
    return pair(("p2", a, b), ("p1", a, b))


def dup(a):
    return pair(("id", a), ("id", a))


def sigma(a):
    return pair(("bang", a), ("id", a))


def delta(a):
    return pair(("id", a), ("bang", a))


def prod(f, g):
    a, _ = arrow_type(f)
    c, _ = arrow_type(g)
    return pair(comp(("p1", a, c), f), comp(("p2", a, c), g))


MACROS = {
    "assoc_r": (assoc_r, 3),
    "assoc_l": (assoc_l, 3),
    "swap": (swap, 2),
    "dup": (dup, 1),
    "sigma": (sigma, 1),
    "delta": (delta, 1),
}


def sugar(text: str, core):
    """An arrow written in macro form; it means `core`."""
    return ("sugar", text, core)


# ---------------------------------------------------------------------------
# Types


def _object_ok(a, mode: str) -> None:
    if isinstance(a, tuple):
        _object_ok(a[0], mode)
        _object_ok(a[1], mode)
    elif a == TERMINAL and mode == BINARY:
        raise OracleError("terminal object in binary-products mode")


def _type(t, mode: str):
    tag = t[0]
    if tag == "id":
        _object_ok(t[1], mode)
        return t[1], t[1]
    if tag in ("p1", "p2"):
        _object_ok(t[1], mode)
        _object_ok(t[2], mode)
        return (t[1], t[2]), (t[1] if tag == "p1" else t[2])
    if tag == "bang":
        if mode == BINARY:
            raise OracleError("bang in binary-products mode")
        _object_ok(t[1], mode)
        return t[1], TERMINAL
    if tag == "pair":
        d1, c1 = _type(t[1], mode)
        d2, c2 = _type(t[2], mode)
        if d1 != d2:
            raise OracleError("pair components with different domains")
        return d1, (c1, c2)
    if tag == "comp":
        dom, cod = _type(t[1][0], mode)
        for f in t[1][1:]:
            d, c = _type(f, mode)
            if d != cod:
                raise OracleError("composite factors do not meet")
            cod = c
        return dom, cod
    if tag == "sugar":
        return _type(t[2], mode)
    raise OracleError(f"not an arrow: {t!r}")


def arrow_type(t, mode: str = CARTESIAN):
    """(domain, codomain) of a well-typed arrow; raises OracleError otherwise."""
    with deep_recursion():
        return _type(t, mode)


def letters(a) -> list:
    if isinstance(a, tuple):
        return letters(a[0]) + letters(a[1])
    return [] if a == TERMINAL else [a]


def subst_object(a, x: str):
    if isinstance(a, tuple):
        return (subst_object(a[0], x), subst_object(a[1], x))
    return a if a == TERMINAL else x


# ---------------------------------------------------------------------------
# The Set model


def generic(a, start: int = 1):
    """The generic element of `a` and the next unused label."""
    if isinstance(a, tuple):
        left, start = generic(a[0], start)
        right, start = generic(a[1], start)
        return (left, right), start
    if a == TERMINAL:
        return (), start
    return start, start + 1


def _eval(t, x):
    tag = t[0]
    if tag == "id":
        return x
    if tag == "p1":
        return x[0]
    if tag == "p2":
        return x[1]
    if tag == "bang":
        return ()
    if tag == "pair":
        return (_eval(t[1], x), _eval(t[2], x))
    if tag == "comp":
        for f in t[1]:
            x = _eval(f, x)
        return x
    if tag == "sugar":
        return _eval(t[2], x)
    raise OracleError(f"not an arrow: {t!r}")


def evaluate(t, x):
    with deep_recursion():
        return _eval(t, x)


def denotation(t, mode: str = CARTESIAN):
    """Type and value at the generic element: equal iff the arrows are equal."""
    dom, cod = arrow_type(t, mode)
    return (dom, cod), evaluate(t, generic(dom)[0])


# ---------------------------------------------------------------------------
# Normal forms, by the paper's definition


def _projection_chain_to_letter(t) -> bool:
    factors = t[1] if t[0] == "comp" else (t,)
    if not all(f[0] in ("p1", "p2") for f in factors):
        return False
    last = factors[-1]
    cod = last[1] if last[0] == "p1" else last[2]
    return not isinstance(cod, tuple) and cod != TERMINAL


def _is_normal(t, mode: str) -> bool:
    tag = t[0]
    if tag == "id":
        return not isinstance(t[1], tuple) and t[1] != TERMINAL
    if tag == "bang":
        return mode == CARTESIAN
    if tag == "pair":
        return _is_normal(t[1], mode) and _is_normal(t[2], mode)
    if tag in ("p1", "p2", "comp"):
        return _projection_chain_to_letter(t)
    return False


def is_normal(t, mode: str) -> bool:
    """Identities on letters, projection chains ending at a letter,
    terminal arrows (cartesian mode), and pairings of normal forms."""
    with deep_recursion():
        return _is_normal(t, mode)
