"""Deciding equality of arrows, and rebuilding a normal form from a graph.

An arrow is determined by its type and its graph, so equality of two
same-typed arrows is a comparison of their maps, and the alternative
route normalizes both sides and compares syntax.  Read-back goes the
other way: one walk of the codomain (_read_back) writes the text of the
unique normal form with a given type and map, and is the one place where
a map from outside is checked, as synth_from_graph states.
normal_form_text joins that text, for plain `normalize` and `synth`;
synth_from_graph reads it piece by piece, for normal_form
(normalization by evaluation) and collapse's h and j.
equal_graphs decides `equal --method graph` from what
syntax.parse_graph reads.  The rewriting system in rewrite.py stays the
certifying route, for `normalize --trace`, `equal --method
normalize|both` and verify_witness.
"""

from __future__ import annotations

from .errors import IncompatibleGraph, ModeViolation, Unrealizable
from .graphs import graph_of
from .rewrite import normalize
from .syntax import _braced, _object_text
from .terms import (
    ArrowTerm,
    LetterObj,
    Map,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    _binary_products,
    _objects,
    common_type,
    compose,
    same_type,
    typecheck,
)


def equal_in_cart(f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> bool:
    """Decide commutation by comparing graphs, once the types agree."""
    typecheck(f, mode)
    typecheck(g, mode)
    return equal_graphs(f, g)


def equal_graphs(f, g) -> bool:
    """Decide commutation of two arrows already checked against the mode.

    f and g are arrow terms or TypedGraphs, as parse_arrow and
    parse_graph return them: once the types agree, the maps decide.
    """
    same_type(f, g)
    return f.map == g.map


def equal_via_normal_forms(
    f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN
) -> bool:
    """Decide commutation by normalizing both sides."""
    common_type(f, g, mode)
    return normalize(f, mode).result == normalize(g, mode).result


def synth_from_graph(
    dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int], mode: Mode = Mode.CARTESIAN
) -> ArrowTerm:
    """The normal form dom -> cod whose graph is map, read from what _read_back writes.

    map is a list or a tuple of ints, one per letter of cod, each naming
    a letter of dom that holds the same letter, or IncompatibleGraph is
    raised.  Each piece but "<", ", " and ">" is a chain of leaves joined
    by " . ", each read from the leaf memo (syntax._braced) and composed,
    the rightmost applied first; each ">" pairs the last two arrows
    built: no depth limit.
    """
    built: list[ArrowTerm] = []

    def write(piece: str) -> None:
        if piece == ">":
            built[-2:] = [Pair(*built[-2:])]
        elif piece != "<" and piece != ", ":
            built.append(compose(*[_braced(leaf) for leaf in reversed(piece.split(" . "))]))

    _read_back(dom, cod, map, mode, write)
    return built[0]


def normal_form_text(
    dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int], mode: Mode = Mode.CARTESIAN
) -> str:
    """print_arrow(synth_from_graph(dom, cod, map, mode)), written without building it.

    The same walk (_read_back) raises the same errors in the same order.
    """
    out: list[str] = []
    _read_back(dom, cod, map, mode, out.append)
    return "".join(out)


def _read_back(dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int], mode: Mode, write) -> None:
    """Check map, write the text of the normal form dom -> cod of graph map, then check the mode.

    The codomain is walked in preorder from a stack of objects and
    strings, the next last, as print_arrow walks a term: a product
    writes "<", ", " and ">" around its parts, a letter the text of its
    projection chain (_chain_text) and T that of bang{dom}.  Letters
    are met in leaf order, so they take the map's entries in turn.
    """
    _objects(dom, cod)
    if type(map) not in (list, tuple):
        raise IncompatibleGraph(f"map must be a list or a tuple: {map!r}")
    if len(map) != cod.letters:
        raise IncompatibleGraph(f"map has {len(map)} entries for {cod.letters} targets")
    n = dom.letters
    for v in map:
        # By exact type, so that a bool, which is an int to Python, is no entry.
        if type(v) is not int or not 1 <= v <= n:
            raise IncompatibleGraph(f"map entry {v!r} not in 1..{n}")
    sources = iter(map)
    todo: list[ObjectExpr | str] = [cod]
    push, pop = todo.extend, todo.pop
    while todo:
        node = pop()
        if type(node) is str:
            write(node)
        elif isinstance(node, Product):
            write("<")
            push((">", node.right, ", ", node.left))
        elif isinstance(node, LetterObj):
            write(_chain_text(dom, next(sources), node))
        else:  # T: _objects made every node of cod an object
            write(f"bang{{{_object_text(dom)}}}")
    if _binary_products(mode):
        if cod.has_terminal:
            raise Unrealizable("terminal codomain cannot be realized in binary-products mode")
        if dom.has_terminal:
            raise ModeViolation("terminal object not available in binary-products mode")


def normal_form(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    """The normal form of t, read back from its type and its graph.

    An arrow is determined by its type and its graph, so this is the
    term that normalize(t, mode) reaches, found without rewriting.
    """
    arrow_type = typecheck(t, mode)
    return synth_from_graph(arrow_type.domain, arrow_type.codomain, graph_of(t), mode)


def _chain_text(dom: ObjectExpr, position: int, target: LetterObj) -> str:
    """The text of the projection chain from the root of dom to the letter at position.

    It is id{dom} at a letter, else the projections on the way down, the
    last first.  The descent ends at a letter, which must be target.
    """
    factors, node, j = [], dom, position
    while isinstance(node, Product):
        left, right = node.left, node.right
        if j <= left.letters:
            name, node = "p1", left
        else:
            name, node, j = "p2", right, j - left.letters
        factors.append(f"{name}{{{_object_text(left)},{_object_text(right)}}}")
    if node is not target:
        raise IncompatibleGraph("graph connects distinct letters")
    return " . ".join(reversed(factors)) if factors else f"id{{{_object_text(dom)}}}"
