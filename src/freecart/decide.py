"""Deciding equality of arrows, and rebuilding a normal form from a graph.

An arrow is determined by its type and its graph, so equality of two
same-typed arrows is a comparison of their maps, and the alternative
route normalizes both sides and compares syntax.  Read-back goes the
other way: one walk of the codomain (_read_back) writes the unique
normal form with a given type and map.  It is the one place where a map
from outside is checked: a list or a tuple of ints, one per letter of
the codomain, each naming a letter of the domain, and each descent
joining only equal letters.  It has two writers: synth_from_graph
builds the term, for normal_form (normalization by evaluation) and
collapse's h and j, and normal_form_text writes print_arrow's text of
it, building no arrow node, for plain `normalize` and `synth`.
equal_graphs decides `equal --method graph` from what
syntax.parse_graph reads.  The rewriting system in rewrite.py stays the
certifying route, for `normalize --trace`, `equal --method
normalize|both` and verify_witness.
"""

from __future__ import annotations

from .errors import IncompatibleGraph, ModeViolation, Unrealizable
from .graphs import graph_of
from .rewrite import normalize
from .syntax import _object_text
from .terms import (
    ArrowTerm,
    Identity,
    LetterObj,
    Map,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    Proj1,
    Proj2,
    Bang,
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
    """The normal form dom -> cod whose graph is map.

    The map must be a list or a tuple with one entry per letter of cod,
    each an int that names a letter of dom; any other map raises
    IncompatibleGraph.  The codomain is taken apart: terminal targets
    become terminal arrows, product targets become pairings, and letter
    targets become either an identity or the projection chain from the
    root of dom to the mapped leaf, which must hold the same letter.
    The binary-products checks come after that walk.
    """
    # Each ">" pairs the last two terms built.  Building is not linear: a
    # Pair concatenates its parts' maps and a Compose chases them
    # (read-back of id{A} is cubic in the depth of A, ROADMAP item 10).
    built: list[ArrowTerm] = []

    def write(piece) -> None:
        if type(piece) is not str:
            built.append(piece)
        elif piece == ">":
            second = built.pop()
            built[-1] = Pair(built[-1], second)

    _read_back(dom, cod, map, mode, _projection_chain, Bang, write)
    return built[0]


def normal_form_text(
    dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int], mode: Mode = Mode.CARTESIAN
) -> str:
    """print_arrow(synth_from_graph(dom, cod, map, mode)), written without building it.

    The same walk (_read_back) raises the same errors in the same order.
    """
    out: list[str] = []
    _read_back(dom, cod, map, mode, _chain_text, _bang_text, out.append)
    return "".join(out)


def _read_back(dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int], mode: Mode, chain, bang, write) -> None:
    """Check map, write the normal form dom -> cod of graph map, then check the mode.

    The codomain is walked in preorder from a stack of objects and
    strings, the next last, as print_arrow walks a term: a product
    writes "<", ", " and ">" around its parts, a letter chain(dom,
    descent) and T bang(dom).  Letters are met in leaf order, so they
    take the map's entries in turn.
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
            write(chain(dom, _descent(dom, next(sources), node)))
        else:  # T: _objects made every node of cod an object
            write(bang(dom))
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


def _projection_chain(dom: ObjectExpr, steps: list[tuple[type, Product]]) -> ArrowTerm:
    if not steps:
        return Identity(dom)
    return compose(*[proj(p.left, p.right) for proj, p in steps])


def _chain_text(dom: ObjectExpr, steps: list[tuple[type, Product]]) -> str:
    """print_arrow(_projection_chain(dom, steps)): the last factor first."""
    if not steps:
        return f"id{{{_object_text(dom)}}}"
    return " . ".join([
        f"{_PROJ_NAMES[proj]}{{{_object_text(p.left)},{_object_text(p.right)}}}"
        for proj, p in reversed(steps)
    ])


def _bang_text(dom: ObjectExpr) -> str:
    return f"bang{{{_object_text(dom)}}}"


_PROJ_NAMES = {Proj1: "p1", Proj2: "p2"}


def _descent(dom: ObjectExpr, position: int, target: LetterObj) -> list[tuple[type, Product]]:
    """The projections from the root of dom down to the letter at position, in application order.

    Each is its class and the product it leaves.  The map was checked
    against dom, so the descent ends at a letter, which must be target.
    """
    steps = []
    node = dom
    j = position
    while isinstance(node, Product):
        nl = node.left.letters
        if j <= nl:
            steps.append((Proj1, node))
            node = node.left
        else:
            steps.append((Proj2, node))
            j -= nl
            node = node.right
    if node is not target:
        raise IncompatibleGraph("graph connects distinct letters")
    return steps
