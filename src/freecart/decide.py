"""Deciding equality of arrows, and rebuilding a normal form from a graph.

An arrow is determined by its type and its graph, so equality of two
same-typed arrows is a comparison of their maps, and the alternative
route normalizes both sides and compares syntax.  Synthesis goes the
other way: given a domain, a codomain and a map, it produces the unique
normal form with that type and that graph.  It is the one place where a
map from outside is checked: a list or a tuple of ints, one per letter
of the codomain, each naming a letter of the domain; the one walk that
builds the term also checks that the map joins only equal letters.

Synthesis after graph_of is normalization by evaluation: normal_form
reads a term's normal form back from its graph, with no rewriting, and
stays the API that takes a term.  The command line's read-back, for
`normalize` without `--trace`, starts from syntax.parse_graph instead,
which reads a text into its type and its graph without building the
term, and hands both to synth_from_graph; equal_graphs likewise decides
`equal --method graph` from what parse_graph reads.  The rewriting
system in rewrite.py stays the certifying route, for `normalize
--trace`, `equal --method normalize|both` and verify_witness.
"""

from __future__ import annotations

from .errors import IncompatibleGraph, ModeViolation, Unrealizable
from .graphs import graph_of
from .rewrite import normalize
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
    Terminal,
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
    term = _synth(dom, cod, map)
    if _binary_products(mode):
        if cod.has_terminal:
            raise Unrealizable("terminal codomain cannot be realized in binary-products mode")
        if dom.has_terminal:
            raise ModeViolation("terminal object not available in binary-products mode")
    return term


def normal_form(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    """The normal form of t, read back from its type and its graph.

    An arrow is determined by its type and its graph, so this is the
    term that normalize(t, mode) reaches, found without rewriting.
    """
    arrow_type = typecheck(t, mode)
    return synth_from_graph(arrow_type.domain, arrow_type.codomain, graph_of(t), mode)


def _synth(dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int]) -> ArrowTerm:
    # The letters of cod are met in leaf order, so they take the entries
    # of the map in turn, and every object carries its letter count: the
    # walk visits each node of the result once, but building is not
    # linear, since a Pair concatenates its parts' maps and a Compose
    # chases them (read-back of id{A} is cubic in the depth of A, ROADMAP
    # item 10).  None on the walk's own stack stands for "pair the last
    # two terms built", so no depth of cod reaches the recursion limit.
    sources = iter(map)
    built: list[ArrowTerm] = []
    todo: list[ObjectExpr | None] = [cod]
    while todo:
        node = todo.pop()
        if node is None:
            second = built.pop()
            built[-1] = Pair(built[-1], second)
        elif isinstance(node, Product):
            todo += (None, node.right, node.left)
        elif isinstance(node, LetterObj):
            built.append(_projection_chain(dom, next(sources), node))
        elif isinstance(node, Terminal):
            built.append(Bang(dom))
        else:
            raise TypeError(f"not an object: {node!r}")
    return built[0]


def _projection_chain(dom: ObjectExpr, position: int, target: LetterObj) -> ArrowTerm:
    # The map was checked against dom, so the descent ends at a letter.
    factors: list[ArrowTerm] = []
    node = dom
    j = position
    while isinstance(node, Product):
        nl = node.left.letters
        if j <= nl:
            factors.append(Proj1(node.left, node.right))
            node = node.left
        else:
            factors.append(Proj2(node.left, node.right))
            j -= nl
            node = node.right
    if node is not target:
        raise IncompatibleGraph("graph connects distinct letters")
    return compose(*factors) if factors else Identity(dom)
