"""Deciding equality of arrows, and rebuilding a normal form from a graph.

Equality of two same-typed arrows holds exactly when their graphs agree,
so the decision procedure is a graph comparison.  The alternative route
normalizes both sides and compares syntax.  Synthesis goes the other
way: given a graph whose letter counts fit a domain and a codomain, it
produces the unique normal form with that graph.  The one walk that
builds the term also checks that the graph joins only equal letters.

Synthesis after graph_of is normalization by evaluation: normal_form
reads a term's normal form back from its graph, with no rewriting.
That read-back route serves `normalize` without `--trace`.  The
rewriting system in rewrite.py stays the certifying route, for
`normalize --trace`, `equal --method normalize|both` and verify_witness.
"""

from __future__ import annotations

from .errors import IncompatibleGraph, ModeViolation, Unrealizable
from .graphs import Graph, graph_of
from .rewrite import normalize
from .terms import (
    ArrowTerm,
    Compose,
    Identity,
    LetterObj,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    Bang,
    _objects,
    common_type,
    typecheck,
)


def equal_in_cart(f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> bool:
    """Decide commutation by comparing graphs."""
    common_type(f, g, mode)
    return graph_of(f) == graph_of(g)


def equal_via_normal_forms(
    f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN
) -> bool:
    """Decide commutation by normalizing both sides."""
    common_type(f, g, mode)
    return normalize(f, mode).result == normalize(g, mode).result


def synth_from_graph(
    dom: ObjectExpr, cod: ObjectExpr, g: Graph, mode: Mode = Mode.CARTESIAN
) -> ArrowTerm:
    """The normal form dom -> cod whose graph is g.

    The codomain is taken apart: terminal targets become terminal
    arrows, product targets become pairings, and letter targets become
    either an identity or the projection chain from the root of dom to
    the mapped leaf, which must hold the same letter.  The
    binary-products checks come after that walk.
    """
    _objects(dom, cod)
    if g.source_letters != dom.letters or g.target_letters != cod.letters:
        raise IncompatibleGraph(
            f"graph {g.source_letters}->{g.target_letters} does not fit "
            f"|dom|={dom.letters}, |cod|={cod.letters}"
        )
    term = _synth(dom, cod, g)
    if mode is Mode.BINARY_PRODUCTS:
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


def _synth(dom: ObjectExpr, cod: ObjectExpr, g: Graph) -> ArrowTerm:
    # The letters of cod are met in leaf order, so they take the entries
    # of g.map in turn, and every object carries its letter count: the
    # walk visits each node of the result once, but building is not
    # linear, since a Pair concatenates its parts' maps and a Compose
    # chases them (read-back of id{A} is cubic in the depth of A, ROADMAP
    # item 10).  None on the walk's own stack stands for "pair the last
    # two terms built", so no depth of cod reaches the recursion limit.
    sources = iter(g.map)
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
    # The graph is valid and its counts fit dom, so the descent ends at a letter.
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
    if not factors:
        return Identity(dom)
    if len(factors) == 1:
        return factors[0]
    return Compose(tuple(factors))
