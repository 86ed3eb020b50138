"""Deciding equality of arrows, and rebuilding a normal form from a graph.

An arrow is determined by its type and its graph, so equality of two
same-typed arrows is a comparison of their maps, and the alternative
route normalizes both sides and compares syntax.  Synthesis goes the
other way: given a domain, a codomain and a map, it produces the unique
normal form with that type and that graph.  It is the one place where a
map from outside is checked (_check_map): a list or a tuple of ints, one
per letter of the codomain, each naming a letter of the domain; the one
walk of the codomain also checks, in each descent, that the map joins
only equal letters.

So is the normal form's text fixed by the type and the graph:
normal_form_text writes what print_arrow would write of
synth_from_graph's term, with the same checks in the same order, and
builds no arrow node.  The command line answers plain `normalize` and
`synth` with it, from what syntax.parse_graph reads (a type and a map,
no term) and from the operands.  synth_from_graph stays for the callers
that need the term: normal_form, which reads a term's normal form back
from its graph with no rewriting (normalization by evaluation), and
collapse's h and j.  equal_graphs decides `equal --method graph` from
what parse_graph reads.  The rewriting system in rewrite.py stays the
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
    _check_map(dom, cod, map)
    term = _synth(dom, cod, map)
    _check_realizable(dom, cod, mode)
    return term


def normal_form_text(
    dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int], mode: Mode = Mode.CARTESIAN
) -> str:
    """print_arrow(synth_from_graph(dom, cod, map, mode)), written without building it.

    The same checks raise the same errors in the same order.  The
    codomain is walked in preorder from a stack of objects and strings
    to write, the next last, as print_arrow walks a term: a pairing
    writes "<", ", " and ">" around its parts, and a letter its
    projection chain, last factor first.
    """
    _check_map(dom, cod, map)
    sources = iter(map)
    out: list[str] = []
    todo: list[ObjectExpr | str] = [cod]
    append, push, pop = out.append, todo.extend, todo.pop
    while todo:
        node = pop()
        if type(node) is str:
            append(node)
        elif isinstance(node, Product):
            append("<")
            push((">", node.right, ", ", node.left))
        elif isinstance(node, LetterObj):
            steps = _descent(dom, next(sources), node)
            if steps:
                append(" . ".join([
                    f"{_PROJ_NAMES[proj]}{{{_object_text(p.left)},{_object_text(p.right)}}}"
                    for proj, p in reversed(steps)
                ]))
            else:
                append(f"id{{{_object_text(dom)}}}")
        elif isinstance(node, Terminal):
            append(f"bang{{{_object_text(dom)}}}")
        else:
            raise TypeError(f"not an object: {node!r}")
    _check_realizable(dom, cod, mode)
    return "".join(out)


def _check_map(dom: ObjectExpr, cod: ObjectExpr, map: Map | list[int]) -> None:
    """Raise unless map has one int per letter of cod, each naming a letter of dom."""
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


def _check_realizable(dom: ObjectExpr, cod: ObjectExpr, mode: Mode) -> None:
    """The binary-products checks, which come after the walk of the codomain."""
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
    steps = _descent(dom, position, target)
    if not steps:
        return Identity(dom)
    return compose(*[proj(p.left, p.right) for proj, p in steps])


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
