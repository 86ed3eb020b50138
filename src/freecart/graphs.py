"""Graphs of arrow terms: which codomain letter comes from which domain letter.

The graph of an arrow f: A -> B is a total function from the letter
positions of B to the letter positions of A, 1-based on both sides.  Two
arrows of the free cartesian category are equal exactly when their types
and their graphs agree, which makes graphs the cheap side of the
equality decision procedure.

A graph is its map, a tuple of ints: entry i - 1 is the domain position
of codomain letter i.  Each node's constructor sets its map from its
children's (terms.ArrowTerm), so a term's graph is read off its root,
and its letter counts are its type's, which typed construction makes it
fit.  A map that comes in from a caller or from the command line is
checked where it is used, by decide._read_back, whose one writer takes
the normal form's text for normal_form_text and synth_from_graph.

An arrow is fixed by its type and its graph, so a reader that needs no
more builds no term: a TypedGraph carries what every arrow node carries
beside its measure (`domain`, `codomain`, `map`, `terminal_free`), and
pair_graph, compose_graph and product_graph set it by the rules of Pair,
Compose and product_of_arrows, from parts that are terms or
TypedGraphs.  What they raise is never reported: syntax.parse_graph
then reads the text token by token, as a term, and only that reading
reports.
"""

from __future__ import annotations

from .errors import TypeMismatch
from .terms import ArrowTerm, Map, ObjectExpr, Product, _arrows, _chase


def graph_of(t: ArrowTerm) -> Map:
    """The map of an arrow term's graph."""
    _arrows(t)
    return t.map


class TypedGraph:
    """An arrow as its type and its graph, with no term behind it."""

    __slots__ = ("domain", "codomain", "map", "terminal_free")

    def __init__(self, domain: ObjectExpr, codomain: ObjectExpr, map: Map, terminal_free: bool):
        self.domain = domain
        self.codomain = codomain
        self.map = map
        self.terminal_free = terminal_free


def pair_graph(first, second) -> TypedGraph:
    """The type and the graph of Pair(first, second)."""
    domain = first.domain
    if domain is not second.domain:
        raise TypeMismatch("pair components must share a domain")
    codomain = Product(first.codomain, second.codomain)
    return TypedGraph(domain, codomain, first.map + second.map, first.terminal_free and second.terminal_free)


def compose_graph(factors) -> TypedGraph:
    """The type and the graph of Compose(factors), factors[0] applied first."""
    factors = iter(factors)
    first = next(factors)
    codomain, chased, terminal_free = first.codomain, first.map, first.terminal_free
    for f in factors:
        if codomain is not f.domain:
            raise TypeMismatch("composition factors must meet")
        chased = _chase(chased, f.map)
        codomain = f.codomain
        terminal_free = terminal_free and f.terminal_free
    return TypedGraph(first.domain, codomain, chased, terminal_free)


def product_graph(f, g) -> TypedGraph:
    """The type and the graph of product_of_arrows(f, g).

    g's positions shift past the letters of f's domain.  Its projections
    are terminal-free when f and g are, since an arrow's domain holds T
    only if the arrow is not terminal-free.
    """
    shift = f.domain.letters
    domain, codomain = Product(f.domain, g.domain), Product(f.codomain, g.codomain)
    return TypedGraph(domain, codomain, f.map + tuple([shift + j for j in g.map]), f.terminal_free and g.terminal_free)


def graph_to_json_dict(t: ArrowTerm | TypedGraph) -> dict:
    """The JSON shape of t's graph used by the command line interface."""
    return {
        "source_letters": t.domain.letters,
        "target_letters": t.codomain.letters,
        "map": list(t.map),
    }
