"""Graphs of arrow terms: which codomain letter comes from which domain letter.

The graph of an arrow f: A -> B is a total function from the letter
positions of B to the letter positions of A, computed by induction on
the term.  Two arrows of the free cartesian category are equal exactly
when their graphs agree, which makes graphs the cheap side of the
equality decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import ArityMismatch
from .terms import (
    ArrowTerm,
    Bang,
    Compose,
    Identity,
    ObjectExpr,
    Pair,
    Proj1,
    Proj2,
    letters_of,
)


@dataclass(frozen=True)
class Graph:
    """A target-position to source-position map, 1-based on both sides."""

    source_letters: int
    target_letters: int
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.target_letters:
            raise ValueError(
                f"map has {len(self.map)} entries for {self.target_letters} targets"
            )
        for v in self.map:
            if not 1 <= v <= self.source_letters:
                raise ValueError(f"map entry {v} not in 1..{self.source_letters}")


def graph_identity(n: int) -> Graph:
    """Graph of an identity arrow on an object with n letters."""
    return Graph(n, n, tuple(range(1, n + 1)))


def graph_compose(first: Graph, second: Graph) -> Graph:
    """Graph of a composite, `first` being the first-applied factor.

    Positions chase through the later factor first: the composite sends
    i to first.map[second.map[i]].
    """
    if first.target_letters != second.source_letters:
        raise ArityMismatch(
            f"cannot compose graphs: {first.target_letters} target letters "
            f"vs {second.source_letters} source letters"
        )
    return Graph(
        first.source_letters,
        second.target_letters,
        tuple(first.map[j - 1] for j in second.map),
    )


def graph_of(t: ArrowTerm) -> Graph:
    """Graph of a well-typed arrow term.

    The graph is cached in the node's `__dict__` on first use.  Nodes are
    immutable, so a cached graph never goes stale; a term rebuilt by a
    rewriting step, or composed into a larger term, keeps the graphs of
    the subterms it shares with the old one.
    """
    g = getattr(t, "__dict__", {}).get("_graph")
    if g is None:
        g = t.__dict__["_graph"] = _graph_node(t)
    return g


def _graph_node(t: ArrowTerm) -> Graph:
    """graph_of t, from the graphs of its children."""
    match t:
        case Identity(obj):
            return graph_identity(obj.letters)
        case Proj1(left, right):
            nl = left.letters
            return Graph(nl + right.letters, nl, tuple(range(1, nl + 1)))
        case Proj2(left, right):
            nl = left.letters
            nr = right.letters
            return Graph(nl + nr, nr, tuple(range(nl + 1, nl + nr + 1)))
        case Bang(obj):
            return Graph(obj.letters, 0, ())
        case Pair(first, second):
            gf = graph_of(first)
            gs = graph_of(second)
            return Graph(
                gf.source_letters,
                gf.target_letters + gs.target_letters,
                gf.map + gs.map,
            )
        case Compose(factors):
            return reduce(graph_compose, (graph_of(f) for f in factors))
    raise TypeError(f"not an arrow term: {t!r}")


def letter_compatible(g: Graph, dom: ObjectExpr, cod: ObjectExpr) -> bool:
    """Whether g only connects equal letters of dom and cod."""
    sources = letters_of(dom)
    targets = letters_of(cod)
    if g.source_letters != len(sources):
        raise ArityMismatch(
            f"graph has {g.source_letters} source letters, domain has {len(sources)}"
        )
    if g.target_letters != len(targets):
        raise ArityMismatch(
            f"graph has {g.target_letters} target letters, codomain has {len(targets)}"
        )
    return all(sources[j - 1] == letter for j, letter in zip(g.map, targets))


def graph_to_json_dict(g: Graph) -> dict:
    """The JSON shape used by the command line interface."""
    return {
        "source_letters": g.source_letters,
        "target_letters": g.target_letters,
        "map": list(g.map),
    }


def _integer(v) -> bool:
    # A JSON boolean loads as a bool, which is an int to Python.
    return isinstance(v, int) and not isinstance(v, bool)


def graph_from_json_dict(d: dict) -> Graph:
    """A graph from its JSON shape, checked as it comes in.

    The letter counts and the map's entries must be integers, and not
    booleans; the Graph constructor then checks the map against the counts.
    """
    counts = (d["source_letters"], d["target_letters"])
    if not all(map(_integer, counts)):
        raise ValueError("letter counts must be integers")
    if not isinstance(d["map"], list) or not all(map(_integer, d["map"])):
        raise ValueError("map must be a JSON list of integers")
    return Graph(*counts, tuple(d["map"]))
