"""Graphs of arrow terms: which codomain letter comes from which domain letter.

The graph of an arrow f: A -> B is a total function from the letter
positions of B to the letter positions of A, computed by induction on
the term.  Two arrows of the free cartesian category are equal exactly
when their graphs agree, which makes graphs the cheap side of the
equality decision procedure.

A node caches only its map.  The letter counts come from its type, and
typed construction already guarantees that the map fits them, so the
maps of a term are composed as plain tuples.  The Graph constructor
validates, for the graphs that come in from callers and from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import ArityMismatch
from .terms import ArrowTerm, Bang, Compose, Identity, Pair, Proj1, Proj2

Map = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """A target-position to source-position map, 1-based on both sides."""

    source_letters: int
    target_letters: int
    map: Map

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


def _chase(first: Map, second: Map) -> Map:
    """The map of a composite, `first` being the first-applied factor's.

    Positions chase through the later factor first: i goes to
    first[second[i]].
    """
    return tuple(first[j - 1] for j in second)


def graph_compose(first: Graph, second: Graph) -> Graph:
    """Graph of a composite, `first` being the first-applied factor."""
    if first.target_letters != second.source_letters:
        raise ArityMismatch(
            f"cannot compose graphs: {first.target_letters} target letters "
            f"vs {second.source_letters} source letters"
        )
    return Graph(
        first.source_letters, second.target_letters, _chase(first.map, second.map)
    )


def graph_of(t: ArrowTerm) -> Graph:
    """Graph of an arrow term: its type's letter counts and its map.

    The map is cached in the node's `__dict__` on first use.  Nodes are
    immutable, so a cached map never goes stale; a term rebuilt by a
    rewriting step, or composed into a larger term, keeps the maps of
    the subterms it shares with the old one.
    """
    m = _map_of(t)  # first: a non-term raises TypeError here
    return Graph(t.domain.letters, t.codomain.letters, m)


def _map_of(t: ArrowTerm) -> Map:
    m = getattr(t, "__dict__", {}).get("_map")
    if m is None:
        m = t.__dict__["_map"] = _graph_node(t)
    return m


def _graph_node(t: ArrowTerm) -> Map:
    """The map of t, from the maps of its children."""
    match t:
        case Identity(obj):
            return tuple(range(1, obj.letters + 1))
        case Proj1(left, _):
            return tuple(range(1, left.letters + 1))
        case Proj2(left, right):
            nl = left.letters
            return tuple(range(nl + 1, nl + right.letters + 1))
        case Bang(_):
            return ()
        case Pair(first, second):
            return _map_of(first) + _map_of(second)
        case Compose(factors):
            return reduce(_chase, map(_map_of, factors))
    raise TypeError(f"not an arrow term: {t!r}")


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
