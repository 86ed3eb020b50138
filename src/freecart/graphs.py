"""Graphs of arrow terms: which codomain letter comes from which domain letter.

The graph of an arrow f: A -> B is a total function from the letter
positions of B to the letter positions of A, computed by induction on
the term.  Two arrows of the free cartesian category are equal exactly
when their graphs agree, which makes graphs the cheap side of the
equality decision procedure.

A term's graph is read off its root: each node's constructor sets its
map, a plain tuple, from its children's (terms.ArrowTerm), and the letter
counts come from its type.  Typed construction already guarantees that
the map fits them; the Graph constructor validates, for the graphs that
come in from callers and from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import ArrowTerm, Map, _arrows


@dataclass(frozen=True)
class Graph:
    """A target-position to source-position map, 1-based on both sides."""

    source_letters: int
    target_letters: int
    map: Map

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        n = self.source_letters
        # By exact type, so that a bool, which is an int to Python, is no count or entry.
        if type(n) is not int or type(self.target_letters) is not int or n < 0:
            raise ValueError(f"letter counts must be integers >= 0: {self}")
        if len(self.map) != self.target_letters:
            raise ValueError(
                f"map has {len(self.map)} entries for {self.target_letters} targets"
            )
        for v in self.map:
            if type(v) is not int or not 1 <= v <= n:
                raise ValueError(f"map entry {v} not in 1..{n}")


def graph_of(t: ArrowTerm) -> Graph:
    """Graph of an arrow term: its type's letter counts and its map."""
    _arrows(t)
    return Graph(t.domain.letters, t.codomain.letters, t.map)


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
