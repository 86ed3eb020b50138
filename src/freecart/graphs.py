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
come in from callers and from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import ArrowTerm, Map, _arrows


@dataclass(frozen=True)
class Graph:
    """A target-position to source-position map, 1-based on both sides.

    The counts and the entries must be ints, and the map a list or a
    tuple, which is stored as a tuple; anything else raises ValueError.
    """

    source_letters: int
    target_letters: int
    map: Map

    def __post_init__(self):
        n = self.source_letters
        # By exact type, so that a bool, which is an int to Python, is no count or entry.
        if type(n) is not int or type(self.target_letters) is not int or n < 0:
            raise ValueError(f"letter counts must be integers >= 0: {self}")
        if type(self.map) not in (list, tuple):
            raise ValueError(f"map must be a list or a tuple: {self.map!r}")
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.target_letters:
            raise ValueError(
                f"map has {len(self.map)} entries for {self.target_letters} targets"
            )
        for v in self.map:
            if type(v) is not int or not 1 <= v <= n:
                raise ValueError(f"map entry {v!r} not in 1..{n}")


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
