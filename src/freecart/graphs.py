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
checked where it is used, by decide.synth_from_graph.
"""

from __future__ import annotations

from .terms import ArrowTerm, Map, _arrows


def graph_of(t: ArrowTerm) -> Map:
    """The map of an arrow term's graph."""
    _arrows(t)
    return t.map


def graph_to_json_dict(t: ArrowTerm) -> dict:
    """The JSON shape of t's graph used by the command line interface."""
    return {
        "source_letters": t.domain.letters,
        "target_letters": t.codomain.letters,
        "map": list(graph_of(t)),
    }
