"""Witnesses that any new equation collapses the category into a preorder.

Given two same-typed arrows with distinct graphs, every letter is
replaced by a single one, and two bracketing arrows are synthesized so
that the two composites land exactly on the first and second projection
of a two-fold product.  Any category validating the original equation
therefore identifies the two projections, and with them all parallel
arrows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decide import synth_from_graph
from .errors import AlreadyEqual, InternalError, ModeViolation, TypeMismatch
from .graphs import graph_of
from .rewrite import normalize
from .terms import (
    ArrowTerm,
    LetterObj,
    Mode,
    Product,
    Proj1,
    Proj2,
    common_type,
    compose,
    letters_of,
    substitute_all_letters,
    typecheck,
)


# The graphs of the two composites h . f_subst . j and h . g_subst . j,
# of type p * p -> p: the first and the second projection's.
LHS_GRAPH = (1,)
RHS_GRAPH = (2,)


@dataclass(frozen=True)
class CollapseWitness:
    letter: LetterObj
    position: int
    f_subst: ArrowTerm
    g_subst: ArrowTerm
    h: ArrowTerm
    j: ArrowTerm
    lhs_normal: ArrowTerm
    rhs_normal: ArrowTerm


def collapse_witness(
    f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN
) -> CollapseWitness:
    """Construct the collapse data for a non-equal pair of arrows."""
    ft = common_type(f, g, mode)
    gf = graph_of(f)
    gg = graph_of(g)
    if gf == gg:
        raise AlreadyEqual("the arrows are equal; no collapse witness exists")

    position = next(i + 1 for i, (a, b) in enumerate(zip(gf, gg)) if a != b)
    # Two distinct maps of one type have an entry, and an entry names a
    # letter of the domain, so the domain has one.
    p = letters_of(ft.domain)[0]

    f_subst = substitute_all_letters(f, p)
    g_subst = substitute_all_letters(g, p)
    pp = Product(p, p)

    # Send the domain position that g reads at `position` to the second
    # component of pp, and every other one, f's included, to the first.
    spread = [1] * ft.domain.letters
    spread[gg[position - 1] - 1] = 2
    h = synth_from_graph(pp, f_subst.domain, spread, mode)
    j = synth_from_graph(f_subst.codomain, p, (position,), mode)

    if (
        graph_of(compose(h, f_subst, j)) != LHS_GRAPH
        or graph_of(compose(h, g_subst, j)) != RHS_GRAPH
    ):
        raise InternalError("collapse composites have unexpected graphs")
    # Both composites have type pp -> p, and their graphs are the two
    # projections', so their normal forms are the two projections.
    return CollapseWitness(p, position, f_subst, g_subst, h, j, Proj1(p, p), Proj2(p, p))


def verify_witness(w: CollapseWitness, mode: Mode = Mode.CARTESIAN) -> bool:
    """Recompute the composites and their normal forms from scratch.

    The normal forms are recomputed by rewriting, independently of the
    graph read-back that built the witness.  A witness whose parts do not
    compose, or leave the mode, is rejected; any other error is a bug and
    is raised.
    """
    try:
        lhs = compose(w.h, w.f_subst, w.j)
        rhs = compose(w.h, w.g_subst, w.j)
        typecheck(lhs, mode)
        typecheck(rhs, mode)
        return (
            graph_of(lhs) == LHS_GRAPH
            and graph_of(rhs) == RHS_GRAPH
            and normalize(lhs, mode).result == w.lhs_normal == Proj1(w.letter, w.letter)
            and normalize(rhs, mode).result == w.rhs_normal == Proj2(w.letter, w.letter)
        )
    except (TypeMismatch, ModeViolation):
        return False
