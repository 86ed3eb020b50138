"""Terms far deeper and longer than the recursion limit, built in a loop.

A term's graph and degree are read off its root, and the binary-products
check and the redex search walk from explicit stacks, so none of them
has a depth limit.  The terms are built directly, not parsed: the
parser still recurses.
"""

import sys

import pytest

from freecart import (
    Bang,
    Compose,
    Degree,
    Graph,
    Identity,
    Letter,
    LetterObj,
    Mode,
    ModeViolation,
    Pair,
    Product,
    Proj1,
    RedexKind,
    Terminal,
    degree,
    find_redex,
    graph_of,
    typecheck,
)

p = LetterObj(Letter("p"))
pp = Product(p, p)
T = Terminal()
DEPTH = 10_000
LENGTH = 20_000


def test_a_pairing_nested_deeper_than_the_recursion_limit():
    assert DEPTH > sys.getrecursionlimit()
    # <...<<id{p*p} . bang{p*p}, p1>, p1>, ..., p1>, with DEPTH pairings.
    t = Compose((Identity(pp), Bang(pp)))
    for _ in range(DEPTH):
        t = Pair(t, Proj1(p, p))
    assert graph_of(t) == Graph(2, DEPTH, (1,) * DEPTH)
    # gamma: 3 * 2 at the bottom, then 3 + 1 per pairing; beta: 1 symbol
    # for the bottom and for each projection.
    assert degree(t) == Degree(0, DEPTH + 1, 6 + 4 * DEPTH)
    assert typecheck(t).domain is pp
    # The binary-products check walks down to the terminal arrow at the bottom.
    with pytest.raises(ModeViolation) as exc:
        typecheck(t, Mode.BINARY_PRODUCTS)
    assert str(exc.value) == "terminal arrow not available in binary-products mode"
    assert exc.value.path == (0,) * DEPTH + (1,)
    assert find_redex(t) == ((0,) * DEPTH + (0,), RedexKind.IDENTITY_RIGHT)


def test_a_composition_of_many_factors_built_in_one_call():
    n = LENGTH // 2
    beta_pairs = [Pair(Identity(p), Identity(p)), Proj1(p, p)] * (n - 1)
    t = Compose((*beta_pairs, Pair(Identity(p), Bang(p)), Proj1(p, T)))
    assert len(t.factors) == LENGTH
    assert graph_of(t) == Graph(1, 1, (1,))
    # gamma: 7 * 3 per beta pair, and 6 * 3 for the last; every pairing
    # is a factor, so alpha is gamma, and each pairing counts beta 2.
    gamma = 21 ** (n - 1) * 18
    assert degree(t) == Degree(gamma, LENGTH, gamma)
    assert typecheck(t).domain is p
    with pytest.raises(ModeViolation) as exc:
        typecheck(t, Mode.BINARY_PRODUCTS)
    assert str(exc.value) == "terminal arrow not available in binary-products mode"
    assert exc.value.path == (LENGTH - 2, 1)
    assert find_redex(t) == ((0,), RedexKind.PAIRING_BETA1)
