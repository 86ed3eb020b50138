"""Synthesized attributes against their definitions.

Objects carry their letter count, symbol count and whether they contain
T; arrows carry whether they are terminal-free, their graph's map and
their termination measure.  Every reference below is recomputed from
the node's fields and never reads any of them.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    ArrowTerm,
    Bang,
    Compose,
    Graph,
    Identity,
    InvalidRedex,
    LetterObj,
    Mode,
    ModeViolation,
    Pair,
    Product,
    Proj1,
    Proj2,
    RedexKind,
    Terminal,
    compose,
    degree,
    graph_of,
    iter_subterms,
    normalize,
    replace_subterm,
    step,
    subterm_at,
    typecheck,
)
from termgen import LETTERS, mutate_preserving, random_arrow

T = Terminal()


# ---------------------------------------------------------------------------
# References, from the fields alone

def _letters(a):
    match a:
        case Product(left, right):
            return _letters(left) + _letters(right)
        case Terminal():
            return 0
    return 1


def _symbols(a):
    match a:
        case Product(left, right):
            return 1 + _symbols(left) + _symbols(right)
    return 1


def _has_t(a):
    match a:
        case Product(left, right):
            return _has_t(left) or _has_t(right)
    return isinstance(a, Terminal)


def _sub_objects(a):
    yield a
    if isinstance(a, Product):
        yield from _sub_objects(a.left)
        yield from _sub_objects(a.right)


def _leaf_objects(t):
    """The objects written in an identity, a projection or a terminal arrow."""
    match t:
        case Identity(obj) | Bang(obj):
            return (obj,)
        case Proj1(left, right) | Proj2(left, right):
            return (left, right)
    return ()


def _codomain(t):
    match t:
        case Identity(obj):
            return obj
        case Proj1(left, _):
            return left
        case Proj2(_, right):
            return right
        case Bang(_):
            return T
        case Pair(first, second):
            return Product(_codomain(first), _codomain(second))
        case Compose(factors):
            return _codomain(factors[-1])


def _terminal_free(t):
    return not any(
        isinstance(sub, Bang) or any(map(_has_t, _leaf_objects(sub)))
        for _, sub in iter_subterms(t)
    )


def _graph(t):
    """(source letters, target letters, map) by induction on the term."""
    match t:
        case Identity(obj):
            n = _letters(obj)
            return n, n, tuple(range(1, n + 1))
        case Proj1(left, right):
            nl, nr = _letters(left), _letters(right)
            return nl + nr, nl, tuple(range(1, nl + 1))
        case Proj2(left, right):
            nl, nr = _letters(left), _letters(right)
            return nl + nr, nr, tuple(range(nl + 1, nl + nr + 1))
        case Bang(obj):
            return _letters(obj), 0, ()
        case Pair(first, second):
            (s, n1, m1), (_, n2, m2) = _graph(first), _graph(second)
            return s, n1 + n2, m1 + m2
        case Compose(factors):
            s, n, m = _graph(factors[0])
            for f in factors[1:]:
                _, n, later = _graph(f)
                m = tuple(m[j - 1] for j in later)
            return s, n, m


def _gamma(t):
    match t:
        case Bang(_):
            return 2
        case Pair(first, second):
            return _gamma(first) + _gamma(second) + 1
        case Compose(factors):
            return math.prod(_gamma(f) for f in factors)
    return 3


def _reference_measure(t, factor):
    """The measure tuple from its definition, t being a factor or not."""
    at = dict(iter_subterms(t))

    def pairing_free(u):
        return not any(isinstance(s, Pair) for _, s in iter_subterms(u))

    def in_factor(path):
        return factor if not path else isinstance(at[path[:-1]], Compose)

    under = any(path and in_factor(path) and not pairing_free(u) for path, u in at.items())
    # The product-eliminative occurrences: pairing-free, not a factor,
    # and not inside another pairing-free occurrence.
    beta = sum(
        _symbols(_codomain(u))
        for path, u in at.items()
        if pairing_free(u)
        and not in_factor(path)
        and not any(pairing_free(at[path[:k]]) for k in range(len(path)))
    )
    return _gamma(t), not pairing_free(t), under, beta


def _states(rng, mode):
    """A random term, mutated, and the first terms on its way to normal form."""
    t = mutate_preserving(rng, random_arrow(rng, mode=mode), mode=mode)
    return [t] + [s.after for s in normalize(t, mode).steps[:4]]


# ---------------------------------------------------------------------------
# Every attribute equals its definition

@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cached_attributes_match_their_definitions(mode, rng):
    for t in _states(rng, mode):
        for _, sub in iter_subterms(t):
            for a in {id(o): o for top in (sub.domain, sub.codomain, *_leaf_objects(sub))
                      for o in _sub_objects(top)}.values():
                assert (a.letters, a.symbols, a.has_terminal) == (
                    _letters(a), _symbols(a), _has_t(a))
            assert sub.terminal_free == _terminal_free(sub)
            assert graph_of(sub) == Graph(*_graph(sub))
            gamma, pair, under, beta = sub.measure
            assert (gamma, pair, under, beta) == _reference_measure(sub, False)
            # As a factor, a pairing-free node counts nothing.
            assert (gamma, pair, under, beta if pair else 0) == _reference_measure(sub, True)


# ---------------------------------------------------------------------------
# A step rebuilds only its spine, so the nodes off it are kept

_WINDOW = {
    RedexKind.IDENTITY_LEFT: (0, 1),
    RedexKind.IDENTITY_RIGHT: (0, 1),
    RedexKind.PAIRING_BETA1: (0, 2),
    RedexKind.PAIRING_BETA2: (0, 2),
    RedexKind.DISTR: (-1, 1),
}


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_a_step_keeps_every_subterm_off_its_spine(mode, rng):
    with pytest.MonkeyPatch.context() as monkeypatch:
        # Every arrow attribute is set through this one method.
        typed = _counting(monkeypatch, ArrowTerm, "_typed")
        for t in _states(rng, mode)[:3]:
            old = {id(sub) for _, sub in iter_subterms(t)}
            for path, _ in iter_subterms(t):
                for kind in RedexKind:
                    typed.clear()
                    try:
                        after = step(t, path, kind)
                    except InvalidRedex:
                        continue
                    # The rewritten node: the composition around a window,
                    # or the atomized subterm itself.
                    spine = path[:-1] if kind in _WINDOW else path
                    for x, u in iter_subterms(t):
                        if x[: len(spine)] != spine and spine[: len(x)] != x:
                            assert subterm_at(after, x) is u, (kind, path, x)
                    if kind in _WINDOW:
                        factors, i = subterm_at(t, spine).factors, path[-1]
                        lo, hi = (i + d for d in _WINDOW[kind])
                        new = subterm_at(after, spine)
                        result = new.factors if isinstance(new, Compose) else (new,)
                        assert all(a is b for a, b in zip(result, factors[:lo]))
                        kept = factors[hi:]
                        assert all(a is b for a, b in zip(result[::-1], kept[::-1]))
                    # The step set the attributes of its new nodes, and
                    # measuring and graphing the result sets none.
                    fresh = {id(sub) for _, sub in iter_subterms(after)} - old
                    assert fresh <= {id(node) for node in typed}
                    typed.clear()
                    degree(after)
                    graph_of(after)
                    assert typed == []


# ---------------------------------------------------------------------------
# The binary-products check: a terminal-free term passes at once, and any
# other is walked for its first violation

def _first_violation(t):
    for path, sub in iter_subterms(t):
        if isinstance(sub, Bang):
            return "terminal arrow not available in binary-products mode", path
        if any(map(_has_t, _leaf_objects(sub))):
            return "terminal object not available in binary-products mode", path
    return None


def _terminal_for(t, letter):
    """t with T put in for every occurrence of `letter` in its objects."""

    def obj(a):
        match a:
            case Product(left, right):
                return Product(obj(left), obj(right))
            case LetterObj(name) if name == letter:
                return T
        return a

    match t:
        case Identity(o):
            return Identity(obj(o))
        case Proj1(left, right):
            return Proj1(obj(left), obj(right))
        case Proj2(left, right):
            return Proj2(obj(left), obj(right))
        case Bang(o):
            return Bang(obj(o))
        case Pair(first, second):
            return Pair(_terminal_for(first, letter), _terminal_for(second, letter))
        case Compose(factors):
            return Compose(tuple(_terminal_for(f, letter) for f in factors))


def _with_bang(rng, t):
    """t with a detour through T, by way of a bang, at a random subterm."""
    path, sub = rng.choice(list(iter_subterms(t)))
    b = sub.codomain
    detour = compose(sub, Pair(Identity(b), Bang(b)), Proj1(b, T))
    return replace_subterm(t, path, detour)


@given(st.randoms(use_true_random=False), st.sampled_from(list(Mode)))
@settings(max_examples=150, deadline=None)
def test_binary_products_typecheck_finds_the_first_violation(rng, mode):
    t = random_arrow(rng, mode=mode)
    if rng.random() < 0.5:
        t = _terminal_for(t, rng.choice(LETTERS))
    if rng.random() < 0.5:
        t = _with_bang(rng, t)
    expected = _first_violation(t)
    assert t.terminal_free == (expected is None)
    if expected is None:
        assert typecheck(t, Mode.BINARY_PRODUCTS) == typecheck(t)
    else:
        with pytest.raises(ModeViolation) as exc:
            typecheck(t, Mode.BINARY_PRODUCTS)
        assert (str(exc.value), exc.value.path) == expected
