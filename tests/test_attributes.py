"""Synthesized attributes against their definitions, and the constructors that set them.

Objects carry their letter count, symbol count and whether they contain
T; arrows carry whether they are terminal-free, their graph's map and
their termination measure.  Every reference below is recomputed from
the node's fields and never reads any of them.
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    ArrowTerm,
    Bang,
    Compose,
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
    TypeMismatch,
    compose,
    degree,
    dup,
    graph_of,
    iter_subterms,
    letters_of,
    parse_arrow,
    product_of_arrows,
    replace_subterm,
    step,
    substitute_all_letters,
    subterm_at,
    typecheck,
)
from termgen import LETTERS, mutate_preserving, random_arrow, reference_substitute, trace_states

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS, build  # noqa: E402

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


def _children(t):
    """The children of a node in path order, read from its fields."""
    match t:
        case Pair(first, second):
            return (first, second)
        case Compose(factors):
            return factors
    return ()


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
    return trace_states(t, mode)[:5]


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
            children = _children(sub)
            assert type(sub.parts) is tuple and len(sub.parts) == len(children)
            assert all(a is b for a, b in zip(sub.parts, children))
            assert sub.terminal_free == _terminal_free(sub)
            assert (sub.domain.letters, sub.codomain.letters, graph_of(sub)) == _graph(sub)
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


def _counting_constructors(monkeypatch):
    """Every arrow node built from now on, recorded by its constructor."""
    built = []
    for cls in (Identity, Proj1, Proj2, Bang, Pair, Compose):

        def counted(self, *args, _original=cls.__init__, **kwargs):
            built.append(self)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_a_step_keeps_every_subterm_off_its_spine(mode, rng):
    with pytest.MonkeyPatch.context() as monkeypatch:
        # Every arrow attribute is set by its node's constructor.
        typed = _counting_constructors(monkeypatch)
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
                    # The step built its new nodes, and measuring and
                    # graphing the result builds none and sets nothing.
                    fresh = {id(sub) for _, sub in iter_subterms(after)} - old
                    assert fresh <= {id(node) for node in typed}
                    typed.clear()
                    attributes = [dict(vars(sub)) for _, sub in iter_subterms(after)]
                    degree(after)
                    graph_of(after)
                    assert typed == []
                    assert [vars(sub) for _, sub in iter_subterms(after)] == attributes


# ---------------------------------------------------------------------------
# The binary-products check: a terminal-free term passes at once, and any
# other is walked for its first violation

def _preorder(t, path=()):
    """(path, subterm) pairs in preorder, descending through the fields."""
    yield path, t
    for i, child in enumerate(_children(t)):
        yield from _preorder(child, (*path, i))


def _first_violation(t):
    for path, sub in _preorder(t):
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


# ---------------------------------------------------------------------------
# Constructors: keyword and positional arguments, dataclasses.replace,
# and the errors raised on arguments that do not fit

p, q, r = (LetterObj(name) for name in "pqr")
pq = Product(p, q)

# Each node class with the fields of two instances; the second differs
# from the first in some fields, which replace() puts in.
CONSTRUCTOR_CASES = {
    LetterObj: ({"name": "p"}, {"name": "q"}),
    Product: ({"left": p, "right": q}, {"left": p, "right": Product(q, T)}),
    Identity: ({"obj": pq}, {"obj": Product(T, r)}),
    Proj1: ({"left": p, "right": q}, {"left": Product(q, T), "right": q}),
    Proj2: ({"left": p, "right": q}, {"left": p, "right": pq}),
    Bang: ({"obj": p}, {"obj": Product(pq, T)}),
    Pair: (
        {"first": Proj1(p, q), "second": Proj2(p, q)},
        {"first": Proj1(p, q), "second": compose(Proj2(p, q), Bang(q))},
    ),
    # A nested composition is spliced in by replace() as by the constructor.
    Compose: (
        {"factors": (Identity(pq), Proj1(p, q))},
        {"factors": (Compose((Identity(pq), Identity(pq))), Proj2(p, q), Identity(q))},
    ),
}

ARROW_ATTRIBUTES = {"domain", "codomain", "terminal_free", "map", "measure"}


def _stored(node):
    """Every field and attribute that the constructor writes."""
    fields = {f.name for f in dataclasses.fields(node)}
    extra = ARROW_ATTRIBUTES if isinstance(node, ArrowTerm) else set()
    if isinstance(node, (Pair, Compose)):
        extra = ARROW_ATTRIBUTES | {"parts"}
    if isinstance(node, Product):
        extra = {"letters", "symbols", "has_terminal"}
    assert set(vars(node)) == fields | extra
    return vars(node)


@pytest.mark.parametrize("cls", list(CONSTRUCTOR_CASES), ids=lambda cls: cls.__name__)
def test_keyword_construction_equals_positional_construction(cls):
    for fields in CONSTRUCTOR_CASES[cls]:
        by_keyword, by_position = cls(**fields), cls(*fields.values())
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert repr(by_keyword) == repr(by_position)
        assert _stored(by_keyword) == _stored(by_position)


@pytest.mark.parametrize("cls", list(CONSTRUCTOR_CASES), ids=lambda cls: cls.__name__)
def test_replace_recomputes_every_stored_attribute(cls):
    before, after = CONSTRUCTOR_CASES[cls]
    changes = {name: value for name, value in after.items() if value is not before[name]}
    replaced = dataclasses.replace(cls(**before), **changes)
    expected = _stored(cls(**after))
    assert _stored(replaced) == expected
    assert _stored(replaced) != _stored(cls(**before))
    # The replaced node is a node like any other: its children untouched
    # and its attributes those of its own fields.
    assert replaced == cls(**after)


NOT_OBJECT, NOT_ARROW = "not an object: ", "not an arrow term: "


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: LetterObj(3), "not a letter name: 3"),
        (lambda: LetterObj(Identity(p)), "not a letter name: " + repr(Identity(p))),
        # A pair of objects is the key of their product in the table of objects.
        (lambda: LetterObj((p, q)), "not a letter name: " + repr((p, q))),
        (lambda: Product(p, "q"), NOT_OBJECT + "'q'"),
        (lambda: Product(1, p), NOT_OBJECT + "1"),
        (lambda: Product(left=p, right=None), NOT_OBJECT + "None"),
        (lambda: Identity("p"), NOT_OBJECT + "'p'"),
        (lambda: Identity(obj=Identity(p)), NOT_OBJECT + repr(Identity(p))),
        (lambda: Bang(None), NOT_OBJECT + "None"),
        (lambda: Proj1(p, 3), NOT_OBJECT + "3"),
        (lambda: Proj1("p", q), NOT_OBJECT + "'p'"),
        (lambda: Proj2("x", p), NOT_OBJECT + "'x'"),
        (lambda: Proj2(left=p, right=Identity(p)), NOT_OBJECT + repr(Identity(p))),
        (lambda: Pair(Identity(p), p), NOT_ARROW + repr(p)),
        (lambda: Pair("f", 1), NOT_ARROW + "'f'"),
        (lambda: Pair(first=Identity(p), second=None), NOT_ARROW + "None"),
        # Every factor is checked before any seam.
        (lambda: Compose((Identity(p), Identity(q), "f")), NOT_ARROW + "'f'"),
        (lambda: Compose(factors=(p, Identity(p))), NOT_ARROW + repr(p)),
        (lambda: letters_of("p"), NOT_OBJECT + "'p'"),
        (lambda: letters_of(Identity(p)), NOT_OBJECT + repr(Identity(p))),
        (lambda: substitute_all_letters(p, q), NOT_ARROW + repr(p)),
        (lambda: substitute_all_letters(Identity(p), pq), "not a letter: " + repr(pq)),
    ],
)
def test_non_objects_and_non_arrows_raise_type_error(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("build", "message", "path"),
    [
        (lambda: Pair(Identity(p), Identity(q)), "pair components must share a domain: p vs q", ()),
        (
            lambda: Pair(first=Proj1(p, q), second=Identity(q)),
            "pair components must share a domain: p*q vs q",
            (),
        ),
        (
            lambda: Compose((Identity(p), Identity(q))),
            "composition factor 1 expects domain p but has q",
            (1,),
        ),
        (
            lambda: Compose(factors=(Identity(pq), Proj1(p, q), Proj2(p, q))),
            "composition factor 2 expects domain p but has p*q",
            (2,),
        ),
        # A nested composition is spliced in, so later indices count its factors.
        (
            lambda: Compose((Compose((Identity(pq), Proj1(p, q))), Bang(p), Identity(p))),
            "composition factor 3 expects domain T but has p",
            (3,),
        ),
    ],
)
def test_mismatches_raise_type_mismatch_with_message_and_path(build, message, path):
    with pytest.raises(TypeMismatch) as exc:
        build()
    assert (str(exc.value), exc.value.path) == (message, path)


def test_a_composition_needs_two_factors():
    for factors in ((), (Identity(p),), [Bang(p)]):
        with pytest.raises(ValueError) as exc:
            Compose(factors)
        assert str(exc.value) == "composition needs at least two factors"


# ---------------------------------------------------------------------------
# Substitution copies each node's dict: node by node, what the
# constructors would build

_CHILDREN = {"first", "second", "parts", "factors"}


def check_substitution(t, letter=p):
    """substitute_all_letters(t, letter) against reference_substitute, node by node.

    Every node must have its reference's class and hash, and every field
    and attribute of the reference; children are compared as the walk
    reaches them, and must be the node's own parts.  Returns the copy.
    """
    fast, ref = substitute_all_letters(t, letter), reference_substitute(t, letter)
    assert fast == ref
    todo = [(fast, ref)]
    while todo:
        a, b = todo.pop()
        assert type(a) is type(b) and hash(a) == hash(b)
        stored_a, stored_b = _stored(a), _stored(b)
        assert {k: v for k, v in stored_a.items() if k not in _CHILDREN} == {
            k: v for k, v in stored_b.items() if k not in _CHILDREN
        }
        if isinstance(a, Pair):
            assert a.first is a.parts[0] and a.second is a.parts[1]
        elif isinstance(a, Compose):
            assert a.factors is a.parts
        todo += zip(a.parts, b.parts)
    return fast


def test_substitution_matches_the_reference_on_the_corpora():
    count = 0
    for seed in (1, 2):
        for workload in WORKLOADS:
            for query in build(workload, seed):
                if query.deep:
                    continue
                for text in query.texts:
                    check_substitution(parse_arrow(text, Mode(query.mode)))
                    count += 1
    assert count > 4000


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_substitution_matches_the_reference_on_drawn_terms(mode, rng):
    t = mutate_preserving(rng, random_arrow(rng, mode=mode), mode=mode)
    check_substitution(t, LetterObj(rng.choice(("p", "z"))))


def _leaf_ids(t):
    return {id(sub) for _, sub in iter_subterms(t) if not sub.parts}


def test_substitution_of_shared_subterms_matches_the_reference():
    # The parser hands out one arrow per leaf text, so both id{p*q} are one node.
    shared = parse_arrow("p2{p*q,p*q} . <id{p*q}, id{p*q}> . p1{p*q,r} . <p1{p*q,r}, p2{p*q,r}>")
    f = compose(Proj1(pq, r), Pair(Proj2(p, q), Proj1(p, q)))
    for t in (shared, dup(pq), Pair(f, f), product_of_arrows(f, f), product_of_arrows(shared, dup(r))):
        copy = check_substitution(t, q)
        # Each distinct leaf is copied once.
        assert len(_leaf_ids(copy)) == len(_leaf_ids(t))
