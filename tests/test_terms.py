import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    ArrowType,
    Bang,
    Compose,
    Identity,
    LetterObj,
    Mode,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    TypeMismatch,
    ModeViolation,
    collapse_witness,
    equal_in_cart,
    equal_via_normal_forms,
    is_normal_form,
    assoc_l,
    assoc_r,
    compose,
    dup,
    delta,
    iter_subterms,
    letters_of,
    normal_form,
    normalize,
    parse_arrow,
    print_arrow,
    product_of_arrows,
    replace_subterm,
    sigma,
    substitute_all_letters,
    subterm_at,
    swap,
    synth_from_graph,
    typecheck,
    verify_witness,
)
from termgen import mutate_preserving, random_arrow, random_object

p = LetterObj("p")
q = LetterObj("q")
r = LetterObj("r")
T = Terminal()

# The running example object ((p*q)*p)*(T*p).
BIG = Product(Product(Product(p, q), p), Product(T, p))


def test_letter_rejects_bad_names():
    for name in ("T", "", "1p"):
        with pytest.raises(ValueError, match=re.escape(f"invalid letter name: {name!r}")):
            LetterObj(name)


def test_a_letter_is_its_one_object():
    assert LetterObj("p") is p
    assert LetterObj(name="p") is p
    assert dataclasses.replace(p) is p
    assert dataclasses.replace(q, name="p") is p
    assert copy.copy(p) is p and copy.deepcopy(p) is p
    assert pickle.loads(pickle.dumps(p)) is p
    match p:
        case LetterObj(name):
            assert LetterObj(name) is p
    assert letters_of(Product(p, q)) == (p, q)
    assert (p.name, str(p), repr(p)) == ("p", "p", "LetterObj(name='p')")


def test_typecheck_projection():
    assert typecheck(Proj1(p, q)) == ArrowType(Product(p, q), p)


def test_typecheck_pair_of_identities():
    assert typecheck(Pair(Identity(p), Identity(p))) == ArrowType(p, Product(p, p))


def test_typecheck_pair_domain_mismatch():
    with pytest.raises(TypeMismatch) as exc:
        typecheck(Pair(Identity(p), Identity(q)))
    assert exc.value.path == ()


def test_typecheck_compose_adjacency():
    with pytest.raises(TypeMismatch) as exc:
        Compose((Identity(p), Proj1(p, q)))
    assert exc.value.path == (1,)
    # The path is the factor's index in the flattened composite.
    with pytest.raises(TypeMismatch) as exc:
        compose(compose(Proj1(p, q), Identity(p)), Identity(q))
    assert exc.value.path == (2,)


def test_construction_rejects_ill_fitting_parts():
    t = Pair(compose(Proj1(p, q), Identity(p)), Proj2(p, q))
    with pytest.raises(TypeMismatch):
        replace_subterm(t, (0, 1), Identity(q))
    with pytest.raises(TypeError):
        Compose((Identity(p), "not a term"))
    with pytest.raises(TypeError):
        Identity("p")


@pytest.mark.parametrize(
    "t, path",
    [
        # a negative index, under a composition and under a pairing
        (Compose((Proj1(p, q), Identity(p))), (-1,)),
        (Pair(Identity(p), Identity(p)), (-1,)),
        # an index other than 0 or 1 under a pairing
        (Pair(Identity(p), Identity(p)), (5,)),
        (Pair(Identity(p), Identity(p)), (2,)),
        # an index past the last factor of a composition
        (Compose((Proj1(p, q), Identity(p))), (2,)),
        # and below a leaf
        (Pair(Identity(p), Identity(p)), (0, 0)),
    ],
)
def test_replace_subterm_rejects_what_subterm_at_rejects(t, path):
    with pytest.raises(IndexError):
        subterm_at(t, path)
    with pytest.raises(IndexError):
        replace_subterm(t, path, Bang(p))


def _type_from_scratch(t):
    """(domain, codomain) recomputed from the typing rules, checking them."""
    match t:
        case Identity(obj):
            return obj, obj
        case Proj1(left, right):
            return Product(left, right), left
        case Proj2(left, right):
            return Product(left, right), right
        case Bang(obj):
            return obj, T
        case Pair(first, second):
            (d1, c1), (d2, c2) = _type_from_scratch(first), _type_from_scratch(second)
            assert d1 == d2
            return d1, Product(c1, c2)
        case Compose(factors):
            types = [_type_from_scratch(f) for f in factors]
            assert all(a[1] == b[0] for a, b in zip(types, types[1:]))
            return types[0][0], types[-1][1]
    raise AssertionError(f"not an arrow term: {t!r}")


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_stored_types_match_the_typing_rules(mode, rng):
    t = mutate_preserving(rng, random_arrow(rng, mode=mode), mode=mode)
    for _, sub in iter_subterms(t):
        assert (sub.domain, sub.codomain) == _type_from_scratch(sub)


def test_typecheck_mode_violations():
    with pytest.raises(ModeViolation):
        typecheck(Bang(p), Mode.BINARY_PRODUCTS)
    with pytest.raises(ModeViolation):
        typecheck(Identity(Product(p, T)), Mode.BINARY_PRODUCTS)
    assert typecheck(Bang(p)) == ArrowType(p, T)
    # A mode violation's path starts at the root.
    with pytest.raises(ModeViolation) as exc:
        typecheck(Pair(Identity(p), compose(Bang(p), Bang(T))), Mode.BINARY_PRODUCTS)
    assert exc.value.path == (1, 0)


def test_letter_length():
    assert BIG.letters == 4
    assert T.letters == 0
    assert p.letters == 1


def test_symbol_length():
    assert p.symbols == 1
    assert T.symbols == 1
    assert BIG.symbols == 9


def test_substitute_examples():
    assert substitute_all_letters(Proj1(q, r), p) == Proj1(p, p)
    assert substitute_all_letters(Bang(Product(q, r)), p) == Bang(Product(p, p))
    assert substitute_all_letters(Pair(Proj2(q, r), Proj1(q, r)), p) == Pair(
        Proj2(p, p), Proj1(p, p)
    )


def _shape(t):
    return [type(s).__name__ for _, s in iter_subterms(t)]


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_substitute_preserves_shape_and_typing(rng):
    t = random_arrow(rng)
    s = substitute_all_letters(t, LetterObj("z"))
    assert _shape(s) == _shape(t)
    ty = typecheck(s)
    assert ty.domain == s.domain and ty.codomain == s.codomain
    assert all(letter == LetterObj("z") for letter in letters_of(ty.domain))


def test_swap_is_pair_of_projections():
    assert swap(p, q) == Pair(Proj2(p, q), Proj1(p, q))
    assert typecheck(swap(p, q)) == ArrowType(Product(p, q), Product(q, p))


def test_dup_and_padding():
    assert dup(p) == Pair(Identity(p), Identity(p))
    assert sigma(p) == Pair(Bang(p), Identity(p))
    assert typecheck(sigma(p)) == ArrowType(p, Product(T, p))
    assert typecheck(delta(p)) == ArrowType(p, Product(p, T))


def test_sigma_delta_mode_violation():
    with pytest.raises(ModeViolation):
        typecheck(sigma(p), Mode.BINARY_PRODUCTS)
    with pytest.raises(ModeViolation):
        typecheck(delta(p), Mode.BINARY_PRODUCTS)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_derived_arrows_have_their_stated_types(rng):
    a = random_object(rng, max_depth=1)
    b = random_object(rng, max_depth=1)
    c = random_object(rng, max_depth=1)
    assert typecheck(assoc_r(a, b, c)) == ArrowType(
        Product(a, Product(b, c)), Product(Product(a, b), c)
    )
    assert typecheck(assoc_l(a, b, c)) == ArrowType(
        Product(Product(a, b), c), Product(a, Product(b, c))
    )
    assert typecheck(swap(a, b)) == ArrowType(Product(a, b), Product(b, a))
    assert typecheck(dup(a)) == ArrowType(a, Product(a, a))
    assert typecheck(sigma(a)) == ArrowType(a, Product(T, a))
    assert typecheck(delta(a)) == ArrowType(a, Product(a, T))


def test_product_of_arrows_structure():
    assert product_of_arrows(Identity(p), Identity(q)) == Pair(
        Compose((Proj1(p, q), Identity(p))), Compose((Proj2(p, q), Identity(q)))
    )


def test_product_of_arrows_types():
    assert typecheck(product_of_arrows(Proj1(p, q), Bang(r))) == ArrowType(
        Product(Product(p, q), r), Product(p, T)
    )
    assert typecheck(product_of_arrows(Bang(p), Bang(p))) == ArrowType(
        Product(p, p), Product(T, T)
    )


def test_compose_flattens_and_collapses():
    chain = compose(Proj1(Product(p, q), r), Proj1(p, q))
    assert compose(chain, Identity(p)) == Compose(
        (Proj1(Product(p, q), r), Proj1(p, q), Identity(p))
    )
    assert compose(Identity(p)) == Identity(p)
    with pytest.raises(ValueError):
        Compose((Identity(p),))
    with pytest.raises(ValueError):
        compose()


def test_compose_constructor_flattens_nested():
    inner = Compose((Proj1(Product(p, q), r), Proj1(p, q)))
    outer = Compose((inner, Identity(p)))
    assert outer.factors == (Proj1(Product(p, q), r), Proj1(p, q), Identity(p))


def test_arrow_equality_examples():
    a = Compose((Identity(p), Pair(Identity(p), Bang(p))))
    b = Compose((Identity(p), Pair(Identity(p), Bang(p))))
    assert a == b and hash(a) == hash(b)
    # Compositions of one type whose factor lists differ only in length.
    two = Compose((Identity(p), Identity(p)))
    three = Compose((Identity(p), Identity(p), Identity(p)))
    assert two != three and three != two
    assert Proj1(p, p) != Proj2(p, p)
    assert Identity(p) != Identity(q)
    assert Identity(p) != p and Identity(p) != "id{p}"


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_arrow_equality_agrees_with_printed_text(rng):
    # Printing is injective on terms, so equal texts are the reference.
    t = random_arrow(rng)
    u = mutate_preserving(rng, t)
    subterms = [s for _, s in iter_subterms(t)] + [s for _, s in iter_subterms(u)]
    subterms.append(parse_arrow(print_arrow(t)))
    texts = [print_arrow(s) for s in subterms]
    for x, x_text in zip(subterms, texts):
        for y, y_text in zip(subterms, texts):
            assert (x == y) == (x_text == y_text)
            if x == y:
                assert hash(x) == hash(y)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_no_nested_compose_anywhere(rng):
    t = random_arrow(rng)
    for _, sub in iter_subterms(t):
        if isinstance(sub, Compose):
            assert all(not isinstance(f, Compose) for f in sub.factors)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_letter_length_is_additive(rng):
    a = random_object(rng)
    b = random_object(rng)
    assert Product(a, b).letters == a.letters + b.letters


@pytest.mark.parametrize("mode", ["binary-products", "cartesian", None])
def test_every_function_that_takes_a_mode_rejects_what_is_not_one(mode):
    # A mode is read in one place, so no function takes a string or None
    # for one mode or the other.
    bang, pt = Bang(p), Product(p, Terminal())
    witness = collapse_witness(Proj1(p, p), Proj2(p, p))
    calls = (
        lambda: parse_arrow("bang{p}", mode),
        lambda: typecheck(bang, mode),
        lambda: normalize(bang, mode),
        lambda: is_normal_form(bang, mode),
        lambda: normal_form(bang, mode),
        lambda: synth_from_graph(pt, p, (1,), mode),
        lambda: equal_in_cart(bang, bang, mode),
        lambda: equal_via_normal_forms(bang, bang, mode),
        lambda: collapse_witness(Proj1(p, p), Proj2(p, p), mode),
        lambda: verify_witness(witness, mode),
    )
    for call in calls:
        with pytest.raises(TypeError, match=f"^not a mode: {re.escape(repr(mode))}$"):
            call()
