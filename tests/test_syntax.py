import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    Bang,
    Compose,
    Identity,
    Letter,
    LetterObj,
    Mode,
    Pair,
    ParseError,
    Product,
    Proj1,
    Proj2,
    Terminal,
    compose,
    derived_arrow,
    dup,
    letter_length,
    parse_arrow,
    parse_object,
    print_arrow,
    print_object,
    swap,
    typecheck,
)
from termgen import random_arrow

p = LetterObj(Letter("p"))
q = LetterObj(Letter("q"))
T = Terminal()


def test_parse_object_running_example():
    obj = parse_object("((p*q)*p)*(T*p)")
    assert obj == Product(Product(Product(p, q), p), Product(T, p))
    assert letter_length(obj) == 4


def test_parse_object_letter_and_unicode_star():
    assert parse_object("p") == p
    assert parse_object("p × q") == Product(p, q)


def test_parse_object_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_object("(p*")
    lo, hi = exc.value.diagnostic.span
    assert 0 <= lo <= hi <= len("(p*")
    with pytest.raises(ParseError):
        parse_object("p*q*r")
    with pytest.raises(ParseError):
        parse_object("(p)")


def test_parse_arrow_composition_order():
    t = parse_arrow("p1{p,T} . <id{p}, bang{p}>")
    assert t == Compose((Pair(Identity(p), Bang(p)), Proj1(p, T)))
    ty = typecheck(t)
    assert ty.domain == p and ty.codomain == p


def test_parse_arrow_macros():
    assert parse_arrow("swap{p,q}") == Pair(Proj2(p, q), Proj1(p, q))
    assert parse_arrow("dup{p}") == dup(p)
    assert parse_arrow("prod(id{p}, id{q})") == Pair(
        compose(Proj1(p, q), Identity(p)), compose(Proj2(p, q), Identity(q))
    )


# Every derived arrow, with objects of its arity written out.
MACRO_OBJECTS = {
    "assoc_r": ("p", "q*r", "T"),
    "assoc_l": ("p*q", "T", "r"),
    "swap": ("p", "q*T"),
    "dup": ("p*q",),
    "sigma": ("q",),
    "delta": ("p*T",),
}


@pytest.mark.parametrize("name", sorted(MACRO_OBJECTS))
def test_parse_every_macro_at_its_arity(name):
    objects = MACRO_OBJECTS[name]
    expected = derived_arrow(name, *(parse_object(o) for o in objects))
    assert parse_arrow(f"{name}{{{','.join(objects)}}}") == expected
    for wrong in (objects + ("p",), objects[:-1]):
        with pytest.raises(ParseError):
            parse_arrow(f"{name}{{{','.join(wrong)}}}")


def test_parse_arrow_type_diagnostic():
    with pytest.raises(ParseError):
        parse_arrow("<id{p}, id{q}>")


def test_parse_arrow_mode_violations():
    with pytest.raises(ParseError):
        parse_arrow("bang{p}", Mode.BINARY_PRODUCTS)
    with pytest.raises(ParseError):
        parse_arrow("sigma{p}", Mode.BINARY_PRODUCTS)
    with pytest.raises(ParseError):
        parse_arrow("id{p*T}", Mode.BINARY_PRODUCTS)


def test_parse_arrow_comments_and_whitespace():
    text = "# the diagonal\n  <id{p},\n   id{p}>  # trailing\n"
    assert parse_arrow(text) == dup(p)


def test_parse_dot_is_flattening():
    a = parse_arrow("p1{p,q} . (p1{(p*q),p} . id{(p*q)*p})")
    b = parse_arrow("(p1{p,q} . p1{(p*q),p}) . id{(p*q)*p}")
    assert a == b
    assert isinstance(a, Compose) and len(a.factors) == 3


def test_print_examples():
    assert print_arrow(Proj1(p, q)) == "p1{p,q}"
    assert print_arrow(dup(p)) == "<id{p}, id{p}>"
    chain = Compose((Proj2(p, Product(q, p)), Proj2(q, p), Identity(p)))
    assert print_arrow(chain) == "id{p} . p2{q,p} . p2{p,q*p}"


def test_print_object_spacing():
    obj = Product(Product(p, q), p)
    assert print_object(obj) == "(p*q)*p"
    assert print_object(obj, spaced=True) == "(p * q) * p"
    assert print_object(T) == "T"


def test_unknown_arrow_form():
    with pytest.raises(ParseError) as exc:
        parse_arrow("frob{p}")
    assert "frob" in exc.value.diagnostic.message


@given(st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_parse_print_round_trip(rng):
    t = random_arrow(rng, depth=4)
    assert parse_arrow(print_arrow(t)) == t


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_object_round_trip(rng):
    from termgen import random_object

    obj = random_object(rng, max_depth=3)
    assert parse_object(print_object(obj)) == obj
    assert parse_object(print_object(obj, spaced=True)) == obj
