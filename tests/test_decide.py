import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    Bang,
    Compose,
    Identity,
    IncompatibleGraph,
    LetterObj,
    Mode,
    ModeViolation,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    TypeMismatch,
    Unrealizable,
    compose,
    dup,
    equal_in_cart,
    equal_via_normal_forms,
    graph_of,
    is_normal_form,
    normal_form,
    normalize,
    synth_from_graph,
    typecheck,
)
from termgen import (
    mutate_preserving,
    random_arrow,
    random_arrow_to_terminal,
    random_codomain_and_graph,
    random_normal_form,
    random_object,
)

p = LetterObj("p")
q = LetterObj("q")
T = Terminal()


def test_eta_instance_is_equal():
    assert equal_in_cart(Identity(Product(p, q)), Pair(Proj1(p, q), Proj2(p, q)))
    assert equal_via_normal_forms(
        Identity(Product(p, q)), Pair(Proj1(p, q), Proj2(p, q))
    )


def test_projections_differ():
    assert not equal_in_cart(Proj1(p, p), Proj2(p, p))
    assert not equal_via_normal_forms(Proj1(p, p), Proj2(p, p))


def test_terminal_arrows_are_equal():
    f = compose(dup(p), Bang(Product(p, p)))
    assert equal_in_cart(f, Bang(p))


def test_equal_requires_same_type():
    with pytest.raises(TypeMismatch):
        equal_in_cart(Proj1(p, q), Proj2(q, p))
    with pytest.raises(TypeMismatch):
        equal_via_normal_forms(Identity(p), Identity(q))


def test_reflexivity():
    t = compose(dup(p), swap_pp := Pair(Proj2(p, p), Proj1(p, p)))
    assert equal_via_normal_forms(t, t)


def test_synth_projection():
    assert synth_from_graph(Product(p, q), q, (2,)) == Proj2(p, q)


def test_synth_dup():
    assert synth_from_graph(p, Product(p, p), (1, 1)) == dup(p)


def test_synth_bang():
    assert synth_from_graph(Product(p, q), T, ()) == Bang(Product(p, q))


def test_synth_deep_chain():
    dom = Product(Product(p, q), p)
    got = synth_from_graph(dom, q, (2,))
    assert got == Compose((Proj1(Product(p, q), p), Proj2(p, q)))


def test_synth_rejects_letter_mismatch():
    with pytest.raises(IncompatibleGraph):
        synth_from_graph(Product(p, q), p, (2,))
    with pytest.raises(IncompatibleGraph, match=r"^map has 2 entries for 1 targets$"):
        synth_from_graph(Product(p, q), p, (1, 1))
    with pytest.raises(IncompatibleGraph, match=r"^map entry 3 not in 1\.\.2$"):
        synth_from_graph(Product(p, q), p, (3,))


def test_synth_unrealizable_in_binary_products_mode():
    with pytest.raises(Unrealizable):
        synth_from_graph(p, T, (), Mode.BINARY_PRODUCTS)
    # Distinct letters are named before the terminal codomain.
    with pytest.raises(IncompatibleGraph, match="distinct letters"):
        synth_from_graph(p, Product(T, q), (1,), Mode.BINARY_PRODUCTS)


def test_synth_rejects_terminal_domain_in_binary_products_mode():
    pt = Product(p, T)
    assert synth_from_graph(pt, p, (1,)) == Proj1(p, T)
    with pytest.raises(ModeViolation, match="terminal object not available"):
        synth_from_graph(pt, p, (1,), Mode.BINARY_PRODUCTS)
    # A terminal codomain is named first.
    with pytest.raises(Unrealizable):
        synth_from_graph(pt, T, (), Mode.BINARY_PRODUCTS)


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_synth_round_trip_from_graph(rng):
    dom = random_object(rng)
    cod, g = random_codomain_and_graph(rng, dom)
    t = synth_from_graph(dom, cod, g)
    assert is_normal_form(t)
    assert graph_of(t) == g
    ty = typecheck(t)
    assert ty.domain == dom and ty.codomain == cod


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_synth_round_trip_from_normal_form(rng):
    dom = random_object(rng)
    t = random_normal_form(rng, dom)
    assert synth_from_graph(dom, t.codomain, graph_of(t)) == t


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_decision_procedures_agree(rng):
    f = random_arrow(rng, depth=3)
    if rng.random() < 0.5:
        g = mutate_preserving(rng, f, rounds=2)
    else:
        cod, h = random_codomain_and_graph(rng, f.domain)
        g = (
            mutate_preserving(rng, f, rounds=1)
            if f.codomain != cod
            else synth_from_graph(f.domain, cod, h)
        )
        if typecheck(g) != typecheck(f):
            g = mutate_preserving(rng, f, rounds=1)
    assert equal_in_cart(f, g) == equal_via_normal_forms(f, g)


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_equality_is_a_congruence(rng):
    dom = random_object(rng, max_depth=1)
    f = random_arrow(rng, depth=2)
    f2 = mutate_preserving(rng, f, rounds=2)
    g = mutate_preserving(rng, random_normal_form(rng, f.domain), rounds=2)
    g2 = mutate_preserving(rng, g, rounds=2)
    assert equal_in_cart(f, f2) and equal_in_cart(g, g2)
    assert equal_in_cart(Pair(f, g), Pair(f2, g2))
    after = random_normal_form(rng, f.codomain)
    assert equal_in_cart(compose(f, after), compose(f2, after))


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_terminal_arrow_uniqueness(rng):
    dom = random_object(rng)
    f = random_arrow_to_terminal(rng, dom, 2)
    assert equal_in_cart(f, Bang(dom))
    assert equal_via_normal_forms(f, Bang(dom))


@given(st.randoms(use_true_random=False), st.sampled_from(list(Mode)))
@settings(max_examples=150, deadline=None)
def test_normal_form_by_read_back_matches_rewriting(rng, mode):
    t = random_arrow(rng, mode=mode, depth=4)
    if rng.random() < 0.5:
        t = mutate_preserving(rng, t, rounds=2, mode=mode)
    assert normal_form(t, mode) == normalize(t, mode).result


def test_normal_form_typechecks_its_input():
    with pytest.raises(TypeMismatch):
        normal_form(Compose((Proj1(p, q), Proj1(p, q))))
    with pytest.raises(ModeViolation):
        normal_form(Bang(p), Mode.BINARY_PRODUCTS)
    assert normal_form(Identity(Product(p, T))) == Pair(Proj1(p, T), Bang(Product(p, T)))
