import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    AlreadyEqual,
    Identity,
    InternalError,
    LetterObj,
    Mode,
    Pair,
    Product,
    Proj1,
    Proj2,
    Bang,
    TypeMismatch,
    collapse_witness,
    compose,
    dup,
    graph_of,
    iter_subterms,
    parse_arrow,
    substitute_all_letters,
    synth_from_graph,
    verify_witness,
)
from freecart import collapse
from termgen import mutate_preserving, random_arrow, random_codomain_and_graph, random_object

p = LetterObj("p")
q = LetterObj("q")


def test_minimal_counterexample():
    w = collapse_witness(Proj1(p, p), Proj2(p, p))
    assert w.letter == LetterObj("p")
    assert w.position == 1
    assert (w.h.domain.letters, w.h.codomain.letters, graph_of(w.h)) == (2, 2, (1, 2))
    assert w.j == Identity(p)
    assert w.lhs_normal == Proj1(p, p)
    assert w.rhs_normal == Proj2(p, p)
    assert verify_witness(w)


def test_already_equal_identity():
    with pytest.raises(AlreadyEqual):
        collapse_witness(Identity(p), Identity(p))


def test_witness_requires_same_type():
    with pytest.raises(TypeMismatch):
        collapse_witness(Proj1(p, q), Proj2(q, p))


def test_already_equal_after_dup():
    lhs = compose(dup(p), Proj1(p, p))
    rhs = compose(dup(p), Proj2(p, p))
    assert lhs.domain.letters == lhs.codomain.letters == 1
    assert graph_of(lhs) == graph_of(rhs) == (1,)
    with pytest.raises(AlreadyEqual):
        collapse_witness(lhs, rhs)


def test_tampered_witness_fails_verification():
    w = collapse_witness(Proj1(p, p), Proj2(p, p))
    bad = dataclasses.replace(w, lhs_normal=Proj2(p, p))
    assert not verify_witness(bad)
    bad_type = dataclasses.replace(w, h=Identity(p), j=Identity(Product(p, p)))
    assert not verify_witness(bad_type)


def test_mixed_letter_pair():
    from freecart import letters_of

    dom = Product(Product(p, q), p)
    f = compose(Proj1(Product(p, q), p), Proj1(p, q))
    g = Proj2(Product(p, q), p)
    # Both have type (p*q)*p -> p but pick out different occurrences.
    w = collapse_witness(f, g)
    assert verify_witness(w)
    assert w.letter == LetterObj("p")
    assert w.position == 1
    occurring = letters_of(w.f_subst.domain) + letters_of(w.f_subst.codomain)
    assert all(l == LetterObj("p") for l in occurring)


def test_substitution_neutrality():
    f = compose(Pair(Proj2(p, q), Proj1(p, q)), Proj2(q, p))
    assert graph_of(substitute_all_letters(f, LetterObj("z"))) == graph_of(f)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_witnesses_verify(rng):
    dom = random_object(rng)
    cod, g1 = random_codomain_and_graph(rng, dom)
    _, g2 = None, None
    for _ in range(20):
        cod2, cand = random_codomain_and_graph(rng, dom)
        if cod2 == cod and cand != g1:
            g2 = cand
            break
    if g2 is None:
        return
    f = mutate_preserving(rng, synth_from_graph(dom, cod, g1), rounds=2)
    g = mutate_preserving(rng, synth_from_graph(dom, cod, g2), rounds=2)
    w = collapse_witness(f, g)
    assert verify_witness(w)
    assert w.lhs_normal == Proj1(w.letter, w.letter)
    assert w.rhs_normal == Proj2(w.letter, w.letter)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_witnesses_in_binary_products_mode(rng):
    mode = Mode.BINARY_PRODUCTS
    dom = random_object(rng, allow_terminal=False)
    cod, g1 = random_codomain_and_graph(rng, dom, mode=mode)
    g2 = None
    for _ in range(20):
        cod2, cand = random_codomain_and_graph(rng, dom, mode=mode)
        if cod2 == cod and cand != g1:
            g2 = cand
            break
    if g2 is None:
        return
    f = synth_from_graph(dom, cod, g1, mode)
    g = synth_from_graph(dom, cod, g2, mode)
    w = collapse_witness(f, g, mode)
    assert verify_witness(w, mode)
    for term in (w.f_subst, w.g_subst, w.h, w.j):
        assert all(not isinstance(sub, Bang) for _, sub in iter_subterms(term))


def test_verification_uses_the_witness_mode():
    mode = Mode.BINARY_PRODUCTS
    w = collapse_witness(Proj1(p, p), Proj2(p, p), mode)
    assert verify_witness(w, mode)
    # A cartesian arrow p -> p that leaves the binary-products fragment.
    bad = dataclasses.replace(w, j=parse_arrow("p1{p,T} . <id{p}, bang{p}>"))
    assert verify_witness(bad)
    assert not verify_witness(bad, mode)


def test_verification_does_not_hide_bugs():
    w = collapse_witness(Proj1(p, p), Proj2(p, p))
    with pytest.raises(TypeError):
        verify_witness(dataclasses.replace(w, h="not a term"))


def test_verification_raises_internal_errors(monkeypatch):
    w = collapse_witness(Proj1(p, p), Proj2(p, p))

    def broken_normalize(t, mode):
        raise InternalError("degree did not decrease")

    monkeypatch.setattr(collapse, "normalize", broken_normalize)
    with pytest.raises(InternalError, match="degree did not decrease"):
        verify_witness(w)
