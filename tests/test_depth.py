"""Terms far deeper and longer than the recursion limit, built in a loop.

A term's graph and degree are read off its root, an object is compared
and hashed by identity, and arrow `==`, the binary-products check, the
redex search, the printers, read-back, letters_of, is_normal_form and
substitute_all_letters walk from explicit stacks, so none of them has a
depth limit; an object is copied and pickled through its text.  The
terms are built directly, not parsed: the parser still recurses on
arrows, one call per level of pairing or parentheses, though not on
objects.  How deep it reads is checked on the command line, in a fresh
process, whose stack holds no test runner's frames.
"""

import copy
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from freecart import (
    Bang,
    Compose,
    Degree,
    Identity,
    LetterObj,
    Mode,
    ModeViolation,
    Pair,
    Product,
    Proj1,
    Proj2,
    RedexKind,
    Terminal,
    collapse_witness,
    degree,
    equal_in_cart,
    find_redex,
    graph_of,
    is_normal_form,
    letters_of,
    normal_form,
    normal_form_text,
    parse_arrow,
    parse_object,
    print_arrow,
    print_object,
    substitute_all_letters,
    typecheck,
)
from test_attributes import check_substitution

p = LetterObj("p")
q = LetterObj("q")
pp = Product(p, p)
T = Terminal()
DEPTH = 10_000
LENGTH = 20_000


@pytest.fixture(scope="module")
def deep_pairing():
    # <...<<id{p*p} . bang{p*p}, p1>, p1>, ..., p1>, with DEPTH pairings.
    t = Compose((Identity(pp), Bang(pp)))
    for _ in range(DEPTH):
        t = Pair(t, Proj1(p, p))
    return t


@pytest.fixture(scope="module")
def deep_object():
    # ((...((p*q)*q)...)*q)*q, with DEPTH products.
    a = p
    for _ in range(DEPTH):
        a = Product(a, q)
    return a


def test_a_pairing_nested_deeper_than_the_recursion_limit(deep_pairing):
    assert DEPTH > sys.getrecursionlimit()
    t = deep_pairing
    assert (t.domain.letters, t.codomain.letters, graph_of(t)) == (2, DEPTH, (1,) * DEPTH)
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
    assert (t.domain.letters, t.codomain.letters, graph_of(t)) == (1, 1, (1,))
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


def test_printing_a_pairing_nested_deeper_than_the_recursion_limit(deep_pairing):
    opening, closing = [], []
    for _ in range(DEPTH):
        opening.append("<")
        closing.append(", p1{p,p}>")
    expected = "".join(opening) + "bang{p*p} . id{p*p}" + "".join(closing)
    assert print_arrow(deep_pairing) == expected


def test_printing_an_object_nested_deeper_than_the_recursion_limit(deep_object):
    # The outermost product is written without parentheses.
    text = "(" * (DEPTH - 1) + "p" + "*q)" * (DEPTH - 1) + "*q"
    a = deep_object
    assert print_object(a) == text
    assert print_object(a, spaced=True) == text.replace("*", " * ")
    assert print_arrow(Identity(a)) == f"id{{{text}}}"
    assert print_arrow(Proj1(a, a)) == f"p1{{{text},{text}}}"


def test_reading_back_a_pairing_nested_deeper_than_the_recursion_limit(deep_pairing):
    nf = normal_form(deep_pairing)
    assert print_arrow(nf) == "<" * DEPTH + "bang{p*p}" + ", p1{p,p}>" * DEPTH
    # The text writer walks the same codomain without building a term.
    text = normal_form_text(pp, deep_pairing.codomain, graph_of(deep_pairing))
    assert text == print_arrow(nf)
    # Walked from a loop rather than compared with a second such pairing.
    node = nf
    for _ in range(DEPTH):
        assert isinstance(node, Pair) and node.second == Proj1(p, p)
        node = node.first
    assert node == Bang(pp)
    assert is_normal_form(nf)
    assert not is_normal_form(nf, Mode.BINARY_PRODUCTS)
    # Under the pairings lies the composition id{p*p} . bang{p*p}.
    assert not is_normal_form(deep_pairing)


def test_a_collapse_witness_reads_back_a_pairing_deeper_than_the_recursion_limit():
    # f = id{A} and g of the same type, whose graph reads A's first
    # letter at its last position: h then pairs every letter of A, nested
    # as deep as A, and a text that deep is more than the parser reads
    # whole.
    depth = 1_200
    assert depth > sys.getrecursionlimit()
    a = p
    for _ in range(depth):
        a = Product(a, p)
    # The projections down to A's first letter, in application order.
    chain, node = [], a
    while isinstance(node, Product):
        chain.append(Proj1(node.left, node.right))
        node = node.left
    f = Identity(a)
    g = Pair(Proj1(a.left, p), Compose(tuple(chain)))
    assert g.codomain is a and graph_of(g) == tuple(range(1, depth + 1)) + (1,)
    w = collapse_witness(f, g)
    assert w.position == depth + 1
    node = w.h
    for _ in range(depth):
        assert isinstance(node, Pair)
        node = node.first
    # g reads A's first letter at the last position, so h sends it to
    # the second component of p*p, and every other letter to the first.
    assert node == Proj2(p, p)
    assert graph_of(w.h) == (2,) + (1,) * depth
    assert print_arrow(w.h) == normal_form_text(w.h.domain, w.h.codomain, graph_of(w.h))
    assert print_arrow(w.j) == f"p2{{{print_object(a.left)},p}}"


def test_the_letters_of_an_object_nested_deeper_than_the_recursion_limit(
    deep_object, deep_pairing
):
    assert letters_of(deep_object) == (LetterObj("p"),) + (LetterObj("q"),) * DEPTH
    assert letters_of(deep_pairing.codomain) == (LetterObj("p"),) * DEPTH


def test_parsing_an_object_nested_deeper_than_the_recursion_limit():
    text = "p"
    for _ in range(DEPTH):
        text = f"({text}*q)"
    a = parse_object(text)
    assert (a.letters, a.symbols) == (DEPTH + 1, 2 * DEPTH + 1)
    assert print_object(a) == text[1:-1]
    t = parse_arrow(f"p2{{{text},{text}}}")
    assert t.left is t.right
    assert print_arrow(t) == f"p2{{{text[1:-1]},{text[1:-1]}}}"


def _nested_pairing(leaf, depth):
    # <...<<leaf, id{A}>, id{A}>, ..., id{A}>, with `depth` pairings, A
    # being the leaf's domain.
    t = leaf
    for _ in range(depth):
        t = Pair(t, Identity(leaf.domain))
    return t


def test_pairings_built_twice_are_equal_at_any_depth():
    depth = 2_000
    assert depth > sys.getrecursionlimit()
    a = _nested_pairing(Identity(p), depth)
    b = _nested_pairing(Identity(p), depth)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # The same type and graph, but another innermost leaf.
    c = _nested_pairing(Compose((Identity(p), Identity(p))), depth)
    assert (c.domain, c.codomain, c.map) == (a.domain, a.codomain, a.map)
    assert a != c and c != a
    assert a != _nested_pairing(Identity(q), depth)


def test_an_object_built_twice_is_one_object():
    a = p
    for _ in range(DEPTH):
        a = Product(a, q)
    b = p
    for _ in range(DEPTH):
        b = Product(b, q)
    assert a is b
    assert hash(a) == hash(b)
    assert equal_in_cart(Identity(a), Identity(b))


def test_copying_an_object_nested_deeper_than_the_recursion_limit(deep_object):
    assert copy.deepcopy(deep_object) is deep_object
    assert pickle.loads(pickle.dumps(deep_object)) is deep_object


# In printed text a letter is a name that neither "{" nor "(" follows.
_LETTER = re.compile(r"[a-z][a-z0-9_]*(?![a-z0-9_{(])")


def test_substituting_letters_deeper_than_the_recursion_limit(deep_object, deep_pairing):
    t = Identity(deep_object)
    s = substitute_all_letters(t, LetterObj("q"))
    b = q
    for _ in range(DEPTH):
        b = Product(b, q)
    assert s.obj is b
    assert graph_of(s) == graph_of(t)
    s = substitute_all_letters(deep_pairing, LetterObj("q"))
    assert graph_of(s) == graph_of(deep_pairing)
    assert set(_LETTER.findall(print_arrow(s))) == {"q"}


def test_substitution_matches_the_reference_deeper_than_the_recursion_limit(deep_pairing):
    check_substitution(deep_pairing, q)


NESTED_TEXTS = {
    "pairing": lambda n: "<" * n + "id{p}" + ", id{p}>" * n,
    "parens": lambda n: "(" * n + "id{p}" + ")" * n,
}


@pytest.mark.parametrize("family", NESTED_TEXTS)
def test_every_command_reads_arrows_nested_900_deep(family, tmp_path):
    depth = 900
    text = NESTED_TEXTS[family](depth)
    (tmp_path / "a.term").write_text(text + "\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def cli(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "freecart.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stderr) == (0, ""), argv
        return done.stdout

    domain, codomain = cli("check", "a.term").rstrip("\n").split(" -> ")
    assert domain == "p" and codomain.count("p") == (depth + 1 if family == "pairing" else 1)
    assert json.loads(cli("graph", "a.term"))["map"] == [1] * codomain.count("p")
    # Both terms are normal already: the trace has no step, and the
    # pairing is printed as it is written, the parentheses dropped.
    assert cli("normalize", "--trace", "a.term") == (text if family == "pairing" else "id{p}") + "\n"
    assert cli("equal", "--method", "graph", "a.term", "a.term") == "equal\n"
    assert cli("equal", "a.term", "a.term") == "equal\n"
