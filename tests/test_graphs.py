import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freecart import (
    Bang,
    Identity,
    IncompatibleGraph,
    LetterObj,
    Mode,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    compose,
    dup,
    graph_of,
    graph_to_json_dict,
    is_normal_form,
    iter_subterms,
    letters_of,
    product_of_arrows,
    swap,
    synth_from_graph,
    typecheck,
)
from termgen import (
    mutate_preserving,
    random_arrow,
    random_arrow_from,
    random_arrow_to_terminal,
    random_codomain_and_graph,
    random_object,
    trace_states,
)

p = LetterObj("p")
q = LetterObj("q")
T = Terminal()


def _graph(t):
    """A term's graph with its letter counts, which are its type's."""
    return t.domain.letters, t.codomain.letters, graph_of(t)


def test_graph_of_bang():
    assert _graph(Bang(Product(p, q))) == (2, 0, ())


def test_graph_of_identity():
    assert _graph(Identity(Product(p, q))) == (2, 2, (1, 2))


def test_graph_of_swap():
    assert _graph(swap(p, q)) == (2, 2, (2, 1))


def test_graph_of_dup():
    assert _graph(dup(p)) == (1, 2, (1, 1))


def test_graph_identity_trivia():
    assert _graph(Identity(T)) == (0, 0, ())
    assert _graph(Identity(p)) == (1, 1, (1,))
    assert _graph(Identity(Product(p, Product(T, Product(q, p))))) == (3, 3, (1, 2, 3))


def test_graph_compose_swap_twice_is_identity():
    assert graph_of(compose(swap(p, q), swap(q, p))) == graph_of(Identity(Product(p, q)))


def test_graph_compose_with_empty_target():
    assert _graph(compose(swap(p, q), Bang(Product(q, p)))) == (2, 0, ())


def test_graph_compose_identity_law():
    # f: (p*q)*r -> r*p has the graph (3, 1).
    r = LetterObj("r")
    f = Pair(Proj2(Product(p, q), r), compose(Proj1(Product(p, q), r), Proj1(p, q)))
    assert _graph(f) == (3, 2, (3, 1))
    assert graph_of(compose(Identity(f.domain), f)) == graph_of(f)
    assert graph_of(compose(f, Identity(f.codomain))) == graph_of(f)


# ---------------------------------------------------------------------------
# synth_from_graph is the one place where a map from outside is checked:
# a list or a tuple, one entry per letter of the codomain, each an int
# (by exact type) that names a letter of the domain.

_MISFITS = ("long", "short", "zero", "past", "bool", "float", "str", "not a list or tuple")


@st.composite
def _maps(draw):
    """(dom, cod, map, the message that rejects map, or None if it fits)."""
    rng = draw(st.randoms(use_true_random=False))
    dom = random_object(rng)
    n = dom.letters
    if n and rng.random() < 0.3:
        # Entries drawn at random, so the map may join distinct letters.
        cod = random_object(rng)
        m = tuple(rng.randint(1, n) for _ in range(cod.letters))
    else:
        cod, m = random_codomain_and_graph(rng, dom)
    if rng.random() < 0.5:
        m = list(m)
    kind = draw(st.sampled_from(("fits",) + _MISFITS))
    if kind == "fits":
        return dom, cod, m, None
    if kind == "long":
        m = type(m)((*m, 1))
        return dom, cod, m, f"map has {len(m)} entries for {cod.letters} targets"
    if kind == "not a list or tuple":
        m = rng.choice([None, 1, "1", set(m), dict.fromkeys(m), iter(m), range(1, len(m) + 1)])
        return dom, cod, m, f"map must be a list or a tuple: {m!r}"
    assume(m)
    if kind == "short":
        m = m[:-1]
        return dom, cod, m, f"map has {len(m)} entries for {cod.letters} targets"
    v = {"zero": 0, "past": n + 1, "bool": True, "float": 1.0, "str": "1"}[kind]
    i = rng.randrange(len(m))
    m = type(m)((*m[:i], v, *m[i + 1 :]))
    return dom, cod, m, f"map entry {v!r} not in 1..{n}"


@given(_maps())
# The fixed inputs are the three tests below.
@settings(max_examples=300, deadline=None)
def test_synth_rejects_exactly_the_maps_that_do_not_fit(case):
    dom, cod, m, message = case
    if message is not None:
        with pytest.raises(IncompatibleGraph) as exc:
            synth_from_graph(dom, cod, m)
        assert str(exc.value) == message
        return
    agree = all(letters_of(dom)[v - 1] is c for v, c in zip(m, letters_of(cod)))
    if not agree:
        with pytest.raises(IncompatibleGraph, match="^graph connects distinct letters$"):
            synth_from_graph(dom, cod, m)
        return
    t = synth_from_graph(dom, cod, m)
    assert (t.domain, t.codomain) == (dom, cod)
    assert is_normal_form(t)
    assert graph_of(t) == tuple(m)


def test_graph_validation():
    with pytest.raises(IncompatibleGraph, match=r"^map entry 2 not in 1\.\.1$"):
        synth_from_graph(p, p, (2,))
    with pytest.raises(IncompatibleGraph, match=r"^map has 1 entries for 2 targets$"):
        synth_from_graph(p, Product(p, p), (1,))
    # An entry is written as it came in: the string "1" is no position 1.
    with pytest.raises(IncompatibleGraph, match=r"^map entry '1' not in 1\.\.2$"):
        synth_from_graph(Product(p, q), q, ("1",))
    assert graph_of(synth_from_graph(Product(p, q), q, [2])) == (2,)


# An object with 1 or with 2 letters: a map's counts are its type's.
_OBJECTS = {1: q, 2: Product(p, q)}


@pytest.mark.parametrize(
    "source, target, entries, message",
    [
        (2, 1, (1.5,), "map entry 1.5 not in 1..2"),
        (2, 1, (1.0,), "map entry 1.0 not in 1..2"),
        (2, 1, (True,), "map entry True not in 1..2"),
        (2, 1, (0,), "map entry 0 not in 1..2"),
        (2, 1, (3,), "map entry 3 not in 1..2"),
        (2, 1, (None,), "map entry None not in 1..2"),
        (2, 1, (), "map has 0 entries for 1 targets"),
        (2, 1, (1, 2), "map has 2 entries for 1 targets"),
        (2, 2, (1, "2"), "map entry '2' not in 1..2"),
        (2, 2, (1, -1), "map entry -1 not in 1..2"),
        # The map is a list or a tuple: not the keys of a dict, nor the
        # characters of a string, nor a range.
        (2, 2, {1: "x", 2: "y"}, "map must be a list or a tuple: {1: 'x', 2: 'y'}"),
        (2, 1, "1", "map must be a list or a tuple: '1'"),
        (2, 2, range(1, 3), "map must be a list or a tuple: range(1, 3)"),
    ],
)
def test_graph_takes_integer_counts_and_entries_only(source, target, entries, message):
    with pytest.raises(IncompatibleGraph) as exc:
        synth_from_graph(_OBJECTS[source], _OBJECTS[target], entries)
    assert str(exc.value) == message


def test_synth_reads_back_no_graph_with_a_fractional_entry():
    # Read back, (1.5,) would answer for the graph (2,) of p2{p,q}.
    with pytest.raises(IncompatibleGraph, match=r"^map entry 1\.5 not in 1\.\.2$"):
        synth_from_graph(Product(p, q), q, (1.5,))


def test_graph_equal_eta_instance():
    assert graph_of(Identity(Product(p, q))) == graph_of(Pair(Proj1(p, q), Proj2(p, q)))


def test_graph_equal_distinguishes_projections():
    assert graph_of(Proj1(p, p)) != graph_of(Proj2(p, p))
    g = graph_of(Proj1(p, p))
    assert g == g


def test_letter_compatible():
    # synth_from_graph reads a map back only if it joins equal letters.
    compatible = [
        (Product(p, q), Product(q, p), (2, 1)),
        (Product(p, q), T, ()),
    ]
    for dom, cod, g in compatible:
        assert graph_of(synth_from_graph(dom, cod, g)) == g
    with pytest.raises(IncompatibleGraph, match="graph connects distinct letters"):
        synth_from_graph(Product(p, q), q, (1,))
    # A map of the wrong length, and an entry past the domain's letters.
    with pytest.raises(IncompatibleGraph, match=r"^map has 2 entries for 1 targets$"):
        synth_from_graph(Product(p, q), q, (2, 2))
    with pytest.raises(IncompatibleGraph, match=r"^map entry 3 not in 1\.\.2$"):
        synth_from_graph(Product(p, q), q, (3,))


def test_letter_compatible_rejects_joining_distinct_letters():
    dom = Product(Product(p, q), p)
    cod = Product(p, Product(q, q))
    g = (3, 2, 2)
    assert graph_of(synth_from_graph(dom, cod, g)) == g
    # The last q of cod drawn from the first p of dom.
    with pytest.raises(IncompatibleGraph, match="graph connects distinct letters"):
        synth_from_graph(dom, cod, (3, 2, 1))
    with pytest.raises(IncompatibleGraph, match="graph connects distinct letters"):
        synth_from_graph(p, q, (1,))


def test_graph_json_round_trip():
    r = LetterObj("r")
    f = Pair(Proj2(Product(p, q), r), compose(Proj1(Product(p, q), r), Proj1(p, q)))
    d = graph_to_json_dict(f)
    assert d == {"source_letters": 3, "target_letters": 2, "map": [3, 1]}
    assert graph_to_json_dict(synth_from_graph(f.domain, f.codomain, d["map"])) == d


# ---------------------------------------------------------------------------
# The defining equations hold at graph level.

@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_beta_laws_at_graph_level(rng):
    dom = random_object(rng)
    f = random_arrow_from(rng, dom, 2, Mode.CARTESIAN)
    g = random_arrow_from(rng, dom, 2, Mode.CARTESIAN)
    a, b = f.codomain, g.codomain
    lhs1 = compose(Pair(f, g), Proj1(a, b))
    lhs2 = compose(Pair(f, g), Proj2(a, b))
    assert graph_of(lhs1) == graph_of(f)
    assert graph_of(lhs2) == graph_of(g)


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_distr_law_at_graph_level(rng):
    dom = random_object(rng)
    h = random_arrow_from(rng, dom, 2, Mode.CARTESIAN)
    mid = h.codomain
    f = random_arrow_from(rng, mid, 2, Mode.CARTESIAN)
    g = random_arrow_from(rng, mid, 2, Mode.CARTESIAN)
    lhs = compose(h, Pair(f, g))
    rhs = Pair(compose(h, f), compose(h, g))
    assert graph_of(lhs) == graph_of(rhs)


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_eta_and_terminal_laws_at_graph_level(rng):
    a = random_object(rng)
    b = random_object(rng)
    assert graph_of(Pair(Proj1(a, b), Proj2(a, b))) == graph_of(Identity(Product(a, b)))
    f = random_arrow_to_terminal(rng, a, 2)
    assert graph_of(f) == graph_of(Bang(a))


# ---------------------------------------------------------------------------
# Functor laws into finite ordinals with reversed maps.

@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_graph_of_compose_is_graph_composition(rng):
    dom = random_object(rng)
    f = random_arrow_from(rng, dom, 2, Mode.CARTESIAN)
    g = random_arrow_from(rng, f.codomain, 2, Mode.CARTESIAN)
    gf, gg = graph_of(f), graph_of(g)
    # Target letter i of the composite is chased back through g, then f.
    expected = (f.domain.letters, g.codomain.letters, tuple(gf[j - 1] for j in gg))
    assert _graph(compose(f, g)) == expected


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_graph_of_identity_is_identity_graph(rng):
    a = random_object(rng)
    assert _graph(Identity(a)) == (a.letters, a.letters, tuple(range(1, a.letters + 1)))


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph_of_product_is_block_sum(rng):
    f = random_arrow(rng, depth=2)
    g = random_arrow(rng, depth=2)
    gf, gg = graph_of(f), graph_of(g)
    got = _graph(product_of_arrows(f, g))
    expected = (
        f.domain.letters + g.domain.letters,
        f.codomain.letters + g.codomain.letters,
        gf + tuple(v + f.domain.letters for v in gg),
    )
    assert got == expected


# ---------------------------------------------------------------------------
# graph_of builds only valid graphs: no node's map is checked when it is
# built, so every subterm's graph is checked here against leaf lists
# computed from the objects alone.

def _leaf_letters(a):
    match a:
        case Product(left, right):
            return _leaf_letters(left) + _leaf_letters(right)
        case Terminal():
            return []
    return [a.name]


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph_of_builds_valid_graphs(mode, rng):
    t = random_arrow(rng, mode=mode)
    u = mutate_preserving(rng, t, mode=mode)
    for top in (t, *trace_states(u, mode)[:5]):
        for _, sub in iter_subterms(top):
            g = graph_of(sub)
            sources = _leaf_letters(sub.domain)
            targets = _leaf_letters(sub.codomain)
            assert type(g) is tuple and len(g) == len(targets)
            assert all(type(j) is int and 1 <= j <= len(sources) for j in g)
            assert [sources[j - 1] for j in g] == targets
