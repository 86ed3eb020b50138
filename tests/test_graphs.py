import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    Bang,
    Graph,
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
    iter_subterms,
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
    random_object,
    trace_states,
)

p = LetterObj("p")
q = LetterObj("q")
T = Terminal()


def test_graph_of_bang():
    assert graph_of(Bang(Product(p, q))) == Graph(2, 0, ())


def test_graph_of_identity():
    assert graph_of(Identity(Product(p, q))) == Graph(2, 2, (1, 2))


def test_graph_of_swap():
    assert graph_of(swap(p, q)) == Graph(2, 2, (2, 1))


def test_graph_of_dup():
    assert graph_of(dup(p)) == Graph(1, 2, (1, 1))


def test_graph_identity_trivia():
    assert graph_of(Identity(T)) == Graph(0, 0, ())
    assert graph_of(Identity(p)) == Graph(1, 1, (1,))
    assert graph_of(Identity(Product(p, Product(T, Product(q, p))))) == Graph(3, 3, (1, 2, 3))


def test_graph_compose_swap_twice_is_identity():
    assert graph_of(compose(swap(p, q), swap(q, p))) == graph_of(Identity(Product(p, q)))


def test_graph_compose_with_empty_target():
    assert graph_of(compose(swap(p, q), Bang(Product(q, p)))) == Graph(2, 0, ())


def test_graph_compose_identity_law():
    # f: (p*q)*r -> r*p has the graph (3, 1).
    r = LetterObj("r")
    f = Pair(Proj2(Product(p, q), r), compose(Proj1(Product(p, q), r), Proj1(p, q)))
    assert graph_of(f) == Graph(3, 2, (3, 1))
    assert graph_of(compose(Identity(f.domain), f)) == graph_of(f)
    assert graph_of(compose(f, Identity(f.codomain))) == graph_of(f)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(1, 1, (2,))
    with pytest.raises(ValueError):
        Graph(1, 2, (1,))
    # An entry is written as it came in: the string "1" is no position 1.
    with pytest.raises(ValueError, match=r"^map entry '1' not in 1\.\.2$"):
        Graph(2, 1, ("1",))
    assert Graph(2, 1, [2]).map == (2,)


@pytest.mark.parametrize(
    "source, target, entries",
    [
        (2, 1, (1.5,)),
        (2, 1, (1.0,)),
        (2, 1, (True,)),
        (2.0, 1, (1,)),
        (True, 1, (1,)),
        (2, True, (1,)),
        (-1, 0, ()),
        (0, -1, ()),
        (2, 2, (1, "2")),
        (2, "1", (1,)),
        # The map is a list or a tuple: not the keys of a dict, nor the
        # characters of a string.
        (2, 2, {1: "x", 2: "y"}),
        (2, 1, "1"),
    ],
)
def test_graph_takes_integer_counts_and_entries_only(source, target, entries):
    with pytest.raises(ValueError):
        Graph(source, target, entries)


def test_synth_reads_back_no_graph_with_a_fractional_entry():
    # Read back, (1.5,) would answer for the graph (2,) of p2{p,q}.
    with pytest.raises(ValueError):
        synth_from_graph(Product(p, q), q, Graph(2, 1, (1.5,)))


def test_graph_equal_eta_instance():
    assert graph_of(Identity(Product(p, q))) == graph_of(Pair(Proj1(p, q), Proj2(p, q)))


def test_graph_equal_distinguishes_projections():
    assert graph_of(Proj1(p, p)) != graph_of(Proj2(p, p))
    g = graph_of(Proj1(p, p))
    assert g == g


def test_letter_compatible():
    # synth_from_graph reads a graph back only if it joins equal letters.
    compatible = [
        (Product(p, q), Product(q, p), Graph(2, 2, (2, 1))),
        (Product(p, q), T, Graph(2, 0, ())),
    ]
    for dom, cod, g in compatible:
        assert graph_of(synth_from_graph(dom, cod, g)) == g
    with pytest.raises(IncompatibleGraph, match="graph connects distinct letters"):
        synth_from_graph(Product(p, q), q, Graph(2, 1, (1,)))
    with pytest.raises(IncompatibleGraph, match="does not fit"):
        synth_from_graph(Product(p, q), q, Graph(3, 1, (1,)))


def test_letter_compatible_rejects_joining_distinct_letters():
    dom = Product(Product(p, q), p)
    cod = Product(p, Product(q, q))
    g = Graph(3, 3, (3, 2, 2))
    assert graph_of(synth_from_graph(dom, cod, g)) == g
    # The last q of cod drawn from the first p of dom.
    with pytest.raises(IncompatibleGraph, match="graph connects distinct letters"):
        synth_from_graph(dom, cod, Graph(3, 3, (3, 2, 1)))
    with pytest.raises(IncompatibleGraph, match="graph connects distinct letters"):
        synth_from_graph(p, q, Graph(1, 1, (1,)))


def test_graph_json_round_trip():
    g = Graph(3, 2, (3, 1))
    d = graph_to_json_dict(g)
    assert d == {"source_letters": 3, "target_letters": 2, "map": [3, 1]}
    assert Graph(**d) == g


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
    expected = Graph(gf.source_letters, gg.target_letters, tuple(gf.map[j - 1] for j in gg.map))
    assert graph_of(compose(f, g)) == expected


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_graph_of_identity_is_identity_graph(rng):
    a = random_object(rng)
    assert graph_of(Identity(a)) == Graph(a.letters, a.letters, tuple(range(1, a.letters + 1)))


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph_of_product_is_block_sum(rng):
    f = random_arrow(rng, depth=2)
    g = random_arrow(rng, depth=2)
    gf, gg = graph_of(f), graph_of(g)
    got = graph_of(product_of_arrows(f, g))
    expected = Graph(
        gf.source_letters + gg.source_letters,
        gf.target_letters + gg.target_letters,
        gf.map + tuple(v + gf.source_letters for v in gg.map),
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
            assert len(g.map) == len(targets)
            assert all(1 <= j <= len(sources) for j in g.map)
            assert [sources[j - 1] for j in g.map] == targets
