import pytest
from hypothesis import example, given, settings
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
    letters_of,
    normal_form,
    normal_form_text,
    normalize,
    print_arrow,
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


# ---------------------------------------------------------------------------
# The text of a normal form, written without building the term

_drawn_objects = st.recursive(
    st.sampled_from([p, q, T]), lambda inner: st.builds(Product, inner, inner), max_leaves=6
)
# What a spoiled entry or a spoiled map may be instead.
_NOT_ENTRIES = (True, False, 1.0, "1", None, 2**70)
_NOT_MAPS = (None, "1", {1}, range(1, 2), {1: 1})


@st.composite
def graph_cases(draw):
    """(dom, cod, map): a map joining equal letters where it can, often spoiled one way.

    The ways: an entry that names a leaf of another letter, one entry too
    many or too few, an entry out of range, an entry that is not an int,
    and a map that is neither a list nor a tuple.  T may occur in either
    object, which binary-products mode rejects.
    """
    dom, cod = draw(_drawn_objects), draw(_drawn_objects)
    sources = letters_of(dom)
    entries = []
    for letter in letters_of(cod):
        same = [i + 1 for i, s in enumerate(sources) if s is letter]
        entries.append(draw(st.sampled_from(same)) if same else draw(st.integers(0, len(sources) + 1)))
    spoil = draw(st.sampled_from(("none", "none", "joined", "length", "range", "entry", "map")))
    at = draw(st.integers(0, max(0, len(entries) - 1)))
    if spoil == "joined" and entries and 1 <= entries[at] <= len(sources):
        other = [i + 1 for i, s in enumerate(sources) if s is not sources[entries[at] - 1]]
        if other:
            entries[at] = draw(st.sampled_from(other))
    elif spoil == "length":
        entries = entries[:-1] if entries and draw(st.booleans()) else entries + [1]
    elif spoil == "range" and entries:
        entries[at] = draw(st.sampled_from((0, -1, len(sources) + 1)))
    elif spoil == "entry" and entries:
        entries[at] = draw(st.sampled_from(_NOT_ENTRIES))
    elif spoil == "map":
        return dom, cod, draw(st.sampled_from(_NOT_MAPS))
    return dom, cod, draw(st.sampled_from((list, tuple)))(entries)


def _outcome(write, dom, cod, map, mode):
    """The text, or the class and message of what is raised."""
    try:
        return write(dom, cod, map, mode)
    except Exception as exc:  # noqa: BLE001  (the two writers must raise alike)
        return type(exc), str(exc)


def _printed_synthesis(dom, cod, map, mode):
    return print_arrow(synth_from_graph(dom, cod, map, mode))


# Every check, and the order of two failing checks.
@example((Product(Product(p, q), p), Product(q, Product(p, p)), [2, 3, 1]), Mode.CARTESIAN)
@example((Product(p, q), p, (2,)), Mode.CARTESIAN)
@example((Product(p, q), p, [1, 1]), Mode.CARTESIAN)
@example((Product(p, q), p, [3]), Mode.CARTESIAN)
@example((Product(p, q), p, [True]), Mode.CARTESIAN)
@example((Product(p, q), p, "1"), Mode.CARTESIAN)
@example((p, Product(T, q), [1]), Mode.BINARY_PRODUCTS)
@example((Product(p, T), T, []), Mode.BINARY_PRODUCTS)
@example((Product(p, T), p, [1]), Mode.BINARY_PRODUCTS)
@example((Product(p, T), Product(p, T), [1]), Mode.CARTESIAN)
@example((p, "p", [1]), Mode.CARTESIAN)
@example((p, p, [1]), "cartesian")
@example((p, q, [1]), "cartesian")
@given(graph_cases(), st.sampled_from(list(Mode)))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_normal_form_text_is_the_printed_synthesis(case, mode):
    written = _outcome(normal_form_text, *case, mode)
    assert written == _outcome(_printed_synthesis, *case, mode), case


def test_graph_cases_reach_every_outcome():
    outcomes = set()

    @given(graph_cases(), st.sampled_from(list(Mode)))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def collect(case, mode):
        written = _outcome(normal_form_text, *case, mode)
        # A text, or the class raised and the first two words of its message.
        outcomes.add("text" if type(written) is str else (written[0], *written[1].split()[:2]))

    collect()
    assert outcomes == {
        "text",
        (IncompatibleGraph, "graph", "connects"),
        (IncompatibleGraph, "map", "has"),
        (IncompatibleGraph, "map", "entry"),
        (IncompatibleGraph, "map", "must"),
        (Unrealizable, "terminal", "codomain"),
        (ModeViolation, "terminal", "object"),
    }
