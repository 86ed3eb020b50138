import gc
import math
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freecart.rewrite
from freecart import (
    Bang,
    Compose,
    Degree,
    Identity,
    InternalError,
    InvalidRedex,
    LetterObj,
    Mode,
    Pair,
    Product,
    Proj1,
    Proj2,
    RedexKind,
    Terminal,
    assoc_r,
    collapse_witness,
    compose,
    degree,
    dup,
    find_redex,
    graph_of,
    is_atomized_k_composition,
    is_normal_form,
    iter_subterms,
    normalize,
    replace_subterm,
    step,
    subterm_at,
    swap,
    synth_from_graph,
    typecheck,
)
from termgen import (
    mutate_preserving,
    random_arrow,
    random_codomain_and_graph,
    random_normal_form,
    random_object,
    reference_normalize,
    trace_states,
)

p = LetterObj("p")
q = LetterObj("q")
T = Terminal()


def test_atomized_composition_recognition():
    assert is_atomized_k_composition(Proj1(p, q))
    chain = Compose((Proj2(p, Product(q, p)), Proj1(q, p)))
    assert typecheck(chain).codomain == q
    assert is_atomized_k_composition(chain)
    assert not is_atomized_k_composition(Identity(p))
    assert not is_atomized_k_composition(Proj1(Product(p, q), p))


def test_normal_form_clauses():
    assert is_normal_form(assoc_r(p, q, LetterObj("r")))
    assert not is_normal_form(compose(dup(p), Pair(Proj1(p, p), Proj2(p, p))))
    assert is_normal_form(Bang(Product(p, T)))
    assert not is_normal_form(Bang(Product(p, T)), Mode.BINARY_PRODUCTS)
    assert is_normal_form(Identity(p))
    assert not is_normal_form(Identity(Product(p, q)))
    # A composition that ends at a letter is normal only if every factor
    # is a projection: this one has an identity factor left to remove.
    t = compose(Proj1(p, q), Identity(p))
    assert not is_normal_form(t)
    assert find_redex(t) is not None


def test_gamma_measure():
    assert degree(Bang(p)).gamma == 2
    eta = Pair(Proj1(p, q), Proj2(p, q))
    assert degree(eta).gamma == 7
    assert degree(compose(eta, Proj1(p, q))).gamma == 21


def test_alpha_measure():
    assert degree(Pair(Identity(p), Identity(p))).alpha == 0
    assert degree(compose(dup(p), Proj1(p, p))).alpha == 21
    assert degree(Proj1(p, q)).alpha == 0


def test_product_eliminative_occurrences():
    # The root is the only occurrence: target p.
    assert degree(Proj1(p, q)).beta == 1
    chain = Compose((Proj1(Product(p, q), p), Proj1(p, q)))
    t = Pair(Proj1(Product(p, q), p), chain)
    # Both pairing components qualify, targets p*q and p; nothing inside them does.
    assert degree(t).beta == 3 + 1
    t = compose(Pair(Proj1(p, q), Proj2(p, q)), Proj1(p, q))
    # The pairing's components qualify, targets p and q; the factor
    # Proj1(p, q) does not, nor does the composition, which holds a pairing.
    assert degree(t).beta == 1 + 1


def test_beta_measure():
    assert degree(Identity(Product(p, q))).beta == 3
    assert degree(Pair(Proj1(p, q), Proj2(p, q))).beta == 2
    assert degree(Bang(p)).beta == 1


def test_degree_examples():
    assert degree(Proj1(p, q)) == Degree(0, 1, 3)
    assert degree(Identity(p)) == Degree(0, 1, 3)
    assert degree(compose(dup(p), Proj1(p, p))) == Degree(21, 2, 21)


def test_degree_orders_lexicographically():
    assert Degree(0, 5, 100) < Degree(1, 0, 2)
    assert Degree(1, 0, 9) < Degree(1, 1, 2)
    assert Degree(1, 1, 2) < Degree(1, 1, 3)


def test_find_redex_examples():
    assert find_redex(Identity(Product(p, q))) == ((), RedexKind.ATOMIZE_PRODUCT)
    assert find_redex(compose(dup(p), Proj1(p, p))) == ((0,), RedexKind.PAIRING_BETA1)
    assert find_redex(dup(p)) is None


def test_find_redex_pair_headed_terminal_chain():
    # No identity or pairing redex exists here, but pairing still occurs
    # under the composition, so only terminal atomization can fire.
    t = compose(dup(p), Bang(Product(p, p)))
    assert degree(t).alpha > 0
    assert find_redex(t) == ((), RedexKind.ATOMIZE_TERMINAL)
    trace = normalize(t)
    assert trace.result == Bang(p)


def test_step_atomize_identity():
    t = Identity(Product(p, q))
    out = step(t, (), RedexKind.ATOMIZE_PRODUCT)
    assert out == Pair(compose(t, Proj1(p, q)), compose(t, Proj2(p, q)))


def test_step_identity_removal():
    t = compose(Identity(Product(p, q)), Proj1(p, q))
    assert step(t, (0,), RedexKind.IDENTITY_RIGHT) == Proj1(p, q)


def test_step_atomize_terminal():
    t = Proj2(p, T)
    assert step(t, (), RedexKind.ATOMIZE_TERMINAL) == Bang(Product(p, T))


def test_step_rejects_invalid_redexes():
    with pytest.raises(InvalidRedex):
        step(dup(p), (0,), RedexKind.PAIRING_BETA1)
    with pytest.raises(InvalidRedex):
        step(Bang(p), (), RedexKind.ATOMIZE_TERMINAL)
    with pytest.raises(InvalidRedex, match=r"no atomize-product redex at \(\)"):
        step(Identity(p), (), RedexKind.ATOMIZE_PRODUCT)
    # The value of a kind is not a kind, even where that redex exists.
    t = compose(Identity(p), Identity(p))
    with pytest.raises(InvalidRedex, match="no 'identity-right' redex"):
        step(t, (0,), "identity-right")
    with pytest.raises(IndexError):
        step(dup(p), (2,), RedexKind.DISTR)
    # Counted from the end, this would remove the last identity and splice
    # the whole composition back in: three identities instead of one.
    with pytest.raises(IndexError):
        step(t, (-1,), RedexKind.IDENTITY_LEFT)


def test_normalize_identity_on_product():
    trace = normalize(Identity(Product(p, q)))
    assert trace.result == Pair(Proj1(p, q), Proj2(p, q))
    assert [s.kind for s in trace.steps] == [
        RedexKind.ATOMIZE_PRODUCT,
        RedexKind.IDENTITY_RIGHT,
        RedexKind.IDENTITY_RIGHT,
    ]


def test_normalize_eta_after_dup():
    trace = normalize(compose(dup(p), Pair(Proj1(p, p), Proj2(p, p))))
    assert trace.result == dup(p)


@pytest.mark.parametrize(
    "t, kind, path",
    [
        # A contraction in place, in the composition at the root.
        (compose(Identity(p), Identity(p)), "identity-right", (0,)),
        # An atomization, by step on the whole term.
        (Identity(Product(p, q)), "atomize-product", ()),
    ],
)
def test_normalize_stops_when_a_step_does_not_decrease_the_degree(monkeypatch, t, kind, path):
    # The per-step degree check is the only guard against a rewriting loop.
    # Every degree that normalize records is read off a measure by
    # _degree_of, whichever way the step was taken.
    monkeypatch.setattr(freecart.rewrite, "_degree_of", lambda measure: Degree(0, 0, 0))
    message = f"degree did not decrease at step 1: (0,0,0) -> (0,0,0) ({kind} at {path})"
    with pytest.raises(InternalError, match=re.escape(message)):
        normalize(t)


def test_normalize_checks_every_step_of_a_contraction_in_place(monkeypatch):
    # From the fourth degree read on (the third step's), every degree is
    # the third: the guard must stop the focus in the middle of a chain.
    real, read = freecart.rewrite._degree_of, []

    def stuck(measure):
        read.append(real(measure))
        return read[min(len(read), 3) - 1]

    monkeypatch.setattr(freecart.rewrite, "_degree_of", stuck)
    message = "degree did not decrease at step 3: (0,3,81) -> (0,3,81)"
    with pytest.raises(InternalError, match=re.escape(message)):
        normalize(compose(*[Identity(Product(p, q))] * 6))


def test_normalize_keeps_no_intermediate_term(monkeypatch):
    # A trace records each step's rule, place and degrees, not its term:
    # every arrow that normalize builds, the terms it steps through and
    # what it contracts in place alike, is freed unless the result holds it.
    built = []
    for cls in (Identity, Proj1, Proj2, Bang, Pair, Compose):

        def spy(self, *args, _original=cls.__init__):
            _original(self, *args)
            built.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", spy)
    pq, qp = Product(p, q), Product(q, p)
    swaps = [Identity(pq), Pair(Proj2(p, q), Proj1(p, q)), Identity(qp), Pair(Proj2(q, p), Proj1(q, p))]
    t = compose(*swaps * 5)
    built.clear()
    trace = normalize(t)
    assert len(trace.steps) >= 20 and len(built) >= 20
    gc.collect()
    kept = {id(sub) for _, sub in iter_subterms(trace.result)}
    assert all(id(u) in kept for u in (ref() for ref in built) if u is not None)


def test_normalize_bang_on_terminal_is_already_normal():
    trace = normalize(Bang(T))
    assert trace.steps == ()
    assert trace.result == Bang(T)


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_reduction_preserves_type_and_graph(rng):
    t = random_arrow(rng, depth=4)
    ty = typecheck(t)
    g = graph_of(t)
    states = trace_states(t)  # checks the recorded degrees as it replays
    for state in states[1:]:
        assert typecheck(state) == ty
        assert graph_of(state) == g
    assert is_normal_form(states[-1])


def _term_and_first_steps(rng, mode):
    """A random term and the first terms on its way to normal form."""
    t = random_arrow(rng, mode=mode, depth=4)
    return trace_states(t, mode)[:4]


@given(st.randoms(use_true_random=False), st.sampled_from(list(Mode)))
@settings(max_examples=100, deadline=None)
def test_every_accepted_step_keeps_type_and_graph_and_lowers_degree(rng, mode):
    # Not only the strategy's choice: every (path, kind) that step accepts.
    for t in _term_and_first_steps(rng, mode):
        ty, g, d = typecheck(t, mode), graph_of(t), degree(t)
        for path, _ in iter_subterms(t):
            for kind in RedexKind:
                try:
                    after = step(t, path, kind)
                except InvalidRedex:
                    continue
                assert typecheck(after, mode) == ty
                assert graph_of(after) == g
                assert degree(after) < d, (kind, path)


def _symbols(a):
    match a:
        case Product(left, right):
            return 1 + _symbols(left) + _symbols(right)
    return 1


def _gamma(t):
    match t:
        case Bang(_):
            return 2
        case Pair(first, second):
            return _gamma(first) + _gamma(second) + 1
        case Compose(factors):
            return math.prod(_gamma(f) for f in factors)
    return 3


def _reference_degree(t):
    """alpha, beta and gamma from their definitions, one walk each."""
    at = dict(iter_subterms(t))

    def pairing_free(u):
        return not any(isinstance(s, Pair) for _, s in iter_subterms(u))

    def factor(path):
        return bool(path) and isinstance(at[path[:-1]], Compose)

    # alpha: gamma, if some composition factor contains a pairing.
    alpha = _gamma(t) if any(factor(x) and not pairing_free(u) for x, u in at.items()) else 0
    # Product-eliminative: pairing-free, not a composition factor, and not
    # inside another pairing-free occurrence.
    eliminative = [
        u
        for x, u in at.items()
        if pairing_free(u)
        and not factor(x)
        and not any(pairing_free(at[x[:k]]) for k in range(len(x)))
    ]
    return Degree(alpha, sum(_symbols(u.codomain) for u in eliminative), _gamma(t))


@given(st.randoms(use_true_random=False), st.sampled_from(list(Mode)))
@settings(max_examples=100, deadline=None)
def test_degree_matches_its_definition(rng, mode):
    for t in _term_and_first_steps(rng, mode):
        assert degree(t) == _reference_degree(t)


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_normal_form_iff_no_redex(rng):
    t = random_arrow(rng, depth=4)
    assert is_normal_form(t) == (find_redex(t) is None)
    dom = random_object(rng)
    nf = random_normal_form(rng, dom)
    assert is_normal_form(nf)
    assert find_redex(nf) is None


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_normalize_is_idempotent(rng):
    t = random_arrow(rng, depth=4)
    result = normalize(t).result
    again = normalize(result)
    assert again.steps == ()
    assert again.result == result


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_unique_normal_form_under_equational_mutation(rng):
    f = random_arrow(rng, depth=3)
    g = mutate_preserving(rng, f, rounds=3)
    assert typecheck(g) == typecheck(f)
    assert graph_of(g) == graph_of(f)
    assert normalize(f).result == normalize(g).result


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_binary_products_mode_reduction(rng):
    t = random_arrow(rng, mode=Mode.BINARY_PRODUCTS, depth=4)
    trace = normalize(t, Mode.BINARY_PRODUCTS)
    assert is_normal_form(trace.result, Mode.BINARY_PRODUCTS)
    for _, sub in iter_subterms(trace.result):
        assert not isinstance(sub, Bang)


# ---------------------------------------------------------------------------
# Differential checks: the one-scan strategy and the one-descent addressing
# against references that walk the term recursively, phase by phase


def _reference_subterms(t, path=()):
    yield path, t
    children = (t.first, t.second) if isinstance(t, Pair) else getattr(t, "factors", ())
    for i, child in enumerate(children):
        yield from _reference_subterms(child, path + (i,))


def _reference_window_kind(factors, i):
    """The strategy's redex kind at factor i of a composition, or None."""
    f = factors[i]
    after = factors[i + 1] if i + 1 < len(factors) else None
    if isinstance(f, Identity):
        return RedexKind.IDENTITY_LEFT if after is None else RedexKind.IDENTITY_RIGHT
    if isinstance(f, Pair):
        if isinstance(after, Proj1):
            return RedexKind.PAIRING_BETA1
        if isinstance(after, Proj2):
            return RedexKind.PAIRING_BETA2
        if i > 0:
            return RedexKind.DISTR
    return None


def _window_redex(t, path):
    if isinstance(t, Compose):
        for i in range(len(t.factors)):
            if (kind := _reference_window_kind(t.factors, i)) is not None:
                return path + (i,), kind
    return None


def _terminal_redex(t, path):
    if not isinstance(t, Bang) and isinstance(t.codomain, Terminal):
        return path, RedexKind.ATOMIZE_TERMINAL
    return None


def _first(t, redex_at, path=()):
    """The first redex that redex_at finds at a node of t, in preorder."""
    found = redex_at(t, path)
    if found is None and isinstance(t, (Pair, Compose)):
        children = (t.first, t.second) if isinstance(t, Pair) else t.factors
        for i, child in enumerate(children):
            if (found := _first(child, redex_at, path + (i,))) is not None:
                break
    return found


def _pairing_leaves(t, path=()):
    """The non-pairing nodes reached from t through pairings only, in preorder."""
    if isinstance(t, Pair):
        yield from _pairing_leaves(t.first, path + (0,))
        yield from _pairing_leaves(t.second, path + (1,))
    else:
        yield path, t


def _reference_find_redex(t):
    """The strategy in three phases: windows, then terminals, then products."""
    found = _first(t, _window_redex) or _first(t, _terminal_redex)
    if found is None and _reference_degree(t).alpha == 0:
        for path, sub in _pairing_leaves(t):
            if isinstance(sub.codomain, Product):
                return path, RedexKind.ATOMIZE_PRODUCT
    return found


def _reference_valid(t, at, path, kind):
    """Whether `kind` is a redex kind at `path`, from the rules' side conditions."""
    sub = at[path]
    if kind is RedexKind.ATOMIZE_TERMINAL:
        return _terminal_redex(sub, path) is not None
    if kind is RedexKind.ATOMIZE_PRODUCT:
        return (
            not isinstance(sub, Pair)
            and isinstance(sub.codomain, Product)
            and all(isinstance(at[path[:k]], Pair) for k in range(len(path)))
            and _reference_degree(t).alpha == 0
        )
    if not path or not isinstance(at[path[:-1]], Compose):
        return False
    factors, i = at[path[:-1]].factors, path[-1]
    after = factors[i + 1] if i + 1 < len(factors) else None
    match kind:
        case RedexKind.IDENTITY_LEFT | RedexKind.IDENTITY_RIGHT:
            return isinstance(sub, Identity)
        case RedexKind.PAIRING_BETA1:
            return isinstance(sub, Pair) and isinstance(after, Proj1)
        case RedexKind.PAIRING_BETA2:
            return isinstance(sub, Pair) and isinstance(after, Proj2)
    return isinstance(sub, Pair) and i > 0  # DISTR


def _bad_paths(t):
    """Paths that address nothing, one kind of mistake at every subterm."""
    for path, sub in _reference_subterms(t):
        yield path + (-1,)
        if isinstance(sub, Pair):
            yield path + (2,)
        elif isinstance(sub, Compose):
            yield path + (len(sub.factors),)
        else:
            yield path + (0,)


def _every_state(rng, mode):
    """A random term, a mutation of it, and every state of both traces."""
    t = random_arrow(rng, mode=mode, depth=3)
    states = []
    for u in (t, mutate_preserving(rng, t, mode=mode, rounds=2)):
        states += trace_states(u, mode)
    return states


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_find_redex_matches_the_three_phase_search(mode, rng):
    for t in _every_state(rng, mode):
        assert find_redex(t) == _reference_find_redex(t)


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_step_accepts_exactly_the_valid_redexes(mode, rng):
    for t in _every_state(rng, mode):
        at = dict(_reference_subterms(t))
        for path in at:
            for kind in RedexKind:
                try:
                    step(t, path, kind)
                    accepted = True
                except InvalidRedex:
                    accepted = False
                assert accepted == _reference_valid(t, at, path, kind), (kind, path)


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_addressing_matches_a_recursive_walk(mode, rng):
    for t in _every_state(rng, mode):
        assert list(iter_subterms(t)) == list(_reference_subterms(t))
        for path, sub in _reference_subterms(t):
            assert subterm_at(t, path) is sub
            assert replace_subterm(t, path, sub) == t
        for path in _bad_paths(t):
            with pytest.raises(IndexError):
                subterm_at(t, path)
            with pytest.raises(IndexError):
                replace_subterm(t, path, t)
            for kind in RedexKind:
                with pytest.raises(IndexError):
                    step(t, path, kind)


# ---------------------------------------------------------------------------
# normalize, which contracts in place and resumes its search at the focus,
# against the reference loop of find_redex, step and degree


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_normalize_takes_the_reference_steps(mode, rng):
    t = random_arrow(rng, mode=mode, depth=4)
    for u in (t, mutate_preserving(rng, t, mode=mode, rounds=2)):
        assert normalize(u, mode) == reference_normalize(u, mode)


def _chains():
    pq, qp = Product(p, q), Product(q, p)
    yield compose(*[Identity(pq)] * 300)
    yield compose(Proj1(pq, q), *[Identity(pq)] * 50, Proj2(p, q), Identity(q))
    for n in (1, 2, 3, 40, 41):
        yield compose(*[swap(p, q), swap(q, p)] * n)
        yield compose(*[swap(p, q), Identity(qp), swap(q, p), Identity(pq)] * n, Proj1(p, q))
    # A focus under a pairing, itself the first factor of a composition
    # without a window redex: each step's degree is lifted through both.
    inner = compose(*[Identity(pq)] * 5, swap(p, q), swap(q, p))
    yield compose(Pair(inner, compose(Identity(pq), Proj2(p, q))), Bang(Product(pq, q)))


@pytest.mark.parametrize("t", list(_chains()), ids=lambda t: f"{len(t.parts)}-factors")
def test_normalize_takes_the_reference_steps_on_chains(t):
    assert normalize(t) == reference_normalize(t)


@pytest.mark.parametrize("mode", list(Mode))
@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_normalize_takes_the_reference_steps_on_collapse_composites(mode, rng):
    dom = random_object(rng, allow_terminal=mode is Mode.CARTESIAN)
    cod, first = random_codomain_and_graph(rng, dom, mode)
    for _ in range(20):
        other_cod, second = random_codomain_and_graph(rng, dom, mode)
        if other_cod == cod and second != first:
            break
    else:
        return
    f, g = (synth_from_graph(dom, cod, m, mode) for m in (first, second))
    f, g = (mutate_preserving(rng, u, mode, 2) for u in (f, g))
    w = collapse_witness(f, g, mode)
    for middle in (w.f_subst, w.g_subst):
        composite = compose(w.h, middle, w.j)
        assert normalize(composite, mode) == reference_normalize(composite, mode)


@pytest.mark.parametrize("n", [2000, 4000])
def test_normalizing_an_identity_chain_builds_compositions_of_linear_total_size(monkeypatch, n):
    # Rebuilding the chain at every step passes n - 1, n - 2, ... factors
    # to Compose: about n * n / 2 in all.
    t = Compose((Identity(Product(p, q)),) * n)
    passed = []
    original = Compose.__init__

    def counted(self, factors):
        passed.append(len(factors))
        original(self, factors)

    monkeypatch.setattr(Compose, "__init__", counted)
    trace = normalize(t)
    assert len(trace.steps) == n + 2
    assert sum(passed) <= n
