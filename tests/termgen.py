"""Random generation of objects, well-typed arrow terms and graphs.

Everything takes an explicit random.Random so tests stay reproducible.
The mutation helpers only apply rewrites that hold as equations, so a
mutated term keeps its type and its graph.
"""

from __future__ import annotations

import random

from freecart import (
    ArrowTerm,
    Bang,
    Compose,
    Identity,
    LetterObj,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    Proj1,
    Proj2,
    ReductionStep,
    ReductionTrace,
    Terminal,
    compose,
    degree,
    find_redex,
    iter_subterms,
    letters_of,
    normalize,
    replace_subterm,
    step,
    subterm_at,
    typecheck,
)

LETTERS = ("p", "q", "r")


def random_object(
    rng: random.Random,
    letters=LETTERS,
    max_depth: int = 2,
    allow_terminal: bool = True,
    product_bias: float = 0.6,
) -> ObjectExpr:
    if max_depth > 0 and rng.random() < product_bias:
        return Product(
            random_object(rng, letters, max_depth - 1, allow_terminal, product_bias),
            random_object(rng, letters, max_depth - 1, allow_terminal, product_bias),
        )
    if allow_terminal and rng.random() < 0.15:
        return Terminal()
    return LetterObj(rng.choice(letters))


def random_arrow_from(
    rng: random.Random, dom: ObjectExpr, depth: int, mode: Mode
) -> ArrowTerm:
    """A random well-typed arrow with the given domain."""
    cartesian = mode is Mode.CARTESIAN
    choices = ["identity"]
    if isinstance(dom, Product):
        choices += ["proj", "proj"]
    if cartesian:
        choices.append("bang")
    if depth > 0:
        choices += ["pair", "pair", "compose", "compose"]
    pick = rng.choice(choices)
    if pick == "identity":
        return Identity(dom)
    if pick == "proj":
        assert isinstance(dom, Product)
        cls = rng.choice((Proj1, Proj2))
        return cls(dom.left, dom.right)
    if pick == "bang":
        return Bang(dom)
    if pick == "pair":
        return Pair(
            random_arrow_from(rng, dom, depth - 1, mode),
            random_arrow_from(rng, dom, depth - 1, mode),
        )
    first = random_arrow_from(rng, dom, depth - 1, mode)
    rest = random_arrow_from(rng, first.codomain, depth - 1, mode)
    return compose(first, rest)


def random_arrow(
    rng: random.Random,
    mode: Mode = Mode.CARTESIAN,
    letters=LETTERS,
    obj_depth: int = 2,
    depth: int = 4,
) -> ArrowTerm:
    dom = random_object(
        rng, letters, obj_depth, allow_terminal=mode is Mode.CARTESIAN
    )
    return random_arrow_from(rng, dom, depth, mode)


def random_arrow_to_terminal(
    rng: random.Random, dom: ObjectExpr, depth: int
) -> ArrowTerm:
    """A random arrow with codomain T (cartesian mode)."""
    if rng.random() < 0.3:
        return Bang(dom)
    prefix = random_arrow_from(rng, dom, depth, Mode.CARTESIAN)
    cod = prefix.codomain
    if isinstance(cod, Terminal):
        return prefix
    return compose(prefix, Bang(cod))


# ---------------------------------------------------------------------------
# Graph-preserving mutation

def _mut_insert_identity(rng, t, mode):
    paths = list(iter_subterms(t))
    path, sub = rng.choice(paths)
    if rng.random() < 0.5:
        new = compose(Identity(sub.domain), sub)
    else:
        new = compose(sub, Identity(sub.codomain))
    return replace_subterm(t, path, new)


def _mut_remove_identity(rng, t, mode):
    candidates = [
        (path, sub)
        for path, sub in iter_subterms(t)
        if isinstance(sub, Compose)
        and any(isinstance(f, Identity) for f in sub.factors)
    ]
    if not candidates:
        return None
    path, sub = rng.choice(candidates)
    i = rng.choice(
        [k for k, f in enumerate(sub.factors) if isinstance(f, Identity)]
    )
    return replace_subterm(t, path, compose(*(sub.factors[:i] + sub.factors[i + 1 :])))


def _mut_eta(rng, t, mode):
    moves = []
    for path, sub in iter_subterms(t):
        if isinstance(sub, Identity) and isinstance(sub.obj, Product):
            moves.append(("expand", path, sub))
        if (
            isinstance(sub, Pair)
            and isinstance(sub.first, Proj1)
            and isinstance(sub.second, Proj2)
            and (sub.first.left, sub.first.right)
            == (sub.second.left, sub.second.right)
        ):
            moves.append(("contract", path, sub))
    if not moves:
        return None
    direction, path, sub = rng.choice(moves)
    if direction == "expand":
        new = Pair(Proj1(sub.obj.left, sub.obj.right), Proj2(sub.obj.left, sub.obj.right))
    else:
        new = Identity(Product(sub.first.left, sub.first.right))
    return replace_subterm(t, path, new)


def _mut_beta_expand(rng, t, mode):
    paths = list(iter_subterms(t))
    path, sub = rng.choice(paths)
    other = random_arrow_from(rng, sub.domain, 1, mode)
    if rng.random() < 0.5:
        new = compose(Pair(sub, other), Proj1(sub.codomain, other.codomain))
    else:
        new = compose(Pair(other, sub), Proj2(other.codomain, sub.codomain))
    return replace_subterm(t, path, new)


def _mut_beta_contract(rng, t, mode):
    candidates = []
    for path, sub in iter_subterms(t):
        if isinstance(sub, Compose):
            for i in range(len(sub.factors) - 1):
                if isinstance(sub.factors[i], Pair) and isinstance(
                    sub.factors[i + 1], (Proj1, Proj2)
                ):
                    candidates.append((path, i))
    if not candidates:
        return None
    path, i = rng.choice(candidates)
    sub = subterm_at(t, path)
    pair = sub.factors[i]
    taken = pair.first if isinstance(sub.factors[i + 1], Proj1) else pair.second
    return replace_subterm(
        t, path, compose(*(sub.factors[:i] + (taken,) + sub.factors[i + 2 :]))
    )


def _mut_distr(rng, t, mode):
    moves = []
    for path, sub in iter_subterms(t):
        if isinstance(sub, Compose):
            for i in range(1, len(sub.factors)):
                if isinstance(sub.factors[i], Pair):
                    moves.append(("contract", path, i))
        if (
            isinstance(sub, Pair)
            and isinstance(sub.first, Compose)
            and isinstance(sub.second, Compose)
            and sub.first.factors[0] == sub.second.factors[0]
        ):
            moves.append(("expand", path, None))
    if not moves:
        return None
    direction, path, i = rng.choice(moves)
    sub = subterm_at(t, path)
    if direction == "contract":
        pair = sub.factors[i]
        h = sub.factors[i - 1]
        pushed = Pair(compose(h, pair.first), compose(h, pair.second))
        return replace_subterm(
            t, path, compose(*(sub.factors[: i - 1] + (pushed,) + sub.factors[i + 1 :]))
        )
    h = sub.first.factors[0]
    rest_first = compose(*sub.first.factors[1:])
    rest_second = compose(*sub.second.factors[1:])
    return replace_subterm(t, path, compose(h, Pair(rest_first, rest_second)))


def _mut_bang(rng, t, mode):
    if mode is not Mode.CARTESIAN:
        return None
    moves = []
    for path, sub in iter_subterms(t):
        if isinstance(sub, Bang):
            moves.append(("expand", path, sub))
        elif isinstance(sub.codomain, Terminal):
            moves.append(("contract", path, sub))
    if not moves:
        return None
    direction, path, sub = rng.choice(moves)
    if direction == "contract":
        return replace_subterm(t, path, Bang(sub.domain))
    return replace_subterm(t, path, compose(Bang(sub.obj), Bang(Terminal())))


_MUTATIONS = (
    _mut_insert_identity,
    _mut_remove_identity,
    _mut_eta,
    _mut_beta_expand,
    _mut_beta_contract,
    _mut_distr,
    _mut_bang,
)


def mutate_preserving(
    rng: random.Random, t: ArrowTerm, mode: Mode = Mode.CARTESIAN, rounds: int = 3
) -> ArrowTerm:
    """Rewrite with valid equations a few times; type and graph survive."""
    current = t
    for _ in range(rounds):
        for _ in range(10):
            mutated = rng.choice(_MUTATIONS)(rng, current, mode)
            if mutated is not None:
                current = mutated
                break
    return current


# ---------------------------------------------------------------------------
# Compatible graphs and normal forms

def random_codomain_and_graph(
    rng: random.Random, dom: ObjectExpr, mode: Mode = Mode.CARTESIAN, max_depth: int = 2
) -> tuple[ObjectExpr, tuple[int, ...]]:
    """A random codomain whose letters all occur in dom, plus a compatible map."""
    dom_letters = letters_of(dom)
    positions: dict[LetterObj, list[int]] = {}
    for idx, letter in enumerate(dom_letters, start=1):
        positions.setdefault(letter, []).append(idx)
    available = sorted(positions, key=lambda l: l.name)

    def build(depth: int) -> ObjectExpr:
        if depth > 0 and rng.random() < 0.55:
            return Product(build(depth - 1), build(depth - 1))
        if not available or (mode is Mode.CARTESIAN and rng.random() < 0.2):
            return Terminal()
        return rng.choice(available)

    cod = build(max_depth)
    mapping = tuple(rng.choice(positions[letter]) for letter in letters_of(cod))
    return cod, mapping


def _descent_chain(dom: ObjectExpr, position: int) -> ArrowTerm:
    factors = []
    node = dom
    j = position
    while isinstance(node, Product):
        nl = node.left.letters
        if j <= nl:
            factors.append(Proj1(node.left, node.right))
            node = node.left
        else:
            factors.append(Proj2(node.left, node.right))
            j -= nl
            node = node.right
    return compose(*factors)


def random_normal_form(
    rng: random.Random, dom: ObjectExpr, mode: Mode = Mode.CARTESIAN, depth: int = 2
) -> ArrowTerm:
    """Build a normal form directly from the defining clauses."""
    options = []
    if isinstance(dom, LetterObj):
        options.append("identity")
    if isinstance(dom, Product) and dom.letters > 0:
        options.append("chain")
    if mode is Mode.CARTESIAN:
        options.append("bang")
    if depth > 0:
        options += ["pair", "pair"]
    pick = rng.choice(options)
    if pick == "identity":
        return Identity(dom)
    if pick == "chain":
        return _descent_chain(dom, rng.randrange(1, dom.letters + 1))
    if pick == "bang":
        return Bang(dom)
    return Pair(
        random_normal_form(rng, dom, mode, depth - 1),
        random_normal_form(rng, dom, mode, depth - 1),
    )


# ---------------------------------------------------------------------------
# Substitution, node by node through the constructors

def reference_substitute(t: ArrowTerm, letter: LetterObj) -> ArrowTerm:
    """substitute_all_letters(t, letter), every node rebuilt by its constructor.

    Each node's attributes are recomputed and each seam checked again,
    where substitute_all_letters copies them: the slow path it must agree
    with, node by node.  Both walks keep their own stacks, so no depth
    reaches the recursion limit.
    """
    done: dict[ObjectExpr, ObjectExpr] = {Terminal(): Terminal()}

    def obj(a: ObjectExpr) -> ObjectExpr:
        # A product is rebuilt once both its parts are: it stays on the
        # stack, under them, until then.
        todo = [a]
        while todo:
            node = todo[-1]
            if node in done:
                todo.pop()
            elif isinstance(node, LetterObj):
                done[node] = letter
            elif node.left in done and node.right in done:
                done[node] = Product(done[node.left], done[node.right])
            else:
                todo += (node.right, node.left)
        return done[a]

    # The stack holds terms to rebuild and, wrapped in a 1-tuple, a
    # pairing or composition whose parts are the last ones built.
    built: list[ArrowTerm] = []
    todo: list[ArrowTerm | tuple[ArrowTerm]] = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            (node,) = node
            parts = tuple(built[-len(node.parts) :])
            del built[-len(node.parts) :]
            built.append(Pair(*parts) if isinstance(node, Pair) else Compose(parts))
        elif node.parts:
            todo.append((node,))
            todo += reversed(node.parts)
        elif isinstance(node, (Identity, Bang)):
            built.append(type(node)(obj(node.obj)))
        else:
            built.append(type(node)(obj(node.left), obj(node.right)))
    return built[0]


# ---------------------------------------------------------------------------
# Replaying a reduction

def reference_normalize(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ReductionTrace:
    """normalize's strategy from the public find_redex, step and degree alone.

    Each step searches from the root, rebuilds the term along one
    descent and reads the degree off the new root: the loop that
    normalize's contraction in place must agree with, step for step.
    """
    typecheck(t, mode)
    steps = []
    current, before = t, degree(t)
    while (found := find_redex(current)) is not None:
        path, kind = found
        current = step(current, path, kind)
        after = degree(current)
        assert after < before, (kind, path)
        steps.append(ReductionStep(kind, path, before, after))
        before = after
    return ReductionTrace(tuple(steps), current)


def trace_states(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> list[ArrowTerm]:
    """[t, s1, ..., result]: the trace of normalize, replayed with step.

    The replay checks the trace as a certificate: each state has the
    degrees recorded for it, they decrease, and the last state is the
    trace's result.
    """
    trace = normalize(t, mode)
    states = [t]
    for s in trace.steps:
        assert degree(states[-1]) == s.degree_before
        states.append(step(states[-1], s.path, s.kind))
        assert degree(states[-1]) == s.degree_after < s.degree_before
    assert states[-1] == trace.result
    return states
