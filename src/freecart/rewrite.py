"""Reduction of arrow terms to their unique normal form.

Normal forms are identities on letters, compositions of projections
ending at a letter, terminal arrows, and pairings of normal forms.
Reduction removes identity factors, contracts projections and
compositions against pairings, and finally atomizes terms whose
codomain is still a product or the terminal object.

Termination is measured by a triple (alpha, beta, gamma) compared
lexicographically; every permitted step strictly decreases it.  degree
reads it off the root's `measure`, which each node's constructor sets
from its children's (terms.ArrowTerm).  The atomizing-to-product step
is only permitted on the product-eliminative occurrences (pairing-free
subterms that are not composition factors), and only while no pairing
occurs anywhere under a composition (alpha is 0), which is what makes
the measure work.  While alpha is 0, those occurrences are the pairing
leaves: the non-pairing nodes reached from the root through pairings
only.

The strategy is one preorder scan (_scan): the first composition with
a window redex among its factors (an identity, or a pairing followed by
a projection or preceded by any factor, _window_kinds) gives the redex
at its first such factor; failing that, the first terminal atomization,
then the first product atomization.  find_redex returns that redex, and
step checks a (path, kind) against the same rules and rewrites along
one descent (terms.spine, terms.rebuild).  find_redex, step and degree
are the checked public API: a trace replays with them alone.

normalize runs the same strategy but pays per step, not per term (Huet,
"The Zipper", JFP 1997).  When the scan meets a composition with a
window redex, that composition becomes the focus: its factors in a
zipper around a cursor.  Each window is contracted in place, the
contractum's factors spliced in at the cursor, and the search goes on
from the factor before the window (index lo - 1): a window further left
reads only factors that did not change, and had no redex.  Only when
the focus holds no window redex, or is down to one factor, is it built
into one node and put in the root's place along its spine; the scan
then resumes there, at the focus, not at the root.  That gives
find_redex's choice on the new root: the compositions before the focus
in preorder had no window redex, and the class of each of their factors
is unchanged (the one above the focus is a pairing, rebuilt as a
pairing), so they still have none; every other node before the focus is
unchanged or an ancestor, which keeps its type, so the atomizations
that the scan has noted stand; and the nodes after it are those the
scan still holds.  Atomizations are taken by step, and the scan starts
again at the root.

Where each degree comes from: before the first step, degree(t).  After
an atomization, and after the step that closes a focus, the degree of
the root that the constructors built.  After a step that the focus
outlives, its measure: the product of its factors' gammas, the number
that hold a pairing and the sum of those ones' betas, read at the first
such step and then updated by what left and what came, lifted through
the focus's ancestors on the spine, each by its constructor's rule
(terms._composite_measure, terms._pair_measure and terms._as_factor)
applied to the focus's measure and to its other parts', which stay
fixed while the focus lives and are read once with it.

Rewriting is the certifying route: every step is checked to decrease
the degree and recorded as its rule, place and degrees, the certificate
that `normalize --trace` prints; only the current term is kept.  It
serves `normalize --trace`, `equal --method normalize|both` and
verify_witness.  Where no trace is wanted (`normalize` without
`--trace`), the same normal form is written from the arrow's type and
graph instead (decide.normal_form_text), with no term built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InternalError, InvalidRedex
from .terms import (
    ArrowTerm,
    Bang,
    Compose,
    Identity,
    LetterObj,
    Mode,
    Pair,
    Path,
    Product,
    Proj1,
    Proj2,
    Terminal,
    _Link,
    _arrows,
    _as_factor,
    _binary_products,
    _composite_measure,
    _pair_measure,
    _unlink,
    compose,
    rebuild,
    spine,
    typecheck,
)


@dataclass(frozen=True, order=True)
class Degree:
    """Lexicographic termination measure; think omega^2*a + omega*b + c."""

    alpha: int
    beta: int
    gamma: int

    def __str__(self):
        # str() of an int refuses more than sys.get_int_max_str_digits()
        # digits, 4300 by default, and gamma has more on a chain of 9,013
        # identities on a product; Decimal writes the same digits at any size.
        try:
            return f"({self.alpha},{self.beta},{self.gamma})"
        except ValueError:
            from decimal import Decimal

            return "({},{},{})".format(*(Decimal(n) for n in (self.alpha, self.beta, self.gamma)))


class RedexKind(Enum):
    IDENTITY_LEFT = "identity-left"
    IDENTITY_RIGHT = "identity-right"
    PAIRING_BETA1 = "pairing-beta1"
    PAIRING_BETA2 = "pairing-beta2"
    DISTR = "distr"
    ATOMIZE_PRODUCT = "atomize-product"
    ATOMIZE_TERMINAL = "atomize-terminal"


@dataclass(frozen=True)
class ReductionStep:
    """The rule applied, where, and the degrees; `step` rebuilds the term."""

    kind: RedexKind
    path: Path
    degree_before: Degree
    degree_after: Degree


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    result: ArrowTerm


# ---------------------------------------------------------------------------
# Normal-form predicate

def is_atomized_k_composition(t: ArrowTerm) -> bool:
    """A nonempty composition of projections whose codomain is a letter."""
    match t:
        case Proj1(_, _) | Proj2(_, _):
            return isinstance(t.codomain, LetterObj)
        case Compose(factors):
            return all(
                isinstance(f, (Proj1, Proj2)) for f in factors
            ) and isinstance(t.codomain, LetterObj)
    return False


def is_normal_form(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> bool:
    # Pairs are walked from an explicit stack, first component first.
    binary = _binary_products(mode)
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Pair):
            todo += (node.second, node.first)
        elif isinstance(node, Identity):
            if not isinstance(node.obj, LetterObj):
                return False
        elif isinstance(node, Bang):
            if binary:
                return False
        elif not is_atomized_k_composition(node):
            return False
    return True


# ---------------------------------------------------------------------------
# The termination measure

def _degree_of(measure: tuple) -> Degree:
    """The degree of a term of this measure.

    alpha is gamma if a pairing occurs under a composition, else 0.
    """
    gamma, _, pair_under_composition, beta = measure
    return Degree(gamma if pair_under_composition else 0, beta, gamma)


def degree(t: ArrowTerm) -> Degree:
    """The termination degree of t, read off its measure."""
    _arrows(t)
    return _degree_of(t.measure)


def _shares(factors) -> tuple[int, int, int]:
    """These factors' shares in a composition's measure, together.

    The product of their gammas, how many hold a pairing, and the sum of
    their betas (terms._as_factor): what the focus of normalize keeps.
    """
    gamma, pairings, beta = 1, 0, 0
    for f in factors:
        g, p, b = _as_factor(f.measure)
        gamma *= g
        pairings += p
        beta += b
    return gamma, pairings, beta


# ---------------------------------------------------------------------------
# Redexes

def _window_kinds(f: ArrowTerm, after: ArrowTerm | None, inner: bool) -> tuple[RedexKind, ...]:
    """The redex kinds at a composition factor f, the strategy's choice first.

    `after` is the next factor, None at the end, and `inner` tells
    whether some factor comes before f.
    """
    if isinstance(f, Identity):
        if after is None:
            return RedexKind.IDENTITY_LEFT, RedexKind.IDENTITY_RIGHT
        return RedexKind.IDENTITY_RIGHT, RedexKind.IDENTITY_LEFT
    if not isinstance(f, Pair):
        return ()
    kinds: tuple[RedexKind, ...] = ()
    if isinstance(after, Proj1):
        kinds = (RedexKind.PAIRING_BETA1,)
    elif isinstance(after, Proj2):
        kinds = (RedexKind.PAIRING_BETA2,)
    return kinds + (RedexKind.DISTR,) if inner else kinds


def _contract(
    h: ArrowTerm | None, f: ArrowTerm, kind: RedexKind
) -> tuple[int, int, tuple[ArrowTerm, ...]]:
    """The window that a `kind` redex at factor f contracts, and its contractum.

    h is the factor before f, None if there is none.  With f at index
    i, the window is factors[i + start : i + stop], and (start, stop,
    contractum) is returned.
    """
    match kind:
        case RedexKind.IDENTITY_LEFT | RedexKind.IDENTITY_RIGHT:
            return 0, 1, ()
        case RedexKind.PAIRING_BETA1:
            return 0, 2, (f.first,)
        case RedexKind.PAIRING_BETA2:
            return 0, 2, (f.second,)
    return -1, 1, (Pair(compose(h, f.first), compose(h, f.second)),)  # DISTR


Redex = tuple[Path, RedexKind]


def _terminal_redex(t: ArrowTerm) -> bool:
    """Atomization to the terminal object applies: t maps to T and is no terminal arrow."""
    return isinstance(t.codomain, Terminal) and not isinstance(t, Bang)


def _scan(
    stack: list[tuple[_Link, ArrowTerm, bool]], terminal: _Link | None, product: _Link | None
) -> tuple[tuple | None, _Link | None, _Link | None]:
    """The strategy's preorder scan, run on from `stack` to the next window redex.

    A stack entry is a node, its linked path (terms._Link, so that only
    the paths handed out are built) and whether it is reached from the
    root through pairings only; the next node is on top.  `terminal`
    and `product` are the links of the first terminal atomization and
    of the first node reached through pairings only that is no pairing
    and maps to a product, seen so far, or None.  Returns (window,
    terminal, product) with both links brought up to date, where window
    is (link, composition, reached through pairings only, i, kind) at
    the first composition with a window redex among its factors, i
    being the first such factor and kind the strategy's kind there, or
    None once the stack is empty.  A caller that contracts the window
    puts the node that replaces the composition back on the stack.
    """
    while stack:
        link, node, through_pairings = stack.pop()
        if isinstance(node, Pair):
            stack.append(((link, 1), node.second, through_pairings))
            stack.append(((link, 0), node.first, through_pairings))
            continue
        if isinstance(node, Compose):
            factors = node.factors
            last = len(factors) - 1
            for i, f in enumerate(factors):
                if kinds := _window_kinds(f, factors[i + 1] if i < last else None, i > 0):
                    return (link, node, through_pairings, i, kinds[0]), terminal, product
            for i in reversed(range(len(factors))):
                stack.append(((link, i), factors[i], False))
        if terminal is None and _terminal_redex(node):
            terminal = link
        if through_pairings and product is None and isinstance(node.codomain, Product):
            product = link
    return None, terminal, product


def _atomization(t: ArrowTerm, terminal: _Link | None, product: _Link | None) -> Redex | None:
    """The strategy's redex once no window redex is left, from what _scan noted."""
    if terminal is not None:
        return _unlink(terminal), RedexKind.ATOMIZE_TERMINAL
    if product is not None and not t.measure[2]:
        return _unlink(product), RedexKind.ATOMIZE_PRODUCT
    return None


def find_redex(t: ArrowTerm) -> Redex | None:
    """The next redex under the fixed strategy, or None on normal forms.

    One preorder scan (_scan).  The first composition with an identity
    or pairing redex among its factors gives the strategy's choice at
    once.  Otherwise the first terminal atomization wins; failing that,
    and only when no pairing remains under a composition (alpha is 0,
    which the other kinds guarantee in the end), the first product
    atomization, at a pairing leaf: a non-pairing node reached from the
    root through pairings only.
    """
    window, terminal, product = _scan([((), t, True)], None, None)
    if window is None:
        return _atomization(t, terminal, product)
    link, _, _, i, kind = window
    return _unlink((link, i)), kind


def step(t: ArrowTerm, path: Path, kind: RedexKind) -> ArrowTerm:
    """Replace the redex at `path` by its contractum, re-flattening.

    One descent (terms.spine) reads the subterm and its parent, and the
    contractum is rebuilt along it.  Raises IndexError if `path`
    addresses no subterm, and InvalidRedex if `kind` is not a redex kind
    at that subterm.
    """
    nodes = spine(t, path)
    sub = nodes[-1]
    kinds: tuple[RedexKind, ...] = ()
    if path and isinstance(nodes[-2], Compose):
        factors, i = nodes[-2].factors, path[-1]
        kinds = _window_kinds(sub, factors[i + 1] if i + 1 < len(factors) else None, i > 0)
    elif isinstance(sub.codomain, Product) and not isinstance(sub, Pair) and not t.measure[2]:
        # With alpha 0 this is a pairing leaf: a composition above the
        # parent would have a factor with children on the path, a pairing.
        kinds = (RedexKind.ATOMIZE_PRODUCT,)
    if _terminal_redex(sub):
        kinds += (RedexKind.ATOMIZE_TERMINAL,)
    if kind not in kinds:
        name = kind.value if isinstance(kind, RedexKind) else repr(kind)
        raise InvalidRedex(f"no {name} redex at {path}")

    match kind:
        case RedexKind.ATOMIZE_TERMINAL:
            return rebuild(nodes, path, Bang(sub.domain))
        case RedexKind.ATOMIZE_PRODUCT:
            left, right = sub.codomain.left, sub.codomain.right
            expanded = Pair(
                compose(sub, Proj1(left, right)), compose(sub, Proj2(left, right))
            )
            return rebuild(nodes, path, expanded)
    start, stop, contractum = _contract(factors[i - 1] if i else None, sub, kind)
    spliced = compose(*factors[: i + start], *contractum, *factors[i + stop :])
    return rebuild(nodes[:-1], path[:-1], spliced)


# ---------------------------------------------------------------------------
# Normalization

def _record(
    steps: list[ReductionStep], kind: RedexKind, path: Path, before: Degree, after: Degree
) -> Degree:
    """Append a step, unless it fails to decrease the degree: that raises InternalError."""
    if not after < before:
        raise InternalError(
            f"degree did not decrease at step {len(steps) + 1}: "
            f"{before} -> {after} ({kind.value} at {path})"
        )
    steps.append(ReductionStep(kind, path, before, after))
    return after


def _focus(
    root: ArrowTerm,
    link: _Link,
    node: Compose,
    i: int,
    kind: RedexKind,
    before: Degree,
    steps: list[ReductionStep],
) -> tuple[ArrowTerm, ArrowTerm, Degree]:
    """Contract the window redexes of the composition at `link` in place.

    Returns the node that takes the composition's place, the root with
    it in place and that root's degree (see the module docstring).
    """
    path = _unlink(link)
    nodes = spine(root, path)
    # The factor list as a zipper: `done` holds the factors before the
    # cursor, `todo` the rest in reverse, the cursor's factor last.
    done, todo = list(node.factors[:i]), list(reversed(node.factors[i:]))
    context = None
    while True:
        start, stop, contractum = _contract(done[-1] if done else None, todo[-1], kind)
        # The window leaves and the contractum's factors come in at the
        # cursor; a contractum is at most one term.
        gone = todo[-stop:] + done[i + start :]
        del todo[-stop:], done[i + start :]
        came = contractum
        if contractum and isinstance(contractum[0], Compose):
            came = contractum[0].factors
        todo += reversed(came)
        at, following = path + (i,), None
        if len(done) + len(todo) > 1:
            # Resume the search one factor before the window, the first
            # whose redexes can have changed.
            if done:
                todo.append(done.pop())
            while todo:
                after = todo[-2] if len(todo) > 1 else None
                if kinds := _window_kinds(todo[-1], after, bool(done)):
                    following = kinds[0]
                    break
                done.append(todo.pop())
        if following is None:
            new = compose(*done, *reversed(todo))
            root = rebuild(nodes, path, new)
            return new, root, _record(steps, kind, at, before, _degree_of(root.measure))
        if context is None:
            # The focus outlives this step: read its measure, and each
            # ancestor's other parts, bottom-up (a pairing's other
            # component's measure, or a composition's codomain and the
            # shares of its other factors), which stay fixed from now on.
            gamma, pairings, beta = _shares(done + todo)
            context = [
                (None, parent.parts[1 - j].measure)
                if isinstance(parent, Pair)
                else (parent.codomain, _shares(parent.factors[:j] + parent.factors[j + 1 :]))
                for parent, j in zip(reversed(nodes[:-1]), reversed(path))
            ]
        else:
            removed = 1
            for f in gone:
                g, p, b = _as_factor(f.measure)
                removed *= g
                pairings -= p
                beta -= b
            gamma //= removed
            for f in came:
                g, p, b = _as_factor(f.measure)
                gamma *= g
                pairings += p
                beta += b
        measure = _composite_measure(gamma, pairings > 0, beta, node.codomain)
        for codomain, others in context:
            if codomain is None:
                measure = _pair_measure(measure, others)
            else:
                g, p, b = _as_factor(measure)
                gamma_others, pairings_others, beta_others = others
                measure = _composite_measure(
                    gamma_others * g, pairings_others > 0 or p, beta_others + b, codomain
                )
        before = _record(steps, kind, at, before, _degree_of(measure))
        i, kind = len(done), following


def normalize(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ReductionTrace:
    """Reduce to normal form, recording every step but only the last term.

    Every step must strictly decrease the well-founded degree (alpha,
    beta, gamma); that check is what ends the loop, and a step that
    fails it raises InternalError instead of running on.
    """
    typecheck(t, mode)
    steps: list[ReductionStep] = []
    current, current_degree = t, degree(t)
    stack, terminal, product = [((), t, True)], None, None
    while True:
        window, terminal, product = _scan(stack, terminal, product)
        if window is None:
            found = _atomization(current, terminal, product)
            if found is None:
                return ReductionTrace(tuple(steps), current)
            path, kind = found
            current = step(current, path, kind)
            current_degree = _record(steps, kind, path, current_degree, degree(current))
            stack, terminal, product = [((), current, True)], None, None
        else:
            link, node, through_pairings, i, kind = window
            replacement, current, current_degree = _focus(
                current, link, node, i, kind, current_degree, steps
            )
            stack.append((link, replacement, through_pairings))
