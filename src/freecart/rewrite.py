"""Reduction of arrow terms to their unique normal form.

Normal forms are identities on letters, compositions of projections
ending at a letter, terminal arrows, and pairings of normal forms.
Reduction removes identity factors, contracts projections and
compositions against pairings, and finally atomizes terms whose
codomain is still a product or the terminal object.

Termination is measured by a triple (alpha, beta, gamma) compared
lexicographically; every permitted step strictly decreases it.  degree
reads it off the root's `measure`, which each node's constructor sets
from its children's (terms.ArrowTerm), so a step computes it only for
the nodes it rebuilds.  The atomizing-to-product step is only permitted
on the product-eliminative occurrences (pairing-free subterms that are
not composition factors), and only while no pairing occurs anywhere
under a composition (alpha is 0), which is what makes the measure work.
While alpha is 0, those occurrences are the pairing leaves: the
non-pairing nodes reached from the root through pairings only.
find_redex finds the strategy's redex in one preorder scan, and step
rewrites it along one descent (terms.spine); they share one test for
the redexes in a window of composition factors and one for terminal
atomization.

Rewriting is the certifying route: every step is checked to decrease
the degree and recorded as its rule, place and degrees, the certificate
that `normalize --trace` prints; only the current term is kept.  It
serves `normalize --trace`, `equal --method normalize|both` and
verify_witness.  Where no trace is wanted (`normalize` without
`--trace`), decide.normal_form reads the same normal form back from the
term's graph instead.
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
    _binary_products,
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

def degree(t: ArrowTerm) -> Degree:
    """alpha is gamma if a pairing occurs under a composition, else 0."""
    _arrows(t)
    gamma, _, pair_under_composition, beta = t.measure
    return Degree(gamma if pair_under_composition else 0, beta, gamma)


# ---------------------------------------------------------------------------
# Redexes

def _window_kinds(factors: tuple[ArrowTerm, ...], i: int) -> tuple[RedexKind, ...]:
    """The redex kinds at factor i of a composition, the strategy's choice first."""
    f = factors[i]
    after = factors[i + 1] if i + 1 < len(factors) else None
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
    return kinds + (RedexKind.DISTR,) if i > 0 else kinds


Redex = tuple[Path, RedexKind]


def _terminal_redex(t: ArrowTerm) -> bool:
    """Atomization to the terminal object applies: t maps to T and is no terminal arrow."""
    return isinstance(t.codomain, Terminal) and not isinstance(t, Bang)


def find_redex(t: ArrowTerm) -> Redex | None:
    """The next redex under the fixed strategy, or None on normal forms.

    One preorder scan, from an explicit stack of linked paths
    (terms._Link), so that only the path returned is built.  The first
    composition with an identity or pairing redex among its factors
    gives the strategy's choice at once.  Otherwise the first terminal
    atomization wins; failing that, and only when no pairing remains
    under a composition (alpha is 0, which the other kinds guarantee in
    the end), the first product atomization, at a pairing leaf: a
    non-pairing node reached from the root through pairings only.
    Each stack entry carries that "through pairings only" flag.
    """
    terminal = product = None
    stack: list[tuple[_Link, ArrowTerm, bool]] = [((), t, True)]
    while stack:
        link, node, through_pairings = stack.pop()
        if isinstance(node, Pair):
            stack.append(((link, 1), node.second, through_pairings))
            stack.append(((link, 0), node.first, through_pairings))
            continue
        if isinstance(node, Compose):
            factors = node.factors
            for i in range(len(factors)):
                if kinds := _window_kinds(factors, i):
                    return _unlink((link, i)), kinds[0]
            for i in reversed(range(len(factors))):
                stack.append(((link, i), factors[i], False))
        if terminal is None and _terminal_redex(node):
            terminal = link
        if through_pairings and product is None and isinstance(node.codomain, Product):
            product = link
    if terminal is not None:
        return _unlink(terminal), RedexKind.ATOMIZE_TERMINAL
    if product is not None and not t.measure[2]:
        return _unlink(product), RedexKind.ATOMIZE_PRODUCT
    return None


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
        kinds = _window_kinds(factors, i)
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
        # The rest contract the window factors[lo:hi] of the parent.
        case RedexKind.IDENTITY_LEFT | RedexKind.IDENTITY_RIGHT:
            lo, hi, window = i, i + 1, ()
        case RedexKind.PAIRING_BETA1:
            lo, hi, window = i, i + 2, (sub.first,)
        case RedexKind.PAIRING_BETA2:
            lo, hi, window = i, i + 2, (sub.second,)
        case RedexKind.DISTR:
            h = factors[i - 1]
            pushed = Pair(compose(h, sub.first), compose(h, sub.second))
            lo, hi, window = i - 1, i + 1, (pushed,)
    return rebuild(nodes[:-1], path[:-1], compose(*factors[:lo], *window, *factors[hi:]))


def normalize(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ReductionTrace:
    """Reduce to normal form, recording every step but only the last term.

    Every step must strictly decrease the well-founded degree (alpha,
    beta, gamma); that check is what ends the loop, and a step that
    fails it raises InternalError instead of running on.
    """
    typecheck(t, mode)
    steps: list[ReductionStep] = []
    current = t
    current_degree = degree(current)
    while (found := find_redex(current)) is not None:
        path, kind = found
        nxt = step(current, path, kind)
        next_degree = degree(nxt)
        if not next_degree < current_degree:
            raise InternalError(
                f"degree did not decrease at step {len(steps) + 1}: "
                f"{current_degree} -> {next_degree} ({kind.value} at {path})"
            )
        steps.append(ReductionStep(kind, path, current_degree, next_degree))
        current = nxt
        current_degree = next_degree
    return ReductionTrace(tuple(steps), current)
