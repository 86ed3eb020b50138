"""Reduction of arrow terms to their unique normal form.

Normal forms are identities on letters, compositions of projections
ending at a letter, terminal arrows, and pairings of normal forms.
Reduction removes identity factors, contracts projections and
compositions against pairings, and finally atomizes terms whose
codomain is still a product or the terminal object.

Termination is measured by a triple (alpha, beta, gamma) compared
lexicographically; every permitted step strictly decreases it.  The
atomizing-to-product step is only permitted on pairing-free subterms
that are not composition factors, and only while no pairing occurs
anywhere under a composition, which is what makes the measure work.

Rewriting is the certifying route: every step is recorded and checked
to decrease the degree.  It serves `normalize --trace`,
`equal --method normalize|both` and verify_witness.  Where no trace is
wanted (`normalize` without `--trace`, the normal forms stored in
collapse witnesses), decide.normal_form reads the same normal form back
from the term's graph instead.
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
    compose,
    replace_subterm,
    subterm_at,
    symbol_length,
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
    kind: RedexKind
    path: Path
    after: ArrowTerm
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
    match t:
        case Identity(obj):
            return isinstance(obj, LetterObj)
        case Bang(_):
            return mode is Mode.CARTESIAN
        case Pair(first, second):
            return is_normal_form(first, mode) and is_normal_form(second, mode)
        case Proj1(_, _) | Proj2(_, _) | Compose(_):
            return is_atomized_k_composition(t)
    return False


# ---------------------------------------------------------------------------
# The termination measure

def gamma_measure(t: ArrowTerm) -> int:
    match t:
        case Bang(_):
            return 2
        case Identity(_) | Proj1(_, _) | Proj2(_, _):
            return 3
        case Pair(first, second):
            return gamma_measure(first) + gamma_measure(second) + 1
        case Compose(factors):
            out = 1
            for f in factors:
                out *= gamma_measure(f)
            return out
    raise TypeError(f"not an arrow term: {t!r}")


def _contains_pair(t: ArrowTerm) -> bool:
    match t:
        case Pair(_, _):
            return True
        case Compose(factors):
            return any(_contains_pair(f) for f in factors)
    return False


def _pair_under_composition(t: ArrowTerm) -> bool:
    match t:
        case Compose(factors):
            return any(_contains_pair(f) for f in factors)
        case Pair(first, second):
            return _pair_under_composition(first) or _pair_under_composition(second)
    return False


def alpha_measure(t: ArrowTerm) -> int:
    """gamma if any pairing occurs inside a composition factor, else 0."""
    return gamma_measure(t) if _pair_under_composition(t) else 0


def product_eliminative_occurrences(t: ArrowTerm) -> list[Path]:
    """Addresses of pairing-free occurrences that are not composition factors.

    Occurrences of the flattened tree are the root, pairing components
    and composition factors; only the first two kinds qualify, and
    nothing inside a pairing-free occurrence can qualify again.
    """
    out: list[Path] = []

    def walk(node: ArrowTerm, path: Path, factor_position: bool) -> None:
        if not _contains_pair(node):
            if not factor_position:
                out.append(path)
            return
        match node:
            case Pair(first, second):
                walk(first, path + (0,), False)
                walk(second, path + (1,), False)
            case Compose(factors):
                for i, f in enumerate(factors):
                    walk(f, path + (i,), True)

    walk(t, (), False)
    return out


def beta_measure(t: ArrowTerm) -> int:
    """Total symbol length of the targets of product-eliminative occurrences."""
    return sum(
        symbol_length(subterm_at(t, path).codomain)
        for path in product_eliminative_occurrences(t)
    )


def degree(t: ArrowTerm) -> Degree:
    return Degree(alpha_measure(t), beta_measure(t), gamma_measure(t))


# ---------------------------------------------------------------------------
# Redex search

def _find_identity_or_pairing(t: ArrowTerm, path: Path) -> tuple[Path, RedexKind] | None:
    match t:
        case Compose(factors):
            n = len(factors)
            for i, f in enumerate(factors):
                if isinstance(f, Identity):
                    kind = (
                        RedexKind.IDENTITY_LEFT if i == n - 1 else RedexKind.IDENTITY_RIGHT
                    )
                    return path + (i,), kind
                if isinstance(f, Pair):
                    if i + 1 < n and isinstance(factors[i + 1], Proj1):
                        return path + (i,), RedexKind.PAIRING_BETA1
                    if i + 1 < n and isinstance(factors[i + 1], Proj2):
                        return path + (i,), RedexKind.PAIRING_BETA2
                    if i > 0:
                        return path + (i,), RedexKind.DISTR
            for i, f in enumerate(factors):
                found = _find_identity_or_pairing(f, path + (i,))
                if found:
                    return found
        case Pair(first, second):
            found = _find_identity_or_pairing(first, path + (0,))
            if found:
                return found
            return _find_identity_or_pairing(second, path + (1,))
    return None


def _find_terminal_redex(t: ArrowTerm, path: Path) -> tuple[Path, RedexKind] | None:
    if not isinstance(t, Bang) and isinstance(t.codomain, Terminal):
        return path, RedexKind.ATOMIZE_TERMINAL
    match t:
        case Pair(first, second):
            found = _find_terminal_redex(first, path + (0,))
            if found:
                return found
            return _find_terminal_redex(second, path + (1,))
        case Compose(factors):
            for i, f in enumerate(factors):
                found = _find_terminal_redex(f, path + (i,))
                if found:
                    return found
    return None


def find_redex(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> tuple[Path, RedexKind] | None:
    """The next redex under the fixed strategy, or None on normal forms.

    Identity and pairing redexes are contracted first, then terminal
    atomizations, and only when no pairing remains under a composition
    (which the earlier phases guarantee) product atomizations.
    """
    found = _find_identity_or_pairing(t, ())
    if found:
        return found
    found = _find_terminal_redex(t, ())
    if found:
        return found
    if alpha_measure(t) == 0:
        for path in product_eliminative_occurrences(t):
            if isinstance(subterm_at(t, path).codomain, Product):
                return path, RedexKind.ATOMIZE_PRODUCT
    return None


# ---------------------------------------------------------------------------
# Contraction

def _parent_is_compose(t: ArrowTerm, path: Path) -> bool:
    return bool(path) and isinstance(subterm_at(t, path[:-1]), Compose)


def step(t: ArrowTerm, path: Path, kind: RedexKind) -> ArrowTerm:
    """Replace the redex at `path` by its contractum, re-flattening."""
    if kind in (RedexKind.IDENTITY_LEFT, RedexKind.IDENTITY_RIGHT):
        if not _parent_is_compose(t, path):
            raise InvalidRedex(f"no identity redex at {path}")
        parent = subterm_at(t, path[:-1])
        i = path[-1]
        assert isinstance(parent, Compose)
        if not isinstance(parent.factors[i], Identity):
            raise InvalidRedex(f"no identity redex at {path}")
        remaining = parent.factors[:i] + parent.factors[i + 1 :]
        return replace_subterm(t, path[:-1], compose(*remaining))

    if kind in (RedexKind.PAIRING_BETA1, RedexKind.PAIRING_BETA2):
        if not _parent_is_compose(t, path):
            raise InvalidRedex(f"no pairing redex at {path}")
        parent = subterm_at(t, path[:-1])
        i = path[-1]
        assert isinstance(parent, Compose)
        pair = parent.factors[i]
        proj_cls = Proj1 if kind is RedexKind.PAIRING_BETA1 else Proj2
        if (
            not isinstance(pair, Pair)
            or i + 1 >= len(parent.factors)
            or not isinstance(parent.factors[i + 1], proj_cls)
        ):
            raise InvalidRedex(f"no pairing redex at {path}")
        component = pair.first if kind is RedexKind.PAIRING_BETA1 else pair.second
        remaining = parent.factors[:i] + (component,) + parent.factors[i + 2 :]
        return replace_subterm(t, path[:-1], compose(*remaining))

    if kind is RedexKind.DISTR:
        if not _parent_is_compose(t, path):
            raise InvalidRedex(f"no distribution redex at {path}")
        parent = subterm_at(t, path[:-1])
        i = path[-1]
        assert isinstance(parent, Compose)
        pair = parent.factors[i]
        if not isinstance(pair, Pair) or i == 0:
            raise InvalidRedex(f"no distribution redex at {path}")
        h = parent.factors[i - 1]
        pushed = Pair(compose(h, pair.first), compose(h, pair.second))
        remaining = parent.factors[: i - 1] + (pushed,) + parent.factors[i + 1 :]
        return replace_subterm(t, path[:-1], compose(*remaining))

    if kind is RedexKind.ATOMIZE_PRODUCT:
        sub = subterm_at(t, path)
        cod = sub.codomain
        if (
            _parent_is_compose(t, path)
            or _contains_pair(sub)
            or not isinstance(cod, Product)
            or alpha_measure(t) != 0
        ):
            raise InvalidRedex(f"no product atomization at {path}")
        expanded = Pair(
            compose(sub, Proj1(cod.left, cod.right)),
            compose(sub, Proj2(cod.left, cod.right)),
        )
        return replace_subterm(t, path, expanded)

    if kind is RedexKind.ATOMIZE_TERMINAL:
        sub = subterm_at(t, path)
        if isinstance(sub, Bang) or not isinstance(sub.codomain, Terminal):
            raise InvalidRedex(f"no terminal atomization at {path}")
        return replace_subterm(t, path, Bang(sub.domain))

    raise InvalidRedex(f"unknown redex kind: {kind!r}")


def normalize(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ReductionTrace:
    """Reduce to normal form, recording every step.

    Every step must strictly decrease the well-founded degree (alpha,
    beta, gamma); that check is what ends the loop, and a step that
    fails it raises InternalError instead of running on.
    """
    typecheck(t, mode)
    steps: list[ReductionStep] = []
    current = t
    current_degree = degree(current)
    while (found := find_redex(current, mode)) is not None:
        path, kind = found
        nxt = step(current, path, kind)
        next_degree = degree(nxt)
        if not next_degree < current_degree:
            raise InternalError(
                f"degree did not decrease at step {len(steps) + 1}: "
                f"{current_degree} -> {next_degree} ({kind.value} at {path})"
            )
        steps.append(ReductionStep(kind, path, nxt, current_degree, next_degree))
        current = nxt
        current_degree = next_degree
    return ReductionTrace(tuple(steps), current)
