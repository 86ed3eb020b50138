"""Syntactic core of the free cartesian category over a set of letters.

Objects are formulas built from letters, the terminal object and binary
products.  Arrows are typed terms: identities, the two projections, the
unique arrow into the terminal object, pairing, and composition.
Composition is kept flat (a factor list in application order), so every
term is a canonical representative of its associativity class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import ModeViolation, TypeMismatch

# Address of a subterm: child indices from the root (Pair components are
# 0 and 1, Compose factors are indexed in application order).
Path = tuple[int, ...]

_LETTER_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")


class Mode(Enum):
    """Ambient theory: with a terminal object, or binary products only."""

    CARTESIAN = "cartesian"
    BINARY_PRODUCTS = "binary-products"


@dataclass(frozen=True)
class Letter:
    """A generating object.  The terminal object is not a letter."""

    name: str

    def __post_init__(self):
        if not _LETTER_NAME.match(self.name):
            raise ValueError(f"invalid letter name: {self.name!r}")

    def __str__(self):
        return self.name


class ObjectExpr:
    """Base class of object formulas."""

    def __str__(self):
        from .syntax import print_object

        return print_object(self)


@dataclass(frozen=True)
class LetterObj(ObjectExpr):
    letter: Letter


@dataclass(frozen=True)
class Terminal(ObjectExpr):
    pass


@dataclass(frozen=True)
class Product(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


class ArrowTerm:
    """Base class of arrow terms."""

    def __str__(self):
        from .syntax import print_arrow

        return print_arrow(self)


@dataclass(frozen=True)
class Identity(ArrowTerm):
    obj: ObjectExpr


@dataclass(frozen=True)
class Proj1(ArrowTerm):
    left: ObjectExpr
    right: ObjectExpr


@dataclass(frozen=True)
class Proj2(ArrowTerm):
    left: ObjectExpr
    right: ObjectExpr


@dataclass(frozen=True)
class Bang(ArrowTerm):
    """The unique arrow into the terminal object (cartesian mode only)."""

    obj: ObjectExpr


@dataclass(frozen=True)
class Pair(ArrowTerm):
    first: ArrowTerm
    second: ArrowTerm


@dataclass(frozen=True)
class Compose(ArrowTerm):
    """Flattened composition; factors[0] is applied first.

    Nested factors are spliced in at construction and a factor list of
    fewer than two entries is rejected, so a Compose node never contains
    another Compose and never degenerates to a single arrow.
    """

    factors: tuple[ArrowTerm, ...]

    def __post_init__(self):
        flat: list[ArrowTerm] = []
        for f in self.factors:
            if isinstance(f, Compose):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 2:
            raise ValueError("composition needs at least two factors")
        object.__setattr__(self, "factors", tuple(flat))


def compose(*factors: ArrowTerm) -> ArrowTerm:
    """Compose arrows given in application order, flattening as needed.

    A single factor is returned unchanged; composition with one operand
    is identified with that operand.
    """
    if not factors:
        raise ValueError("composition needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    return Compose(factors)


@dataclass(frozen=True)
class ArrowType:
    domain: ObjectExpr
    codomain: ObjectExpr

    def __str__(self):
        from .syntax import print_object

        return f"{print_object(self.domain, spaced=True)} -> {print_object(self.codomain, spaced=True)}"


# ---------------------------------------------------------------------------
# Structural measures on objects

def letter_length(a: ObjectExpr) -> int:
    """Number of letter occurrences in an object."""
    match a:
        case LetterObj(_):
            return 1
        case Terminal():
            return 0
        case Product(left, right):
            return letter_length(left) + letter_length(right)
    raise TypeError(f"not an object: {a!r}")


def symbol_length(a: ObjectExpr) -> int:
    """Number of symbol occurrences: letters, products and terminals."""
    match a:
        case LetterObj(_) | Terminal():
            return 1
        case Product(left, right):
            return 1 + symbol_length(left) + symbol_length(right)
    raise TypeError(f"not an object: {a!r}")


def letters_of(a: ObjectExpr) -> tuple[Letter, ...]:
    """All letters of an object in left-to-right leaf order."""
    match a:
        case LetterObj(letter):
            return (letter,)
        case Terminal():
            return ()
        case Product(left, right):
            return letters_of(left) + letters_of(right)
    raise TypeError(f"not an object: {a!r}")


# ---------------------------------------------------------------------------
# Typing

def _check_object(a: ObjectExpr, mode: Mode, path: Path) -> None:
    match a:
        case LetterObj(_):
            return
        case Terminal():
            if mode is Mode.BINARY_PRODUCTS:
                raise ModeViolation(
                    "terminal object not available in binary-products mode", path
                )
        case Product(left, right):
            _check_object(left, mode, path)
            _check_object(right, mode, path)
        case _:
            raise TypeError(f"not an object: {a!r}")


def typecheck(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ArrowType:
    """Compute the unique type of a term, rejecting ill-typed ones."""
    return _typecheck(t, mode, ())


def common_type(f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ArrowType:
    """The type shared by f and g, rejecting arrows of different types."""
    ft = typecheck(f, mode)
    gt = typecheck(g, mode)
    if ft != gt:
        raise TypeMismatch(f"arrows have different types: {ft} vs {gt}")
    return ft


def _typecheck(t: ArrowTerm, mode: Mode, path: Path) -> ArrowType:
    match t:
        case Identity(obj):
            _check_object(obj, mode, path)
            return ArrowType(obj, obj)
        case Proj1(left, right):
            _check_object(left, mode, path)
            _check_object(right, mode, path)
            return ArrowType(Product(left, right), left)
        case Proj2(left, right):
            _check_object(left, mode, path)
            _check_object(right, mode, path)
            return ArrowType(Product(left, right), right)
        case Bang(obj):
            if mode is Mode.BINARY_PRODUCTS:
                raise ModeViolation(
                    "terminal arrow not available in binary-products mode", path
                )
            _check_object(obj, mode, path)
            return ArrowType(obj, Terminal())
        case Pair(first, second):
            ft = _typecheck(first, mode, path + (0,))
            st = _typecheck(second, mode, path + (1,))
            if ft.domain != st.domain:
                raise TypeMismatch(
                    f"pair components must share a domain: "
                    f"{ft.domain} vs {st.domain}",
                    path,
                )
            return ArrowType(ft.domain, Product(ft.codomain, st.codomain))
        case Compose(factors):
            types = [
                _typecheck(f, mode, path + (i,)) for i, f in enumerate(factors)
            ]
            for i in range(len(types) - 1):
                if types[i].codomain != types[i + 1].domain:
                    raise TypeMismatch(
                        f"composition factor {i + 1} expects domain "
                        f"{types[i].codomain} but has {types[i + 1].domain}",
                        path + (i + 1,),
                    )
            return ArrowType(types[0].domain, types[-1].codomain)
    raise TypeError(f"not an arrow term: {t!r}")


def domain(t: ArrowTerm) -> ObjectExpr:
    """Domain of a well-typed term, computed without a full typecheck."""
    match t:
        case Identity(obj) | Bang(obj):
            return obj
        case Proj1(left, right) | Proj2(left, right):
            return Product(left, right)
        case Pair(first, _):
            return domain(first)
        case Compose(factors):
            return domain(factors[0])
    raise TypeError(f"not an arrow term: {t!r}")


def codomain(t: ArrowTerm) -> ObjectExpr:
    """Codomain of a well-typed term, computed without a full typecheck."""
    match t:
        case Identity(obj):
            return obj
        case Bang(_):
            return Terminal()
        case Proj1(left, _):
            return left
        case Proj2(_, right):
            return right
        case Pair(first, second):
            return Product(codomain(first), codomain(second))
        case Compose(factors):
            return codomain(factors[-1])
    raise TypeError(f"not an arrow term: {t!r}")


# ---------------------------------------------------------------------------
# Subterm addressing

def iter_subterms(t: ArrowTerm, path: Path = ()) -> Iterator[tuple[Path, ArrowTerm]]:
    """Yield (path, subterm) pairs in preorder."""
    yield path, t
    match t:
        case Pair(first, second):
            yield from iter_subterms(first, path + (0,))
            yield from iter_subterms(second, path + (1,))
        case Compose(factors):
            for i, f in enumerate(factors):
                yield from iter_subterms(f, path + (i,))


def subterm_at(t: ArrowTerm, path: Path) -> ArrowTerm:
    node = t
    for i in path:
        match node:
            case Pair(first, second):
                node = (first, second)[i]
            case Compose(factors):
                node = factors[i]
            case _:
                raise IndexError(f"no subterm at {path}")
    return node


def replace_subterm(t: ArrowTerm, path: Path, new: ArrowTerm) -> ArrowTerm:
    """Rebuild a term with the subterm at `path` replaced.

    If the replacement lands in a factor position the surrounding
    composition is re-flattened.
    """
    if not path:
        return new
    i, rest = path[0], path[1:]
    match t:
        case Pair(first, second):
            if i == 0:
                return Pair(replace_subterm(first, rest, new), second)
            return Pair(first, replace_subterm(second, rest, new))
        case Compose(factors):
            updated = list(factors)
            updated[i] = replace_subterm(factors[i], rest, new)
            return compose(*updated)
    raise IndexError(f"no subterm at {path}")


# ---------------------------------------------------------------------------
# Substitution and derived arrows

def _substitute_object(a: ObjectExpr, p: Letter) -> ObjectExpr:
    match a:
        case LetterObj(_):
            return LetterObj(p)
        case Terminal():
            return a
        case Product(left, right):
            return Product(_substitute_object(left, p), _substitute_object(right, p))
    raise TypeError(f"not an object: {a!r}")


def substitute_all_letters(t: ArrowTerm, p: Letter) -> ArrowTerm:
    """Replace every letter occurring in the term's objects by `p`."""
    match t:
        case Identity(obj):
            return Identity(_substitute_object(obj, p))
        case Proj1(left, right):
            return Proj1(_substitute_object(left, p), _substitute_object(right, p))
        case Proj2(left, right):
            return Proj2(_substitute_object(left, p), _substitute_object(right, p))
        case Bang(obj):
            return Bang(_substitute_object(obj, p))
        case Pair(first, second):
            return Pair(
                substitute_all_letters(first, p), substitute_all_letters(second, p)
            )
        case Compose(factors):
            return Compose(tuple(substitute_all_letters(f, p) for f in factors))
    raise TypeError(f"not an arrow term: {t!r}")


def assoc_r(a: ObjectExpr, b: ObjectExpr, c: ObjectExpr) -> ArrowTerm:
    """Reassociate a product to the left: A x (B x C) -> (A x B) x C."""
    bc = Product(b, c)
    return Pair(
        Pair(Proj1(a, bc), compose(Proj2(a, bc), Proj1(b, c))),
        compose(Proj2(a, bc), Proj2(b, c)),
    )


def assoc_l(a: ObjectExpr, b: ObjectExpr, c: ObjectExpr) -> ArrowTerm:
    """Reassociate a product to the right: (A x B) x C -> A x (B x C)."""
    ab = Product(a, b)
    return Pair(
        compose(Proj1(ab, c), Proj1(a, b)),
        Pair(compose(Proj1(ab, c), Proj2(a, b)), Proj2(ab, c)),
    )


def swap(a: ObjectExpr, b: ObjectExpr) -> ArrowTerm:
    """Exchange the two components of a product: A x B -> B x A."""
    return Pair(Proj2(a, b), Proj1(a, b))


def dup(a: ObjectExpr) -> ArrowTerm:
    """Diagonal arrow A -> A x A."""
    return Pair(Identity(a), Identity(a))


def sigma(a: ObjectExpr, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    """Pad with the terminal object on the left: A -> T x A."""
    if mode is Mode.BINARY_PRODUCTS:
        raise ModeViolation("sigma needs the terminal object")
    return Pair(Bang(a), Identity(a))


def delta(a: ObjectExpr, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    """Pad with the terminal object on the right: A -> A x T."""
    if mode is Mode.BINARY_PRODUCTS:
        raise ModeViolation("delta needs the terminal object")
    return Pair(Identity(a), Bang(a))


# The derived arrows by name: the function that builds each and how many objects it takes.
DERIVED = {
    "assoc_r": (assoc_r, 3),
    "assoc_l": (assoc_l, 3),
    "swap": (swap, 2),
    "dup": (dup, 1),
    "sigma": (sigma, 1),
    "delta": (delta, 1),
}


def derived_arrow(kind: str, *objects: ObjectExpr, mode: Mode = Mode.CARTESIAN) -> ArrowTerm:
    """Build one of the structural arrows by name."""
    if kind not in DERIVED:
        raise ValueError(f"unknown derived arrow: {kind!r}")
    builder, arity = DERIVED[kind]
    if len(objects) != arity:
        raise ValueError(f"{kind} takes {arity} object(s), got {len(objects)}")
    if kind in ("sigma", "delta"):
        return builder(*objects, mode=mode)
    arrow = builder(*objects)
    if mode is Mode.BINARY_PRODUCTS:
        for obj in objects:
            _check_object(obj, mode, ())
    return arrow


def product_of_arrows(
    f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN
) -> ArrowTerm:
    """Product of arrows: for f: A -> B and g: C -> D, A x C -> B x D."""
    ft = typecheck(f, mode)
    gt = typecheck(g, mode)
    return Pair(
        compose(Proj1(ft.domain, gt.domain), f),
        compose(Proj2(ft.domain, gt.domain), g),
    )
