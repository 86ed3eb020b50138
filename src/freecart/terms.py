"""Syntactic core of the free cartesian category over a set of letters.

Objects are formulas built from letters, the terminal object and binary
products; a letter is its object, a LetterObj.  Arrows are typed terms:
identities, the two projections, the unique arrow into the terminal
object, pairing, and composition.  Composition is kept flat (a factor list in application order), so every
term is a canonical representative of its associativity class.

Types are intrinsic: every arrow node sets its `domain` and `codomain`
once, when it is built, and a Pair or Compose whose parts do not fit
raises TypeMismatch, so an ill-typed term cannot be built.  The typing
rules therefore live in the constructors; typecheck reads the type off
the term and adds only the check of the binary-products fragment.

Every node attribute follows one rule: the node's constructor sets it
from its children's attributes, when the node is built (Knuth,
"Semantics of context-free languages", 1968).  An object knows its
letter count `letters`, its symbol count `symbols` and whether it
contains the terminal object (`has_terminal`).  An arrow knows, beside
its type, whether it is `terminal_free` (no terminal arrow, and no
terminal object in the object of an identity or a projection), the
`map` of its graph (the letter counts are its type's) and
the termination `measure` that rewrite.degree reads.  They are plain
attributes, not dataclass fields, and nodes are immutable, so they
never go stale, and reading one never walks the term.

substitute_all_letters is the one place that copies attributes
instead: a renamed node is its original's instance dict with new
objects and parts.  Renaming every letter to one letter keeps each
letter's position, each object's symbol count and every T, so the
copied map, measure and terminal-freeness are what the constructor
would set, and a seam that met before renaming still meets.

Each node class is a frozen dataclass with a hand-written constructor,
which checks its arguments and writes the fields and the attributes
into the instance dict in one step; repr, match patterns, keyword
construction and dataclasses.replace are the dataclass's own.  Objects
are hash-consed (Filliatre-Conchon, 2006) through one weak-value table,
so they compare and hash by identity.  Arrows compare by their fields,
from an explicit stack, so `==` has no depth limit either.

The children of an arrow, in path order, are its `parts`, which every
walk reads: (first, second) for a pairing, the factors for a composition
and none for a leaf.  A subterm is addressed by its path of indices into
them from the root; spine states that rule, once, and subterm_at and
replace_subterm are built on it.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import ModeViolation, TypeMismatch

# Address of a subterm: child indices from the root, as spine reads them.
Path = tuple[int, ...]

# A graph's map: entry i - 1 is the domain position of codomain letter i.
Map = tuple[int, ...]

_LETTER_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")
# The object of each formula alive, keyed by its letter's name or its two parts.
_OBJECTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Mode(Enum):
    """Ambient theory: with a terminal object, or binary products only."""

    CARTESIAN = "cartesian"
    BINARY_PRODUCTS = "binary-products"


def _binary_products(mode: Mode) -> bool:
    """Whether mode is binary-products: the one reading of a mode argument."""
    if not isinstance(mode, Mode):
        raise TypeError(f"not a mode: {mode!r}")
    return mode is Mode.BINARY_PRODUCTS


class ObjectExpr:
    """Base class of object formulas.

    `letters`, `symbols` and `has_terminal` are synthesized attributes:
    constants on the leaf classes, set once by the Product constructor.
    Copies and unpickled objects are parsed back from their text, by the
    iterative printer and parser, so any depth gives back the same object.
    """

    letters: int
    symbols: int
    has_terminal: bool

    def __reduce__(self):
        from .syntax import parse_object

        return parse_object, (str(self),)

    def __str__(self):
        from .syntax import print_object

        return print_object(self)


@dataclass(frozen=True, eq=False, init=False)
class LetterObj(ObjectExpr):
    """A generating object, one per name, which is checked when it is first seen."""

    name: str

    letters, symbols, has_terminal = 1, 1, False

    def __new__(cls, name: str):
        obj = _OBJECTS.get(name)
        # Only a name that is not a str can find a Product's key.
        if type(obj) is not cls:
            if not isinstance(name, str):
                raise TypeError(f"not a letter name: {name!r}")
            if not _LETTER_NAME.match(name):
                raise ValueError(f"invalid letter name: {name!r}")
            obj = _OBJECTS[name] = object.__new__(cls)
            obj.__dict__["name"] = name
        return obj


@dataclass(frozen=True, eq=False, init=False)
class Terminal(ObjectExpr):
    letters, symbols, has_terminal = 0, 1, True

    def __new__(cls):
        return _TERMINAL


_TERMINAL = object.__new__(Terminal)


def _objects(*objs: ObjectExpr) -> None:
    for a in objs:
        if not isinstance(a, ObjectExpr):
            raise TypeError(f"not an object: {a!r}")


@dataclass(frozen=True, eq=False, init=False)
class Product(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr

    def __new__(cls, left: ObjectExpr, right: ObjectExpr):
        if not (isinstance(left, ObjectExpr) and isinstance(right, ObjectExpr)):
            _objects(left, right)
        obj = _OBJECTS.get((left, right))
        if obj is None:
            obj = _OBJECTS[left, right] = object.__new__(cls)
            d = obj.__dict__
            d["left"] = left
            d["right"] = right
            d["letters"] = left.letters + right.letters
            d["symbols"] = 1 + left.symbols + right.symbols
            d["has_terminal"] = left.has_terminal or right.has_terminal
        return obj


class ArrowTerm:
    """Base class of arrow terms.

    Every node carries `domain`, `codomain`, `terminal_free`, `map` and
    `measure`, which its constructor writes into the instance dict
    together with the fields.  Only substitute_all_letters copies the
    last three from another node, the one whose letters it renames,
    since renaming every letter to one letter changes none of them.
    They are plain attributes, not dataclass fields, so repr and match
    patterns see only the fields.  So are the
    `parts`, which a leaf reads from this class: it has none.

    Two arrows are equal when they have the same class and equal fields,
    as the dataclass `==` would find, but __eq__ walks parts from a stack.
    Their hash reads only the root's class, type and map, which equal
    arrows share.

    An identity, a projection or a terminal arrow maps its codomain's
    letters, in order, from its domain's letters at some position on; it
    is terminal-free when neither object holds T, and being pairing-free
    it counts its target length.

    `measure` is (gamma, whether a pairing occurs, whether one occurs
    under a composition, beta), from which rewrite.degree builds the
    termination degree.  beta is that of the node standing alone: a
    pairing-free node counts its target length, and nothing inside it
    counts again.
    """

    domain: ObjectExpr
    codomain: ObjectExpr
    terminal_free: bool
    map: Map
    measure: tuple[int, bool, bool, int]
    parts: tuple[ArrowTerm, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, ArrowTerm):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            # Objects are interned, and the domain of a leaf determines its
            # fields: it is the object of an identity or a terminal arrow,
            # and the product of a projection's two objects.
            if type(a) is not type(b) or a.domain is not b.domain or a.codomain is not b.codomain:
                return False
            if a.parts:
                if len(a.parts) != len(b.parts):
                    return False
                todo += zip(a.parts, b.parts)
        return True

    def __hash__(self):
        return hash((type(self), self.domain, self.codomain, self.map))

    def __str__(self):
        from .syntax import print_arrow

        return print_arrow(self)


def _chase(first: Map, second: Map) -> Map:
    """The map of a composite, `first` being the first-applied factor's.

    Positions chase through the later factor first: i goes to
    first[second[i]].
    """
    return tuple([first[j - 1] for j in second])


def _arrows(*ts: ArrowTerm) -> None:
    for t in ts:
        if not isinstance(t, ArrowTerm):
            raise TypeError(f"not an arrow term: {t!r}")


# The rules by which a pairing's or a composition's constructor sets its
# `measure` from its parts': rewrite.normalize applies them too, to the
# composition it contracts in place and to that one's ancestors.

def _pair_measure(first: tuple, second: tuple) -> tuple:
    """A pairing's measure from its components' (the rule is symmetric)."""
    g1, _, u1, b1 = first
    g2, _, u2, b2 = second
    return (g1 + g2 + 1, True, u1 or u2, b1 + b2)


def _as_factor(measure: tuple) -> tuple[int, bool, int]:
    """A factor's share in its composition's measure: gamma, pairing, beta.

    A pairing in a factor is a pairing under the composition, and as a
    factor a pairing-free node counts nothing toward beta.
    """
    g, p, _, b = measure
    return g, p, b if p else 0


def _composite_measure(gamma: int, pairing: bool, beta: int, codomain: ObjectExpr) -> tuple:
    """A composition's measure from its factors' shares, multiplied, or-ed and summed.

    A pairing-free composition counts its own target length toward beta.
    """
    return (gamma, pairing, pairing, beta if pairing else codomain.symbols)


@dataclass(frozen=True, eq=False, init=False)
class Identity(ArrowTerm):
    obj: ObjectExpr

    def __init__(self, obj: ObjectExpr):
        if not isinstance(obj, ObjectExpr):
            _objects(obj)
        d = self.__dict__
        d["obj"] = d["domain"] = d["codomain"] = obj
        d["terminal_free"] = not obj.has_terminal
        d["map"] = tuple(range(1, obj.letters + 1))
        d["measure"] = (3, False, False, obj.symbols)


@dataclass(frozen=True, eq=False, init=False)
class Proj1(ArrowTerm):
    left: ObjectExpr
    right: ObjectExpr

    def __init__(self, left: ObjectExpr, right: ObjectExpr):
        domain = Product(left, right)
        d = self.__dict__
        d["left"] = d["codomain"] = left
        d["right"] = right
        d["domain"] = domain
        d["terminal_free"] = not domain.has_terminal
        d["map"] = tuple(range(1, left.letters + 1))
        d["measure"] = (3, False, False, left.symbols)


@dataclass(frozen=True, eq=False, init=False)
class Proj2(ArrowTerm):
    left: ObjectExpr
    right: ObjectExpr

    def __init__(self, left: ObjectExpr, right: ObjectExpr):
        domain = Product(left, right)
        d = self.__dict__
        d["left"] = left
        d["right"] = d["codomain"] = right
        d["domain"] = domain
        d["terminal_free"] = not domain.has_terminal
        d["map"] = tuple(range(left.letters + 1, domain.letters + 1))
        d["measure"] = (3, False, False, right.symbols)


@dataclass(frozen=True, eq=False, init=False)
class Bang(ArrowTerm):
    """The unique arrow into the terminal object (cartesian mode only)."""

    obj: ObjectExpr

    def __init__(self, obj: ObjectExpr):
        if not isinstance(obj, ObjectExpr):
            _objects(obj)
        d = self.__dict__
        d["obj"] = d["domain"] = obj
        d["codomain"] = _TERMINAL
        d["terminal_free"] = False
        d["map"] = ()
        d["measure"] = (2, False, False, 1)


@dataclass(frozen=True, eq=False, init=False)
class Pair(ArrowTerm):
    first: ArrowTerm
    second: ArrowTerm

    def __init__(self, first: ArrowTerm, second: ArrowTerm):
        if not (isinstance(first, ArrowTerm) and isinstance(second, ArrowTerm)):
            _arrows(first, second)
        dom = first.domain
        if dom is not second.domain:
            raise TypeMismatch(
                f"pair components must share a domain: {dom} vs {second.domain}"
            )
        d = self.__dict__
        d["first"] = first
        d["second"] = second
        d["parts"] = (first, second)
        d["domain"] = dom
        d["codomain"] = Product(first.codomain, second.codomain)
        d["terminal_free"] = first.terminal_free and second.terminal_free
        d["map"] = first.map + second.map
        d["measure"] = _pair_measure(first.measure, second.measure)


@dataclass(frozen=True, eq=False, init=False)
class Compose(ArrowTerm):
    """Flattened composition; factors[0] is applied first.

    Nested factors are spliced in at construction and a factor list of
    fewer than two entries is rejected, so a Compose node never contains
    another Compose and never degenerates to a single arrow.  Each
    factor's domain must be its predecessor's codomain; the path of the
    TypeMismatch raised otherwise is the index of the factor.  A nested
    composition was checked when it was built, so only the seams between
    the given factors are checked, and its map and measure stand for its
    factors'.
    """

    factors: tuple[ArrowTerm, ...]

    def __init__(self, factors: tuple[ArrowTerm, ...]):
        _arrows(*factors)
        flat: list[ArrowTerm] = []
        terminal_free, gamma, pairing, beta = True, 1, False, 0
        # Chase from the first factor (each step as long as the next map) or from
        # the last (each as long as the result, less where codomains shrink).
        k = len(factors)
        backward = k > 2 and (k - 2) * len(factors[-1].map) < sum([len(f.map) for f in factors[1:-1]])
        codomain = None
        for f in factors:
            if codomain is None:
                chased = f.map
            elif codomain is not f.domain:
                i = len(flat)
                raise TypeMismatch(
                    f"composition factor {i} expects domain {codomain} but has {f.domain}", (i,)
                )
            elif not backward:
                chased = _chase(chased, f.map)
            codomain = f.codomain
            if isinstance(f, Compose):
                flat.extend(f.factors)
            else:
                flat.append(f)
            terminal_free = terminal_free and f.terminal_free
            # _as_factor's rule, inline, so that building a composition (as
            # parsing and read-back do) makes no call per factor.
            g, p, _, b = f.measure
            gamma *= g
            if p:
                pairing, beta = True, beta + b
        if len(flat) < 2:
            raise ValueError("composition needs at least two factors")
        if backward:
            chased = factors[-1].map
            for f in factors[-2::-1]:
                chased = _chase(f.map, chased)
        d = self.__dict__
        d["factors"] = d["parts"] = tuple(flat)
        d["domain"] = flat[0].domain
        d["codomain"] = codomain
        d["terminal_free"] = terminal_free
        d["map"] = chased
        d["measure"] = _composite_measure(gamma, pairing, beta, codomain)


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


def letters_of(a: ObjectExpr) -> tuple[LetterObj, ...]:
    """All letters of an object in left-to-right leaf order."""
    letters = []
    todo = [a]
    while todo:
        node = todo.pop()
        if isinstance(node, Product):
            todo += (node.right, node.left)
        elif isinstance(node, LetterObj):
            letters.append(node)
        elif not isinstance(node, Terminal):
            raise TypeError(f"not an object: {node!r}")
    return tuple(letters)


# ---------------------------------------------------------------------------
# Typing

def typecheck(t: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ArrowType:
    """The type that a term carries, checked against the mode.

    Terms are typed when they are built, so only the mode is left to
    check: in binary-products mode the first terminal arrow or terminal
    object in preorder raises ModeViolation, with the path of its subterm
    from the root.  A subterm holds one exactly when it is not
    terminal-free, so a terminal-free term passes at once, and the first
    one is reached by stepping into the first part that is not.
    """
    _arrows(t)
    if _binary_products(mode) and not t.terminal_free:
        path = []
        while t.parts:
            i = next(i for i, part in enumerate(t.parts) if not part.terminal_free)
            path.append(i)
            t = t.parts[i]
        # t is a terminal arrow, or an identity or a projection whose
        # objects, which make up its domain, hold T.
        what = "terminal arrow" if isinstance(t, Bang) else "terminal object"
        raise ModeViolation(f"{what} not available in binary-products mode", tuple(path))
    return ArrowType(t.domain, t.codomain)


def common_type(f: ArrowTerm, g: ArrowTerm, mode: Mode = Mode.CARTESIAN) -> ArrowType:
    """The type shared by f and g, checked against the mode."""
    typecheck(f, mode)
    typecheck(g, mode)
    return same_type(f, g)


def same_type(f, g) -> ArrowType:
    """The type of f and g, rejecting arrows of different types.

    f and g are arrow terms or anything else that carries `domain` and
    `codomain`, such as the TypedGraphs that syntax.parse_graph reads.
    """
    ft = ArrowType(f.domain, f.codomain)
    gt = ArrowType(g.domain, g.codomain)
    if ft != gt:
        raise TypeMismatch(f"arrows have different types: {ft} vs {gt}")
    return ft


# ---------------------------------------------------------------------------
# Subterm addressing

# A linked path: () at the root, else (the parent's linked path, the
# child's index).  A walk extends one in constant time, and _unlink
# turns one into a Path only where a path is handed out.
_Link = tuple


def _unlink(link: _Link) -> Path:
    indices: list[int] = []
    while link:
        link, i = link
        indices.append(i)
    indices.reverse()
    return tuple(indices)


def iter_subterms(t: ArrowTerm) -> Iterator[tuple[Path, ArrowTerm]]:
    """Yield (path, subterm) pairs in preorder, from an explicit stack."""
    stack: list[tuple[_Link, ArrowTerm]] = [((), t)]
    while stack:
        link, t = stack.pop()
        yield _unlink(link), t
        i = len(t.parts)
        while i:
            i -= 1
            stack.append(((link, i), t.parts[i]))


def spine(t: ArrowTerm, path: Path) -> list[ArrowTerm]:
    """The nodes from t down to the subterm at `path`, t first.

    This is the addressing rule, stated once: index i is `parts[i]`, for
    0 <= i < len(parts) (a negative index would count from the end, so it
    is no address), and any other index, or any index under a leaf, which
    has no parts, raises IndexError.
    """
    nodes = [t]
    for i in path:
        if not 0 <= i < len(t.parts):
            raise IndexError(f"no subterm at {path}")
        t = t.parts[i]
        nodes.append(t)
    return nodes


def rebuild(nodes: list[ArrowTerm], path: Path, new: ArrowTerm) -> ArrowTerm:
    """The root of `nodes = spine(t, path)`, its last node replaced by `new`.

    Only the spine is rebuilt, bottom-up.  A replacement in a factor
    position is re-flattened into its composition; one of another type
    raises TypeMismatch when its parent is rebuilt.
    """
    for parent, i in zip(reversed(nodes[:-1]), reversed(path)):
        parts = (*parent.parts[:i], new, *parent.parts[i + 1 :])
        new = Pair(*parts) if isinstance(parent, Pair) else Compose(parts)
    return new


def subterm_at(t: ArrowTerm, path: Path) -> ArrowTerm:
    return spine(t, path)[-1]


def replace_subterm(t: ArrowTerm, path: Path, new: ArrowTerm) -> ArrowTerm:
    """Rebuild a term with the subterm at `path` replaced (see rebuild)."""
    return rebuild(spine(t, path), path, new)


# ---------------------------------------------------------------------------
# Substitution and derived arrows

def substitute_all_letters(t: ArrowTerm, letter: LetterObj) -> ArrowTerm:
    """Replace every letter occurring in the term's objects by `letter`.

    This is the one place where a node is made without its constructor:
    each new node is a copy of its original's instance dict with its
    objects and its parts replaced.  That is sound because renaming
    every letter to one letter keeps each letter's position, each
    object's symbol count and every T.  So every `map`, `measure` and
    `terminal_free` stays what the constructor would compute, and every
    seam that met before still meets, so no type check could fail.

    Both walks keep their own stacks, as read-back does, so no depth
    reaches the recursion limit.  Each distinct object is rebuilt once
    per call, and each distinct leaf copied once.
    """
    _arrows(t)
    if not isinstance(letter, LetterObj):
        raise TypeError(f"not a letter: {letter!r}")
    done: dict[ObjectExpr, ObjectExpr] = {_TERMINAL: _TERMINAL}

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

    new = object.__new__
    # The leaves copied so far, by id: t keeps each original alive, so no
    # id is reused during the call.
    leaves: dict[int, ArrowTerm] = {}
    # The stack holds terms to copy and, wrapped in a 1-tuple, a pairing
    # or composition whose parts are the last ones copied.
    built: list[ArrowTerm] = []
    todo: list[ArrowTerm | tuple[ArrowTerm]] = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is tuple:
            (node,) = node
            cls = type(node)
            copy = new(cls)
            d = copy.__dict__
            d.update(node.__dict__)
            if cls is Pair:
                d["first"], d["second"] = d["parts"] = parts = (built[-2], built[-1])
                del built[-2:]
                d["codomain"] = done.get(node.codomain) or obj(node.codomain)
            else:
                k = len(node.parts)
                d["factors"] = d["parts"] = parts = tuple(built[-k:])
                del built[-k:]
                d["codomain"] = parts[-1].codomain
            d["domain"] = parts[0].domain
            built.append(copy)
        elif cls is Pair or cls is Compose:
            todo.append((node,))
            todo += reversed(node.parts)
        elif (copy := leaves.get(id(node))) is not None:
            built.append(copy)
        else:
            copy = leaves[id(node)] = new(cls)
            d = copy.__dict__
            d.update(node.__dict__)
            d["domain"] = domain = done.get(node.domain) or obj(node.domain)
            if cls is Identity:
                d["obj"] = d["codomain"] = domain
            elif cls is Bang:
                d["obj"] = domain
            else:
                d["left"], d["right"] = domain.left, domain.right
                d["codomain"] = domain.left if cls is Proj1 else domain.right
            built.append(copy)
    return built[0]


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


def sigma(a: ObjectExpr) -> ArrowTerm:
    """Pad with the terminal object on the left: A -> T x A."""
    return Pair(Bang(a), Identity(a))


def delta(a: ObjectExpr) -> ArrowTerm:
    """Pad with the terminal object on the right: A -> A x T."""
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


def product_of_arrows(f: ArrowTerm, g: ArrowTerm) -> ArrowTerm:
    """Product of arrows: for f: A -> B and g: C -> D, A x C -> B x D."""
    _arrows(f, g)
    return Pair(
        compose(Proj1(f.domain, g.domain), f),
        compose(Proj2(f.domain, g.domain), g),
    )
