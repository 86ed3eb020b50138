"""Seeded generation of the benchmark corpora, as term text.

Independent of `freecart` and the tests: terms are built in the
representation of `oracle`, and every answer the benchmark expects is
known by construction (an equational rewrite keeps an arrow, a different
graph changes it) and is confirmed by the Set model.
"""

from __future__ import annotations

from oracle import (
    BINARY,
    CARTESIAN,
    MACROS,
    TERMINAL,
    arrow_type,
    comp,
    evaluate,
    generic,
    letters,
    pair,
    print_arrow,
    print_object,
    prod,
    sugar,
)

LETTERS = ("p", "q", "r")
MODES = (CARTESIAN, BINARY)


# ---------------------------------------------------------------------------
# Random objects and arrows, by the rules of the acceptance suite's
# criterion-2 generator


def random_object(rng, depth: int, allow_terminal: bool):
    if depth > 0 and rng.random() < 0.6:
        return (
            random_object(rng, depth - 1, allow_terminal),
            random_object(rng, depth - 1, allow_terminal),
        )
    if allow_terminal and rng.random() < 0.15:
        return TERMINAL
    return rng.choice(LETTERS)


def _arrow_and_cod(rng, dom, depth: int, mode: str):
    choices = ["identity"]
    if isinstance(dom, tuple):
        choices += ["proj", "proj"]
    if mode == CARTESIAN:
        choices.append("bang")
    if depth > 0:
        choices += ["pair", "pair", "compose", "compose"]
    pick = rng.choice(choices)
    if pick == "identity":
        return ("id", dom), dom
    if pick == "proj":
        tag = rng.choice(("p1", "p2"))
        return (tag, dom[0], dom[1]), dom[0] if tag == "p1" else dom[1]
    if pick == "bang":
        return ("bang", dom), TERMINAL
    if pick == "pair":
        f, a = _arrow_and_cod(rng, dom, depth - 1, mode)
        g, b = _arrow_and_cod(rng, dom, depth - 1, mode)
        return pair(f, g), (a, b)
    first, mid = _arrow_and_cod(rng, dom, depth - 1, mode)
    rest, cod = _arrow_and_cod(rng, mid, depth - 1, mode)
    return comp(first, rest), cod


def random_arrow_from(rng, dom, depth: int, mode: str):
    return _arrow_and_cod(rng, dom, depth, mode)[0]


def random_arrow(rng, mode: str, depth: int, obj_depth: int = 2):
    dom = random_object(rng, obj_depth, mode == CARTESIAN)
    return random_arrow_from(rng, dom, depth, mode)


# ---------------------------------------------------------------------------
# Graphs and the normal form with a given graph


def _leaves(value, out: list) -> list:
    if isinstance(value, tuple):
        for v in value:
            _leaves(v, out)
    else:
        out.append(value)
    return out


def graph(t, mode: str) -> tuple[int, ...]:
    """Target position -> source position, read off the Set model."""
    dom, _ = arrow_type(t, mode)
    return tuple(_leaves(evaluate(t, generic(dom)[0]), []))


def _chain(dom, position: int):
    factors = []
    while isinstance(dom, tuple):
        n_left = len(letters(dom[0]))
        if position <= n_left:
            factors.append(("p1", dom[0], dom[1]))
            dom = dom[0]
        else:
            factors.append(("p2", dom[0], dom[1]))
            position -= n_left
            dom = dom[1]
    return comp(*factors)


def synth(dom, cod, mapping: tuple[int, ...], mode: str):
    """The normal form dom -> cod with the given graph."""
    if isinstance(cod, tuple):
        n_left = len(letters(cod[0]))
        return pair(
            synth(dom, cod[0], mapping[:n_left], mode),
            synth(dom, cod[1], mapping[n_left:], mode),
        )
    if cod == TERMINAL:
        return ("bang", dom)
    return ("id", dom) if not isinstance(dom, tuple) else _chain(dom, mapping[0])


def other_graph(rng, dom, cod, mapping):
    """A different letter-compatible graph, or None if cod admits one only."""
    dom_letters = letters(dom)
    cod_letters = letters(cod)
    movable = [
        i
        for i, name in enumerate(cod_letters)
        if dom_letters.count(name) > 1
    ]
    if not movable:
        return None
    i = rng.choice(movable)
    choices = [
        k + 1
        for k, name in enumerate(dom_letters)
        if name == cod_letters[i] and k + 1 != mapping[i]
    ]
    return mapping[:i] + (rng.choice(choices),) + mapping[i + 1 :]


# ---------------------------------------------------------------------------
# Equational rewrites: each keeps the arrow, so it keeps type and graph


def _subterms(t, path=()):
    yield path, t
    if t[0] == "pair":
        yield from _subterms(t[1], path + (0,))
        yield from _subterms(t[2], path + (1,))
    elif t[0] == "comp":
        for i, f in enumerate(t[1]):
            yield from _subterms(f, path + (i,))


def _replace(t, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if t[0] == "pair":
        return pair(_replace(t[1], rest, new), t[2]) if i == 0 else pair(
            t[1], _replace(t[2], rest, new)
        )
    factors = list(t[1])
    factors[i] = _replace(factors[i], rest, new)
    return comp(*factors)


def _macro(name, *objs):
    written = f"{name}{{{','.join(print_object(a) for a in objs)}}}"
    return sugar(written, MACROS[name][0](*objs))


def _rewrite(rng, sub, mode: str):
    """An arrow equal to `sub` by one defining equation or macro identity."""
    dom, cod = arrow_type(sub, mode)
    moves = ["id_before", "id_after", "beta"]
    if sub[0] == "id" and isinstance(sub[1], tuple):
        moves += ["eta", "swap"]
        if isinstance(sub[1][1], tuple):
            moves.append("assoc")
    if sub[0] == "comp" and any(f[0] == "pair" for f in sub[1][1:]):
        moves += ["distr", "distr"]
    if isinstance(dom, tuple):
        moves.append("prod")
    moves.append("dup")
    if mode == CARTESIAN:
        moves += ["bang"] if cod == TERMINAL else ["pad"]
    move = rng.choice(moves)
    if move == "id_before":
        return comp(("id", dom), sub)
    if move == "id_after":
        return comp(sub, ("id", cod))
    if move == "beta":
        other, ocod = _arrow_and_cod(rng, dom, 1, mode)
        if rng.random() < 0.5:
            return comp(pair(sub, other), ("p1", cod, ocod))
        return comp(pair(other, sub), ("p2", ocod, cod))
    if move == "eta":
        a, b = sub[1]
        return pair(("p1", a, b), ("p2", a, b))
    if move == "swap":
        a, b = sub[1]
        return comp(_macro("swap", a, b), _macro("swap", b, a))
    if move == "assoc":
        a, (b, c) = sub[1]
        return comp(_macro("assoc_r", a, b, c), _macro("assoc_l", a, b, c))
    if move == "distr":
        factors = sub[1]
        i = rng.choice([k for k in range(1, len(factors)) if factors[k][0] == "pair"])
        h, p = factors[i - 1], factors[i]
        pushed = pair(comp(h, p[1]), comp(h, p[2]))
        return comp(*factors[: i - 1], pushed, *factors[i + 1 :])
    if move == "prod":
        a, c = dom
        written = f"prod(id{{{print_object(a)}}}, id{{{print_object(c)}}})"
        return comp(sugar(written, prod(("id", a), ("id", c))), sub)
    if move == "dup":
        tag = rng.choice(("p1", "p2"))
        if rng.random() < 0.5:
            return comp(_macro("dup", dom), (tag, dom, dom), sub)
        return comp(sub, _macro("dup", cod), (tag, cod, cod))
    if move == "bang":
        return comp(("bang", dom), ("bang", TERMINAL)) if sub[0] == "bang" else ("bang", dom)
    # "pad": through T * cod or cod * T and back.
    if rng.random() < 0.5:
        return comp(sub, _macro("sigma", cod), ("p2", TERMINAL, cod))
    return comp(sub, _macro("delta", cod), ("p1", cod, TERMINAL))


def mutate(rng, t, mode: str, rounds: int):
    """Apply `rounds` equational rewrites at random positions."""
    for _ in range(rounds):
        spots = [(p, s) for p, s in _subterms(t) if s[0] != "sugar"]
        path, sub = rng.choice(spots)
        t = _replace(t, path, _rewrite(rng, sub, mode))
    return t


# ---------------------------------------------------------------------------
# Fixed series


def identity_chain(n: int, mode: str):
    """n identities on one object: normalization removes them one by one."""
    obj = ("p", ("q", TERMINAL)) if mode == CARTESIAN else ("p", ("q", "r"))
    return comp(*([("id", obj)] * n))


DEEP_NESTING = 2000


def deep_pair_text(depth: int, variant: int) -> str:
    """Left-nested pairings of identities on p, `depth` deep.

    Variant 1 writes the innermost identity as a projection out of a
    diagonal, so both variants are equal arrows.
    """
    inner = "id{p}" if variant == 0 else "p1{p,p} . dup{p}"
    return "<" * depth + inner + ", id{p}>" * depth


def distinct_pair(rng, mode: str, depth: int):
    """Two arrows of one type with different graphs, the first of `depth`."""
    while True:
        f = random_arrow(rng, mode, depth)
        dom, cod = arrow_type(f, mode)
        mapping = graph(f, mode)
        other = other_graph(rng, dom, cod, mapping)
        if other is not None:
            return f, synth(dom, cod, other, mode)


def text(t, mode: str) -> str:
    arrow_type(t, mode)  # raises on a generator bug
    return print_arrow(t)
