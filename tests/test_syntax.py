import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    Bang,
    Compose,
    Diagnostic,
    Identity,
    LetterObj,
    Mode,
    ModeViolation,
    Pair,
    ParseError,
    Product,
    Proj1,
    Proj2,
    Terminal,
    TypeMismatch,
    assoc_l,
    assoc_r,
    compose,
    delta,
    dup,
    normal_form,
    normalize,
    parse_arrow,
    parse_object,
    print_arrow,
    print_object,
    sigma,
    swap,
    typecheck,
)
from freecart import syntax
from termgen import random_arrow

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from cli_transcript import malformed_texts  # noqa: E402  (it puts bench/ on the path)
from workloads import WORKLOADS, build  # noqa: E402

p = LetterObj("p")
q = LetterObj("q")
T = Terminal()


def test_parse_object_running_example():
    obj = parse_object("((p*q)*p)*(T*p)")
    assert obj == Product(Product(Product(p, q), p), Product(T, p))
    assert obj.letters == 4


def test_parse_object_letter_and_unicode_star():
    assert parse_object("p") == p
    assert parse_object("p × q") == Product(p, q)


def test_parse_object_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_object("(p*")
    lo, hi = exc.value.diagnostic.span
    assert 0 <= lo <= hi <= len("(p*")
    with pytest.raises(ParseError):
        parse_object("p*q*r")
    with pytest.raises(ParseError):
        parse_object("(p)")


def test_parse_arrow_composition_order():
    t = parse_arrow("p1{p,T} . <id{p}, bang{p}>")
    assert t == Compose((Pair(Identity(p), Bang(p)), Proj1(p, T)))
    ty = typecheck(t)
    assert ty.domain == p and ty.codomain == p


def test_parse_arrow_macros():
    assert parse_arrow("swap{p,q}") == Pair(Proj2(p, q), Proj1(p, q))
    assert parse_arrow("dup{p}") == dup(p)
    assert parse_arrow("prod(id{p}, id{q})") == Pair(
        compose(Proj1(p, q), Identity(p)), compose(Proj2(p, q), Identity(q))
    )


# Every derived arrow: the function that builds it, and objects of its
# arity written out.
MACROS = {
    "assoc_r": (assoc_r, ("p", "q*r", "T")),
    "assoc_l": (assoc_l, ("p*q", "T", "r")),
    "swap": (swap, ("p", "q*T")),
    "dup": (dup, ("p*q",)),
    "sigma": (sigma, ("q",)),
    "delta": (delta, ("p*T",)),
}


@pytest.mark.parametrize("name", sorted(MACROS))
def test_parse_every_macro_at_its_arity(name):
    build, objects = MACROS[name]
    expected = build(*(parse_object(o) for o in objects))
    assert parse_arrow(f"{name}{{{','.join(objects)}}}") == expected
    for wrong in (objects + ("p",), objects[:-1]):
        with pytest.raises(ParseError):
            parse_arrow(f"{name}{{{','.join(wrong)}}}")


def test_parse_arrow_type_diagnostic():
    with pytest.raises(ParseError):
        parse_arrow("<id{p}, id{q}>")


def test_parse_arrow_mode_violations():
    with pytest.raises(ParseError):
        parse_arrow("bang{p}", Mode.BINARY_PRODUCTS)
    with pytest.raises(ParseError):
        parse_arrow("sigma{p}", Mode.BINARY_PRODUCTS)
    with pytest.raises(ParseError):
        parse_arrow("id{p*T}", Mode.BINARY_PRODUCTS)


def test_parse_arrow_comments_and_whitespace():
    text = "# the diagonal\n  <id{p},\n   id{p}>  # trailing\n"
    assert parse_arrow(text) == dup(p)


def test_parse_dot_is_flattening():
    a = parse_arrow("p1{p,q} . (p1{(p*q),p} . id{(p*q)*p})")
    b = parse_arrow("(p1{p,q} . p1{(p*q),p}) . id{(p*q)*p}")
    assert a == b
    assert isinstance(a, Compose) and len(a.factors) == 3


def test_print_examples():
    assert print_arrow(Proj1(p, q)) == "p1{p,q}"
    assert print_arrow(dup(p)) == "<id{p}, id{p}>"
    chain = Compose((Proj2(p, Product(q, p)), Proj2(q, p), Identity(p)))
    assert print_arrow(chain) == "id{p} . p2{q,p} . p2{p,q*p}"


def test_print_object_spacing():
    obj = Product(Product(p, q), p)
    assert print_object(obj) == "(p*q)*p"
    assert print_object(obj, spaced=True) == "(p * q) * p"
    assert print_object(T) == "T"


def test_unknown_arrow_form():
    with pytest.raises(ParseError) as exc:
        parse_arrow("frob{p}")
    assert "frob" in exc.value.diagnostic.message


@given(st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_parse_print_round_trip(rng):
    t = random_arrow(rng, depth=4)
    assert parse_arrow(print_arrow(t)) == t


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_object_round_trip(rng):
    from termgen import random_object

    obj = random_object(rng, max_depth=3)
    assert parse_object(print_object(obj)) == obj
    assert parse_object(print_object(obj, spaced=True)) == obj


# ---------------------------------------------------------------------------
# The scanner against a character-by-character reference


def _reference_tokens(text):
    """Tokens as (text, start, end), read one character at a time."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c.isspace():
            i += 1
        elif c == "×":
            tokens.append(("*", i, i + 1))
            i += 1
        elif c in "{}()<>,.*T":
            tokens.append((c, i, i + 1))
            i += 1
        elif "a" <= c <= "z":
            j = i + 1
            while j < n and ("a" <= text[j] <= "z" or "0" <= text[j] <= "9" or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i, j))
            i = j
        else:
            return Diagnostic((i, i + 1), f"unexpected character {c!r}")
    tokens.append(("", n, n))
    return tokens


def _scanned(text):
    """The parser's token texts with the spans a diagnostic finds for them."""
    try:
        tokens = syntax._tokens(text)
    except ParseError as exc:
        return exc.diagnostic
    return [(tok, lo, hi) for tok, (lo, hi) in zip(tokens, syntax._spans(text), strict=True)]


# Unicode spaces (vertical tab, file separator, ideographic space and
# no-break space), the product sign, comments and newlines, the
# terminal, and characters that may not start or cannot occur in a name.
SCAN_ALPHABET = "\x0b\x1c\u3000\xa0 ×#\nT0123456789_ABXZ!abpqz{}()<>,.*"

# Over that alphabet most strings hit a bad character within a few
# tokens, so texts are also made of whole names and characters that are
# never bad, to reach long runs of tokens.
_NEVER_BAD = "\x0b\x1c\u3000\xa0 ×#\nTabpqz{}()<>,.*"
_scan_texts = st.one_of(
    st.text(alphabet=SCAN_ALPHABET, max_size=40),
    st.lists(
        st.one_of(
            st.sampled_from(_NEVER_BAD),
            st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
        ),
        max_size=30,
    ).map("".join),
)


@given(_scan_texts)
@settings(max_examples=400, deadline=None)
def test_scanner_matches_character_by_character_reference(text):
    assert _scanned(text) == _reference_tokens(text)


SCAN_EDGE_CASES = [
    "", "  # only a comment", "# x\nid{p}\u3000# y\n", "p × q\x1c", "abc_9 T!", "<A",
    "p#c\nq", "×T#×\n×", "a\u3000!b", "#!\n!",
    # Braced groups, and what may and may not stand in one.
    "{}", "{ }", "{p,}", "{p}}", "{{p}", "{p#c\n}", "{p × q}", "{P}", "{_p}", "{p1}", "{p 1}",
]


@pytest.mark.parametrize("text", SCAN_EDGE_CASES)
def test_scanner_matches_reference_on_edge_cases(text):
    assert _scanned(text) == _reference_tokens(text)


def _refines(text):
    """Whether the _TOKEN tokens of the grouped tokens are those of the text."""
    text = syntax._clean(text)
    split = [tok for group in syntax._GROUPED.findall(text) for tok in syntax._TOKEN.findall(group)]
    return split == syntax._TOKEN.findall(text)


@given(_scan_texts)
@settings(max_examples=400, deadline=None)
def test_grouped_tokens_refine_tokens(text):
    assert _refines(text)


@pytest.mark.parametrize("text", SCAN_EDGE_CASES)
def test_grouped_tokens_refine_tokens_on_edge_cases(text):
    assert _refines(text)


# ---------------------------------------------------------------------------
# Diagnostic bytes: one input per error class, with a comment or a product
# sign before the error, so that its offsets pass through the cleaning.

DIAGNOSTICS = {
    "object": ("# c\np1{p × q,}", Mode.CARTESIAN, "<input>:13-14: error: expected an object"),
    "form": ("id{p} . # x\n frob{p}", Mode.CARTESIAN, "<input>:13-17: error: unknown arrow form 'frob'"),
    "end": ("<id{p}, id{p}", Mode.CARTESIAN, "<input>:13-13: error: expected '>', found end of input"),
    "symbol": ("# (\nid{p × q)", Mode.CARTESIAN, "<input>:12-13: error: expected '}', found ')'"),
    "arrow": ("# c\n<id{p×q}, > ", Mode.CARTESIAN, "<input>:14-15: error: expected an arrow"),
    "trailing": ("id{p × q} # c\n  id{p}", Mode.CARTESIAN, "<input>:16-18: error: unexpected trailing input"),
    "character": ("# $\nid{p × q} $", Mode.CARTESIAN, "<input>:14-15: error: unexpected character '$'"),
    "mismatch": (
        "# c\nid{p × q} . id{p}",
        Mode.CARTESIAN,
        "<input>:0-21: error: composition factor 1 expects domain p but has p*q",
    ),
    "mode": (
        "# c\nid{p × T}",
        Mode.BINARY_PRODUCTS,
        "<input>:0-13: error: terminal object not available in binary-products mode",
    ),
}


@pytest.mark.parametrize("kind", DIAGNOSTICS)
def test_diagnostics_render_exact_bytes(kind):
    text, mode, rendered = DIAGNOSTICS[kind]
    with pytest.raises(ParseError) as exc:
        parse_arrow(text, mode)
    assert exc.value.diagnostic.render() == rendered


# ---------------------------------------------------------------------------
# Objects shared within a parse

# Terms whose objects repeat a subobject, so that the parser hands the
# same object to several places of one term.
SHARED_OBJECT_TERMS = [
    "swap{p*q,p*q}",
    "p2{p*q,p*q} . dup{p*q}",
    "p2{((p*q)*(p*q))*((p*q)*(p*q)),(p*q)*(p*q)}"
    " . <id{((p*q)*(p*q))*((p*q)*(p*q))}, p1{(p*q)*(p*q),(p*q)*(p*q)}> . dup{(p*q)*(p*q)}",
    "prod(swap{p,p}, id{p*p})",
    "prod(dup{p*q}, p1{p*q,p*q})",
    "assoc_r{p*q,p*q,p*q}",
    "assoc_l{p*q,p*q,p*q}",
    "assoc_l{p*q,p*q,p*q} . assoc_r{p*q,p*q,p*q}",
    "assoc_r{p,p,p} . assoc_l{p,p,p} . prod(id{p*p}, id{p})",
]


def test_parsed_objects_are_shared():
    t = parse_arrow("swap{p*q,p*q}")
    assert t.first.left is t.first.right
    u = parse_arrow("p2{(p*q)*p,p*q}")
    assert u.left.left is u.right and u.left.right is u.right.left
    # Separate parses share their objects too, and with objects built directly.
    assert parse_object("p * q") is t.first.left is Product(p, q)
    assert parse_arrow("p1{(p*q)*p, T}").left is u.left
    assert parse_arrow("bang{T}").obj is T


def _subobjects(a):
    found, todo = [], [a]
    while todo:
        node = todo.pop()
        found.append(node)
        if isinstance(node, Product):
            todo += (node.right, node.left)
    return found


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_equal_objects_are_one_object(rng):
    from termgen import random_object

    a = random_object(rng, max_depth=3)
    b = random_object(rng, max_depth=3)
    match a:
        case Product(left, right):
            assert Product(left, right) is Product(left=left, right=right) is a
        case LetterObj(name):
            assert LetterObj(name) is LetterObj(name=name) is a
        case Terminal():
            assert Terminal() is a
    assert dataclasses.replace(a) is a
    assert parse_object(print_object(a)) is a
    # Printed texts compare structure independently of sharing.
    subobjects = _subobjects(a) + _subobjects(b)
    texts = [print_object(x) for x in subobjects]
    for x, x_text in zip(subobjects, texts):
        for y, y_text in zip(subobjects, texts):
            assert (x is y) == (x == y) == (x_text == y_text)
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("text", SHARED_OBJECT_TERMS)
def test_shared_objects_normalize_and_round_trip(text, mode):
    t = parse_arrow(text, mode)
    assert normal_form(t, mode) == normalize(t, mode).result
    assert parse_arrow(print_arrow(t), mode) == t


# ---------------------------------------------------------------------------
# The grouped reading against the token-level one


def _reading(text, token, mode):
    """The term that one reading of a text gives, or what it raises."""
    try:
        # Only the token-level reading places a syntax error; the grouped
        # one raises the unplaced _UNREPORTED.
        parser = syntax._Parser(text, token)
        term = parser.arrow()
        if parser.rest[-1]:
            parser.fail("unexpected trailing input")
        typecheck(term, mode)
    except ParseError as exc:
        return exc.diagnostic
    except (TypeMismatch, ModeViolation) as exc:
        return str(exc)
    return term


def _holds_unread_leaf(text):
    """Whether a grouped token of the text is a leaf name{...} that _braced reads as no arrow."""
    tokens = syntax._GROUPED.findall(syntax._clean(text))
    return any("a" <= tok < "{" and tok[-1] == "}" and syntax._braced(tok) is None for tok in tokens)


def _check_readings_agree(text, mode):
    token = _reading(text, syntax._TOKEN, mode)
    grouped = _reading(text, syntax._GROUPED, mode)
    if isinstance(token, Diagnostic):
        # A syntax error is reported as the token-level reader found it.
        # The grouped reading stops at a syntax error too, unless the error
        # lies inside a leaf token that does not read (a digit or "_"
        # outside a name, as in "id{1p}"): then it may first meet a type
        # error before that leaf.
        if not isinstance(grouped, Diagnostic):
            assert isinstance(grouped, str) and _holds_unread_leaf(text), text
        with pytest.raises(ParseError) as exc:
            parse_arrow(text, mode)
        assert exc.value.diagnostic == token, text
    elif isinstance(token, str):
        # A type or mode error arises at the same point of both readings.
        assert grouped == token, text
        with pytest.raises(ParseError) as exc:
            parse_arrow(text, mode)
        assert exc.value.diagnostic == Diagnostic((0, len(text)), token), text
    else:
        assert grouped == token and grouped.map == token.map, text
        assert parse_arrow(text, mode) == token


DIFFERENTIAL_SEED = 1


def test_grouped_reading_agrees_on_the_corpora():
    queries = [q for workload in WORKLOADS for q in build(workload, DIFFERENTIAL_SEED) if not q.deep]
    assert len(queries) > 1000
    for q in queries:
        for text in q.texts:
            _check_readings_agree(text, Mode(q.mode))


def test_grouped_reading_agrees_on_malformed_texts():
    for mode, texts in malformed_texts(DIFFERENTIAL_SEED).items():
        for text in texts:
            _check_readings_agree(text, Mode(mode))


# Whole texts around a leaf token: space and comments between a name and
# its group, names that name no leaf, groups that hold a brace or an
# unexpected character, a leaf where an object is due, and characters
# after a leaf that are space (no-break space, file separator) or not
# (zero-width space).  The last two fail in the grouped reading at a
# whole leaf ("expected ',', found 'id{q}'", "expected an object"), which
# the token-level reading reports at a name or a brace.  A group with a
# digit or "_" outside a name, as in "id{1}", is a leaf of the grouped
# reading only, which reads it as no arrow and hands the text over; in
# "id{p_1}" both are inside a name.  In the last text the grouped reading
# meets a type error before such a leaf.
LEAF_EDGE_CASES = [
    "id {p}", "id\n{p}", "id # c\n{p}", "xid{p}", "prod{p}", "id{p{q}}", "id{id{p}}", "id{p$}", "id{p} $",
    "p1{p×q,q}", "id{p}\u00a0", "id{p}\u200b", "id{p}\x1c", "id{p} . id {p}", "<p1 # c\n{p,q}, p2\n{p,q}>",
    "<id{p} id{q}>", "id{ id{p} }", "id{1}", "id{_p}", "p1{p,9}", "{1}", "id{p_1}",
    "(<<id{p}, id {q}>, id{1p}>)",
]


def test_grouped_reading_agrees_on_edge_cases():
    for group in SCAN_EDGE_CASES + ["{p,q}", "{p*q, T}", "{(p*q)}", "{p*q*r}"]:
        for name in ("id", "p1", "bang", "<id{p}, p2"):
            for mode in Mode:
                _check_readings_agree(name + group, mode)
    for text in LEAF_EDGE_CASES:
        for mode in Mode:
            _check_readings_agree(text, mode)


# Texts made of whole leaves, names, symbols, space and comments, with a
# few characters that no token holds, so that both readings meet every
# kind of token next to every other.  Most of them are malformed, so
# arrows nested from leaves are drawn too, whole or with one piece put
# in at some point.
_LEAVES = ["id{p}", "id {q}", "p1{p, q}", "p2 # c\n{p*q,T}", "bang\n{q}", "swap{p,q}", "dup{p×q}"]
_READING_PIECES = _LEAVES + [
    "id", "p1", "bang", "prod", "xid", "p", "q", "T", "{", "}", "(", ")", "<", ">", ",", ".", "*", "×",
    " ", "\n", "# c\n", "$", "1", "_", "\u00a0", "\u200b", "\x1c",
]
_nested_arrows = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("<{0[0]}, {0[1]}>".format),
        st.tuples(inner, inner).map("{0[0]} . {0[1]}".format),
        st.tuples(inner, inner).map("prod({0[0]}, {0[1]})".format),
        inner.map("({})".format),
    ),
    max_leaves=6,
)


def _put_in(text_at_piece):
    text, at, piece = text_at_piece
    at %= len(text) + 1
    return text[:at] + piece + text[at:]


_reading_texts = st.one_of(
    st.lists(st.sampled_from(_READING_PIECES), max_size=14).map("".join),
    _nested_arrows,
    st.tuples(_nested_arrows, st.integers(min_value=0), st.sampled_from(_READING_PIECES)).map(_put_in),
)


@given(_reading_texts, st.sampled_from(list(Mode)))
@settings(max_examples=400, deadline=None)
def test_grouped_reading_agrees_on_random_texts(text, mode):
    _check_readings_agree(text, mode)


# ---------------------------------------------------------------------------
# The memo of braced arrows


def test_the_memo_keeps_at_most_its_bound():
    assert syntax._braced.cache_info().maxsize == syntax._GROUPS_KEPT
    for i in range(syntax._GROUPS_KEPT + 10):
        parse_arrow(f"id{{x{i}}}")
    assert syntax._braced.cache_info().currsize == syntax._GROUPS_KEPT


def test_a_group_read_twice_gives_the_same_objects():
    hits = syntax._braced.cache_info().hits
    first, second = parse_arrow("id{p*q}"), parse_arrow("id{p*q}")
    assert first is second
    assert first.obj is Product(p, q)
    assert syntax._braced.cache_info().hits > hits


def test_a_malformed_group_is_kept_as_no_arrow():
    syntax._braced.cache_clear()
    texts = ("id{p,q}", "p1{p}", "p2{p,}", "bang{(p*q}")
    for text in texts * 2:
        with pytest.raises(ParseError):
            parse_arrow(text)
    info = syntax._braced.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 4, 4)
    assert [syntax._braced(text) for text in texts] == [None] * 4


def test_a_malformed_leaf_is_read_once(monkeypatch):
    # Each parse reports through the token-level reading, which builds
    # the spans of the whole text once; the reading of the leaf's
    # malformed object, which builds its spans too, runs only the first
    # time.
    calls, real = [], syntax._spans

    def spans(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(syntax, "_spans", spans)
    syntax._braced.cache_clear()
    text, reads = "<id{p}, p1{p,(q}>", 5
    rendered = set()
    for _ in range(reads):
        with pytest.raises(ParseError) as exc:
            parse_arrow(text)
        rendered.add(exc.value.diagnostic.render())
    assert len(calls) == reads + 1
    assert rendered == {"<input>:15-16: error: expected '*', found '}'"}


def test_a_macro_is_kept_too():
    syntax._braced.cache_clear()
    first = parse_arrow("swap{p,q}")
    assert parse_arrow("<swap{p,q}, id{p*q}>").first is first == swap(p, q)
    info = syntax._braced.cache_info()
    assert (info.hits, info.misses) == (1, 2)


@pytest.mark.parametrize("text", ["bang{p}", "id{p*T}", "<id{p}, bang{p}>"])
def test_an_arrow_kept_in_cartesian_mode_is_still_checked_in_the_other(text):
    syntax._braced.cache_clear()
    with pytest.raises(ParseError) as cold:
        parse_arrow(text, Mode.BINARY_PRODUCTS)
    syntax._braced.cache_clear()
    parse_arrow(text, Mode.CARTESIAN)
    hits = syntax._braced.cache_info().hits
    with pytest.raises(ParseError) as kept:
        parse_arrow(text, Mode.BINARY_PRODUCTS)
    assert syntax._braced.cache_info().hits > hits
    assert kept.value.diagnostic.render() == cold.value.diagnostic.render()


# ---------------------------------------------------------------------------
# The memo of object texts


def _reference_text(t):
    """print_arrow's text, written without its memo: each object by print_object."""
    match t:
        case Pair(first, second):
            return f"<{_reference_text(first)}, {_reference_text(second)}>"
        case Compose(factors):
            return " . ".join(_reference_text(f) for f in reversed(factors))
        case Identity(obj):
            return f"id{{{print_object(obj)}}}"
        case Proj1(left, right):
            return f"p1{{{print_object(left)},{print_object(right)}}}"
        case Proj2(left, right):
            return f"p2{{{print_object(left)},{print_object(right)}}}"
        case Bang(obj):
            return f"bang{{{print_object(obj)}}}"


def test_printing_agrees_with_the_memo_free_reference_on_the_corpora():
    queries = [q for workload in WORKLOADS for q in build(workload, DIFFERENTIAL_SEED) if not q.deep]
    for q in queries:
        mode = Mode(q.mode)
        for text in q.texts:
            t = parse_arrow(text, mode)
            for term in (t, normal_form(t, mode)):
                printed = print_arrow(term)
                assert printed == _reference_text(term), text
                assert parse_arrow(printed, mode) == term, text


def test_the_object_memo_keeps_at_most_its_bound():
    assert syntax._object_text.cache_info().maxsize == syntax._GROUPS_KEPT
    for i in range(syntax._GROUPS_KEPT + 10):
        assert print_arrow(Proj1(LetterObj(f"y{i}"), T)) == f"p1{{y{i},T}}"
    assert syntax._object_text.cache_info().currsize == syntax._GROUPS_KEPT


# Texts on which a scan that backtracks takes far longer than linear
# time: names that may be split anywhere, and long groups left open.
LONG_SCANS = """
import time
from freecart.syntax import _GROUPED
texts = ["{" + "a " * 500_000, "{a" * 200_000, "{" + "(a*" * 300_000 + "!", "{" + "a" * 500_000]
start = time.perf_counter()
for text in texts:
    _GROUPED.findall(text)
print(time.perf_counter() - start)
"""


def test_grouped_scanning_is_linear():
    # In a subprocess, so that a scan that does not end is stopped.
    done = subprocess.run(
        [sys.executable, "-c", LONG_SCANS],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 5
