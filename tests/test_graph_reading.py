"""parse_graph against parse_arrow, and the commands that answer from it.

parse_graph reads a text into its type and its graph alone.  Wherever
parse_arrow returns a term, parse_graph must return the same domain,
codomain, map and terminal-freeness; wherever parse_arrow raises,
parse_graph must raise the same exception class with the same
diagnostic.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecart import (
    Bang,
    Compose,
    Identity,
    Mode,
    Pair,
    ParseError,
    Proj1,
    Proj2,
    TypedGraph,
    parse_arrow,
    parse_graph,
    parse_object,
    print_arrow,
    run_cli,
    synth_from_graph,
    syntax,
)
from termgen import random_arrow

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from cli_transcript import malformed_texts, synth_commands  # noqa: E402  (it puts bench/ on the path)
from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (1, 2)


def _outcome(parse, text, mode):
    """What a reader gives: the four attributes, or the class and diagnostic it raises."""
    try:
        arrow = parse(text, mode)
    except ParseError as exc:
        return ParseError, exc.diagnostic.render()
    except Exception as exc:  # noqa: BLE001  (a deep text raises RecursionError in both)
        return type(exc), None
    return arrow.domain, arrow.codomain, arrow.map, arrow.terminal_free


def _check_readers_agree(text, mode):
    assert _outcome(parse_graph, text, mode) == _outcome(parse_arrow, text, mode), (text, mode)


def test_the_readers_agree_on_the_corpora():
    count = 0
    for seed in SEEDS:
        for workload in WORKLOADS:
            for q in build(workload, seed):
                for text in q.texts:
                    _check_readers_agree(text, Mode(q.mode))
                    count += 1
    assert count > 4000


def test_the_readers_agree_on_malformed_texts():
    for mode, texts in malformed_texts(SEEDS[0]).items():
        for text in texts:
            _check_readers_agree(text, Mode(mode))


# Type and mode errors at each kind of join, and arrows of both readings
# that mix terms (leaves, macros) with what the graph reader builds.
EDGE_CASES = [
    "<id{p}, id{q}>", "id{p} . id{q}", "id{p*q} . <id{p}, id{q}>", "prod(id{p}, id{q}) . id{p*q}",
    "<bang{p}, id{p}>", "prod(bang{p}, id{q})", "prod(id{p*T}, id{q})", "p1{p,T} . <id{p}, bang{p}>",
    "sigma{p}", "p2{T,p} . sigma{p}", "prod(swap{p,q}, dup{r}) . prod(id{q*p}, id{r})",
    "(<id{p}, id{p}>) . (id{p})", "p1{p,q} . prod(id{p}, id{q}) . swap{q,p}", "id{p} .", "<id{p}, id{q}",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_the_readers_agree_on_edge_cases(text):
    for mode in Mode:
        _check_readers_agree(text, mode)


def test_a_mode_that_is_not_a_mode_is_rejected_by_both():
    for parse in (parse_arrow, parse_graph):
        with pytest.raises(TypeError):
            parse("<id{p}, id{p}>", "cartesian")


_LEAVES = ["id{p}", "id{q}", "id{p*q}", "p1{p,q}", "p2{p,q}", "bang{p}", "id{T}", "swap{p,q}", "dup{p}"]
_joined = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("<{0[0]}, {0[1]}>".format),
        st.tuples(inner, inner).map("{0[0]} . {0[1]}".format),
        st.tuples(inner, inner).map("prod({0[0]}, {0[1]})".format),
        inner.map("({})".format),
    ),
    max_leaves=8,
)


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(list(Mode)), st.sampled_from(list(Mode)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_readers_agree_on_drawn_terms(seed, drawn_in, read_in):
    text = print_arrow(random_arrow(random.Random(seed), drawn_in, depth=4))
    _check_readers_agree(text, read_in)


@given(_joined, st.sampled_from(list(Mode)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_readers_agree_on_joined_leaves(text, mode):
    _check_readers_agree(text, mode)


# ---------------------------------------------------------------------------
# The commands that answer from parse_graph build no term, and `normalize`
# and `synth` write their normal form without building it


_DERIVED_NAMES = ("assoc_r", "assoc_l", "swap", "dup", "sigma", "delta")
_ARROW_CLASSES = (Identity, Proj1, Proj2, Bang, Pair, Compose)


def _count_constructions(monkeypatch, classes=(Pair, Compose)):
    """A dict that counts the nodes of `classes` built from now on."""
    counts = dict.fromkeys(classes, 0)
    for cls in counts:
        build = cls.__init__

        def counted(self, *args, _cls=cls, _build=build):
            counts[_cls] += 1
            _build(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_graph_commands_build_no_pairing_and_no_composition(tmp_path, monkeypatch, capsys):
    # A derived arrow is read as a term from the leaf memo, and its
    # term is a pairing, so texts that hold one are left out.
    queries = [
        q for q in build("decide", SEEDS[0])
        if not q.deep and not any(name in text for text in q.texts for name in _DERIVED_NAMES)
    ]
    assert len(queries) > 200
    assert any("prod(" in text for q in queries for text in q.texts)
    counts = _count_constructions(monkeypatch)
    answered = normalized = 0
    for i, q in enumerate(queries):
        files = []
        for k, text in enumerate(q.texts):
            path = tmp_path / f"{i}-{k}.term"
            path.write_text(text, encoding="utf-8")
            files.append(str(path))
        head = ["--mode", q.mode]
        for argv in (head + ["check", files[0]], head + ["graph", files[1]],
                     head + ["equal", "--method", "graph", *files], head + ["normalize", files[0]]):
            answered += run_cli(argv) in (0, 1)
        normalized += "<" in capsys.readouterr().out.splitlines()[-1]
    assert answered == 4 * len(queries)
    # Most normal forms are pairings, and none was built.
    assert normalized > len(queries) // 2
    assert counts == {Pair: 0, Compose: 0}


def test_synth_builds_no_arrow(monkeypatch, capsys):
    commands = synth_commands(SEEDS[0])[::10]
    counts = _count_constructions(monkeypatch, _ARROW_CLASSES)
    codes = [run_cli(argv) for argv in commands]
    out = capsys.readouterr().out
    assert set(codes) == {0, 2} and codes.count(0) > 200
    assert "<" in out and " . " in out and "bang{" in out
    assert counts == dict.fromkeys(_ARROW_CLASSES, 0)


def test_the_counter_sees_the_term_route(tmp_path, monkeypatch, capsys):
    path = tmp_path / "f.term"
    path.write_text("p1{p,p} . <id{p}, id{p}>", encoding="utf-8")
    counts = _count_constructions(monkeypatch)
    assert run_cli(["check", str(path)]) == 0
    assert counts == {Pair: 0, Compose: 0}
    assert run_cli(["normalize", "--trace", str(path)]) == 0
    assert counts[Pair] >= 1 and counts[Compose] >= 1
    assert capsys.readouterr().out.splitlines()[0] == "p -> p"


def test_the_counter_sees_synthesis(monkeypatch):
    dom, cod = parse_object("(p*T)*q"), parse_object("(q*p)*T")
    # Synthesis reads each leaf through the memo, so empty it first.
    syntax._braced.cache_clear()
    counts = _count_constructions(monkeypatch, _ARROW_CLASSES)
    synth_from_graph(dom, cod, (2, 1))
    assert counts == {Identity: 0, Proj1: 2, Proj2: 1, Bang: 1, Pair: 2, Compose: 1}


def test_a_joined_text_reads_as_a_typed_graph():
    arrow = parse_graph("<p1{p,q}, p2{p,q}> . id{p*q}")
    assert type(arrow) is TypedGraph
    assert (arrow.domain, arrow.codomain, arrow.map) == (
        parse_arrow("id{p*q}").domain, parse_arrow("id{p*q}").codomain, (1, 2)
    )
