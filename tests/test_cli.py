import codecs
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freecart import (
    Degree,
    Identity,
    LetterObj,
    Mode,
    RedexKind,
    ReductionStep,
    ReductionTrace,
    print_arrow,
    run_cli,
)
from freecart.cli import _build_parser, _plain_args, _read_text, _render_trace
from termgen import random_arrow

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import cli_transcript  # noqa: E402  (it puts bench/ on the path, for workloads)
from workloads import Query  # noqa: E402


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_prints_type(tmp_path, capsys):
    f = write(tmp_path, "f.term", "p1{p,q}\n")
    assert run_cli(["check", f]) == 0
    assert capsys.readouterr().out == "p * q -> p\n"


def test_check_rejects_ill_typed(tmp_path, capsys):
    f = write(tmp_path, "f.term", "<id{p}, id{q}>\n")
    assert run_cli(["check", f]) == 2
    assert "domain" in capsys.readouterr().err


def test_graph_json(tmp_path, capsys):
    f = write(tmp_path, "f.term", "# running example\nid{((p*q)*p)*(T*p)}\n")
    assert run_cli(["graph", f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "map": [1, 2, 3, 4],
        "source_letters": 4,
        "target_letters": 4,
    }


class _Terminal(io.StringIO):
    """A stdout that reports being a terminal."""

    def isatty(self):
        return True


def _stdout_of(argv, stream):
    with contextlib.redirect_stdout(stream):
        assert run_cli(argv) == 0
    return stream.getvalue()


def test_terminal_gets_a_summary_line_before_the_json(tmp_path):
    f = write(tmp_path, "f.term", "p1{p,p}\n")
    g = write(tmp_path, "g.term", "p2{p,p}\n")
    for argv, summary in (
        (["graph", f], "2 source letter(s), 1 target letter(s)"),
        (["collapse", f, g], "collapse witness on letter 'p' at position 1"),
    ):
        plain = _stdout_of(argv, io.StringIO())
        first, rest = _stdout_of(argv, _Terminal()).split("\n", 1)
        assert first == summary
        assert rest == plain
        json.loads(plain)


def test_normalize_with_trace(tmp_path, capsys):
    f = write(tmp_path, "f.term", "id{p*q}\n")
    assert run_cli(["normalize", "--trace", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "<p1{p,q}, p2{p,q}>"
    assert out.splitlines()[0].startswith("step 1: atomize-product at []")


def test_a_trace_prints_degrees_past_the_interpreters_digit_limit():
    # 3**10000 has 4772 digits; str() of an int refuses more than
    # sys.get_int_max_str_digits(), 4300 by default.
    gamma = 3**10000
    limit = sys.get_int_max_str_digits()
    degrees = Degree(gamma, 2, gamma), Degree(0, 2, gamma // 3)
    step = ReductionStep(RedexKind.IDENTITY_RIGHT, (0,), *degrees)
    (line,) = _render_trace(ReductionTrace((step,), Identity(LetterObj("p"))))
    assert sys.get_int_max_str_digits() == limit
    try:
        sys.set_int_max_str_digits(0)
        digits, third = str(gamma), str(gamma // 3)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) == 4772
    assert line == f"step 1: identity-right at [0] degree ({digits},2,{digits}) -> (0,2,{third})"


def test_equal_verdicts(tmp_path, capsys):
    f = write(tmp_path, "f.term", "id{p*q}\n")
    g = write(tmp_path, "g.term", "<p1{p,q}, p2{p,q}>\n")
    assert run_cli(["equal", f, g]) == 0
    assert capsys.readouterr().out == "equal\n"
    h = write(tmp_path, "h.term", "<p2{q,p} . swap{p,q}, p2{p,q}>\n")
    assert run_cli(["equal", "--method", "graph", f, h]) == 0
    capsys.readouterr()
    i = write(tmp_path, "i.term", "<p1{p,p}, p1{p,p}>\n")
    j = write(tmp_path, "j.term", "<p1{p,p}, p2{p,p}>\n")
    assert run_cli(["equal", i, j]) == 1
    assert capsys.readouterr().out == "not equal\n"


def test_equal_methods_agree(tmp_path, capsys):
    f = write(tmp_path, "f.term", "p1{(p*q),(p*q)} . <id{p*q}, id{p*q}> . id{p*q}\n")
    g = write(tmp_path, "g.term", "id{p*q} . <p1{p,q}, p2{p,q}>\n")
    for method in ("graph", "normalize", "both"):
        assert run_cli(["equal", "--method", method, f, g]) == 0
        capsys.readouterr()


def test_equal_by_graph_on_objects_nested_deeper_than_the_recursion_limit(tmp_path, capsys):
    # The two files are parsed apart, yet their equal objects are one
    # object, so comparing the types walks neither.
    a = "p"
    for _ in range(1000):
        a = f"({a}*q)"
    f = write(tmp_path, "f.term", f"id{{{a}}}\n")
    g = write(tmp_path, "g.term", f"id{{{a}}}\n")
    assert run_cli(["equal", "--method", "graph", f, g]) == 0
    assert capsys.readouterr().out == "equal\n"
    h = write(tmp_path, "h.term", f"p1{{{a},{a}}}\n")
    j = write(tmp_path, "j.term", f"p2{{{a},{a}}}\n")
    assert run_cli(["equal", "--method", "graph", h, j]) == 1
    assert capsys.readouterr().out == "not equal\n"


def test_collapse_witness_json(tmp_path, capsys):
    f = write(tmp_path, "f.term", "p1{p,p}\n")
    g = write(tmp_path, "g.term", "p2{p,p}\n")
    assert run_cli(["collapse", f, g]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["letter"] == "p"
    assert payload["position"] == 1
    assert payload["h"] == "<p1{p,p}, p2{p,p}>"
    assert payload["j"] == "id{p}"
    assert payload["lhs_normal"] == "p1{p,p}"
    assert payload["rhs_normal"] == "p2{p,p}"
    assert payload["lhs_graph"] == {"map": [1], "source_letters": 2, "target_letters": 1}
    assert payload["rhs_graph"] == {"map": [2], "source_letters": 2, "target_letters": 1}


def test_collapse_on_equal_pair_is_a_false_verdict(tmp_path, capsys):
    f = write(tmp_path, "f.term", "id{p}\n")
    g = write(tmp_path, "g.term", "id{p}\n")
    assert run_cli(["collapse", f, g]) == 1
    assert "equal" in capsys.readouterr().err


def test_synth(tmp_path, capsys):
    assert run_cli(["synth", "p*q", "q", "[2]"]) == 0
    assert capsys.readouterr().out == "p2{p,q}\n"
    assert run_cli(["synth", "p", "p*p", "[1,1]"]) == 0
    assert capsys.readouterr().out == "<id{p}, id{p}>\n"
    # The entries are taken in the codomain's leaf order.
    assert run_cli(["synth", "p*q", "q*(p*p)", "[2,1,1]"]) == 0
    assert capsys.readouterr().out == "<p2{p,q}, <p1{p,q}, p1{p,q}>>\n"
    assert run_cli(["synth", "p*q", "T", "[]"]) == 0
    assert capsys.readouterr().out == "bang{p*q}\n"


def test_synth_rejects_bad_graphs(tmp_path, capsys):
    assert run_cli(["synth", "p*q", "p", "[2]"]) == 2
    capsys.readouterr()
    assert run_cli(["synth", "p*q", "p", "[7]"]) == 2
    capsys.readouterr()
    assert run_cli(["synth", "p*q", "p", "not json"]) == 2
    capsys.readouterr()
    # Nesting too deep for the JSON decoder is a malformed map, not an
    # internal error.
    assert run_cli(["synth", "p", "p", "[" * 20000 + "]" * 20000]) == 2
    assert capsys.readouterr().err.startswith("error: map is not valid JSON: ")
    # Nor is an int past Python's digit limit, on which the decoder
    # raises a plain ValueError, worded as int() words it.
    digits = "1" * 5000
    with pytest.raises(ValueError) as limit:
        int(digits)
    assert run_cli(["synth", "p", "p", f"[{digits}]"]) == 2
    assert capsys.readouterr() == ("", f"error: map is not valid JSON: {limit.value}\n")
    assert run_cli(["synth", "p", "p", "[true]"]) == 2
    assert "map must be a JSON list of integers" in capsys.readouterr().err
    # The check that graphs coming in as JSON get, with the same bytes.
    for bad in ("[1.5]", "[1, true]", "[\"1\"]", "{}", "1"):
        assert run_cli(["synth", "p*q", "p", bad]) == 2
        assert capsys.readouterr().err == "error: map must be a JSON list of integers\n"
    assert run_cli(["synth", "p*q", "p", "[3]"]) == 2
    assert capsys.readouterr().err == "error: map entry 3 not in 1..2\n"
    assert run_cli(["synth", "p*q", "p", "[1, 1]"]) == 2
    assert capsys.readouterr().err == "error: map has 2 entries for 1 targets\n"
    # The check that `check` makes of the same arrow, p1{p,T}.
    assert run_cli(["--mode", "binary-products", "synth", "p*T", "p", "[1]"]) == 2
    assert capsys.readouterr() == ("", "error: terminal object not available in binary-products mode\n")


def test_module_entry_point_writes_only_its_answer():
    # `python -m freecart.cli` runs the module as __main__; importing the
    # package must not have loaded it already.
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "freecart.cli", "synth", "p", "p", "[1]"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "id{p}\n", "")


def test_mode_flag_rejects_terminal_material(tmp_path, capsys):
    f = write(tmp_path, "f.term", "bang{p}\n")
    assert run_cli(["--mode", "binary-products", "check", f]) == 2
    assert "binary-products" in capsys.readouterr().err
    g = write(tmp_path, "g.term", "id{p*T}\n")
    assert run_cli(["--mode", "binary-products", "graph", g]) == 2
    capsys.readouterr()
    h = write(tmp_path, "h.term", "sigma{q}\n")
    assert run_cli(["--mode", "binary-products", "normalize", h]) == 2
    capsys.readouterr()


def test_type_mismatch_is_named_before_later_errors(tmp_path, capsys):
    # Terms are typed as they are read, so a mismatch comes before a mode
    # violation and before a syntax error further on.
    f = write(tmp_path, "f.term", "id{T} . id{p}\n")
    assert run_cli(["--mode", "binary-products", "check", f]) == 2
    err = capsys.readouterr().err
    assert "composition factor 1 expects domain p but has T" in err
    assert "binary-products" not in err
    g = write(tmp_path, "g.term", "<id{p}, id{q}> foo\n")
    assert run_cli(["check", g]) == 2
    err = capsys.readouterr().err
    assert "pair components must share a domain: p vs q" in err
    assert "trailing" not in err


def test_usage_errors_exit_2(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["equal", "only-one-file"]) == 2
    capsys.readouterr()


def _read_by_text_stream(path: str) -> str:
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


def _outcome(read, path: str):
    """What `read` returns on `path`, or the type and message of what it raises."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)


def test_a_term_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    plain = write(tmp_path, "plain.term", "id{p*q}\n")
    assert run_cli(["check", plain]) == 0
    expected = capsys.readouterr()
    bom = tmp_path / "bom.term"
    bom.write_bytes(codecs.BOM_UTF8 + b"id{p*q}\n")
    assert run_cli(["check", str(bom)]) == 0
    assert capsys.readouterr() == expected
    # Anywhere else a byte order mark is a character of the text.
    later = tmp_path / "later.term"
    later.write_bytes(b"id{p*q}" + codecs.BOM_UTF8 + b"\n")
    assert run_cli(["check", str(later)]) == 2
    assert "unexpected character '\\ufeff'" in capsys.readouterr().err
    twice = tmp_path / "twice.term"
    twice.write_bytes(codecs.BOM_UTF8 * 2 + b"id{p*q}\n")
    assert run_cli(["check", str(twice)]) == 2
    assert "unexpected character '\\ufeff'" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    # A missing file, a directory and a file that is not UTF-8.  The
    # message is built from what a text stream raises on the same path,
    # so the platform's wording does not matter.
    latin1 = tmp_path / "latin1.term"
    latin1.write_bytes(b"\xff\n")
    for path in (str(tmp_path / "absent.term"), str(tmp_path), str(latin1)):
        assert run_cli(["check", path]) == 2
        _, message = _outcome(_read_by_text_stream, path)
        assert capsys.readouterr() == ("", f"error: cannot read {path}: {message}\n")


def test_a_path_that_holds_a_nul_cannot_be_read(capsys):
    assert run_cli(["check", "a\x00b"]) == 2
    assert capsys.readouterr() == ("", "error: cannot read a\x00b: embedded null byte\n")


def test_the_file_reader_fails_as_a_text_stream_fails(tmp_path):
    for path in (str(tmp_path / "absent.term"), "", str(tmp_path), "a\x00b"):
        assert _outcome(_read_text, path) == _outcome(_read_by_text_stream, path), path


# What a term file is drawn from: newlines of each kind, a comment sign,
# a character of two bytes, a byte order mark, bytes that are not UTF-8
# or that start or end a character of two bytes, and token characters.
READER_PIECES = (
    b"\r", b"\n", b"\r\n", b"#", "×".encode(), codecs.BOM_UTF8, b"\xff", b"\xc3", b"\xa9",
    *(c.encode() for c in "id{p*q}(<T,1>). "),
)
# A run of one piece is short, or long enough to carry the file past
# 8 KiB or past the reader's 64 KiB read size, to either side of each.
READER_RUNS = st.one_of(st.integers(1, 3), st.sampled_from((8191, 8192, 8193, 65535, 65536, 65537)))


@pytest.fixture(scope="module")
def reader_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "drawn.term"


@settings(max_examples=300, deadline=None, derandomize=True)
@example(b"")
@example(b"#\r" + b"p" * 65533 + b"\r\n")
@given(
    st.lists(st.tuples(st.sampled_from(READER_PIECES), READER_RUNS), max_size=8).map(
        lambda runs: b"".join(piece * count for piece, count in runs)
    )
)
def test_the_file_reader_reads_as_a_text_stream_reads(reader_file, data):
    reader_file.write_bytes(data)
    path = str(reader_file)
    assert _outcome(_read_text, path) == _outcome(_read_by_text_stream, path)


def test_parse_error_has_location(tmp_path, capsys):
    f = write(tmp_path, "f.term", "p1{p\n")
    assert run_cli(["check", f]) == 2
    err = capsys.readouterr().err
    assert "f.term" in err and "error" in err


@pytest.mark.parametrize(
    ("text", "span", "message"),
    [
        ("p1{p\n", "5-5", "expected ',', found end of input"),
        ("# c\nid{p} $\n", "10-11", "unexpected character '$'"),
        ("p1{p,q} . id{p}\n", "0-16", "composition factor 1 expects domain p but has p*q"),
        ("", "0-0", "expected an arrow"),
    ],
)
def test_a_file_diagnostic_names_the_file_as_its_origin(tmp_path, capsys, text, span, message):
    # The span offsets into the text as read, the message is the parser's own,
    # and the origin is the file that does not read, not the one before it.
    f = write(tmp_path, "a.txt", text)
    good = write(tmp_path, "good.term", "id{p}\n")
    for command in (["check", f], ["normalize", "--trace", f], ["equal", good, f], ["collapse", f, good]):
        assert run_cli(command) == 2
        assert capsys.readouterr() == ("", f"{f}:{span}: error: {message}\n")


def test_normalize_matches_last_line_of_trace(tmp_path, capsys):
    rng = random.Random(303)
    chain = " . ".join(["id{p*q}"] * 60)
    for mode in Mode:
        texts = [print_arrow(random_arrow(rng, mode=mode, depth=4)) for _ in range(40)]
        for text in texts + [chain]:
            f = write(tmp_path, "f.term", text + "\n")
            assert run_cli(["--mode", mode.value, "normalize", f]) == 0
            plain = capsys.readouterr().out
            assert run_cli(["--mode", mode.value, "normalize", "--trace", f]) == 0
            traced = capsys.readouterr().out
            assert plain == traced.splitlines()[-1] + "\n", text


def test_unexpected_exception_exits_3(tmp_path, capsys):
    depth = 3000
    text = "<" * depth + "id{p}" + ", id{p}>" * depth + "\n"
    f = write(tmp_path, "f.term", text)
    g = write(tmp_path, "g.term", text)
    assert run_cli(["equal", f, g]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal error: RecursionError")
    assert "Traceback" not in captured.err


def test_every_recursion_error_is_reported_as_one_line(tmp_path):
    # In a fresh process a pairing 978 deep crosses the recursion limit
    # in a call, and one 3,000 deep elsewhere; Python's own message names
    # the operation ("while calling a Python object", "in comparison").
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    reports = set()
    for depth in (978, 3000):
        text = "<" * depth + "id{p}" + ", id{p}>" * depth + "\n"
        f = write(tmp_path, "f.term", text)
        g = write(tmp_path, "g.term", text)
        for argv in (["check", f], ["equal", "--method", "graph", f, g], ["equal", f, g]):
            done = subprocess.run(
                [sys.executable, "-m", "freecart.cli", *argv], capture_output=True, env=env
            )
            assert (done.returncode, done.stdout) == (3, b""), (depth, argv)
            reports.add(done.stderr)
    assert reports == {b"internal error: RecursionError: maximum recursion depth exceeded\n"}


# Every subcommand and option, valid and bogus choices, abbreviations,
# the --opt=value form, help flags, "--", and operands that argparse
# reads as positionals although they start with "-" ("-", "-1") or are
# empty.
ARGV_TOKENS = [
    "check", "graph", "normalize", "equal", "collapse", "synth",
    "--mode", "cartesian", "binary-products", "cubical",
    "--trace", "--method", "both", "approx",
    "--mod", "--meth", "--tr", "--method=graph", "--mode=cartesian",
    "-h", "--help", "--", "-", "", "-1", "-x",
    "a.term", "b.term", "p*q", "[1]",
]


def _argparse_result(argv):
    """vars() of what argparse returns for argv, or None when it exits; its output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _plain_result(argv):
    args = _plain_args(argv)
    return None if args is None else vars(args)


def _edited(argv, edits):
    """argv after each (kind, index, token) edit, cut to 8 tokens."""
    argv = list(argv)
    for kind, i, token in edits:
        i %= len(argv) + 1
        if kind == "insert":
            argv.insert(i, token)
        elif kind == "replace":
            argv[i:i + 1] = [token]
        else:
            del argv[i:i + 1]
    return argv[:8]


def _accepted_shapes():
    """The argv shapes that the benchmark and the transcript tool run."""
    shapes = [
        Query(kind, mode.value, ()).command(["a.term", "b.term"][: 1 + (kind == "collapse")])
        for kind in ("normalize", "trace", "collapse")
        for mode in Mode
    ]
    shapes += [Query("decide", mode.value, ()).command(["a.term", "b.term"]) for mode in Mode]
    for mode in Mode:
        head = ["--mode", mode.value]
        shapes += [
            head + ["check", "a.term"],
            head + ["graph", "a.term"],
            head + ["normalize", "--trace", "a.term"],
            head + ["equal", "--method", "both", "a.term", "b.term"],
        ]
    return shapes + cli_transcript.synth_commands(1)[::500]


ACCEPTED = _accepted_shapes()


def test_the_plain_reader_accepts_every_shape_the_benchmark_and_transcript_run():
    assert {argv[2] for argv in ACCEPTED} == {
        "check", "graph", "normalize", "equal", "collapse", "synth"
    }
    for argv in ACCEPTED:
        assert _plain_result(argv) is not None, argv
        assert _plain_result(argv) == _argparse_result(argv), argv


@settings(max_examples=1000, deadline=None)
@example(["--mode", "cubical", "check", "a.term"])
@example(["equal", "--method", "approx", "a.term", "b.term"])
@example(["equal", "a.term"])
@example(["normalize", "a.term", "--trace"])
@example(["check", "-1"])
@given(
    st.one_of(
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=8),
        st.builds(
            _edited,
            st.sampled_from(ACCEPTED),
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "replace", "delete"]),
                    st.integers(0, 8),
                    st.sampled_from(ARGV_TOKENS),
                ),
                max_size=2,
            ),
        ),
    )
)
def test_the_plain_reader_reads_as_argparse_reads_or_leaves_it_to_argparse(argv):
    plain = _plain_result(argv)
    if plain is not None:
        assert plain == _argparse_result(argv)


def test_argv_that_is_not_a_list_of_str_goes_to_argparse(monkeypatch, capsys):
    argv = ["synth", "p", "p", "[1]"]
    assert run_cli(argv) == 0
    expected = capsys.readouterr()
    assert _plain_args(tuple(argv)) is None
    assert run_cli(tuple(argv)) == 0
    assert capsys.readouterr() == expected
    # None: argparse reads sys.argv.
    monkeypatch.setattr(sys, "argv", ["freecart", *argv])
    assert _plain_args(None) is None
    assert run_cli(None) == 0
    assert capsys.readouterr() == expected
    # argparse raises TypeError on an item that is not a str, and so
    # does run_cli, which hands it over.
    for bad in (["check", 1], ["--mode", "cartesian", "check", Path("a.term")]):
        assert _plain_args(bad) is None
        with pytest.raises(TypeError):
            _build_parser().parse_args(bad)
        with pytest.raises(TypeError):
            run_cli(bad)
