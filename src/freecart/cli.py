"""Command line interface.

Exit codes:
  0  success, and true verdicts;
  1  false verdicts (`equal` on unequal arrows, `collapse` on equal ones);
  2  usage, parse and type errors, and every other error of this library;
  3  an unexpected internal failure, reported as one line on stderr; a
     RecursionError on deeply nested input always reads "internal error:
     RecursionError: maximum recursion depth exceeded".

An arrow is fixed by its type and its graph, and so is the text of its
normal form.  So `check`, `graph`, `equal --method graph` and
`normalize` read their files with parse_graph, which builds no term,
and `normalize` and `synth` write the normal form's text straight from
a type and a map (decide.normal_form_text), building no arrow node.  The
commands that rewrite or substitute still build terms, with parse_arrow:
`normalize --trace`, which rewrites step by step and prints each step,
`equal --method normalize|both` and `collapse`.

How a term file is read (_read_text): with os.open and os.read, and
decoded once as UTF-8, a leading byte order mark skipped.  A text
stream builds four objects for that one read, and took about a fifth of
a median `equal --method graph` query; the system calls take under a
third of its time.  Text mode's newline translation is kept, CR LF and
a lone CR reading as LF, so that spans and comments end where they did.
A file that cannot be opened, read or decoded, and a path that holds a
NUL, is an error of exit code 2 that says "cannot read".

How argv is read: the grammar is stated once, in _MODE and _COMMANDS,
in argparse's own terms.  An option is its flag and the keyword
arguments of its add_argument call; a command is its help, its operands
with their help, and its option.  _build_parser hands them to argparse,
for help and usage errors.  _plain_args reads the plain form,
`[--mode M] COMMAND [--trace | --method X] OPERAND...`, with the choices
and defaults of the same dicts, and returns the Namespace that argparse
would; every other argv, from `-h` to an abbreviation or an option after
the operands, goes to argparse, so its exit codes, usage messages and
help are argparse's own.  A `--` that ends the options must follow the
subcommand, as in `freecart check -- FILE`: argparse reads a `--` before
it as the subcommand's name and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Iterator

from .collapse import CollapseWitness, collapse_witness, verify_witness
from .decide import equal_graphs, equal_in_cart, equal_via_normal_forms, normal_form_text
from .errors import AlreadyEqual, FreecartError, InternalError
from .graphs import graph_to_json_dict
from .rewrite import ReductionTrace, normalize
from .syntax import ParseError, parse_arrow, parse_graph, parse_object, print_arrow
from .terms import ArrowType, Mode


_READ_SIZE = 1 << 16


def _read_text(path: str) -> str:
    """The text of a file, as `open(path, encoding="utf-8-sig").read()` gives it, or raises.

    It is read with os.open and os.read until a read returns b"", and
    decoded once; a text stream would build a FileIO, a buffer, a
    TextIOWrapper and a decoder for that one read.  Text mode's newline
    translation is kept, so that every span and every comment's end is
    where it was: CR LF and a lone CR read as LF.  os.open succeeds
    on a directory, and os.read then fails without naming the file, so a
    read error is raised again with the path.  (A file of one or two
    bytes of a byte order mark alone, which a stream reads as "", is not
    UTF-8 here.)
    """
    fd = os.open(path, os.O_RDONLY)
    chunks = []
    try:
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8-sig")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_arrow(path: str, mode: Mode, parse=parse_arrow):
    """The arrow in a file, read by `parse`: parse_arrow, or parse_graph for its type and graph alone.

    A file that cannot be opened, read or decoded is a FreecartError; so
    is a path that holds a NUL, on which os.open raises ValueError.  A
    diagnostic names the path as its origin, its span offsets into the
    text as read.
    """
    try:
        text = _read_text(path)
    except (OSError, ValueError) as exc:
        raise FreecartError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text, mode)
    except ParseError as exc:
        raise ParseError(dataclasses.replace(exc.diagnostic, origin=path)) from exc


def _emit_json(payload: dict, summary: str) -> None:
    if sys.stdout.isatty():
        print(summary)
    print(json.dumps(payload, sort_keys=True))


def _render_trace(trace: ReductionTrace) -> Iterator[str]:
    """The trace's lines, each made as it is asked for, so that one is held at a time."""
    # A step's degree before is the last one's after, which is written once.
    shown, text = None, ""
    for idx, s in enumerate(trace.steps, start=1):
        before = text if s.degree_before is shown else str(s.degree_before)
        shown, text = s.degree_after, str(s.degree_after)
        yield f"step {idx}: {s.kind.value} at {list(s.path)} degree {before} -> {text}"


def witness_to_json_dict(w: CollapseWitness) -> dict:
    # Only verified witnesses get here, so the composites' normal forms
    # are lhs_normal and rhs_normal, and so are their types and graphs.
    return {
        "letter": w.letter.name,
        "position": w.position,
        "f_subst": print_arrow(w.f_subst),
        "g_subst": print_arrow(w.g_subst),
        "h": print_arrow(w.h),
        "j": print_arrow(w.j),
        "lhs_normal": print_arrow(w.lhs_normal),
        "rhs_normal": print_arrow(w.rhs_normal),
        "lhs_graph": graph_to_json_dict(w.lhs_normal),
        "rhs_graph": graph_to_json_dict(w.rhs_normal),
    }


# The command-line grammar: an option is (flag, add_argument kwargs), a
# command is (help, {operand: help}, option or None).
_MODE = (
    "--mode",
    {
        "choices": tuple(m.value for m in Mode),
        "default": Mode.CARTESIAN.value,
        "help": "ambient theory (default: cartesian)",
    },
)
_COMMANDS = {
    "check": ("typecheck a term and print its type", {"term_file": None}, None),
    "graph": ("print the graph of a term as JSON", {"term_file": None}, None),
    "normalize": (
        "reduce a term to normal form",
        {"term_file": None},
        ("--trace", {"action": "store_true", "default": False, "help": "print one line per step"}),
    ),
    "equal": (
        "decide whether two terms are equal",
        {"lhs_file": None, "rhs_file": None},
        ("--method", {"choices": ("graph", "normalize", "both"), "default": "both"}),
    ),
    "collapse": (
        "build the collapse witness for a non-equal pair",
        {"lhs_file": None, "rhs_file": None},
        None,
    ),
    "synth": (
        "build the normal form with a given graph",
        {
            "dom": "domain object, e.g. 'p*q'",
            "cod": "codomain object, e.g. 'q'",
            "map": "JSON list of 1-based source positions, e.g. '[2]'",
        },
        None,
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and then reused; it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="freecart",
        description="Typecheck, normalize and compare arrows of the free cartesian category.",
    )
    parser.add_argument(_MODE[0], **_MODE[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, operands, option) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for operand, operand_help in operands.items():
            p.add_argument(operand, help=operand_help)
        if option is not None:
            p.add_argument(option[0], **option[1])
    return parser


def _plain_args(argv) -> argparse.Namespace | None:
    """What parse_args(argv) returns, for an argv in the plain form; else None.

    The plain form is `[--mode M] COMMAND [--trace | --method X] OPERAND...`:
    a list of str, each option of the grammar given at most once and
    spelled in full before the operands, every choice valid, the exact
    number of operands, and no operand that starts with "-".  argparse
    reads such an argv without a choice of its own to make, and this
    reads it the same way; anything else is left to argparse.
    """
    if type(argv) is not list:
        return None
    for token in argv:
        if type(token) is not str:
            return None
    flag, spec = _MODE
    values = {flag[2:]: spec["default"]}
    head = 0
    if argv[:1] == [flag]:
        if len(argv) < 2 or argv[1] not in spec["choices"]:
            return None
        values[flag[2:]] = argv[1]
        head = 2
    if head == len(argv) or argv[head] not in _COMMANDS:
        return None
    name = values["command"] = argv[head]
    _, operands, option = _COMMANDS[name]
    rest = argv[head + 1 :]
    if option is not None:
        flag, spec = option
        dest = flag[2:]
        values[dest] = spec["default"]
        if rest[:1] == [flag]:
            if "choices" not in spec:
                values[dest] = True
                rest = rest[1:]
            elif len(rest) > 1 and rest[1] in spec["choices"]:
                values[dest] = rest[1]
                rest = rest[2:]
            else:
                return None
    if len(rest) != len(operands):
        return None
    for token in rest:
        if token.startswith("-"):
            return None
    values.update(zip(operands, rest))
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def run_cli(argv) -> int:
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    mode = Mode(args.mode)
    try:
        return _dispatch(args, mode)
    except ParseError as exc:
        print(exc.diagnostic.render(), file=sys.stderr)
        return 2
    except AlreadyEqual as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FreecartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Never exit 1 below: for `equal` that would read as "not equal".
    except RecursionError:
        # Its message names the operation that crossed the limit, which
        # depends on the input's shape, so one line stands for all.
        print("internal error: RecursionError: maximum recursion depth exceeded", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def _dispatch(args, mode: Mode) -> int:
    if args.command == "check":
        arrow = _load_arrow(args.term_file, mode, parse_graph)
        print(ArrowType(arrow.domain, arrow.codomain))
        return 0

    if args.command == "graph":
        arrow = _load_arrow(args.term_file, mode, parse_graph)
        _emit_json(
            graph_to_json_dict(arrow),
            f"{arrow.domain.letters} source letter(s), {arrow.codomain.letters} target letter(s)",
        )
        return 0

    if args.command == "normalize" and not args.trace:
        arrow = _load_arrow(args.term_file, mode, parse_graph)
        print(normal_form_text(arrow.domain, arrow.codomain, arrow.map, mode))
        return 0

    if args.command == "normalize":
        trace = normalize(_load_arrow(args.term_file, mode), mode)
        for line in _render_trace(trace):
            print(line)
        print(print_arrow(trace.result))
        return 0

    if args.command == "equal":
        parse = parse_graph if args.method == "graph" else parse_arrow
        lhs = _load_arrow(args.lhs_file, mode, parse)
        rhs = _load_arrow(args.rhs_file, mode, parse)
        if args.method == "graph":
            verdict = equal_graphs(lhs, rhs)
        elif args.method == "normalize":
            verdict = equal_via_normal_forms(lhs, rhs, mode)
        else:
            verdict = equal_in_cart(lhs, rhs, mode)
            if verdict != equal_via_normal_forms(lhs, rhs, mode):
                raise InternalError("decision procedures disagree; this is a bug")
        print("equal" if verdict else "not equal")
        return 0 if verdict else 1

    if args.command == "collapse":
        lhs = _load_arrow(args.lhs_file, mode)
        rhs = _load_arrow(args.rhs_file, mode)
        witness = collapse_witness(lhs, rhs, mode)
        if not verify_witness(witness, mode):
            raise InternalError("freshly built witness failed verification")
        _emit_json(
            witness_to_json_dict(witness),
            f"collapse witness on letter '{witness.letter}' at position {witness.position}",
        )
        return 0

    # synth: the subparsers are required, so no other command is left.
    dom = parse_object(args.dom)
    cod = parse_object(args.cod)
    try:
        positions = json.loads(args.map)
    except (ValueError, RecursionError) as exc:
        # Not only JSONDecodeError: an int past Python's digit limit raises
        # a plain ValueError, and too deep a nesting RecursionError.
        raise FreecartError(f"map is not valid JSON: {exc}") from exc
    # By exact type: a JSON boolean loads as a bool, which is an int to Python.
    if type(positions) is not list or any(type(v) is not int for v in positions):
        raise FreecartError("map must be a JSON list of integers")
    print(normal_form_text(dom, cod, positions, mode))
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
