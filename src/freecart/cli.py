"""Command line interface.

Exit codes:
  0  success, and true verdicts;
  1  false verdicts (`equal` on unequal arrows, `collapse` on equal ones);
  2  usage, parse and type errors, and every other error of this library;
  3  an unexpected internal failure, such as a RecursionError on deeply
     nested input, reported as one line on stderr.

`normalize` reads the normal form back from the term's graph; with
`--trace` it rewrites step by step instead, printing each step.

How argv is read: the grammar (subcommands, their operands, `--mode`,
`--trace` and `--method` with their choices and defaults) is stated
once, in _MODE and _COMMANDS.  _build_parser builds the argparse parser
from it, for help and usage errors.  _plain_args reads the plain form,
`[--mode M] COMMAND [--trace | --method X] OPERAND...`, from the same
table and returns the Namespace that argparse would; every other argv,
from `-h` to an abbreviation or an option after the operands, goes to
argparse, so its exit codes, usage messages and help are argparse's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import NamedTuple

from .collapse import LHS_GRAPH, RHS_GRAPH, CollapseWitness, collapse_witness, verify_witness
from .decide import equal_in_cart, equal_via_normal_forms, normal_form, synth_from_graph
from .errors import AlreadyEqual, FreecartError, InternalError
from .graphs import graph_from_json_dict, graph_of, graph_to_json_dict
from .rewrite import ReductionTrace, normalize
from .syntax import ParseError, parse_arrow, parse_object, print_arrow
from .terms import Mode, typecheck


def _load_arrow(path: str, mode: Mode):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FreecartError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_arrow(text, mode)
    except ParseError as exc:
        message = f"{path}: {exc.diagnostic.message}"
        raise ParseError(dataclasses.replace(exc.diagnostic, message=message)) from exc


def _emit_json(payload: dict, summary: str) -> None:
    if sys.stdout.isatty():
        print(summary)
    print(json.dumps(payload, sort_keys=True))


def _render_trace(trace: ReductionTrace) -> list[str]:
    lines = []
    for idx, s in enumerate(trace.steps, start=1):
        db = s.degree_before
        da = s.degree_after
        lines.append(
            f"step {idx}: {s.kind.value} at {list(s.path)} degree "
            f"({db.alpha},{db.beta},{db.gamma}) -> ({da.alpha},{da.beta},{da.gamma})"
        )
    return lines


def witness_to_json_dict(w: CollapseWitness) -> dict:
    # Only verified witnesses get here, so the composite graphs are known.
    return {
        "letter": w.letter.name,
        "position": w.position,
        "f_subst": print_arrow(w.f_subst),
        "g_subst": print_arrow(w.g_subst),
        "h": print_arrow(w.h),
        "j": print_arrow(w.j),
        "lhs_normal": print_arrow(w.lhs_normal),
        "rhs_normal": print_arrow(w.rhs_normal),
        "lhs_graph": graph_to_json_dict(LHS_GRAPH),
        "rhs_graph": graph_to_json_dict(RHS_GRAPH),
    }


class _Option(NamedTuple):
    flag: str
    choices: tuple[str, ...] | None  # None: a flag that stores True when given
    default: object
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:]


class _Command(NamedTuple):
    help: str
    operands: tuple[str, ...]
    option: _Option | None = None


# The command-line grammar, stated once: _build_parser and _plain_args
# both read it.
_MODE = _Option(
    "--mode",
    tuple(m.value for m in Mode),
    Mode.CARTESIAN.value,
    "ambient theory (default: cartesian)",
)
_COMMANDS = {
    "check": _Command("typecheck a term and print its type", ("term_file",)),
    "graph": _Command("print the graph of a term as JSON", ("term_file",)),
    "normalize": _Command(
        "reduce a term to normal form",
        ("term_file",),
        _Option("--trace", None, False, "print one line per step"),
    ),
    "equal": _Command(
        "decide whether two terms are equal",
        ("lhs_file", "rhs_file"),
        _Option("--method", ("graph", "normalize", "both"), "both"),
    ),
    "collapse": _Command("build the collapse witness for a non-equal pair", ("lhs_file", "rhs_file")),
    "synth": _Command("build the normal form with a given graph", ("dom", "cod", "map")),
}
_OPERAND_HELP = {
    "dom": "domain object, e.g. 'p*q'",
    "cod": "codomain object, e.g. 'q'",
    "map": "JSON list of 1-based source positions, e.g. '[2]'",
}


def _add_option(parser: argparse.ArgumentParser, option: _Option) -> None:
    if option.choices is None:
        parser.add_argument(option.flag, action="store_true", help=option.help)
    else:
        parser.add_argument(
            option.flag, choices=option.choices, default=option.default, help=option.help
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and then reused; it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="freecart",
        description="Typecheck, normalize and compare arrows of the free cartesian category.",
    )
    _add_option(parser, _MODE)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for operand in command.operands:
            p.add_argument(operand, help=_OPERAND_HELP.get(operand))
        if command.option is not None:
            _add_option(p, command.option)
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
    mode = _MODE.default
    head = 0
    if argv[:1] == [_MODE.flag]:
        if len(argv) < 2 or argv[1] not in _MODE.choices:
            return None
        mode = argv[1]
        head = 2
    if head == len(argv) or argv[head] not in _COMMANDS:
        return None
    name = argv[head]
    command = _COMMANDS[name]
    values = {_MODE.dest: mode, "command": name}
    rest = argv[head + 1 :]
    option = command.option
    if option is not None:
        dest = option.dest
        values[dest] = option.default
        if rest[:1] == [option.flag]:
            if option.choices is None:
                values[dest] = True
                rest = rest[1:]
            elif len(rest) > 1 and rest[1] in option.choices:
                values[dest] = rest[1]
                rest = rest[2:]
            else:
                return None
    if len(rest) != len(command.operands):
        return None
    for token in rest:
        if token.startswith("-"):
            return None
    values.update(zip(command.operands, rest))
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
    except Exception as exc:
        # Never exit 1 here: for `equal` that would read as "not equal".
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def _dispatch(args, mode: Mode) -> int:
    if args.command == "check":
        term = _load_arrow(args.term_file, mode)
        print(typecheck(term, mode))
        return 0

    if args.command == "graph":
        term = _load_arrow(args.term_file, mode)
        g = graph_of(term)
        _emit_json(
            graph_to_json_dict(g),
            f"{g.source_letters} source letter(s), {g.target_letters} target letter(s)",
        )
        return 0

    if args.command == "normalize":
        term = _load_arrow(args.term_file, mode)
        if not args.trace:
            print(print_arrow(normal_form(term, mode)))
            return 0
        trace = normalize(term, mode)
        for line in _render_trace(trace):
            print(line)
        print(print_arrow(trace.result))
        return 0

    if args.command == "equal":
        lhs = _load_arrow(args.lhs_file, mode)
        rhs = _load_arrow(args.rhs_file, mode)
        if args.method == "graph":
            verdict = equal_in_cart(lhs, rhs, mode)
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
    except (json.JSONDecodeError, RecursionError) as exc:
        # Nesting too deep for the decoder is malformed input too.
        raise FreecartError(f"map is not valid JSON: {exc}") from exc
    shape = {"source_letters": dom.letters, "target_letters": cod.letters}
    try:
        g = graph_from_json_dict({**shape, "map": positions})
    except ValueError as exc:
        raise FreecartError(str(exc)) from exc
    term = synth_from_graph(dom, cod, g, mode)
    print(print_arrow(term))
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
