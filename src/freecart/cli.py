"""Command line interface.

Exit codes:
  0  success, and true verdicts;
  1  false verdicts (`equal` on unequal arrows, `collapse` on equal ones);
  2  usage, parse and type errors, and every other error of this library;
  3  an unexpected internal failure, such as a RecursionError on deeply
     nested input, reported as one line on stderr.

`normalize` reads the normal form back from the term's graph; with
`--trace` it rewrites step by step instead, printing each step.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and then reused; it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="freecart",
        description="Typecheck, normalize and compare arrows of the free cartesian category.",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=Mode.CARTESIAN.value,
        help="ambient theory (default: cartesian)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a term and print its type")
    p.add_argument("term_file")

    p = sub.add_parser("graph", help="print the graph of a term as JSON")
    p.add_argument("term_file")

    p = sub.add_parser("normalize", help="reduce a term to normal form")
    p.add_argument("term_file")
    p.add_argument("--trace", action="store_true", help="print one line per step")

    p = sub.add_parser("equal", help="decide whether two terms are equal")
    p.add_argument("lhs_file")
    p.add_argument("rhs_file")
    p.add_argument(
        "--method", choices=["graph", "normalize", "both"], default="both"
    )

    p = sub.add_parser("collapse", help="build the collapse witness for a non-equal pair")
    p.add_argument("lhs_file")
    p.add_argument("rhs_file")

    p = sub.add_parser("synth", help="build the normal form with a given graph")
    p.add_argument("dom", help="domain object, e.g. 'p*q'")
    p.add_argument("cod", help="codomain object, e.g. 'q'")
    p.add_argument("map", help="JSON list of 1-based source positions, e.g. '[2]'")

    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
