"""Checks of the program's outputs against the benchmark's own oracle.

Each check takes a query, the exit code and the standard output of one
`run_cli` call, and raises `CheckFailed` unless the answer is right by
construction and in the Set model.  None of them compares with a stored
copy of an earlier output.  `program(mode, text)` normalizes a term with
the program under test, to see that normal forms stay put.
"""

from __future__ import annotations

import json
import re

from oracle import (
    BINARY,
    OracleError,
    arrow_type,
    comp,
    denotation,
    evaluate,
    is_normal,
    parse_arrow,
    subst_object,
)

REDEX_KINDS = (
    "identity-left",
    "identity-right",
    "pairing-beta1",
    "pairing-beta2",
    "distr",
    "atomize-product",
    "atomize-terminal",
)

_STEP = re.compile(
    r"step (\d+): ([a-z0-9-]+) at \[[0-9, ]*\] degree "
    r"\((\d+),(\d+),(\d+)\) -> \((\d+),(\d+),(\d+)\)\Z"
)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _parse(text: str, mode: str, what: str):
    try:
        t = parse_arrow(text)
        arrow_type(t, mode)
    except OracleError as exc:
        raise CheckFailed(f"{what} is not a well-typed arrow: {exc}") from exc
    return t


def check_decide(query, code: int, out: str, program=None) -> None:
    lhs, rhs = (_parse(t, query.mode, "input") for t in query.texts)
    model = denotation(lhs, query.mode) == denotation(rhs, query.mode)
    _require(model == query.expect, "the Set model contradicts the construction")
    want = ("equal\n", 0) if query.expect else ("not equal\n", 1)
    _require((out, code) == want, f"verdict {out.strip()!r} (exit {code})")


def _check_normal_form(query, result_text: str, program) -> None:
    """The result is a normal form of the input: type, denotation, stability."""
    source = _parse(query.texts[0], query.mode, "input")
    result = _parse(result_text, query.mode, "normal form")
    _require(
        denotation(result, query.mode) == denotation(source, query.mode),
        "normal form differs from the input in type or denotation",
    )
    _require(is_normal(result, query.mode), f"not a normal form: {result_text}")
    code, again = program(query.mode, result_text)
    _require(
        code == 0 and again == result_text + "\n",
        "the normal form changes when normalized again",
    )


def check_normalize(query, code: int, out: str, program) -> None:
    _require(code == 0, f"exit {code}")
    lines = out.splitlines()
    _require(len(lines) == 1, f"{len(lines)} output lines")
    _check_normal_form(query, lines[0], program)


def check_trace(query, code: int, out: str, program) -> None:
    _require(code == 0, f"exit {code}")
    lines = out.splitlines()
    _require(len(lines) >= 1, "no output")
    previous = None
    for number, line in enumerate(lines[:-1], start=1):
        m = _STEP.match(line)
        _require(m is not None, f"unreadable trace line {line!r}")
        _require(int(m.group(1)) == number, f"step {m.group(1)} out of order")
        _require(m.group(2) in REDEX_KINDS, f"unknown step kind {m.group(2)}")
        before = tuple(int(m.group(k)) for k in (3, 4, 5))
        after = tuple(int(m.group(k)) for k in (6, 7, 8))
        _require(after < before, f"degree does not decrease at step {number}")
        _require(
            previous is None or before == previous,
            f"degree jumps between steps {number - 1} and {number}",
        )
        previous = after
    _check_normal_form(query, lines[-1], program)


def check_collapse(query, code: int, out: str, program=None) -> None:
    _require(code == 0, f"exit {code}")
    try:
        w = json.loads(out)
        x = w["letter"]
        texts = {k: w[k] for k in ("f_subst", "g_subst", "h", "j")}
        normals = (w["lhs_normal"], w["rhs_normal"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable witness: {exc}") from exc
    mode = query.mode
    f, g = (_parse(t, mode, "input") for t in query.texts)
    terms = {k: _parse(v, mode, k) for k, v in texts.items()}
    (dom, cod), _ = denotation(f, mode)
    sub_type = (subst_object(dom, x), subst_object(cod, x))
    for name, original in (("f_subst", f), ("g_subst", g)):
        _require(
            denotation(terms[name], mode)
            == (sub_type, denotation(original, mode)[1]),
            f"{name} is not the input with every letter replaced by {x}",
        )
    _require(arrow_type(terms["h"], mode) == ((x, x), sub_type[0]), "h has the wrong type")
    _require(arrow_type(terms["j"], mode) == (sub_type[1], x), "j has the wrong type")
    for name, expected in (("f_subst", 1), ("g_subst", 2)):
        composite = comp(terms["h"], terms[name], terms["j"])
        _require(
            evaluate(composite, (1, 2)) == expected,
            f"h.{name[0]}.j is not projection {expected}",
        )
    _require(
        normals == (f"p1{{{x},{x}}}", f"p2{{{x},{x}}}"),
        f"printed normal forms {normals}",
    )
    _require(
        w.get("lhs_graph") == {"map": [1], "source_letters": 2, "target_letters": 1}
        and w.get("rhs_graph") == {"map": [2], "source_letters": 2, "target_letters": 1},
        "composite graphs are not the two projections",
    )
    if mode == BINARY:
        for k, v in texts.items():
            _require(
                "T" not in v and "bang" not in v,
                f"binary-products witness mentions T or bang in {k}",
            )


CHECKS = {
    "decide": check_decide,
    "normalize": check_normalize,
    "trace": check_trace,
    "collapse": check_collapse,
}
