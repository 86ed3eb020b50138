"""Lines of a Python source tree by kind: code, docstring, comment and blank.

    python3 tools/loc.py SRC

One line is printed per module (every *.py under SRC, by path), with its
code, docstring, comment and blank lines and all of its lines, and a
last line with the totals.  Each line of a module is of one kind, the
first of these that fits:

- code: it holds a token that is no comment and no docstring, a string
  that is no docstring included;
- docstring: it lies within a docstring, the string that opens a
  module, class or function body (found with ast), and holds more than
  space;
- comment: it holds a comment (found with tokenize);
- blank: it holds nothing else, or only space within a docstring.

The modules are read as text; nothing under SRC is imported.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# Tokens that mark no line: structure that the lines around them show.
_LAYOUT = {
    tokenize.ENCODING, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstrings(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The start and end (line, column) of each docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and type(first.value.value) is str:
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def line_kinds(source: str) -> list[str]:
    """The kind of each line of source, one of KINDS."""
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    kinds = ["blank"] * len(lines)
    docstrings = _docstrings(ast.parse(source))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif tok.type == tokenize.STRING and any(lo <= tok.start and tok.end <= hi for lo, hi in docstrings):
            kind = "docstring"
        else:
            kind = "code"
        for row in range(tok.start[0] - 1, tok.end[0]):
            if KINDS.index(kind) < KINDS.index(kinds[row]) and (kind != "docstring" or lines[row].strip()):
                kinds[row] = kind
    return kinds


def count(source: str) -> dict[str, int]:
    """How many lines of source are of each kind, and all of them."""
    kinds = line_kinds(source)
    return {kind: kinds.count(kind) for kind in KINDS} | {"all": len(kinds)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0])
    rows = [(str(path.relative_to(src)), count(path.read_text(encoding="utf-8"))) for path in sorted(src.rglob("*.py"))]
    rows.append(("total", {key: sum(counts[key] for _, counts in rows) for key in (*KINDS, "all")}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{key:>11}" for key in (*KINDS, "all")))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{value:>11}" for value in counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
