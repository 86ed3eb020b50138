"""Every name that a module of the package imports is used in that module,
and every name that a module defines is used in the package.

`__init__.py` is left out of the first check: it imports names only to
export them.  Its imports do not count as uses either, so a public name
is used only where the package itself reads it, or it is an entry point
that callers outside the package use.
"""

import ast
import tomllib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freecart"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport json\nfrom .terms import Letter, Mode\nprint(json, Mode)\n"
    assert unused_imports(source) == ["os", "Letter"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names, dunders left out, that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


def unreferenced_names(sources: list[str]) -> list[str]:
    """Module-level names that no other top-level statement reads.

    A reference from inside the definition itself, such as a recursive
    call, does not count.
    """
    statements = [s for source in sources for s in ast.parse(source).body]
    read = [
        {n.id for n in ast.walk(s) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        | {n.attr for n in ast.walk(s) if isinstance(n, ast.Attribute)}
        for s in statements
    ]
    return [
        name
        for i, s in enumerate(statements)
        for name in _defined_names(s)
        if not any(name in names for j, names in enumerate(read) if j != i)
    ]


def _private(names: list[str]) -> list[str]:
    return [n for n in names if n.startswith("_")]


def _public(names: list[str]) -> list[str]:
    return [n for n in names if not n.startswith("_")]


SOURCES = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]

# The public names that nothing in the package reads, and why each stays.
ENTRY_POINTS = {
    "main": "the `freecart` console script of pyproject.toml",
    "iter_subterms": "the tests walk every subterm with its path",
    "subterm_at": "the tests read the subterm at a path that a redex names",
    "replace_subterm": "the tests rewrite at a path, against step",
    "is_normal_form": "the tests' specification of a normal form, against find_redex",
    "find_redex": "the checked search that the tests replay normalize's strategy with",
    "normal_form": "read-back from a term; the command line reads back from parse_graph",
}


def test_unreferenced_private_names_are_found():
    source = (
        "def _dead(n):\n    return _dead(n - 1)\n"
        "_USED = 1\n_UNUSED: int = 2\n"
        "def f():\n    return _USED + _helper()\n"
    )
    other = "def _helper():\n    return 0\n"
    assert _private(unreferenced_names([source, other])) == ["_dead", "_UNUSED"]


def test_package_uses_every_private_name():
    assert _private(unreferenced_names(SOURCES)) == []


def test_unreferenced_public_names_are_found():
    source = (
        "from .terms import Letter\n"
        "class Shape:\n    pass\n"
        "def size(s: Shape):\n    return size(s)\n"
        "TABLE = {'letter': Letter}\n"
        "def main():\n    return TABLE\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    assert _public(unreferenced_names([source])) == ["size"]


def test_package_reads_every_public_name():
    unread = _public(unreferenced_names(SOURCES))
    assert [n for n in unread if n not in ENTRY_POINTS] == []
    defined = {n for source in SOURCES for s in ast.parse(source).body for n in _defined_names(s)}
    assert set(ENTRY_POINTS) <= defined


def test_the_python_floor_is_the_one_the_scanner_needs():
    # syntax._GROUPED uses possessive quantifiers ("*+", "?+"), which re
    # compiles only from Python 3.11 on: below that, `import freecart`
    # raises re.error.
    pyproject = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["requires-python"] == ">=3.11"
    assert "*+" in (PACKAGE / "syntax.py").read_text(encoding="utf-8")
