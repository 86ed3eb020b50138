"""Every name that a module of the package imports is used in that module,
and every private name that a module defines is used in the package.

`__init__.py` is left out of the first check: it imports names only to
export them.
"""

import ast
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


def _private_names(statement: ast.stmt) -> list[str]:
    """The private names (`_x`, not dunders) that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Private module-level names that no other top-level statement reads.

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
        for name in _private_names(s)
        if not any(name in names for j, names in enumerate(read) if j != i)
    ]


def test_unreferenced_private_names_are_found():
    source = (
        "def _dead(n):\n    return _dead(n - 1)\n"
        "_USED = 1\n_UNUSED: int = 2\n"
        "def f():\n    return _USED + _helper()\n"
    )
    other = "def _helper():\n    return 0\n"
    assert unreferenced_private_names([source, other]) == ["_dead", "_UNUSED"]


def test_package_uses_every_private_name():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_names(sources) == []
