"""tools/loc.py on a fixture tree whose line counts are known."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kinds, line by line: docstring, blank (within the docstring),
# docstring x2, blank, code (an import that fails if the module is
# run), comment, code (a comment after it), blank, code, docstring x2,
# code x4 (a string that is no docstring, its empty line included),
# blank, code, docstring, comment.
FIXTURE = '''"""A module.

It says what it does.
"""

import no_such_module_anywhere
# A comment of its own.
x = 1  # a comment after code

def f():
    """What f does,
    in two lines."""
    return """not a
docstring

"""

class C:
    """One line."""
    # The end.
'''


def test_loc_counts_each_kind_of_line(tmp_path):
    src = tmp_path / "src"
    (src / "pkg" / "sub").mkdir(parents=True)
    (src / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (src / "pkg" / "sub" / "b.py").write_text("\n# only\ny = 2\n", encoding="utf-8")
    (src / "pkg" / "notes.txt").write_text("not a module\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loc.py"), str(src)], capture_output=True, text=True, check=True
    )
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows == [
        ["module", "code", "docstring", "comment", "blank", "all"],
        ["pkg/a.py", "8", "6", "2", "4", "20"],
        ["pkg/sub/b.py", "1", "0", "1", "1", "3"],
        ["total", "9", "6", "3", "5", "23"],
    ]


def test_loc_wants_one_tree():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py")], capture_output=True, text=True)
    assert done.returncode == 2 and "loc.py SRC" in done.stderr
