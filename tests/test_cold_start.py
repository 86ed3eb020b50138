"""Smoke test of tools/cold_start.py at one run per command; no timing is checked."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r" *\d+\.\d ms  (.+)\Z")


def test_cold_start_prints_one_median_per_command():
    done = subprocess.run(
        [sys.executable, "tools/cold_start.py", "src", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    names = [LINE.match(line)[1] for line in done.stdout.splitlines()]
    assert names == [
        "python -c pass",
        "import freecart",
        "check (median pair)",
        "equal --method graph (median pair)",
        "check (tail pair)",
        "equal --method graph (tail pair)",
    ]
