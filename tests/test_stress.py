"""Smoke test of tools/stress.py at small sizes, and of how it runs one cell."""

import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stress():
    spec = importlib.util.spec_from_file_location("stress", ROOT / "tools" / "stress.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stress_answers_every_cell_at_small_sizes():
    done = subprocess.run(
        [sys.executable, "tools/stress.py", "src", "1", "20"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    cells = json.loads(lines[-1])["cells"]
    assert len(lines) == len(cells) + 1
    assert [(c["family"], c["size"], c["command"]) for c in cells] == [
        (family, n, command)
        for family in ("id-nested", "id-chain", "pairing", "parens")
        for n in (1, 20)
        for command in ("normalize --trace", "equal", "check", "graph", "equal --method graph", "normalize")
    ]
    for c in cells:
        assert (c["exit"], c["stderr"]) == (0, "")
        assert c["peak_rss_mb"] > 0 and c["stdout_bytes"] > 0


def test_a_cell_is_capped_in_the_child_only_and_killed_on_timeout(tmp_path, monkeypatch):
    stress = _stress()
    limit = resource.getrlimit(resource.RLIMIT_AS)
    show = "import resource; print(resource.getrlimit(resource.RLIMIT_AS))"
    cell = stress.run_cell([sys.executable, "-c", show], tmp_path, dict(os.environ))
    cap = stress.CAP_MB * 2**20
    assert cell["exit"] == 0
    assert (tmp_path / "stdout").read_text() == f"({cap}, {cap})\n"
    assert resource.getrlimit(resource.RLIMIT_AS) == limit
    monkeypatch.setattr(stress, "WALL_S", 0.5)
    cell = stress.run_cell([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, dict(os.environ))
    assert cell["exit"] == "timeout"
    assert cell["wall_s"] < 10


def test_growth_is_fitted_on_answered_series_of_three_sizes_or_more():
    stress = _stress()
    sizes = [10, 20, 40, 80]
    assert abs(stress.growth_exponent(sizes, [0.3 * n**2 for n in sizes]) - 2) < 1e-9
    assert abs(stress.growth_exponent([100, 300, 900], [5.0, 5.0, 5.0])) < 1e-9

    def cell(family, command, size, wall, exit=0):
        return {"family": family, "command": command, "size": size, "wall_s": wall, "exit": exit}

    cells = [
        cell("id-chain", "equal", 100, 0.1),
        cell("id-chain", "equal", 200, 0.2, exit=1),
        cell("id-chain", "equal", 400, 0.4),
        cell("id-chain", "equal", 800, 60.0, exit="timeout"),
        cell("id-chain", "check", 100, 0.1),
        cell("id-chain", "check", 200, 0.4),
        cell("id-chain", "check", 400, 60.0, exit="timeout"),
        cell("pairing", "graph", 10, 0.01),
        cell("pairing", "graph", 10, 0.02),
        cell("pairing", "graph", 20, 0.04, exit=3),
    ]
    (fit,) = stress.growth(cells)
    assert (fit["family"], fit["command"], fit["sizes"]) == ("id-chain", "equal", [100, 200, 400])
    assert fit["exponent"] == 1.0
