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
    record = json.loads(lines[-1])
    cells = record["cells"]
    assert record["startup_s"] > 0
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
        # `equal` reads its text twice, from two files.
        files = 2 if c["command"].startswith("equal") else 1
        text = _stress().FAMILIES[c["family"]](c["size"]) + "\n"
        assert c["input_bytes"] == files * len(text.encode("utf-8"))


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
        return {"family": family, "command": command, "size": size, "wall_s": wall, "exit": exit,
                "input_bytes": 10 * size, "stdout_bytes": 6}

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
    (fit,) = stress.growth(cells, 0)
    assert (fit["family"], fit["command"], fit["sizes"]) == ("id-chain", "equal", [100, 200, 400])
    assert fit["exponent"] == 1.0


def test_growth_is_also_fitted_on_the_bytes_read_and_written():
    stress = _stress()
    sizes = [10, 20, 40, 80]

    def cell(size, out, wall):
        return {"family": "id-nested", "command": "normalize", "size": size, "wall_s": wall, "exit": 0,
                "input_bytes": 4 * size, "stdout_bytes": out}

    # Cubic output, written in time proportional to it: cubic in n, linear in bytes.
    (fit,) = stress.growth([cell(n, n**3, 1e-6 * (4 * n + n**3)) for n in sizes], 0)
    assert fit["bytes"] == [4 * n + n**3 for n in sizes]
    assert fit["bytes_exponent"] == 1.0
    assert 2.9 < fit["exponent"] < 3
    # Six bytes out in quadratic time: quadratic in bytes too, as the input grows.
    (fit,) = stress.growth([cell(n, 6, 1e-6 * n**2) for n in sizes], 0)
    assert fit["exponent"] == 2.0
    assert 1.9 < fit["bytes_exponent"] < 2.2


def test_growth_is_fitted_past_start_up_on_cells_well_above_it():
    stress = _stress()
    startup = 0.07
    sizes = [10, 20, 40, 80, 160]

    def cell(size, work, command="normalize"):
        return {"family": "id-nested", "command": command, "size": size, "wall_s": startup + work, "exit": 0,
                "input_bytes": 4 * size, "stdout_bytes": size**2 - 4 * size}

    # Quadratic work past start-up: the two smallest cells take less than
    # twice start-up and are left out, and so is a series with only two
    # cells above it.
    cells = [cell(n, 1e-4 * n**2) for n in sizes] + [cell(n, 2e-5 * n**2, "check") for n in sizes]
    (fit,) = stress.growth(cells, startup)
    assert fit["sizes"] == [40, 80, 160]
    assert fit["bytes"] == [40**2, 80**2, 160**2]
    assert fit["exponent"] == 2.0
    assert fit["bytes_exponent"] == 1.0
    # Fitted on the whole wall time, start-up flattens the same series.
    (whole,) = stress.growth(cells[:5], 0)
    assert whole["sizes"] == sizes and whole["exponent"] < 1.5
