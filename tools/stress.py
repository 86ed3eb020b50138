"""Deep and long inputs, one `freecart` command per fresh process.

    python3 tools/stress.py SRC [--family NAME]... [--command NAME]... SIZE [SIZE ...]

Each cell is a family, a size and a command, run as
`python -m freecart.cli` with the directory SRC on PYTHONPATH, one cell
at a time.  The families (all by default) are
  id-nested  id{A}, with A = ((p*q)*q)...*q holding SIZE products;
  id-chain   id{p*q} . id{p*q} . ... . id{p*q}, SIZE factors;
  pairing    <<...<id{p}, id{p}>, ...>, id{p}>, SIZE pairings nested
             on the left;
  parens     ((...(id{p})...)), id{p} inside SIZE parentheses.
The commands (all by default) are `normalize --trace FILE`, the default
`equal FILE FILE2`, `check FILE`, `graph FILE`, `equal --method graph
FILE FILE2` and `normalize FILE`, the two files holding the same text.  Exit codes 0 and 1
are answers; what else a cell ends with is recorded, not raised.

A cell gets WALL_S seconds of wall time and, set in the child only, an
address space of CAP_MB (RLIMIT_AS); on timeout it is killed and
reaped.  Per cell one line gives the exit code ("timeout" when killed),
the wall time, the child's own peak RSS (from os.wait4, not the running
maximum over all children), and the first line of stderr; stdout is
kept as its length and SHA-256, and the cell records `input_bytes`, the
bytes of the term files that its command reads.  The last line is one
JSON object with every cell and, for each family and command answered
(exit 0 or 1) at 3 sizes or more, the growth exponent of its wall time:
the least-squares slope of log wall time on log size, and
`bytes_exponent`, the slope on log(input_bytes + stdout_bytes).  A
command that costs about what it reads and writes has a bytes exponent
near 1, whatever the size of its output.  A cell killed at its limit
says only that its time exceeds the limit, so it is left out of the fit.
The script imports nothing from SRC.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

WALL_S = 60
CAP_MB = 2048


def id_nested(n: int) -> str:
    # The outermost product is written without parentheses.
    obj = "(" * (n - 1) + "p" + "*q)" * (n - 1) + "*q" if n else "p"
    return f"id{{{obj}}}"


def id_chain(n: int) -> str:
    return " . ".join(["id{p*q}"] * n)


def pairing(n: int) -> str:
    return "<" * n + "id{p}" + ", id{p}>" * n


def parens(n: int) -> str:
    return "(" * n + "id{p}" + ")" * n


FAMILIES = {"id-nested": id_nested, "id-chain": id_chain, "pairing": pairing, "parens": parens}
# The operands name the two term files, in the cells' working directory.
COMMANDS = {
    "normalize --trace": ["normalize", "--trace", "a.term"],
    "equal": ["equal", "a.term", "b.term"],
    "check": ["check", "a.term"],
    "graph": ["graph", "a.term"],
    "equal --method graph": ["equal", "--method", "graph", "a.term", "b.term"],
    "normalize": ["normalize", "a.term"],
}


def _cap_address_space() -> None:
    cap = CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_cell(argv: list[str], work: Path, env: dict) -> dict:
    """Run one command to its end or its time limit: what it left and what it cost."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, cwd=work, env=env, stdout=out, stderr=err, preexec_fn=_cap_address_space
        )
        # wait4 has no timeout, so it waits in a thread; the rusage is this child's alone.
        waited: list = []
        waiter = threading.Thread(target=lambda: waited.append(os.wait4(child.pid, 0)))
        waiter.start()
        waiter.join(WALL_S)
        timed_out = waiter.is_alive()
        if timed_out:
            child.kill()
            waiter.join()
        wall = time.perf_counter() - start
    _, status, usage = waited[0]
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
    stdout = out_path.read_bytes()
    stderr = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
    return {
        "exit": "timeout" if timed_out else child.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stderr": stderr[0] if stderr else "",
        "stdout_bytes": len(stdout),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
    }


def growth_exponent(sizes: list[int], seconds: list[float]) -> float:
    """The least-squares slope of log(seconds) on log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def growth(cells: list[dict]) -> list[dict]:
    """Growth exponents, on size and on bytes, per family and command answered at 3 sizes or more."""
    series: dict[tuple[str, str], list[dict]] = {}
    for c in cells:
        if c["exit"] in (0, 1):
            series.setdefault((c["family"], c["command"]), []).append(c)
    fits = []
    for (family, command), answered in series.items():
        if len({c["size"] for c in answered}) >= 3:
            seconds = [c["wall_s"] for c in answered]
            moved = [c["input_bytes"] + c["stdout_bytes"] for c in answered]
            fits.append({
                "family": family,
                "command": command,
                "sizes": [c["size"] for c in answered],
                "exponent": round(growth_exponent([c["size"] for c in answered], seconds), 3),
                "bytes": moved,
                "bytes_exponent": round(growth_exponent(moved, seconds), 3),
            })
    return fits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run freecart commands on deep and long inputs.")
    parser.add_argument("src", type=Path)
    parser.add_argument("--family", action="append", choices=list(FAMILIES))
    parser.add_argument("--command", action="append", choices=list(COMMANDS))
    parser.add_argument("sizes", type=int, nargs="+", metavar="SIZE")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for family in args.family or list(FAMILIES):
            for n in args.sizes:
                text = (FAMILIES[family](n) + "\n").encode("utf-8")
                for name in ("a.term", "b.term"):
                    (work / name).write_bytes(text)
                for command in args.command or list(COMMANDS):
                    argv = COMMANDS[command]
                    cli = [sys.executable, "-m", "freecart.cli", *argv]
                    read = len(text) * sum(a.endswith(".term") for a in argv)
                    cell = {"family": family, "size": n, "command": command, "input_bytes": read,
                            **run_cell(cli, work, env)}
                    cells.append(cell)
                    print(
                        f"{family:>9} {n:>6} {command:<20} exit {cell['exit']!s:>7} "
                        f"{cell['wall_s']:8.2f} s {cell['peak_rss_mb']:8.1f} MB  {cell['stderr']}",
                        flush=True,
                    )
    record = {
        "src": str(args.src),
        "wall_limit_s": WALL_S,
        "address_space_cap_mb": CAP_MB,
        "environment": {"python": platform.python_version(), "cpu_count": os.cpu_count(), "platform": platform.platform()},
        "cells": cells,
        "growth": growth(cells),
    }
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
