"""Wall time of one-shot `freecart` commands, each in a fresh process.

    python3 tools/cold_start.py SRC [RUNS]

Each command runs RUNS times (default 15) as a subprocess with the
directory SRC on PYTHONPATH, the commands taking turns round by round,
and one line per command gives the median wall time in ms and the
command.  The commands are `python -c pass`, `import freecart`, and
`check` and `equal --method graph` (through `python -m freecart.cli`)
on two pairs of the `decide` corpus of seed SEED (bench/workloads.py):
the pair of median length and the longest pair, which is one of the
corpus's tail.  Their term files are written to a temporary directory,
the subprocesses' working directory.

A process that starts afresh reads every group text for the first time,
while the in-process benchmark (bench/run.py) reads its corpus again and
again; this measures the path that a user of the command line takes.
The script itself imports nothing from SRC.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import build  # noqa: E402

SEED = 1
RUNS = 15


def pairs() -> dict[str, tuple[str, str, str]]:
    """(mode, text, text) of the decide pairs of median and of largest length."""
    queries = sorted((q for q in build("decide", SEED) if not q.deep), key=lambda q: sum(map(len, q.texts)))
    return {
        name: (q.mode, *q.texts)
        for name, q in (("median", queries[len(queries) // 2]), ("tail", queries[-1]))
    }


def commands(work: Path) -> dict[str, tuple[list[str], set[int]]]:
    """Each command by name: its argv and the exit codes it may end with."""
    cli = [sys.executable, "-m", "freecart.cli"]
    out = {
        "python -c pass": ([sys.executable, "-c", "pass"], {0}),
        "import freecart": ([sys.executable, "-c", "import freecart"], {0}),
    }
    for name, (mode, *texts) in pairs().items():
        files = []
        for k, text in enumerate(texts):
            path = work / f"{name}-{k}.term"
            path.write_text(text + "\n", encoding="utf-8")
            files.append(str(path))
        out[f"check ({name} pair)"] = ([*cli, "--mode", mode, "check", files[0]], {0})
        out[f"equal --method graph ({name} pair)"] = (
            [*cli, "--mode", mode, "equal", "--method", "graph", *files],
            {0, 1},
        )
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    runs = int(argv[1]) if len(argv) == 2 else RUNS
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as work:
        todo = commands(Path(work))
        times: dict[str, list[float]] = {name: [] for name in todo}
        for _ in range(runs):
            for name, (command, codes) in todo.items():
                start = time.perf_counter()
                done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
                times[name].append(time.perf_counter() - start)
                if done.returncode not in codes:
                    print(f"error: {name} exited {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
                    return 1
    for name, seconds in times.items():
        print(f"{statistics.median(seconds) * 1e3:8.1f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
