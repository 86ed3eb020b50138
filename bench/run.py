"""Benchmark of `freecart`: deciding, normalizing and certifying arrows.

    python3 bench/run.py --workload decide|rewrite --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Every query is one in-process `run_cli` call on term files generated
from the seed.  A run makes a checked warm-up pass (see checks.py), then
whole timed passes over its corpus until the timed calls add up to S
seconds, and prints one JSON object as its last line: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of one traced
pass.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CHECKS, CheckFailed  # noqa: E402
from spans import Tracer, growth_exponent, layer_metrics  # noqa: E402
from workloads import CHAIN_LENGTHS, WORKLOADS, build  # noqa: E402
from gen import identity_chain, random_arrow, text  # noqa: E402
from oracle import CARTESIAN, denotation, parse_arrow  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
YARDSTICK_EVERY = 64  # queries between two timings of the yardstick
YARDSTICK_S = 1e-3  # the yardstick's time that end-to-end figures are scaled to


def host_loop_ms() -> float:
    """A fixed pure-Python loop: tells a slow machine from a slow program."""
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i & 7
    return (time.perf_counter() - start) * 1e3


class Yardstick:
    """A fixed block of the benchmark's own work, timed all through a run.

    It parses and evaluates a dozen terms with the oracle, never with the
    program, so a change to the program leaves it alone while it slows
    and speeds up with the machine.  Its median time over the run, over
    YARDSTICK_S, is the run's slowness: end-to-end times are divided by
    it and rates multiplied, which removes most of the machine's drift
    from run to run (see README.md).
    """

    def __init__(self):
        rng = random.Random("yardstick")
        self.texts = [text(random_arrow(rng, CARTESIAN, 4), CARTESIAN) for _ in range(12)]
        self.times: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        for t in self.texts:
            denotation(parse_arrow(t), CARTESIAN)
        self.times.append(time.perf_counter() - start)

    def slowness(self) -> float:
        return statistics.median(self.times) / YARDSTICK_S


def import_freecart():
    """Import the package from this checkout's src/, afresh."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "freecart" or m.startswith("freecart.")]:
        del sys.modules[name]
    package = importlib.import_module("freecart")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"freecart came from {package.__file__}, not {src}")
    return package


class Program:
    """The program under test, called in process with its output captured."""

    def __init__(self, package, work: Path):
        self.package = package
        self.run_cli = package.run_cli
        self.work = work

    def call(self, argv, run_cli=None):
        """(exit code or exception, stdout, seconds) of one run_cli call."""
        run_cli = run_cli or self.run_cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                result = run_cli(argv)
            except Exception as exc:  # a crash is a failed query, recorded
                result = exc
            elapsed = time.perf_counter() - start
        return result, out.getvalue(), elapsed

    def normalize_text(self, mode: str, term: str):
        path = self.work / "renormalize.term"
        path.write_text(term + "\n", encoding="utf-8")
        code, out, _ = self.call(["--mode", mode, "normalize", str(path)])
        return code, out


def write_corpus(queries, work: Path) -> int:
    """Write every term to a file and fill in each query's argv."""
    inputs = 0
    for i, q in enumerate(queries):
        files = []
        for k, term in enumerate(q.texts):
            path = work / f"q{i}_{k}.term"
            path.write_text(term + "\n", encoding="utf-8")
            files.append(str(path))
        q.argv = q.command(files)
        inputs += len(files)
    return inputs


def setup(workload: str, seed: int, work: Path):
    """Import and generate, several times; medians of the timings.

    The corpus files are written once, untimed.  Creating the same
    2072 files took from 55 to 1400 ms, depending on what the disk's
    journal was still doing for earlier runs, so timing the writes
    measured the disk rather than the program or the benchmark.
    """
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_freecart()
        imported = time.perf_counter()
        queries = build(workload, seed)
        totals.append(time.perf_counter() - start)
        imports.append(imported - start)
    work.mkdir(parents=True, exist_ok=True)
    inputs = write_corpus(queries, work)
    return Program(package, work), queries, inputs, statistics.median(totals), statistics.median(imports)


class Tally:
    """Attempted, failed and wrong queries, and every timing of each query."""

    def __init__(self, queries: int):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.times: list[list[float]] = [[] for _ in range(queries)]  # seconds, one per pass
        self.passes: list[float] = []  # seconds, total of each pass
        self.broke = [False] * queries  # failed at least once
        self.timed = 0.0
        self.yardstick: Yardstick | None = None


def run_pass(program: Program, queries, tally: Tally, reference, tracer=None, run_cli=None):
    """One whole pass; outputs are checked, or compared with `reference`."""
    outputs = []
    before = tally.timed
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        if tally.yardstick is not None and i % YARDSTICK_EVERY == 0:
            tally.yardstick.measure()
        result, out, elapsed = program.call(q.argv, run_cli)
        tally.attempted += 1
        tally.timed += elapsed
        tally.times[i].append(elapsed)
        outputs.append((result if isinstance(result, int) else None, out))
        if not isinstance(result, int) or (q.deep and result not in (0, 1)):
            tally.failed += 1
            tally.broke[i] = True
            if not q.deep:
                tally.wrong.append(f"query {i} ({q.kind}) raised {result!r}")
            continue
        if reference is not None:
            if outputs[-1] != reference[i]:
                tally.wrong.append(f"query {i} ({q.kind}) changed its output")
            continue
        try:
            CHECKS[q.kind](q, result, out, program.normalize_text)
        except CheckFailed as exc:
            tally.wrong.append(f"query {i} ({q.kind}): {exc}")
    tally.passes.append(tally.timed - before)
    return outputs


def rank(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(program: Program, queries, setup_s: float, seconds: float):
    """A checked warm-up pass, then whole timed passes until `seconds`."""
    tally = Tally(len(queries))
    reference = run_pass(program, queries, tally, None)
    tally.times = [[] for _ in queries]
    tally.passes.clear()
    tally.timed = 0.0
    tally.yardstick = Yardstick()
    while len(tally.passes) < MIN_PASSES or tally.timed < seconds:
        run_pass(program, queries, tally, reference)
    # Medians over passes: the machine's speed drifts, and the median
    # follows its typical state, which repeats better than its fastest
    # moments do.  A failed query counts as infinitely slow.
    latencies = [math.inf if b else statistics.median(t) for t, b in zip(tally.times, tally.broke)]
    slow = tally.yardstick.slowness()
    metrics = {
        "throughput_ops_s": (tally.broke.count(False) / statistics.median(tally.passes) * slow, "1/s"),
        "latency_p50_ms": (rank(latencies, 0.50) * 1e3 / slow, "ms"),
        "latency_p99_ms": (rank(latencies, 0.99) * 1e3 / slow, "ms"),
        "setup_s": (setup_s / slow, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def chain_seconds(program: Program, n: int) -> float:
    """Least of three timings of `normalize` on an identity chain."""
    path = program.work / f"chain{n}.term"
    path.write_text(text(identity_chain(n, CARTESIAN), CARTESIAN) + "\n", encoding="utf-8")
    times = []
    for _ in range(3):
        code, _, elapsed = program.call(["--mode", CARTESIAN, "normalize", str(path)])
        if code != 0:
            raise RuntimeError(f"identity chain of length {n} exited {code!r}")
        times.append(elapsed)
    return min(times)


def per_layer(program: Program, queries, inputs: int, import_s: float, out: Path):
    """One untraced and one traced pass; the per-layer metrics."""
    loops = [host_loop_ms() for _ in range(3)]
    tally = Tally(len(queries))
    reference = run_pass(program, queries, tally, None)
    untraced = tally.timed
    chains = [chain_seconds(program, n) for n in CHAIN_LENGTHS]

    tracer = Tracer()
    run_cli = tracer.wrap("cli.run_cli", program.run_cli)
    tracer.install(program.package)
    try:
        before = tally.timed
        run_pass(program, queries, tally, reference, tracer, run_cli)
        traced = tally.timed - before
    finally:
        tracer.uninstall()
    loops += [host_loop_ms() for _ in range(3)]
    tracer.write(out)

    metrics = {
        "cli.import_ms": (import_s * 1e3, "ms"),
        **layer_metrics(tracer.spans, queries, inputs),
        "rewrite.chain_growth_exponent": (growth_exponent(CHAIN_LENGTHS, chains), "ratio"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
        "host.loop_ms": (statistics.median(loops), "ms"),
    }
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = HERE / "_corpus" / f"{args.workload}-{os.getpid()}"
    try:
        program, queries, inputs, setup_s, import_s = setup(args.workload, args.seed, work)
        if args.trace:
            out = HERE / "_out" / f"trace-{args.workload}.tsv"
            out.parent.mkdir(exist_ok=True)
            tally, metrics = per_layer(program, queries, inputs, import_s, out)
        else:
            tally, metrics = end_to_end(program, queries, setup_s, args.seconds)
    except ImportError as exc:
        print(f"error: cannot import freecart from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.wrong[:10]:
        print(f"wrong: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10} {name:40} {value:14.6g} {unit}")
    print(f"{args.workload:10} attempted {tally.attempted}, failed {tally.failed}")
    if tally.yardstick is not None:
        print(f"{args.workload:10} times scaled to the yardstick; slowness {tally.yardstick.slowness():.4g}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
