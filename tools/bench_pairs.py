"""Interleaved benchmark runs of two trees, compared pair by pair.

    python3 tools/bench_pairs.py PARENT CHANGE SEED [SEED ...]

PARENT and CHANGE are the roots of two checkouts.  For each seed, each
tree's own `bench/run.py --trace 0` runs once per workload, in that
tree's root, one run at a time; the tree that runs first alternates from
seed to seed, so that a drift of the machine falls on both sides alike.
The workloads, the run length, the end-to-end metrics and their bounds
are read from PARENT's BENCHMARK.json, and each run's result from its
last line of stdout.

One line is printed per seed and workload, with both sides' figures.
Then, per workload and metric: both sides' median and quartiles, the
pairs that the change wins (a tie counts for neither side), whether
the change's median is within the metric's bound of the parent's, and
whether the runs resolve the metric at all: they do if the parent's
quartiles lie within the bound of its median, or if every change run
beats every parent run.  A metric that is not resolved says nothing
either way, whatever its medians read.  The
last line is one JSON object with all of that and the seeds.  The script
imports nothing from either tree and writes nothing of its own to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of `tree`: the JSON object of its last line."""
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def tree_state(tree: Path) -> dict:
    """The commit that `tree` is checked out at, and whether it is dirty."""

    def git(*args: str) -> str | None:
        done = subprocess.run(["git", "--no-optional-locks", *args], cwd=tree, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(tree.resolve()):
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"), "dirty": git("status", "--porcelain") != ""}


def environment() -> dict:
    """What ran both trees: the Python version, the CPU count and the platform."""
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(), "platform": platform.platform()}


def spread(values: list[float]) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(bench: dict, pairs: list[dict]) -> dict:
    """Per workload and end-to-end metric, the parent's and the change's runs compared.

    Each entry of `pairs` holds a `workload` and the two runs' results
    under `parent` and `change`, as bench/run.py prints them.
    """
    summary: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [p for p in pairs if p["workload"] == workload]
        metrics = summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            old = [p["parent"]["metrics"][name]["value"] for p in runs]
            new = [p["change"]["metrics"][name]["value"] for p in runs]
            before, after = spread(old), spread(new)
            metrics[name] = {
                "better": metric["better"],
                "bound": bound,
                "parent": before,
                "change": after,
                "wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
                "pairs": len(runs),
                "within_bound": sign * (after["median"] - before["median"]) >= -bound * before["median"],
                "resolved": before["q3"] - before["q1"] <= bound * before["median"]
                or all(sign * (b - a) > 0 for a in old for b in new),
            }
    return summary


def failures(bench: dict, pairs: list[dict]) -> dict:
    """Per workload and side, the share of failed operations and the runs not `correct`."""
    found: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [p for p in pairs if p["workload"] == workload]
        sides = found[workload] = {}
        for side in ("parent", "change"):
            failed = sum(p[side]["failed"] for p in runs)
            attempted = sum(p[side]["attempted"] for p in runs)
            sides[side] = {
                "failed": failed,
                "attempted": attempted,
                "share": failed / attempted if attempted else 0.0,
                "incorrect_seeds": [p["seed"] for p in runs if not p[side]["correct"]],
            }
        sides["larger"] = sides["change"]["share"] > sides["parent"]["share"]
    return found


def pair_line(pair: dict) -> str:
    """The figures of one pair: each metric, parent -> change."""
    parent, change = pair["parent"], pair["change"]
    figures = [
        f"{name} {value['value']:.4g} -> {change['metrics'][name]['value']:.4g}"
        for name, value in parent["metrics"].items()
    ]
    failed = f"failed {parent['failed']}/{parent['attempted']} -> {change['failed']}/{change['attempted']}"
    correct = f"correct {parent['correct']} -> {change['correct']}"
    return f"seed {pair['seed']} {pair['workload']} ({pair['first']} first): " + ", ".join([*figures, failed, correct])


def summary_lines(summary: dict) -> list[str]:
    lines = []
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            old, new = m["parent"], m["change"]
            lines.append(
                f"{workload} {name} ({m['better']} is better): "
                f"parent {old['median']:.4g} [{old['q1']:.4g}, {old['q3']:.4g}], "
                f"change {new['median']:.4g} [{new['q1']:.4g}, {new['q3']:.4g}], "
                f"change wins {m['wins']}/{m['pairs']}, "
                f"within bound {m['bound']}: {'yes' if m['within_bound'] else 'NO'}, "
                f"resolved: {'yes' if m['resolved'] else 'NO'}"
            )
    return lines


def failure_lines(found: dict) -> list[str]:
    lines = []
    for workload, sides in found.items():
        old, new = sides["parent"], sides["change"]
        lines.append(
            f"{workload} failed share: parent {old['share']:.4g} ({old['failed']}/{old['attempted']}), "
            f"change {new['share']:.4g} ({new['failed']}/{new['attempted']}), "
            f"larger: {'YES' if sides['larger'] else 'no'}, "
            f"runs not correct: parent {old['incorrect_seeds'] or 'none'}, change {new['incorrect_seeds'] or 'none'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    states = {side: tree_state(tree) for side, tree in trees.items()}
    pairs = []
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in bench["workloads"]):
            pair = {"seed": seed, "workload": workload, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, seed, bench["run_seconds"])
            pairs.append(pair)
            print(pair_line(pair), flush=True)
    summary, found = summarize(bench, pairs), failures(bench, pairs)
    print("\n".join(summary_lines(summary) + failure_lines(found)))
    record = {
        "seeds": args.seeds,
        "seconds": bench["run_seconds"],
        "trees": states,
        "environment": environment(),
        "pairs": pairs,
        "summary": summary,
        "failures": found,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
