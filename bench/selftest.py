"""Quick self-test of the benchmark; it does not gate on timings.

    python3 bench/selftest.py

Run from the root of a checkout.  It checks that the Set model keeps the
defining equations, that a tiny corpus of each workload prints every
metric named in BENCHMARK.json with its unit and with the attempted and
failed counts, that the deep-nesting queries are counted as failed, and
that the output checks catch deliberately wrong answers.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import CheckFailed, check_collapse, check_decide, check_trace  # noqa: E402
from gen import random_arrow_from, random_object  # noqa: E402
from oracle import (  # noqa: E402
    BINARY,
    CARTESIAN,
    arrow_type,
    comp,
    denotation,
    dup,
    pair,
    print_arrow,
    swap,
)
from workloads import WORKLOADS, Query, build  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def self_check(rng, rounds: int = 300) -> int:
    """Test the evaluator on random instances of the defining equations.

    beta1, beta2, distribution, eta and terminal uniqueness must hold in
    the Set model; returns the number of instances checked.
    """
    checked = 0
    for _ in range(rounds):
        dom = random_object(rng, 2, True)
        f = random_arrow_from(rng, dom, 2, CARTESIAN)
        g = random_arrow_from(rng, dom, 2, CARTESIAN)
        a, b = arrow_type(f)[1], arrow_type(g)[1]
        h = random_arrow_from(rng, random_object(rng, 2, True), 2, CARTESIAN)
        f2 = random_arrow_from(rng, arrow_type(h)[1], 2, CARTESIAN)
        g2 = random_arrow_from(rng, arrow_type(h)[1], 2, CARTESIAN)
        x, y = random_object(rng, 2, True), random_object(rng, 2, True)
        k = comp(random_arrow_from(rng, dom, 2, CARTESIAN))
        k = comp(k, ("bang", arrow_type(k)[1]))
        equations = [
            (comp(pair(f, g), ("p1", a, b)), f),
            (comp(pair(f, g), ("p2", a, b)), g),
            (comp(h, pair(f2, g2)), pair(comp(h, f2), comp(h, g2))),
            (pair(("p1", x, y), ("p2", x, y)), ("id", (x, y))),
            (k, ("bang", dom)),
        ]
        for lhs, rhs in equations:
            if denotation(lhs) != denotation(rhs):
                raise AssertionError(
                    f"Set model breaks {print_arrow(lhs)} = {print_arrow(rhs)}"
                )
            checked += 1
    # The model must also keep apart what the theory keeps apart.
    pp = ("p", "p")
    for lhs, rhs, equal in [
        (("p1", "p", "p"), ("p2", "p", "p"), False),
        (swap("p", "p"), ("id", pp), False),
        (comp(swap("p", "p"), swap("p", "p")), ("id", pp), True),
        (comp(("p1", "p", "p"), dup("p")), ("id", pp), False),
    ]:
        if (denotation(lhs) == denotation(rhs)) != equal:
            raise AssertionError(
                f"Set model misjudges {print_arrow(lhs)} vs {print_arrow(rhs)}"
            )
        checked += 1
    return checked


def tiny(workload: str) -> list[Query]:
    """A few queries of every kind in the corpus, deep ones included."""
    queries = build(workload, 7)
    picked, seen = [], {}
    for q in queries:
        key = (q.kind, q.mode, q.deep)
        if seen.get(key, 0) < 3:
            seen[key] = seen.get(key, 0) + 1
            picked.append(q)
    return picked


def expect_caught(what: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed:
        print(f"ok   a wrong answer is caught: {what}")
        return
    raise AssertionError(f"a wrong answer went through: {what}")


def check_report(workload: str, tally, metrics, section: str) -> None:
    for spec in SPEC[section]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"], (spec["name"], unit, spec["unit"])
        assert isinstance(value, (int, float)), spec["name"]
    assert set(metrics) == {s["name"] for s in SPEC[section]}, set(metrics) ^ {
        s["name"] for s in SPEC[section]}
    assert not tally.wrong, tally.wrong
    print(f"ok   {workload} --trace {int(section == 'per_layer')}: "
          f"{len(metrics)} metrics, attempted {tally.attempted}, failed {tally.failed}")


def main() -> int:
    print(f"ok   Set model: {self_check(random.Random(0))} equation instances hold")
    work = HERE / "_corpus" / "selftest"
    try:
        work.mkdir(parents=True, exist_ok=True)
        program = run.Program(run.import_freecart(), work)
        for workload in WORKLOADS:
            queries = tiny(workload)
            inputs = run.write_corpus(queries, work)
            tally, metrics = run.end_to_end(program, queries, 0.0, 0.0)
            check_report(workload, tally, metrics, "end_to_end")
            deep = sum(q.deep for q in queries)
            assert tally.failed == deep * (1 + run.MIN_PASSES), (tally.failed, deep)
            if deep:
                print(f"ok   {workload}: the {deep} deep-nesting queries fail in every pass")
            tally, metrics = run.per_layer(program, queries, inputs, 0.0, work / "trace.tsv")
            check_report(workload, tally, metrics, "per_layer")

        # A flipped verdict, seen by the check and by a whole pass.
        queries = [q for q in tiny("decide") if not q.deep][:4]
        run.write_corpus(queries, work)
        q = queries[0]
        code, out, _ = program.call(q.argv)
        expect_caught("flipped verdict", check_decide, q, 1 - code,
                      "not equal\n" if code == 0 else "equal\n")
        tally = run.Tally(len(queries))
        run.run_pass(program, queries, tally, None,
                     run_cli=lambda argv: 1 - program.run_cli(argv))
        assert len(tally.wrong) == len(queries), tally.wrong
        print("ok   a pass with every verdict flipped reports every query wrong")

        # A binary-products witness whose j uses bang and T.
        q = Query("collapse", BINARY, ("p1{p,p}", "p2{p,p}"))
        run.write_corpus([q], work)
        code, out, _ = program.call(q.argv)
        check_collapse(q, code, out)
        witness = json.loads(out)
        witness["j"] = "p1{p,T} . <id{p}, bang{p}>"
        expect_caught("binary-products witness with bang", check_collapse, q, 0,
                      json.dumps(witness))

        # A trace whose degree does not decrease, and a result that is not normal.
        q = Query("trace", BINARY, ("id{p*q}",))
        run.write_corpus([q], work)
        code, out, _ = program.call(q.argv)
        check_trace(q, code, out, program.normalize_text)
        lines = out.splitlines()
        expect_caught("degree that does not decrease", check_trace, q, 0,
                      "\n".join([lines[1], lines[0], *lines[2:]]) + "\n",
                      program.normalize_text)
        expect_caught("result that is not a normal form", check_trace, q, 0,
                      "id{p*q}\n", program.normalize_text)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
