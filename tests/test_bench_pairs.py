"""tools/bench_pairs.py's summary, on canned result lines: no run is started."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import environment, failure_lines, failures, pair_line, summarize, summary_lines  # noqa: E402

BENCH = {
    "workloads": [{"name": "decide"}],
    "end_to_end": [
        {"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    ],
}


def _line(throughput, p50, failed=4, correct=True):
    """A result line as bench/run.py prints it last."""
    return json.dumps({
        "correct": correct,
        "attempted": 1036,
        "failed": failed,
        "metrics": {
            "throughput_ops_s": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    })


# (parent, change) result lines of four pairs; the change's p50 is worse
# than the bound in the median, and one throughput pair is a tie.
LINES = [
    (_line(100, 1.0), _line(110, 1.3)),
    (_line(200, 1.0), _line(200, 1.3)),
    (_line(300, 1.0), _line(290, 1.3)),
    (_line(400, 1.0), _line(420, 1.2)),
]
PAIRS = [
    {"seed": seed, "workload": "decide", "first": "parent", "parent": json.loads(old), "change": json.loads(new)}
    for seed, (old, new) in enumerate(LINES)
]


def test_summary_counts_wins_and_checks_the_bound_on_the_median():
    summary = summarize(BENCH, PAIRS)["decide"]
    throughput, p50 = summary["throughput_ops_s"], summary["latency_p50_ms"]
    assert (throughput["wins"], throughput["pairs"]) == (2, 4)
    assert throughput["parent"]["median"] == 250
    assert throughput["change"]["median"] == 245
    assert throughput["within_bound"]
    assert not throughput["resolved"]  # quartiles 125-375 around 250, and no clean sweep
    assert p50["wins"] == 0
    assert (p50["parent"]["median"], p50["change"]["median"]) == (1.0, 1.3)
    assert p50["change"]["q1"] <= p50["change"]["median"] <= p50["change"]["q3"]
    assert not p50["within_bound"]
    assert p50["resolved"]  # the parent's runs do not spread at all


def test_runs_that_spread_are_resolved_only_by_a_clean_sweep():
    def pairs(new):
        return [
            {"seed": seed, "workload": "decide", "first": "parent", "parent": json.loads(_line(old, 1.0)),
             "change": json.loads(_line(value, 1.0))}
            for seed, (old, value) in enumerate(zip([100, 200, 300, 400], new))
        ]

    assert summarize(BENCH, pairs([401, 402, 403, 404]))["decide"]["throughput_ops_s"]["resolved"]
    assert not summarize(BENCH, pairs([401, 402, 403, 400]))["decide"]["throughput_ops_s"]["resolved"]


def test_one_pair_is_its_own_quartiles():
    summary = summarize(BENCH, PAIRS[:1])["decide"]["throughput_ops_s"]
    assert summary["change"] == {"median": 110, "q1": 110, "q3": 110}
    assert summary["wins"] == 1


def test_printed_lines_name_every_pair_and_metric():
    line = pair_line(PAIRS[0])
    assert line.startswith("seed 0 decide (parent first): ")
    assert "throughput_ops_s 100 -> 110" in line and "failed 4/1036 -> 4/1036" in line
    lines = summary_lines(summarize(BENCH, PAIRS))
    assert [line.split(" ")[1] for line in lines] == ["throughput_ops_s", "latency_p50_ms"]
    assert lines[0].endswith("within bound 0.25: yes, resolved: NO")
    assert lines[1].endswith("within bound 0.25: NO, resolved: yes")


def _failing_pairs(changes):
    """Pairs whose parent runs fail 4 of 1036 and whose change runs are `changes`."""
    return [
        {"seed": seed, "workload": "decide", "first": "parent", "parent": json.loads(_line(100, 1.0)),
         "change": json.loads(_line(100, 1.0, *change))}
        for seed, change in enumerate(changes)
    ]


def test_equal_failed_shares_are_not_flagged():
    found = failures(BENCH, PAIRS)["decide"]
    assert found["parent"] == found["change"] == {
        "failed": 16, "attempted": 4144, "share": 16 / 4144, "incorrect_seeds": [],
    }
    assert not found["larger"]
    assert failure_lines(failures(BENCH, PAIRS)) == [
        "decide failed share: parent 0.003861 (16/4144), change 0.003861 (16/4144), larger: no, "
        "runs not correct: parent none, change none"
    ]


def test_a_larger_failed_share_and_an_incorrect_run_are_flagged():
    found = failures(BENCH, _failing_pairs([(4, True), (5, True), (4, False), (4, True)]))
    assert found["decide"]["change"]["failed"] == 17
    assert found["decide"]["change"]["incorrect_seeds"] == [2]
    assert found["decide"]["larger"]
    (line,) = failure_lines(found)
    assert "larger: YES" in line and line.endswith("parent none, change [2]")


def test_a_smaller_failed_share_is_not_flagged():
    found = failures(BENCH, _failing_pairs([(0, True), (4, True)]))["decide"]
    assert (found["change"]["failed"], found["parent"]["failed"]) == (4, 8)
    assert not found["larger"]


def test_the_environment_names_python_cpus_and_platform():
    env = environment()
    assert set(env) == {"python", "cpu_count", "platform"}
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert json.loads(json.dumps(env)) == env
