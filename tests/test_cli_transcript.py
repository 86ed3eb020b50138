"""Smoke test of tools/cli_transcript.py on seed 1."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHA256 = re.compile(r"[0-9a-f]{64}\Z")


def test_cli_transcript_prints_one_line_per_command():
    done = subprocess.run(
        [sys.executable, "tools/cli_transcript.py", "src", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    commands = [json.loads(line.split("\t")[0]) for line in lines]
    assert sum("synth" in argv for argv in commands) == 2 * 6000
    malformed = [
        (argv, line.split("\t")[1]) for line, argv in zip(lines, commands) if "-malformed-" in argv[-1]
    ]
    assert len(malformed) == 2 * 1000
    assert all(argv[2] == "check" for argv, _ in malformed)
    # Most malformed terms are parse errors, whose diagnostics go to stderr.
    assert sum(code == "2" for _, code in malformed) > 1000
    assert {argv[2] for argv in commands} == {
        "check", "graph", "equal", "normalize", "collapse", "synth"
    }
    assert {argv[4] for argv in commands if argv[2] == "equal"} == {"graph", "both"}
    assert any(argv[2:4] == ["normalize", "--trace"] for argv in commands)
    assert {argv[1] for argv in commands} == {"cartesian", "binary-products"}
    for line in lines:
        _, code, out, err = line.split("\t")
        assert code in {"0", "1", "2", "3"}, line
        assert SHA256.match(out) and SHA256.match(err), line
    # The term files went to a temporary directory, not here or under bench/.
    assert not list(ROOT.glob("s1-*.term")) and not list(ROOT.glob("bench/**/s1-*.term"))
