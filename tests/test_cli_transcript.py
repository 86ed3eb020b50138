"""Smoke test of tools/cli_transcript.py on seed 1."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHA256 = re.compile(r"[0-9a-f]{64}\Z")
EMPTY = hashlib.sha256(b"").hexdigest()

sys.path.insert(0, str(ROOT / "tools"))
from cli_transcript import argv_commands  # noqa: E402


def test_cli_transcript_prints_one_line_per_command():
    done = subprocess.run(
        [sys.executable, "tools/cli_transcript.py", "src", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert (done.returncode, done.stderr) == (0, "")
    variants = [json.dumps(argv) for argv in argv_commands(1)]
    all_lines = done.stdout.splitlines()
    # The corpus, malformed and synth commands: every line but the argv variants'.
    lines = [line for line in all_lines if line.split("\t")[0] not in variants]
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

    # The argv variants close the transcript, one line each.
    assert [line.split("\t")[0] for line in all_lines[-len(variants):]] == variants
    results = {
        tuple(json.loads(argv)): (code, out, err)
        for argv, code, out, err in (line.split("\t") for line in all_lines[-len(variants):])
    }
    for argv, (code, out, err) in results.items():
        if "-h" in argv or "--help" in argv:
            assert (code, err) == ("0", EMPTY) and out != EMPTY, argv
        else:
            assert code in {"0", "1", "2"}, argv
    # Usage errors go to stderr, with exit code 2 ...
    for argv in ([], ["--mode"], ["check"], ["equal", "--method"], ["synth", "p", "p"]):
        assert results[tuple(argv)][:2] == ("2", EMPTY), argv
        assert results[tuple(argv)][2] != EMPTY, argv
    # ... and an abbreviation, --opt=value, a repeated option or an
    # option after the operands is read like its plain form.
    files = ("s1-decide-q0-0.term", "s1-decide-q0-1.term")
    assert results[("--mod", "cartesian", "check", files[0])][0] == "0"
    assert results[("--mode=cartesian", "graph", files[0])][0] == "0"
    assert results[("equal", *files, "--method", "graph")][0] == "0"
    assert results[("normalize", "--trace", "--trace", files[0])][0] == "0"
