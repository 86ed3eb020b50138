"""The benchmark's self-test, run as a smoke test.

It runs every workload on a tiny corpus and puts the program's outputs
through the benchmark's own oracle.  No timing is checked.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
