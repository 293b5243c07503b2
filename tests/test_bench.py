"""The benchmark's traced run still finds every function it wraps by name."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_trace_runs():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixtures-cli", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"correct": true' in proc.stdout
