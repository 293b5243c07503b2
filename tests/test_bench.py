"""The benchmark's traced run still finds every function it wraps by name,
and its oracle checks pass on the rose maps of rank 3-20."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"correct": true' in proc.stdout


def test_bench_trace_runs():
    _run_bench("fixtures-cli", "1")


def test_bench_rose_structure_matches_oracles():
    # check, gates and turns reports against tests/oracles.py on every map
    _run_bench("rose-structure", "0")
