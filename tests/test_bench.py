"""The benchmark's traced run still finds every function it wraps by name,
and its oracle checks pass on the rose maps of rank 3-20 of its structure,
INP and language workloads."""

import pathlib
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("workload", ["rose-structure", "rose-nielsen", "rose-language"])
def test_bench_matches_oracles(workload):
    # every report of the workload against its checks in bench/checks.py,
    # which read tests/oracles.py, on every map
    _run_bench(workload, "0")
