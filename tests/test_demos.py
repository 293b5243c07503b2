"""Every demo script runs to completion from the repository root and prints
the stdout recorded in tests/reference/demos, and the package exports
exactly the names the demos and the README import."""

import ast
import re
import subprocess
import sys

import pytest

import ttlam
import ttlam.errors

from conftest import RECORDED, ROOT, demo_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=demo_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / "demos" / f"{demo.stem}.txt").read_text()


def _imported_from_ttlam(source: str) -> set[str]:
    tree = ast.parse(source)
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ttlam"
        for alias in node.names
    }


def test_exports_are_what_demos_and_readme_import():
    # a name enters ttlam.__all__ only when a demo or the README uses it;
    # everything else is imported from its module
    used = set()
    for demo in DEMOS:
        used |= _imported_from_ttlam(demo.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _imported_from_ttlam(block)
    errors = {
        name for name, value in vars(ttlam.errors).items()
        if isinstance(value, type) and issubclass(value, ttlam.errors.TtError)
    }
    assert set(ttlam.__all__) == used | errors
    assert len(ttlam.__all__) == len(set(ttlam.__all__))
