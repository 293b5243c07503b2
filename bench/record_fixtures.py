"""Record the fixtures-cli reference reports from the current source tree.

    python3 bench/record_fixtures.py

The committed reference was recorded this way at the commit that introduced
the benchmark; fixtures-cli compares every later report to it byte for byte.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ttlam.cli import run_command  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for argv in workloads.fixture_commands(BENCH.parent / "fixtures"):
        code, text = run_command(argv + ["--json"])
        reference[workloads.fixture_key(argv)] = {"exit": code, "report": text}
    out = BENCH / "reference" / "fixtures-cli.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} reports to {out}")


if __name__ == "__main__":
    main()
