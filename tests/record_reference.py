"""Record the outputs that tier-1 pins besides the --json fixture reports:
the text report and exit code of each fixture command of the benchmark, the
help text and exit status of `ttlam -h` and of each `ttlam <sub> -h` at
COLUMNS=80, the stdout of each demo, `repr(detect_inps(f, p))` for p in
1, 2 and 6 on the maps of `conftest.pinned_inp_maps`, whose subdivided
windows and notes the fixtures do not reach, the repr of each result
record of `conftest.pinned_record_calls` on the four fixtures, and the
leaf and dual languages and recurrence reports of
`conftest.pinned_languages`, on maps up to rank 20 and with edge names of
more than one character.  Run from the repository root:

    PYTHONPATH=src python3 tests/record_reference.py

test_cli.py, test_demos.py, test_nielsen.py, test_records.py and
test_lamination.py compare
against these files byte for byte, so re-record them only for a change that
moves an output on purpose, and list what moved.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

from conftest import (
    BENCH_REFERENCE,
    RECORDED,
    ROOT,
    demo_env,
    fixture_argv,
    pinned_inp_maps,
    pinned_languages,
    pinned_record_calls,
    shown_record,
)

from ttlam import detect_inps
from ttlam.cli import run_command


def main() -> None:
    reports = {}
    for key in sorted(json.loads(BENCH_REFERENCE.read_text())):
        code, text = run_command(fixture_argv(key))
        reports[key] = {"exit": code, "report": text}
    (RECORDED / "fixtures-text.json").write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    os.environ["COLUMNS"] = "80"
    helps = {}
    for argv in [["-h"]] + [[sub, "-h"] for sub in sorted({key.split()[0] for key in reports})]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                run_command(argv)
        except SystemExit as exc:
            helps[" ".join(argv)] = {"exit": exc.code, "text": out.getvalue()}
    (RECORDED / "help.json").write_text(json.dumps(helps, indent=1, sort_keys=True) + "\n")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=demo_env(), capture_output=True, text=True, check=True)
        (RECORDED / "demos" / f"{demo.stem}.txt").write_text(out.stdout)
    inps = {f"{label} max_period={p}": repr(detect_inps(f, p)) for label, f in pinned_inp_maps() for p in (1, 2, 6)}
    (RECORDED / "detect-inps.json").write_text(json.dumps(inps, indent=1, sort_keys=True) + "\n")
    records = {label: shown_record(call) for label, call in pinned_record_calls().items()}
    (RECORDED / "records.json").write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    languages = pinned_languages()
    (RECORDED / "languages.json").write_text(json.dumps(languages, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(reports)} text reports, {len(helps)} help texts, the demos' stdout,"
        f" {len(inps)} INP reports, {len(records)} records and {len(languages)} languages to {RECORDED}"
    )


if __name__ == "__main__":
    main()
