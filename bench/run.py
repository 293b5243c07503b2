"""ttlam benchmark: one workload, one process, one thread, a closed loop.

    python3 bench/run.py --workload rose-language --seed 1 --seconds 25 --trace 0

Run from the root of a ttlam checkout.  Set-up imports ttlam from ``src``,
writes the seed's generated ``.tt`` maps and loads the reference outputs;
it is repeated between passes, spread over the run, and its median is
reported as ``setup_s``.  The run then makes
passes over the workload's op list for ``--seconds``: each op is one public
call, timed, limited to OP_LIMIT_S by SIGALRM, classified and checked.  The
last line of standard output is one JSON object with the result.

Every time reported is in reference seconds: wall time divided by the
machine's slowdown at that moment, which a fixed calibration loop run
between the ops measures (see Speed).

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones (see spans.py); the per-layer metrics come from the
traced passes and the overhead is the difference of the two pass medians.
``--workload all`` runs every workload in turn, each in its own process.
"""

import argparse
import bisect
import gc
import importlib
import importlib.util
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OP_LIMIT_S = 1.5  # reference seconds
SETUP_REPEATS = 9
REFERENCE = BENCH / "reference" / "fixtures-cli.json"
FAILED = {"budget", "inconclusive", "timeout", "error", "wrong"}
CLI_OUTCOME = {0: "ok", 1: "violation", 3: "input"}

SELF_TIMES = (
    "graph_map.apply", "graph_map.iterate",
    "lamination.leaf_language", "lamination.uniform_recurrence_check",
    "nielsen.detect_inps", "nielsen.interior_periodic_points", "nielsen.point_image",
    "nielsen.eigenray_prefix", "nielsen.subdivide_at",
    "spectral.pf_data", "spectral.charpoly_coefficients", "spectral.largest_real_root",
    "spectral.is_primitive", "train_track.gates", "train_track.used_turns",
    "mapfile.parse_map_path", "cli.run_command",
)
CALLS = ("graph_map.apply", "nielsen.point_image", "spectral.transition_power")
CALLS_PER_OP = ("nielsen.detect_inps", "spectral.pf_data", "train_track.gates", "lamination.leaf_language")
BUDGET_ERRORS = ("lamination.leaf_language", "lamination.uniform_recurrence_check")


# The calibration loop takes REF_LOOP_S at the reference speed, about the
# typical speed of the 2-core VM the first baseline was measured on.  The
# speed of that VM swings by 20-35% from one second to the next as other
# tenants load the host, the same in CPU time as in wall time; a loop of
# fixed work run next to the program tracks the swings.  Its work is what
# ttlam's hot paths do most: Python calls and small allocations.  The loop
# runs before every op; an op's time is divided by the median loop time
# within SPEED_MARGIN_S of the op, counting at least the loops right before
# and right after it, so a long op is judged by the speed during it and a
# short one by several loops around it.  The per-op limit cannot wait for
# the loop after the op: it uses the median of the last SPEED_WINDOW loops.
CAL_LOOP_N = 4500
REF_LOOP_S = 0.0015
SPEED_WINDOW = 9
SPEED_MARGIN_S = 0.1


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, x):
        return _Pair(self.b, self.a + x)


def loop_s() -> float:
    """Wall time of the calibration loop: fixed work, independent of ttlam."""
    t0 = time.perf_counter()
    pair = _Pair(0, 1)
    for i in range(CAL_LOOP_N):
        pair = pair.step(i & 3)
    return time.perf_counter() - t0


class Speed:
    """The machine's slowdown against the reference speed, from calibration
    loops run between the timed calls."""

    def __init__(self):
        self.recent = deque(maxlen=SPEED_WINDOW)
        self.times, self.loops = [], []  # each loop's middle and duration
        for _ in range(SPEED_WINDOW - 1):
            self.sample()

    def sample(self) -> float:
        """Run the loop once more; the slowdown as of now, from the last
        SPEED_WINDOW loops."""
        t0 = time.perf_counter()
        dt = loop_s()
        self.times.append(t0 + dt / 2)
        self.loops.append(dt)
        self.recent.append(dt)
        return statistics.median(self.recent) / REF_LOOP_S

    def around(self, t0: float, t1: float) -> float:
        """The slowdown during [t0, t1], once a loop has run after t1."""
        lo = min(bisect.bisect_left(self.times, t0 - SPEED_MARGIN_S), bisect.bisect_left(self.times, t0) - 1)
        hi = max(bisect.bisect_right(self.times, t1 + SPEED_MARGIN_S), bisect.bisect_right(self.times, t1) + 1)
        return statistics.median(self.loops[max(lo, 0) : hi]) / REF_LOOP_S


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; not an Exception, so ttlam cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Env:
    ttlam: object
    oracles: object
    root: Path
    reference: dict
    rng: random.Random
    workdir: Path


def _import_program():
    """Fresh import of ttlam and of the test oracles from the checkout."""
    for name in [k for k in sys.modules if k == "ttlam" or k.startswith("ttlam.")]:
        del sys.modules[name]
    ttlam = importlib.import_module("ttlam")
    importlib.import_module("ttlam.cli")
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return ttlam, oracles


def setup(workload: str, seed: int, workdir: Path, speed: Speed):
    """(reference seconds it took, ttlam, the workload's op lists)."""
    speed.sample()
    t0 = time.perf_counter()
    ttlam, oracles = _import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = json.loads(REFERENCE.read_text()) if workload == "fixtures-cli" else {}
    env = Env(ttlam, oracles, ROOT, reference, random.Random(seed), workdir)
    op_lists = workloads.WORKLOADS[workload](env)
    t1 = time.perf_counter()
    speed.sample()
    return (t1 - t0) / speed.around(t0, t1), ttlam, op_lists


def run_op(op, ttlam, slowdown: float):
    """(outcome, wall seconds, result) of one op under the per-op time limit,
    which is OP_LIMIT_S reference seconds at the given slowdown."""
    errors = ttlam.errors
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S * slowdown)
        try:
            result = op.call()
            dt = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", time.perf_counter() - t0, None
    except errors.BudgetExceededError:
        return "budget", time.perf_counter() - t0, None
    except errors.ConvergenceError:
        return "inconclusive", time.perf_counter() - t0, None
    except Exception:
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return "error", dt, None
    if not op.cli:
        return "ok", dt, result
    code, text = result
    if code == 2:
        kind = json.loads(text).get("kind")
        return ("budget" if kind == "inconclusive" else "inconclusive"), dt, result
    return CLI_OUTCOME.get(code, "error"), dt, result


class Run:
    """Passes over a workload's op lists, pass j over list j modulo their
    number, with every op's outcome and latency.  `passes` and `samples` are
    in reference seconds, `wall_passes` in wall seconds."""

    def __init__(self, ttlam, op_lists, speed: Speed, tracer=None):
        self.ttlam, self.op_lists, self.speed, self.tracer = ttlam, op_lists, speed, tracer
        self.passes, self.wall_passes, self.samples = [], [], []
        self.outcomes, self.failures = Counter(), Counter()
        self.report_bytes = 0
        self.last_spans = []

    def one_pass(self) -> None:
        ops = self.op_lists[len(self.passes) % len(self.op_lists)]
        results, spans, limits = [], [], []
        gc.collect()  # every pass starts from the same heap, outside its timing
        for i, op in enumerate(ops):
            limits.append(self.speed.sample())
            if self.tracer is not None:
                self.tracer.start_op(len(self.samples) + i)
            t0 = time.perf_counter()
            results.append(run_op(op, self.ttlam, limits[-1]))
            spans.append((t0, time.perf_counter()))
        self.speed.sample()
        # an op cut off by the limit took the limit, OP_LIMIT_S reference seconds
        slowdowns = [
            limit if outcome == "timeout" else self.speed.around(t0, t1)
            for (outcome, _, _), limit, (t0, t1) in zip(results, limits, spans)
        ]
        self.wall_passes.append(sum(dt for _, dt, _ in results))
        results = [(outcome, dt / s, result) for (outcome, dt, result), s in zip(results, slowdowns)]
        self.passes.append(sum(dt for _, dt, _ in results))
        if self.tracer is not None:
            self.last_spans = self.tracer.fold(dict(enumerate(slowdowns, start=len(self.samples))))
        for op, (outcome, dt, result) in zip(ops, results):
            if outcome not in FAILED and op.cli and result[0] not in op.accept:
                outcome = "wrong"
            if outcome not in FAILED:
                reason = op.check(result)
                if reason is not None:
                    print(f"wrong result: {op.label}: {reason}", file=sys.stderr)
                    outcome = "wrong"
            if op.cli and result is not None:
                self.report_bytes += len(result[1].encode())
            self.samples.append(dt)
            self.outcomes[outcome] += 1
            if outcome in FAILED:
                self.failures[op.label, outcome] += 1

    def run_for(self, seconds: float, between=lambda: None) -> None:
        """Passes until `seconds` are used up; `between` runs after each pass."""
        start = time.perf_counter()
        while True:
            self.one_pass()
            between()
            if time.perf_counter() - start + statistics.median(self.passes) > seconds:
                return

    @property
    def failed(self) -> int:
        return sum(n for outcome, n in self.outcomes.items() if outcome in FAILED)


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    q = statistics.quantiles(run.samples, n=10, method="inclusive")
    return {
        "pass_s": (statistics.median(run.passes), "s"),
        "op_p50_s": (statistics.median(run.samples), "s"),
        "op_p90_s": (q[8], "s"),
        "ops_ok_share": (1.0 - run.failed / len(run.samples), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(plain: Run, traced: Run, tracer: Tracer) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    passes, ops = len(traced.passes), len(traced.samples)
    out = {f"{name}.self_s": (self_s[name] / passes, "s") for name in SELF_TIMES}
    out.update({f"{name}.calls": (calls[name] / passes, "count") for name in CALLS})
    out.update({f"{name}.calls_per_op": (calls[name] / ops, "count") for name in CALLS_PER_OP})
    out.update({
        f"{name}.budget_errors": (tracer.errors[name, "BudgetExceededError"] / passes, "count")
        for name in BUDGET_ERRORS
    })
    points = tracer.sizes["nielsen.interior_periodic_points"]
    out.update({
        "graph_map.apply.darts_out": (tracer.sizes["graph_map.apply"] / passes, "count"),
        "lamination.leaf_language.words": (tracer.sizes["lamination.leaf_language"] / passes, "count"),
        "nielsen.interior_periodic_points.points": (points / passes, "count"),
        "nielsen.interior_points.used_ratio": (calls["nielsen.subdivide_at"] / points if points else 0.0, "ratio"),
        "cli.report_bytes": (traced.report_bytes / passes, "bytes"),
        "trace.pass_s": (statistics.median(traced.passes), "s"),
        "trace.untraced_pass_s": (statistics.median(plain.passes), "s"),
        "trace.overhead_s": (statistics.median(traced.passes) - statistics.median(plain.passes), "s"),
    })
    return out


def write_spans(spans: list, path: Path) -> None:
    """The last traced pass's spans, one per line, times from its first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("op\tname\tparent\tstart_s\tdur_s\tself_s\n")
        base = spans[0][3] if spans else 0.0
        for op, name, parent, t0, t1, own in spans:
            fh.write(f"{op}\t{name}\t{parent}\t{t0 - base:.9f}\t{t1 - t0:.9f}\t{own:.9f}\n")


def bench(args) -> dict:
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _alarm)
    try:
        speed = Speed()
        dt, ttlam, op_lists = setup(args.workload, args.seed, work / "ops", speed)
        setup_times = [dt]
        start = time.perf_counter()

        def setup_again() -> None:
            kept = {k: m for k, m in sys.modules.items() if k == "ttlam" or k.startswith("ttlam.")}
            setup_times.append(setup(args.workload, args.seed, work / "again", speed)[0])
            sys.modules.update(kept)  # lazy imports inside the ops' ttlam resolve to it again

        def spread_setups() -> None:
            """Repeat set-up between passes, spaced over the run, so that its
            median samples the machine's state like the passes do."""
            due = start + len(setup_times) * args.seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
                setup_again()

        if not args.trace:
            run = Run(ttlam, op_lists, speed)
            run.run_for(args.seconds, spread_setups)
            while len(setup_times) < SETUP_REPEATS:
                setup_again()
            metrics, runs = end_to_end(run, setup_times), [run]
        else:
            plain = Run(ttlam, op_lists, speed)
            plain.run_for(args.seconds / 2)
            tracer = Tracer()
            tracer.install(ttlam)
            traced = Run(ttlam, op_lists, speed, tracer)
            traced.run_for(args.seconds / 2)
            write_spans(traced.last_spans, ROOT / ".bench_trace" / f"{args.workload}.tsv")
            metrics, runs = per_layer(plain, traced, tracer), [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcomes = sum((r.outcomes for r in runs), Counter())
    failures = sum((r.failures for r in runs), Counter())
    wall = [t for r in runs for t in r.wall_passes]
    print(f"{args.workload} seed {args.seed}: {len(op_lists[0])} ops per pass, "
          f"{len(wall)} passes, median wall pass {statistics.median(wall):.4g} s, "
          f"outcomes {dict(sorted(outcomes.items()))}", file=sys.stderr)
    for (label, outcome), n in sorted(failures.items()):
        print(f"  failed x{n}: {label}: {outcome}", file=sys.stderr)
    return {
        "correct": outcomes["wrong"] == 0 and outcomes["error"] == 0,
        "attempted": sum(len(r.samples) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = out[name]["metrics"]
        print(name, " ".join(f"{k}={m['value']:.6g}{m['unit']}" for k, m in metrics.items()), file=sys.stderr)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    missing = [rel for rel in ("src/ttlam/__init__.py", "tests/oracles.py", "fixtures") if not (ROOT / rel).exists()]
    if missing:
        print(f"not a ttlam checkout (missing {', '.join(missing)}); run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_all(args) if args.workload == "all" else bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
