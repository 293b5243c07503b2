"""The four workloads: which maps each one builds and which ops it runs.

An op is one public call, ``ttlam.cli.run_command([...])`` or a library
function where no subcommand exists, plus the check of its result.  Ops are
looked up on the module at call time, so the traced run sees them wrapped.
A workload is a list of op lists; pass j of a run runs list j modulo their
number.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from gen import dart_names, random_rose_map, relabel

FIXTURES = ("fibonacci", "tribonacci", "tribonacci-inv", "reducible")

# The map catalogue: (rank, lowest lambda, highest lambda, draw).  Slot k
# draws its map from random.Random(f"{CATALOGUE}:{rank}:{draw}"); the run's
# --seed then relabels every map by LABELLINGS random signed edge
# permutations and shuffles the map order of each labelling.  The draws were
# picked so that every op that succeeds on the seed commit takes under a
# third of the per-op limit; rose-structure and rose-language share
# ROSE_SLOTS.
CATALOGUE = "ttlam-bench-1"
ROSE_SLOTS = (
    (3, 10, 20, 1), (4, 10, 20, 2), (5, 10, 20, 1), (6, 10, 20, 0), (8, 10, 20, 3),
    (10, 10, 20, 2), (12, 10, 20, 1), (16, 10, 20, 1), (20, 10, 20, 1),
)
# uniform_recurrence_check runs on the maps of these ranks only.  With one
# such op, 11 of rose-language's 19 ops succeed, so op_p50_s falls inside
# the cluster of successful ops rather than in the gap between them and the
# budget failures, where it would jump between the two.
RECURRENCE_RANKS = (4,)
NIELSEN_SLOTS = (
    (3, 4, 8, 0), (4, 4, 8, 0), (5, 4, 8, 0), (6, 4, 8, 0), (8, 5, 9, 0), (10, 5, 9, 0),
    (12, 20, 30, 3), (12, 20, 30, 5),
)
# default `inps` (max period 6) runs on this many of the smallest maps
NIELSEN_DEFAULT_MAPS = 2
# ttlam's work on a map depends on how its edges are labelled: one op's
# Python call count varied up to 9x between labellings of the same map.
# Each pass therefore runs its own labelling of the maps, so that a run
# averages over several of them rather than measuring one seed's luck.
LABELLINGS = 6
CONTRACT_STEPS = 2
LANGUAGE_WINDOWS = (3, 6)
RECURRENCE_M = 2


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # result -> None when right, else the reason it is wrong
    check: Callable[[object], str | None]
    # exit codes that count as success (CLI ops only)
    accept: frozenset = frozenset({0})
    cli: bool = True


def _cli(ttlam_cli, argv):
    return lambda: ttlam_cli.run_command(argv + ["--json"])


def _report_check(facts, fn, *extra):
    return lambda result: fn(facts, json.loads(result[1]), *extra)


# -- fixtures-cli ------------------------------------------------------------------

def fixture_commands(fixture_dir: Path) -> list[list[str]]:
    """All 11 subcommands on the four fixtures (without --json)."""
    words = {"fibonacci": "a b~ a b~ a b~ a b~ a b a", "reducible": "a b~ c a~ b c~ a b~ c a~ b c~"}
    against = {"tribonacci": "tribonacci-inv", "tribonacci-inv": "tribonacci", "reducible": "tribonacci"}
    out = []
    for name in FIXTURES:
        path = str(fixture_dir / f"{name}.tt")
        out += [
            ["check", path], ["gates", path], ["turns", path], ["pf", path], ["inps", path],
            ["eigenrays", path], ["bfh", path, "--window", "5"], ["singular", path],
            ["dual", path, "--window", "5", "--assume-inverse"],
            ["illegality", path, "--against", str(fixture_dir / f"{against.get(name, name)}.tt"), "--window", "5"],
            ["contract", path, "--word", words.get(name, "a b~ c a~ b c~ a b~ c a~ b c~")],
        ]
    return out


def fixture_key(argv: list[str]) -> str:
    """Reference key of a fixture command: paths reduced to file names."""
    return " ".join(Path(a).name if a.endswith(".tt") else a for a in argv)


def fixtures_cli(env) -> list[list[Op]]:
    ops = []
    for argv in fixture_commands(env.root / "fixtures"):
        ref = env.reference[fixture_key(argv)]

        def check(result, ref=ref):
            return None if result[1] == ref["report"] else "report differs from the recorded seed report"

        ops.append(Op(fixture_key(argv), _cli(env.ttlam.cli, argv), check, frozenset({ref["exit"]})))
    return [ops]


# -- generated maps ----------------------------------------------------------------

def _write_maps(env, slots, prefix: str) -> list[list[tuple[str, checks.MapFacts]]]:
    """The slots' maps under each of LABELLINGS labellings, written to disk:
    [labelling][slot] -> (path, facts)."""
    base = [
        random_rose_map(random.Random(f"{CATALOGUE}:{rank}:{draw}"), rank, f"{prefix}{k}-r{rank}", lo, hi)
        for k, (rank, lo, hi, draw) in enumerate(slots)
    ]
    out = []
    for j in range(LABELLINGS):
        folder = env.workdir / f"labelling-{j}"
        folder.mkdir()
        maps = []
        for rm in base:
            rm = relabel(rm, env.rng)
            path = folder / f"{rm.name}.tt"
            path.write_text(rm.to_tt())
            maps.append((str(path), checks.MapFacts(rm, env.oracles)))
        out.append(maps)
    return out


def _shuffled(env, groups: list[list[Op]]) -> list[Op]:
    """Ops of all maps, each map's ops together, maps in a seeded order."""
    env.rng.shuffle(groups)
    return [op for group in groups for op in group]


def _contract_word(facts, rng: random.Random) -> tuple[int, ...]:
    """A random reduced word long enough to survive the default trim C(f)."""
    darts = [facts.rm.dart_image(d) for d in range(2 * facts.rm.rank)]
    best = 0
    for i, a in enumerate(darts):
        for b in darts[i + 1 :]:
            k = 0
            while k < min(len(a), len(b)) and a[k] == b[k]:
                k += 1
            best = max(best, k)
    word = [rng.randrange(2 * facts.rm.rank)]
    while len(word) < 4 * best + 12:
        d = rng.randrange(2 * facts.rm.rank)
        if d != word[-1] ^ 1:
            word.append(d)
    return tuple(word)


def rose_structure(env) -> list[list[Op]]:
    return [_structure_ops(env, maps) for maps in _write_maps(env, ROSE_SLOTS, "rose")]


def _structure_ops(env, maps) -> list[Op]:
    cli = env.ttlam.cli
    groups = []
    for path, facts in maps:
        name = facts.rm.name
        word = _contract_word(facts, env.rng)
        text = dart_names(word)
        groups.append([
            Op(f"check {name}", _cli(cli, ["check", path]), _report_check(facts, checks.check_check)),
            Op(f"gates {name}", _cli(cli, ["gates", path]), _report_check(facts, checks.check_gates)),
            Op(f"turns {name}", _cli(cli, ["turns", path]), _report_check(facts, checks.check_turns)),
            Op(f"pf {name}", _cli(cli, ["pf", path]), _report_check(facts, checks.check_pf)),
            Op(f"eigenrays {name}", _cli(cli, ["eigenrays", path]), _report_check(facts, checks.check_eigenrays)),
            Op(
                f"contract {name}",
                _cli(cli, ["contract", path, "--word", text, "--steps", str(CONTRACT_STEPS)]),
                _report_check(facts, checks.check_contract, word, CONTRACT_STEPS),
            ),
        ])
    return _shuffled(env, groups)


def rose_language(env) -> list[list[Op]]:
    return [_language_ops(env, maps) for maps in _write_maps(env, ROSE_SLOTS, "rose")]


def _language_ops(env, maps) -> list[Op]:
    groups = []
    for path, facts in maps:
        name = facts.rm.name
        ops = [
            Op(f"bfh {name} --window {n}", _cli(env.ttlam.cli, ["bfh", path, "--window", str(n)]),
               _report_check(facts, checks.check_bfh, n))
            for n in LANGUAGE_WINDOWS
        ]

        def recurrence(path=path):
            f = env.ttlam.mapfile.parse_map_path(path).map
            return env.ttlam.lamination.uniform_recurrence_check(f, RECURRENCE_M)

        if facts.rm.rank in RECURRENCE_RANKS:
            ops.append(
                Op(f"uniform_recurrence_check {name}", recurrence,
                   lambda rep, facts=facts: checks.check_recurrence(facts, rep, RECURRENCE_M), cli=False)
            )
        groups.append(ops)
    return _shuffled(env, groups)


def rose_nielsen(env) -> list[list[Op]]:
    return [_nielsen_ops(env, maps) for maps in _write_maps(env, NIELSEN_SLOTS, "nielsen")]


def _nielsen_ops(env, maps) -> list[Op]:
    groups = []
    for k, (path, facts) in enumerate(maps):
        name = facts.rm.name
        flags = [["--max-period", "1"], ["--max-period", "2"]] + ([[]] if k < NIELSEN_DEFAULT_MAPS else [])
        groups.append([
            Op(" ".join(["inps", name] + extra), _cli(env.ttlam.cli, ["inps", path] + extra),
               _report_check(facts, checks.check_inps))
            for extra in flags
        ])
    return _shuffled(env, groups)


WORKLOADS = {
    "fixtures-cli": fixtures_cli,
    "rose-structure": rose_structure,
    "rose-language": rose_language,
    "rose-nielsen": rose_nielsen,
}
