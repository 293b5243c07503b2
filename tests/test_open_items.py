"""One witness per known failure, each named after its ROADMAP open item.

Each test states what the item's fix must make true, and is marked
xfail(strict=True): it fails today, and the change that fixes its item makes
it pass, which a strict xfail reports as a failure until that change turns
the witness into a plain test, as item 12's now is.  Each takes under 2 s.
Item 13's clean-exit sweep is a plain test from the start.
"""

import json
import random
import subprocess
import sys

import pytest

from ttlam import Graph, GraphSelfMap, detect_inps, is_train_track
from ttlam.cli import run_command
from ttlam.graph import path_reduce
from ttlam.mapfile import MapFile, serialize_map_file

from conftest import FIXTURES, demo_env, pinned_language_maps, rose_map


def open_item(raises=AssertionError):
    """Mark a witness that fails today, by `raises` only."""
    return pytest.mark.xfail(strict=True, raises=raises, reason="open ROADMAP item")


def _map_file(tmp_path, f, name="witness"):
    path = tmp_path / f"{name}.tt"
    path.write_text(serialize_map_file(MapFile(name, f, ())))
    return str(path)


@open_item()
def test_item_01_cancellation_within_the_bound():
    # f(a~ b) f(c~ b a) cancels 11 darts on each side, but C(f) = 8
    f = rose_map(["a b a a b a a", "c a b a", "c c a b a"])
    alpha, beta = f.graph.parse_path("a~ b"), f.graph.parse_path("c~ b a")
    left, right = f.apply(alpha), f.apply(beta)
    cancelled = (len(left) + len(right) - len(path_reduce(left + right))) // 2
    assert cancelled <= f.cancellation_bound


@open_item()
def test_item_02_commutator_map_is_not_conclusively_inp_free():
    # f maps the commutator a b a~ b~ to a cyclic rotation of itself, so a
    # complete search finds an INP; the one-orbit pass finds none
    rep = detect_inps(rose_map(["a b~", "b a~ b b a~"]))
    assert not (rep.conclusive and not rep.inps and not rep.subdivided_inps)


@open_item(raises=TimeoutError)
def test_item_02_inps_on_the_rank20_rose_ends(tmp_path):
    # the smallest PF length of this positive rank-20 rose (lambda ~ 7.525)
    # is 1.237e-8, so the first scan's window is 49,557,418 darts and the
    # search runs for over a minute.  A search that bounds its halves by PF
    # length, not by a window counted in darts, ends at once; a child
    # interpreter, stopped after 1.5 s, keeps the witness under 2 s
    path = _map_file(tmp_path, dict(pinned_language_maps())["positive-rank20"], "rank20")
    search = "import sys\nfrom ttlam import detect_inps, parse_map_path\ndetect_inps(parse_map_path(sys.argv[1]).map)\n"
    try:
        subprocess.run([sys.executable, "-c", search, path], env=demo_env(), timeout=1.5, check=True)
    except subprocess.TimeoutExpired:
        raise TimeoutError("inps on the rank-20 rose still running after 1.5 s") from None


@open_item()
def test_item_04_singular_lists_an_inp_leaf(tmp_path):
    # the subdivision pass verifies two INPs, a b.2~ and b.1~ a~ b.1 b.2,
    # which no singular leaf goes through
    path = _map_file(tmp_path, rose_map(["a b", "a b b"]))
    code, text = run_command(["singular", path, "--json"])
    assert code == 0 and json.loads(text)["inp_triples"]


@open_item(raises=TimeoutError)
def test_item_05_contract_without_chop_ends():
    # each commutator holds an INP, so the count stays 5 for the default 42
    # steps while the word grows like the golden ratio per step.  Item 5's
    # gate is under 1 s; a child interpreter, stopped after 1.5 s, keeps
    # the witness under 2 s
    contract = (
        "from ttlam import Graph, GraphSelfMap, ilt_contraction\n"
        "g = Graph.build(['v'], [('a', 'v', 'v'), ('b', 'v', 'v')])\n"
        "f = GraphSelfMap.build(g, {'a': 'a b', 'b': 'a'})\n"
        "ilt_contraction(f, g.parse_path(' '.join(['a b a~ b~'] * 6)), chop=0)\n"
    )
    try:
        subprocess.run([sys.executable, "-c", contract], env=demo_env(), timeout=1.5, check=True)
    except subprocess.TimeoutExpired:
        raise TimeoutError("contract --chop 0 still running after 1.5 s") from None


@open_item()
def test_item_09_check_fails_a_map_that_is_not_an_automorphism(tmp_path):
    # the images a b, a b generate a cyclic subgroup
    code, text = run_command(["check", _map_file(tmp_path, rose_map(["a b", "a b"])), "--json"])
    assert code == 1 and json.loads(text)["pass"] is False


@open_item()
def test_item_10_subdivided_tribonacci_inv_passes_check(tmp_path):
    # subdividing does not change the outer automorphism, but the per-graph
    # certificate sees one class per periodic vertex
    sub = detect_inps(rose_map(["c a~", "a", "b"])).subdivision.map
    g = sub.graph
    assert g.num_vertices == 2
    names = [f"e{i}" for i in range(g.num_edges)]
    vertices = ["u", "w"]
    renamed = Graph.build(vertices, [(names[i], vertices[g.origin(2 * i)], vertices[g.terminus(2 * i)])
                                     for i in range(g.num_edges)])
    f = GraphSelfMap(renamed, sub.vertex_image, sub.edge_image)
    code, text = run_command(["check", _map_file(tmp_path, f), "--json"])
    assert code == 0 and json.loads(text)["pass"] is True


@open_item()
def test_item_17_check_is_not_expanding_on_a_finite_order_map(tmp_path):
    # [f^3] is the identity, so no reduced iterate grows; the expansion
    # verdict follows the images before reduction and says expanding
    code, text = run_command(["check", _map_file(tmp_path, rose_map(["b", "a~ b~"])), "--json"])
    assert json.loads(text)["expanding"] is False


def test_item_12_inp_commands_on_long_period_roses_fit_300_mb(tmp_path):
    # fixed, so a plain test: a -> b^24, ..., f -> a^24 has Df-period 6 and
    # blocks f^6(d) of 24^6 darts, a -> b^8, ..., l -> a^8 has Df-period 12
    # and blocks of 8^12 darts; the rays and interior points are read with
    # work bounded by the window, so no block is built whole
    paths = [
        _map_file(tmp_path, rose_map([" ".join(["abcdefghijkl"[(i + 1) % k]] * n) for i in range(k)]), f"cycle{k}")
        for k, n in ((6, 24), (12, 8))
    ]
    child = (
        "import json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
        "from ttlam.cli import run_command\n"
        "for path in sys.argv[1:]:\n"
        "    for argv in (['inps', path], ['singular', path], ['eigenrays', path, '--length', '8']):\n"
        "        code, text = run_command(argv + ['--json'])\n"
        "        print(json.dumps([argv[0], code, json.loads(text)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, *paths],
        cwd=FIXTURES, env=demo_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(cmd, code) for cmd, code, _ in runs] == [("inps", 0), ("singular", 0), ("eigenrays", 0)] * 2
    assert all(report for _, _, report in runs)


def _reduced_rose_images(rng):
    """Edge images of a random rank 2-3 rose map: reduced words of 1-4 darts."""
    rank = rng.randint(2, 3)
    images = []
    for _ in range(rank):
        word = [rng.randrange(2 * rank)]
        for _ in range(rng.randint(0, 3)):
            word.append(rng.choice([d for d in range(2 * rank) if d != word[-1] ^ 1]))
        images.append(" ".join("abc"[d >> 1] + "~" * (d & 1) for d in word))
    return images


def test_item_13_every_subcommand_exits_cleanly(tmp_path):
    # every subcommand on six seeded random reduced rose maps, two of them
    # expanding train track maps and four not, and on the N = 24 period-6
    # rose, in one child under a 300 MB address-space cap and a 2 s alarm
    # per run: each exits 0-3 with a JSON report, none with a traceback.
    # contract runs 3 steps: item 5's default-step run is its own witness
    rng = random.Random(2)
    maps = [rose_map(_reduced_rose_images(rng)) for _ in range(6)]
    assert sum(f.is_expanding and is_train_track(f) for f in maps) == 2
    maps.append(rose_map([" ".join(["bcdefa"[i]] * 24) for i in range(6)]))
    paths = [_map_file(tmp_path, f, f"sweep{i}") for i, f in enumerate(maps)]
    child = (
        "import json, resource, signal, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
        "from ttlam.cli import run_command\n"
        "def stop(signum, frame):\n"
        "    raise TimeoutError\n"
        "signal.signal(signal.SIGALRM, stop)\n"
        "for path in sys.argv[1:]:\n"
        "    for argv in (['check'], ['gates'], ['turns'], ['pf'], ['inps'], ['eigenrays'],\n"
        "                 ['bfh', '--window', '3'], ['singular'], ['dual', '--window', '3', '--assume-inverse'],\n"
        "                 ['illegality', '--against', path, '--window', '3'],\n"
        "                 ['contract', '--word', 'a b a~ b~ a a b~ a~ b b a b', '--steps', '3']):\n"
        "        signal.setitimer(signal.ITIMER_REAL, 2.0)\n"
        "        try:\n"
        "            code, text = run_command([argv[0], path, *argv[1:], '--json'])\n"
        "            out = [code, isinstance(json.loads(text), dict)]\n"
        "        except Exception as exc:\n"
        "            out = [type(exc).__name__, False]\n"
        "        finally:\n"
        "            signal.setitimer(signal.ITIMER_REAL, 0)\n"
        "        print(json.dumps([path, argv[0], *out]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, *paths],
        cwd=FIXTURES, env=demo_env(), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == 11 * len(paths)
    assert [run for run in runs if run[2] not in (0, 1, 2, 3) or not run[3]] == []
