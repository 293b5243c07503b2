import functools
import json
import os
import pathlib
import random

import pytest
from hypothesis import settings, strategies as st

from ttlam import (
    Graph,
    GraphSelfMap,
    TtError,
    detect_inps,
    eigenray_equivalence,
    gates,
    illegality_between,
    ilt_contraction,
    is_primitive,
    is_train_track,
    parse_map_path,
    periodic_structures,
    pf_data,
    stability_verdict,
    transition_matrix,
    uniform_recurrence_check,
)
from ttlam.graph import path_reduce, reverse_path
from ttlam.lamination import dual_language_names, leaf_language_names

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
BENCH_REFERENCE = ROOT / "bench" / "reference" / "fixtures-cli.json"
RECORDED = ROOT / "tests" / "reference"  # recorded by tests/record_reference.py


def fixture_argv(key):
    """The argv of a benchmark fixture command from its reference key; the
    word after --word is one argument."""
    head, flag, word = key.partition(" --word ")
    argv = [str(FIXTURES / a) if a.endswith(".tt") else a for a in head.split()]
    return argv + ([flag.strip(), word] if flag else [])


def demo_env():
    """The environment a demo runs in: this checkout's src first on the path."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.fixture(scope="session")
def rose2():
    return Graph.build(["v"], [("a", "v", "v"), ("b", "v", "v")])


@pytest.fixture(scope="session")
def rose3():
    return Graph.build(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])


@pytest.fixture(scope="session")
def fib(rose2):
    return GraphSelfMap.build(rose2, {"a": "a b", "b": "a"})


@pytest.fixture(scope="session")
def trib(rose3):
    return GraphSelfMap.build(rose3, {"a": "b", "b": "c", "c": "a b"})


@pytest.fixture(scope="session")
def trib_inv(rose3):
    return GraphSelfMap.build(rose3, {"a": "c a~", "b": "a", "c": "b"})


@pytest.fixture(scope="session")
def reducible(rose3):
    return GraphSelfMap.build(rose3, {"a": "a b", "b": "a", "c": "c a b"})


@pytest.fixture(scope="session")
def theta():
    # two vertices, no loops: exercises nontrivial vertex images
    g = Graph.build(["u", "w"], [("p", "u", "w"), ("q", "u", "w"), ("r", "u", "w")])
    return g


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def all_maps(fib, trib, trib_inv, reducible):
    return {"fib": fib, "trib": trib, "trib_inv": trib_inv, "reducible": reducible}


@pytest.fixture(scope="session")
def map_files(fixture_dir):
    return {
        name: parse_map_path(fixture_dir / f"{name}.tt")
        for name in ("tribonacci", "tribonacci-inv", "fibonacci", "reducible")
    }


# a train track map on a graph with three vertices, where a word can fail to
# chain: e0 runs from v0 to v1, so e0 e0 is no edge path
THREE_VERTEX_TT = (
    "graph chain\nvertex v0\nvertex v1\nvertex v2\n"
    "edge e0 v0 v1\nedge e1 v1 v0\nedge e2 v0 v2\nedge e3 v2 v0\nmap\n"
    "e0 -> e2\ne1 -> e3 e0 e1\ne2 -> e2 e3 e0\ne3 -> e1 e2 e3\n"
)


def rose_map(images):
    names = [chr(ord("a") + i) for i in range(len(images))]
    g = Graph.build(["v"], [(x, "v", "v") for x in names])
    return GraphSelfMap.build(g, dict(zip(names, images)))


def cycle_rose(k, n):
    """x1 -> x2^n, ..., xk -> x1^n: Df-period k, and f^k(e) = e^(n^k)."""
    return rose_map([" ".join([chr(ord("a") + (i + 1) % k)] * n) for i in range(k)])


@st.composite
def positive_rose_maps(draw, moves_per_rank=2):
    """Primitive positive automorphisms of the rank 2-4 rose: up to
    moves_per_rank * rank drawn positive Nielsen moves x -> x y / x -> y x,
    then x_i -> x_i x_(i+1) around the rose, which makes the transition
    matrix irreducible with a positive diagonal."""
    rank = draw(st.integers(2, 4))
    moves = draw(st.lists(
        st.tuples(st.integers(0, rank - 1), st.integers(1, rank - 1), st.booleans()),
        max_size=moves_per_rank * rank,
    ))
    return _positive_rose(rank, moves)


def _positive_rose(rank, moves):
    """The positive rose map of the moves (i, k, right), each x_i -> x_i x_j
    if right else x_j x_i with j = i + k mod rank, then x_i -> x_i x_(i+1)
    around the rose; edges are named a, b, ..., so rank <= 26."""
    words = [[i] for i in range(rank)]
    for i, k, right in moves + [(i, 1, True) for i in range(rank)]:
        j = (i + k) % rank
        words[i] = words[i] + words[j] if right else words[j] + words[i]
    return rose_map([" ".join(chr(ord("a") + x) for x in w) for w in words])


def relabelled(f, names):
    """The rose map f with its edges renamed, in order, to `names`."""
    g = Graph.build(["v"], [(x, "v", "v") for x in names])
    return GraphSelfMap(g, f.vertex_image, f.edge_image)


def train_track_automorphisms(rank, count, seed):
    """`count` expanding train track automorphisms of the rank-`rank` rose
    with a backward dart in some edge image, drawn with random.Random(seed).

    Each draw composes 1 to 2 * rank signed Nielsen moves x -> x y^(+-1) or
    x -> y^(+-1) x on the identity, with y's current image, and is kept only
    when it passes all three tests: about 1 draw in 11 does at rank 2, 1 in
    13 at rank 3 and 1 in 22 at rank 4.  Up to 3 * rank moves drew a rank-3
    map with lambda ~ 15, whose reversed points at exponent 6 took the
    reference enumeration 7.6 s."""
    rng = random.Random(seed)
    names = [chr(ord("a") + i) for i in range(rank)]
    g = Graph.build(["v"], [(x, "v", "v") for x in names])
    out = []
    while len(out) < count:
        words = [(2 * i,) for i in range(rank)]
        for _ in range(rng.randint(1, 2 * rank)):
            i, j = rng.sample(range(rank), 2)
            y = words[j] if rng.random() < 0.5 else reverse_path(words[j])
            words[i] = path_reduce(words[i] + y if rng.random() < 0.5 else y + words[i])
        f = GraphSelfMap(g, (0,), tuple(words))
        if f.is_expanding and is_train_track(f) and any(d & 1 for w in words for d in w):
            out.append(f)
    return out


@st.composite
def reduced_rose_maps(draw):
    """Rank 2-3 rose maps whose edge images are arbitrary reduced words of
    1-4 darts: most are not train track maps, many not homotopy
    equivalences."""
    rank = draw(st.integers(2, 3))
    names = [chr(ord("a") + i) for i in range(rank)]
    darts = [x + s for x in names for s in ("", "~")]
    images = []
    for _ in range(rank):
        word = [draw(st.sampled_from(darts))]
        for _ in range(draw(st.integers(0, 3))):
            inverse = word[-1][:-1] if word[-1].endswith("~") else word[-1] + "~"
            word.append(draw(st.sampled_from([d for d in darts if d != inverse])))
        images.append(" ".join(word))
    return rose_map(images)


def automorphism_pairs(rank, count, seed):
    """`count` pairs (f, g) of expanding train track maps of the
    rank-`rank` rose, both with a primitive transition matrix, with
    g = f^-1, drawn with random.Random(seed).

    Each draw composes 1 to 2 * rank signed Nielsen moves mu, each
    x_i -> x_i y or x_i -> y x_i with y = x_j^(+-1), on the identity: f
    becomes f . mu, which puts f(y) beside f(x_i), and g becomes
    mu^-1 . g, which puts y^-1 beside each x_i of g's images.  So g is read
    off the moves, not computed from f.  About 1 draw in 65 passes at rank
    3 and 1 in 170 at rank 4."""
    rng = random.Random(seed)
    names = [chr(ord("a") + i) for i in range(rank)]
    graph = Graph.build(["v"], [(x, "v", "v") for x in names])
    out = []
    while len(out) < count:
        f_words = [(2 * i,) for i in range(rank)]
        g_words = [(2 * i,) for i in range(rank)]
        for _ in range(rng.randint(1, 2 * rank)):
            i, j = rng.sample(range(rank), 2)
            y, right = 2 * j + rng.randint(0, 1), rng.random() < 0.5
            fy = f_words[y >> 1] if y & 1 == 0 else reverse_path(f_words[y >> 1])
            f_words[i] = path_reduce(f_words[i] + fy if right else fy + f_words[i])
            sub = (2 * i, y ^ 1) if right else (y ^ 1, 2 * i)
            table = {2 * i: sub, 2 * i + 1: reverse_path(sub)}
            g_words = [path_reduce(x for d in w for x in table.get(d, (d,))) for w in g_words]
        f, g = (GraphSelfMap(graph, (0,), tuple(w)) for w in (f_words, g_words))
        if all(h.is_expanding and is_train_track(h) and is_primitive(transition_matrix(h)) for h in (f, g)):
            out.append((f, g))
    return out


@functools.cache
def pinned_inp_maps():
    """(label, map) for the maps whose `detect_inps` reports at max_period
    1, 2 and 6 tier-1 pins (tests/reference/detect-inps.json): signed
    train track automorphisms of rank 3 and 4, and the cycle rose of
    Df-period 6 at n = 4.  Each has an interior point at max_period 6, so
    the reports hold subdivided windows and notes."""
    maps = [(f"rank3-seed11-{i}", f) for i, f in enumerate(train_track_automorphisms(3, 20, seed=11))]
    maps += [(f"rank4-seed12-{i}", f) for i, f in enumerate(train_track_automorphisms(4, 10, seed=12))]
    return tuple(maps) + (("cycle-6-4", cycle_rose(6, 4)),)


@functools.cache
def pinned_language_maps():
    """(label, map) for the maps whose languages tier-1 pins
    (tests/reference/languages.json): the maps of `pinned_inp_maps`,
    positive roses of rank 8, 12, 16 and 20, each drawn by rank positive
    Nielsen moves with random.Random(rank), and a signed rank-3 train track
    automorphism whose edges are named x1, x10 and y_2, so that one name is
    a prefix of another."""
    roses = []
    for rank in (8, 12, 16, 20):
        rng = random.Random(rank)
        moves = [(rng.randrange(rank), rng.randrange(1, rank), rng.random() < 0.5) for _ in range(rank)]
        roses.append((f"positive-rank{rank}", _positive_rose(rank, moves)))
    named = relabelled(train_track_automorphisms(3, 1, seed=13)[0], ("x1", "x10", "y_2"))
    return pinned_inp_maps() + tuple(roses) + (("named-rank3-seed13", named),)


def pinned_languages():
    """label -> the pinned output: `leaf_language_names(f, n)` for n in 1,
    3, 6 and 9 on every map of `pinned_language_maps`,
    `dual_language_names(f, 5)` on those of rank up to 16, and
    `repr(uniform_recurrence_check(f, m))` for m in 1, 2 and 3 on those of
    rank up to 8.  The rank-20 rose has no dual pin: the INP search that
    its dual language needs takes over a minute there."""
    out = {}
    for label, f in pinned_language_maps():
        out.update((f"{label} leaf n={n}", leaf_language_names(f, n)) for n in (1, 3, 6, 9))
        if f.graph.num_edges <= 16:
            out[f"{label} dual n=5"] = list(dual_language_names(f, 5))
        if f.graph.num_edges <= 8:
            out.update((f"{label} recurrence m={m}", repr(uniform_recurrence_check(f, m))) for m in (1, 2, 3))
    return out


def pinned_record_calls():
    """label -> zero-argument call, for each result record whose repr on the
    four fixtures tier-1 pins (tests/reference/records.json) and whose
    repr no INP report pin holds: `pf_data`, `gates`,
    `periodic_structures`, `parse_map_path`, `stability_verdict`,
    `uniform_recurrence_check(f, 2)`, `eigenray_equivalence`, and
    `illegality_between` and `ilt_contraction` on the maps, reference maps,
    windows and words of the benchmark's fixture commands.  Every call
    parses its map files afresh, so two calls build their records from
    equal, distinct maps."""
    commands = [fixture_argv(key) for key in json.loads(BENCH_REFERENCE.read_text())]
    illegality = {argv[1]: argv[2:] for argv in commands if argv[0] == "illegality"}  # --against REF --window N
    contract = {argv[1]: argv[3] for argv in commands if argv[0] == "contract"}  # --word W

    def on_map(fn):
        return lambda path: fn(parse_map_path(path).map)

    def profile(path):
        mf, (_, ref, _, n) = parse_map_path(path), illegality[path]
        return illegality_between(parse_map_path(ref).map, mf.map, int(n), dual=mf.asserts_inverse_of() is not None)

    per_fixture = {
        "parse_map_path": parse_map_path,
        "pf_data": on_map(pf_data),
        "gates": on_map(gates),
        "periodic_structures": on_map(periodic_structures),
        "stability_verdict": on_map(lambda f: stability_verdict(f, detect_inps(f))),
        "uniform_recurrence_check": on_map(lambda f: uniform_recurrence_check(f, 2)),
        "eigenray_equivalence": on_map(eigenray_equivalence),
        "illegality_between": profile,
        "ilt_contraction": lambda path: ilt_contraction(f := parse_map_path(path).map, f.graph.parse_path(contract[path])),
    }
    return {
        f"{label} {pathlib.Path(path).stem}": functools.partial(call, path)
        for label, call in per_fixture.items() for path in contract
    }


def shown_record(call):
    """repr of the record a call returns, or the error it raises, named."""
    try:
        return repr(call())
    except TtError as exc:
        return f"raises {type(exc).__name__}: {exc}"
