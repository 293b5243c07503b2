import pathlib

import pytest
from hypothesis import settings, strategies as st

from ttlam import Graph, GraphSelfMap, parse_map_path

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


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


def rose_map(images):
    names = [chr(ord("a") + i) for i in range(len(images))]
    g = Graph.build(["v"], [(x, "v", "v") for x in names])
    return GraphSelfMap.build(g, dict(zip(names, images)))


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
    words = [[i] for i in range(rank)]
    for i, k, right in moves + [(i, 1, True) for i in range(rank)]:
        j = (i + k) % rank
        words[i] = words[i] + words[j] if right else words[j] + words[i]
    return rose_map([" ".join(chr(ord("a") + x) for x in w) for w in words])


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
