"""Gates, legality, used turns, and illegal-turn counting."""

import random

import pytest
from hypothesis import example, given, strategies as st

from ttlam import (
    Graph,
    GraphSelfMap,
    NotTrainTrackError,
    all_turns,
    gates,
    ilt_count,
    is_legal_turn,
    is_train_track,
    two_gates_everywhere,
    used_turns,
)
from ttlam.train_track import illegal_positions, legal_segments, require_train_track, used_illegal_turns
from ttlam.nielsen import detect_inps
from ttlam.train_track import turn_image

from conftest import positive_rose_maps, reduced_rose_maps, rose_map, train_track_automorphisms
from oracles import (
    derivative_orbit_gates,
    illegal_turn_count,
    random_reduced_word,
    used_illegal_turns_by_closure,
)


def _gate_sets(f):
    gt = gates(f)
    name = f.graph.dart_name
    return {frozenset(name(d) for d in m) for m in gt.members}


def test_gates_trib(trib):
    assert _gate_sets(trib) == {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
        frozenset({"b~"}),
        frozenset({"a~", "c~"}),
    }


def test_gates_trib_inv(trib_inv):
    assert _gate_sets(trib_inv) == {
        frozenset({"b", "a~"}),
        frozenset({"c", "b~"}),
        frozenset({"a", "c~"}),
    }


def test_gates_fib(fib):
    assert _gate_sets(fib) == {
        frozenset({"a", "b"}),
        frozenset({"a~"}),
        frozenset({"b~"}),
    }


def test_gates_reducible(reducible):
    assert _gate_sets(reducible) == {
        frozenset({"a", "b"}),
        frozenset({"c"}),
        frozenset({"a~", "c~"}),
        frozenset({"b~"}),
    }


def _assert_gates_match_oracle(f):
    classes, _ = derivative_orbit_gates(f)
    assert set(classes) == {frozenset(m) for m in gates(f).members}


def test_gates_match_oracle(all_maps):
    # the subdivided maps have two or more vertices
    maps = list(all_maps.values())
    maps += [detect_inps(f).subdivision.map for f in all_maps.values()]
    for f in maps:
        _assert_gates_match_oracle(f)


@given(st.one_of(reduced_rose_maps(), positive_rose_maps()))
def test_gates_match_oracle_random(f):
    _assert_gates_match_oracle(f)


@given(positive_rose_maps(moves_per_rank=1))
def test_gates_match_oracle_subdivided(f):
    rep = detect_inps(f, max_period=2)
    if rep.subdivision is not None:
        _assert_gates_match_oracle(rep.subdivision.map)


def test_gates_after_longest_pre_period():
    # Df runs a -> b -> c -> a~ -> b~ -> c~ -> c~: the darts a and b first
    # meet under Df^5, num_darts - 1, the latest a pre-period allows
    f = rose_map(["b", "c", "a~ c"])
    df = f.derivative_table
    assert df == (2, 3, 4, 5, 1, 5)
    tip_a, tip_b = 0, 2
    for _ in range(4):
        tip_a, tip_b = df[tip_a], df[tip_b]
    assert (tip_a, tip_b) == (3, 5)
    assert gates(f).members == ((0, 1, 2, 3, 4, 5),)
    _assert_gates_match_oracle(f)


# Df = (1, 2, 3, 3): a and b~ first meet under Df^3, past Df^2, and the
# illegal turns (a~, b~) and (b, b~) are reached only from the image turns
LONG_ORBITS = ["a~ b~", "b~ a b"]


def _assert_certificate_matches_closure(f):
    """`used_illegal_turns` and `require_train_track`'s message agree with
    the closure of all used turns, and the gates with the Df-orbit gates."""
    _assert_gates_match_oracle(f)
    bad = used_illegal_turns_by_closure(f)
    assert used_illegal_turns(f) == bad
    assert is_train_track(f) == (not bad)
    if bad:
        names = ", ".join(f"({f.graph.dart_name(a)}, {f.graph.dart_name(b)})" for a, b in bad[:4])
        with pytest.raises(NotTrainTrackError) as err:
            require_train_track(f)
        assert str(err.value) == f"used turns are degenerate under Df iterates: {names}"
    else:
        require_train_track(f)


@given(reduced_rose_maps())
@example(rose_map(LONG_ORBITS))
def test_train_track_certificate_matches_closure_random(f):
    # most of these maps are not train track maps
    _assert_certificate_matches_closure(f)


def test_train_track_certificate_matches_closure_subdivided():
    # the subdivided maps of signed automorphisms have two or more vertices
    maps = [detect_inps(f, max_period=2).subdivision for rank in (2, 3) for f in train_track_automorphisms(rank, 6, 23)]
    maps = [sub.map for sub in maps if sub is not None]
    assert maps
    for f in maps:
        _assert_certificate_matches_closure(f)


def test_two_gates(all_maps):
    for f in all_maps.values():
        assert two_gates_everywhere(f)


def test_train_track_fixtures(all_maps):
    for f in all_maps.values():
        assert is_train_track(f)
        require_train_track(f)


def test_not_train_track_detected(rose2):
    # a -> a b, b -> b~ a~: image of b crosses the illegal turn it creates
    f = GraphSelfMap.build(rose2, {"a": "a b", "b": "b~ a~"})
    if not is_train_track(f):
        with pytest.raises(NotTrainTrackError):
            require_train_track(f)
    else:
        pytest.skip("map happens to be a train track; pick a sharper example")


def test_used_turns_trib(trib, rose3):
    name = rose3.dart_name
    used = {tuple(name(d) for d in t) for t in used_turns(trib)}
    assert used == {
        ("a", "b~"),
        ("a", "c~"),
        ("a~", "b"),
        ("b", "b~"),
        ("b", "c~"),
        ("b~", "c"),
        ("c", "c~"),
    }


def test_used_turns_trib_inv_count(trib_inv):
    assert len(used_turns(trib_inv)) == 6


def test_used_subset_legal_and_closed(all_maps):
    for f in all_maps.values():
        used = used_turns(f)
        for t in used:
            assert is_legal_turn(f, t)
            assert turn_image(f, t) in used


def test_turn_image_is_derivative_pair(trib):
    table = trib.derivative_table
    for t in all_turns(trib.graph):
        img = turn_image(trib, t)
        assert img == tuple(sorted((table[t[0]], table[t[1]])))


def test_legality_matches_oracle(all_maps):
    for f in all_maps.values():
        _, assigned = derivative_orbit_gates(f)
        for t in all_turns(f.graph):
            assert is_legal_turn(f, t) == (assigned[t[0]] != assigned[t[1]])


def test_ilt_count_matches_oracle(all_maps):
    rng = random.Random(3)
    for f in all_maps.values():
        _, assigned = derivative_orbit_gates(f)
        for _ in range(100):
            w = random_reduced_word(f.graph, rng.randrange(1, 50), rng)
            assert ilt_count(f, w) == illegal_turn_count(f, w, assigned)


@given(reduced_rose_maps(), st.randoms(use_true_random=False))
def test_illegal_turn_scan_matches_oracle_random(f, rng):
    # one scan: its positions are the oracle's illegal turns, ilt_count
    # counts them, and legal_segments are the legal gaps between them
    _, assigned = derivative_orbit_gates(f)
    w = random_reduced_word(f.graph, rng.randint(1, 30), rng)
    cuts = [i for i in range(1, len(w)) if illegal_turn_count(f, w[i - 1 : i + 1], assigned)]
    assert illegal_positions(f, w) == cuts
    assert ilt_count(f, w) == illegal_turn_count(f, w, assigned) == len(cuts)
    runs = legal_segments(f, w)
    starts = [sum(runs[:i]) for i in range(len(runs))]
    assert sum(runs) == len(w) and starts[1:] == cuts
    assert all(illegal_turn_count(f, w[s : s + r], assigned) == 0 for s, r in zip(starts, runs))


def test_ilt_monotone_under_map(all_maps):
    rng = random.Random(17)
    for f in all_maps.values():
        for _ in range(300):
            w = random_reduced_word(f.graph, rng.randrange(2, 80), rng)
            assert ilt_count(f, f.apply(w)) <= ilt_count(f, w)


def test_legal_segments_partition(fib, rose2):
    w = rose2.parse_path("a~ b~ a b")
    runs = legal_segments(fib, w)
    # one illegal turn in the middle: two legal halves of two darts each
    assert runs == [2, 2]
    assert sum(runs) == len(w)


def test_legal_segments_all_legal(fib, rose2):
    w = fib.iterate((0,), 6)
    assert legal_segments(fib, w) == [len(w)]


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_legality_symmetric(trib, d1, d2):
    if trib.graph.origin(d1) != trib.graph.origin(d2):
        return
    t1 = tuple(sorted((d1, d2)))
    t2 = tuple(sorted((d2, d1)))
    assert is_legal_turn(trib, t1) == is_legal_turn(trib, t2)
