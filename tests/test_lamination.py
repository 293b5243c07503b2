"""Leaf languages, recurrence, equivalence classes, singular leaves, duality."""

import json
import random

import pytest
from hypothesis import assume, given, strategies as st

from ttlam import (
    GraphSelfMap,
    NotTrainTrackError,
    detect_inps,
    dual_language,
    eigenray_equivalence,
    illegality_between,
    ilt_contraction,
    ilt_count,
    is_train_track,
    leaf_language,
    leaf_window,
    pf_data,
    singular_leaves,
    transition_matrix,
    uniform_recurrence_check,
)
from ttlam import lamination, nielsen
from ttlam.graph import is_reduced
from ttlam.lamination import contraction_block, illegality_profile, leaf_language_names

from conftest import (
    RECORDED,
    THREE_VERTEX_TT,
    automorphism_pairs,
    pinned_languages,
    positive_rose_maps,
    reduced_rose_maps,
    relabelled,
    rose_map,
    train_track_automorphisms,
)
from oracles import (
    apply_map,
    chopped_ilt_series,
    derivative_orbit_gates,
    first_power_over,
    harvest_factors,
    illegal_turn_count,
    leaf_language_by_closure,
    primitivity_exponent,
    random_reduced_word,
    recurrence_by_closure,
)


def test_leaf_language_fib_n2(fib, rose2):
    got = {rose2.path_str(w) for w in leaf_language(fib, 2)}
    assert got == {"a b", "b a", "a a", "b~ a~", "a~ b~", "a~ a~"}


def test_leaf_language_n1_full_alphabet(all_maps):
    # primitivity forces every dart's edge into the alphabet
    for f in all_maps.values():
        lang = leaf_language(f, 1)
        assert {w[0] >> 1 for w in lang} == set(range(f.graph.num_edges))


def test_leaf_language_matches_fixed_horizon(trib, trib_inv):
    for f in (trib, trib_inv):
        horizon = harvest_factors(f, (2, 3, 5), rounds=40)
        for n in (2, 3, 5):
            assert leaf_language(f, n) == horizon[n]


@given(positive_rose_maps())
def test_leaf_language_matches_deep_horizon_random(f):
    # the first round at which every edge image has at least 10^4 darts
    lengths, rounds = [1] * f.graph.num_edges, 0
    while min(lengths) < 10**4:
        lengths = [sum(lengths[d >> 1] for d in img) for img in f.edge_image]
        rounds += 1
    horizon = harvest_factors(f, (1, 2, 3, 4), rounds)
    for n in (1, 2, 3, 4):
        assert leaf_language(f, n) == horizon[n]


def test_leaf_language_rank5_regression():
    # rank-5 benchmark map with lambda ~ 14.6: its five-fold edge images
    # already hold 2.9 million darts
    f = rose_map([
        "a b c d e d",
        "b c d e d",
        "b c d e d e d c d e d c d e d d e d e d c d e d",
        "d e d e d c d e d a",
        "b c d e d e d c d e d d e d e d c d e d",
    ])
    lang = leaf_language(f, 6)
    _, gate_of = derivative_orbit_gates(f)
    assert all(illegal_turn_count(f, w, gate_of) == 0 for w in lang)
    assert all(tuple(x ^ 1 for x in reversed(w)) in lang for w in lang)
    for e in range(f.graph.num_edges):
        p = apply_map(f, apply_map(f, (2 * e,)))
        assert {p[i : i + 6] for i in range(len(p) - 5)} <= lang


def _check_against_closure(f):
    for n in range(1, 9):
        assert leaf_language(f, n) == leaf_language_by_closure(f, n)


@given(positive_rose_maps())
def test_leaf_language_matches_closure_random(f):
    _check_against_closure(f)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_leaf_language_matches_closure_with_backward_darts(rank):
    # legal images with backward darts: a turn x~ y is crossed both ways
    for f in train_track_automorphisms(rank, 12, seed=5):
        _check_against_closure(f)


def test_leaf_language_matches_closure_fixtures(map_files):
    for mf in map_files.values():
        _check_against_closure(mf.map)


def test_leaf_language_keeps_words_of_early_images():
    # k = 2 at n = 3 (|f(b)| = 1), and only f(c) holds a b b: no image
    # f^t(e) with t >= 2 does, as each is made of the blocks a b and a
    f = rose_map(["a b", "a", "a b b"])
    assert f.edge_iterates.first_level_over(1) == 2
    assert f.graph.parse_path("a b b") in leaf_language(f, 3)


def test_languages_pinned():
    # leaf and dual languages and recurrence reports, recorded by
    # tests/record_reference.py, byte for byte
    text = (RECORDED / "languages.json").read_text()
    recorded, got = json.loads(text), pinned_languages()
    assert got.keys() == recorded.keys()
    for key, value in got.items():
        assert value == recorded[key], key
    assert json.dumps(got, indent=1, sort_keys=True) + "\n" == text


@given(positive_rose_maps(), st.permutations(["x1", "x10", "y_2", "ab"]))
def test_language_names_are_path_strs(f, names):
    # multi-character names, one a prefix of another: each coded word is
    # named as Graph.path_str names its darts
    f = relabelled(f, names[: f.graph.num_edges])
    for n in range(1, 7):
        assert leaf_language_names(f, n) == sorted(f.graph.path_str(w) for w in leaf_language(f, n))


def _refuse_ray_and_descent_reads(monkeypatch):
    """Make every read of an eigenray or of a place in f^t(d) fail."""
    for module, name in ((nielsen, "_coded_rays"), (lamination, "_coded_rays"), (nielsen, "_descend"), (nielsen, "_first_index")):
        def refused(*args, name=name):
            raise AssertionError(f"{name} read")

        monkeypatch.setattr(module, name, refused)


def test_leaf_language_work_is_bounded_by_the_window(monkeypatch):
    # strata growing at different rates: at n = 16 the level is k = 7, set
    # by the Fibonacci stratum b c, while f^7(a) = a^(10^7); the language
    # must come from clipped images, never from a whole one
    f = rose_map(["a a a a a a a a a a", "b c", "b"])
    assert f.edge_iterates.first_level_over(14) == 7

    _refuse_ray_and_descent_reads(monkeypatch)
    for n in (16, 24):
        assert leaf_language(f, n) == leaf_language_by_closure(f, n)


def _recurrence(f, m):
    rep = uniform_recurrence_check(f, m)
    return rep.witness, rep.conclusive, rep.factors


def test_recurrence_counts_the_leaf_language(map_files):
    # the count is the leaf language's by construction; the factor-set
    # closure of the oracle, on apply_map, computes all three independently
    maps = [mf.map for mf in map_files.values()]
    maps += [f for rank in (2, 3, 4) for f in train_track_automorphisms(rank, 6, seed=9)]
    for f in maps:
        for m in (1, 2, 3):
            assert uniform_recurrence_check(f, m).factors == len(leaf_language(f, m))
            assert _recurrence(f, m) == recurrence_by_closure(f, m)


@given(st.one_of(
    positive_rose_maps(),
    st.builds(lambda rank, seed: train_track_automorphisms(rank, 1, seed)[0], st.integers(2, 4), st.integers(0, 10**6)),
))
def test_recurrence_matches_closure_random(f):
    for m in (1, 2, 3, 4):
        assert _recurrence(f, m) == recurrence_by_closure(f, m)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_recurrence_of_block_maps_never_holds(k):
    # x1 -> x2^N, ..., xk -> x1^N: a train track map whose transition matrix
    # is N times a k-cycle, not primitive: f^t(e) is one letter repeated
    for n in (2, 3):
        f = rose_map([" ".join([chr(ord("a") + (i + 1) % k)] * n) for i in range(k)])
        for m in (1, 2, 3, 4):
            assert _recurrence(f, m)[:2] == (-1, False)
            assert _recurrence(f, m) == recurrence_by_closure(f, m)


def test_recurrence_work_is_bounded_by_the_window(monkeypatch):
    # the leaf language's map: f^7(a) = a^(10^7), and b c grows like the
    # Fibonacci words; the levels come from clipped images, so f is never
    # applied and no stored image above level 1 is read
    f = rose_map(["a a a a a a a a a a", "b c", "b"])
    expected = {m: recurrence_by_closure(f, m) for m in (3, 16)}

    def applied(self, path):
        raise AssertionError("f applied to a path")

    monkeypatch.setattr(GraphSelfMap, "apply", applied)
    _refuse_ray_and_descent_reads(monkeypatch)
    for m, want in expected.items():
        assert _recurrence(f, m) == want


def test_collapsing_map_is_not_train_track(rose2):
    # f^2(b) = a b b~ a~ reduces to the empty path: no train track, and the
    # level search must not wait for the image to grow; a window of one
    # dart, where no image cancels, must still refuse it
    f = GraphSelfMap.build(rose2, {"a": "a b", "b": "b~ a~"})
    for n in (8, 1):
        with pytest.raises(NotTrainTrackError):
            leaf_language(f, n)
    for m in (2, 1):
        with pytest.raises(NotTrainTrackError):
            uniform_recurrence_check(f, m)


def test_leaf_language_trib_inv_n3_regression(trib_inv):
    assert len(leaf_language(trib_inv, 3)) == 18


def test_leaf_language_flip_closed(trib):
    lang = leaf_language(trib, 4)
    for w in lang:
        assert tuple(x ^ 1 for x in reversed(w)) in lang


def test_recurrence_all_iwip(fib, trib, trib_inv):
    for f in (fib, trib, trib_inv):
        for m in (2, 3, 4):
            rep = uniform_recurrence_check(f, m)
            assert rep.conclusive
            assert 0 < rep.witness <= 25


def test_recurrence_exact_witnesses(fib, trib, trib_inv, reducible):
    for f, witnesses in ((fib, (2, 4, 5, 5)), (trib, (5, 11, 12, 13)), (trib_inv, (4, 8, 9, 10))):
        assert tuple(uniform_recurrence_check(f, m).witness for m in (1, 2, 3, 4)) == witnesses
    # edge c never occurs in the images of a and b
    rep = uniform_recurrence_check(reducible, 2)
    assert (rep.witness, rep.conclusive) == (-1, False)


def test_recurrence_m1_matches_matrix_positivity(fib):
    import numpy as np

    from ttlam import transition_matrix

    rep = uniform_recurrence_check(fib, 1)
    m = transition_matrix(fib)
    t = 1
    p = m.copy()
    while not (p > 0).all():
        p = p @ m
        t += 1
    assert rep.witness == t


def test_equivalence_single_class(fib, trib, trib_inv):
    for f in (fib, trib, trib_inv):
        assert eigenray_equivalence(f).num_classes == 1


def test_equivalence_reducible_split(reducible, rose3):
    eq = eigenray_equivalence(reducible)
    assert eq.num_classes == 2
    names = [
        frozenset(rose3.dart_name(d) for d in cls) for cls in eq.dart_classes
    ]
    assert frozenset({"c"}) in names


def test_branch_degrees_trib_inv(trib_inv):
    # one class of three gates: a single degree-3 branch point downstairs
    eq = eigenray_equivalence(trib_inv)
    assert [len(cls) for cls in eq.classes] == [3]


def test_branch_degrees_trib(trib):
    eq = eigenray_equivalence(trib)
    assert [len(cls) for cls in eq.classes] == [5]


def test_singular_trib(trib, rose3):
    rep = singular_leaves(trib)
    assert rep.conclusive
    name = rose3.dart_name
    got = {(name(leaf.entry), name(leaf.exit)) for leaf in rep.leaves}
    assert got == {("a", "b"), ("a", "c"), ("b", "c"), ("b~", "c~")}
    assert all(leaf.connector == () for leaf in rep.leaves)


def test_singular_trib_inv_empty(trib_inv):
    rep = singular_leaves(trib_inv)
    assert rep.conclusive
    assert rep.leaves == ()


def test_singular_fib_inp_lines(fib):
    rep = singular_leaves(fib)
    assert rep.conclusive
    inp_leaves = [leaf for leaf in rep.leaves if leaf.connector]
    assert len(inp_leaves) == 4  # entries {a, b~} x exits {a, a~}


def test_singular_windows_almost_legal(trib):
    from ttlam.graph import turns_of_path
    from ttlam.train_track import used_turns

    used = used_turns(trib)
    rep = singular_leaves(trib)
    for n in (8, 16, 32):
        for leaf in rep.leaves:
            w = leaf_window(trib, leaf, n)
            assert is_reduced(w)
            assert ilt_count(trib, w) == 0
            unused = [t for t in turns_of_path(w) if t not in used]
            assert len(unused) == 1
            assert unused[0] == (leaf.entry, leaf.exit)


@given(st.one_of(positive_rose_maps(), reduced_rose_maps()))
def test_singular_leaf_windows_cross_one_connector(f):
    # a window is legal on both rays; a turn leaf's connector is a legal
    # turn, an INP leaf's carries the INP's one illegal turn
    assume(f.is_expanding and is_train_track(f))
    for leaf in singular_leaves(f).leaves:
        for n in (1, 6):
            w = leaf_window(f, leaf, n)
            assert f.graph.is_edge_path(w) and is_reduced(w)
            assert ilt_count(f, w) == (1 if leaf.connector else 0)


def test_dual_equals_leaf_when_no_singulars(trib_inv):
    for n in (4, 8, 16):
        assert dual_language(trib_inv, n) == leaf_language(trib_inv, n)


def test_dual_strictly_larger_with_singulars(trib):
    # the forward tribonacci map has unused legal turns, so its own dual
    # closure picks up genuinely new words
    for n in (4, 8):
        assert leaf_language(trib, n) < dual_language(trib, n)


def test_illegality_profile_dual_vs_forward(trib, trib_inv):
    prof = illegality_between(trib, trib_inv, 16)
    assert prof.max_run <= 4
    assert prof.c_illegal == 17
    assert prof.all_below
    assert prof.words == len(dual_language(trib_inv, 16))


def test_illegality_profile_rejects_bad_words(trib):
    from ttlam import IncompatibleGraphsError

    with pytest.raises(IncompatibleGraphsError):
        illegality_profile(trib, [(99, 3)])


def test_forward_language_is_legal_for_itself(trib):
    # leaves of the forward lamination are legal: every window is one run
    lang = leaf_language(trib, 12)
    prof = illegality_profile(trib, sorted(lang))
    assert prof.histogram == ((12, len(lang)),)


def test_contraction_block_trib(trib):
    b = contraction_block(trib)
    from ttlam import pf_data

    c = pf_data(trib).c_illegal
    lengths = [len(trib.iterate((2 * e,), b)) for e in range(3)]
    shorter = [len(trib.iterate((2 * e,), b - 1)) for e in range(3)]
    assert min(lengths) > c
    assert min(shorter) <= c


def _check_contraction_block(f):
    # the block agrees with plain matrix powers and stays within the proved
    # bound k + c_illegal, k the primitivity exponent of M
    m = transition_matrix(f)
    c = pf_data(f).c_illegal
    s = contraction_block(f)
    assert s == first_power_over(m, c)
    assert s <= primitivity_exponent(m) + c
    return s


def test_contraction_block_matches_matrix_powers_fixtures(fib, trib, trib_inv):
    assert [_check_contraction_block(f) for f in (fib, trib, trib_inv)] == [6, 12, 10]


@given(positive_rose_maps())
def test_contraction_block_matches_matrix_powers(f):
    _check_contraction_block(f)


def test_contraction_series_drops(trib, trib_inv):
    w = sorted(dual_language(trib_inv, 32))[0]
    rep = ilt_contraction(trib, w, steps=20)
    assert all(x >= y for x, y in zip(rep.series, rep.series[1:]))
    assert rep.reached_le_one


def test_contraction_inp_word_stays_one(fib, rose2):
    rep = ilt_contraction(fib, rose2.parse_path("a~ b~ a b"), steps=12, chop=0)
    assert rep.series == tuple([1] * 13)
    assert rep.step_reached == 0


def test_contraction_legal_word_stays_zero(trib):
    w = trib.iterate((0,), 8)
    rep = ilt_contraction(trib, w, steps=6)
    assert set(rep.series) == {0}


@given(positive_rose_maps(), st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_contraction_series_matches_reference_loop(f, chop, steps, rng):
    word = random_reduced_word(f.graph, rng.randint(2 * chop + 1, 2 * chop + 12), rng)
    assert ilt_contraction(f, word, steps=steps, chop=chop).series == chopped_ilt_series(f, word, steps, chop)


def test_contraction_series_matches_reference_loop_through_inps():
    # signed automorphisms and their subdivisions (two or more vertices),
    # on random words and on their INPs, whose count stays 1 at chop 0
    rng = random.Random(16)
    maps = train_track_automorphisms(2, 3, seed=7) + train_track_automorphisms(3, 3, seed=8)
    cases = []
    for f in maps:
        rep = detect_inps(f)
        cases.append((f, [p.path for p in rep.inps]))
        if rep.subdivision is not None:
            cases.append((rep.subdivision.map, [p.path for p in rep.subdivided_inps]))
    assert any(f.graph.num_vertices > 1 for f, _ in cases)
    held_at_one = 0
    for f, inps in cases:
        for chop in range(4):
            words = [w for w in inps if len(w) > 2 * chop]
            words += [random_reduced_word(f.graph, rng.randint(2 * chop + 1, 2 * chop + 10), rng) for _ in range(3)]
            for w in words:
                series = ilt_contraction(f, w, steps=3, chop=chop).series
                assert series == chopped_ilt_series(f, w, 3, chop), (f.edge_image, w, chop)
                held_at_one += series == (1, 1, 1, 1)
    assert held_at_one


def test_contraction_stops_applying_at_zero(monkeypatch, rose2):
    # the word's image grows about 2.6x per step while its count stays 0:
    # the default 39 steps would never end.  ilt_contraction applies f by
    # joining the coded images of the word's pieces with join_reduced, so
    # the darts it joins, decoded, are those of exactly one application of f
    f = GraphSelfMap.build(rose2, {"a": "a b~ a", "b": "b a~"})
    joined = []
    join = lamination.join_reduced

    def counting(blocks):
        blocks = list(blocks)
        for b in blocks:
            joined.extend(map(ord, b))
        return join(blocks)

    monkeypatch.setattr(lamination, "join_reduced", counting)
    word = rose2.parse_path(" ".join(["a b"] * 12))
    rep = ilt_contraction(f, word, steps=8)
    assert rep.series == (11,) + (0,) * 8
    assert joined == [x for d in word for x in f.dart_image(d)]


def test_contraction_rejects_consumed_word(trib, rose3):
    from ttlam import MapError

    with pytest.raises(MapError):
        ilt_contraction(trib, rose3.parse_path("a b"), steps=3)


def test_contraction_rejects_a_word_that_is_not_an_edge_path():
    from ttlam import MapError
    from ttlam.mapfile import parse_map_file

    f = parse_map_file(THREE_VERTEX_TT).map
    with pytest.raises(MapError, match="not an edge path"):
        ilt_contraction(f, f.graph.parse_path("e0 e0"), steps=3, chop=0)
    assert ilt_contraction(f, f.graph.parse_path("e0 e1"), steps=3, chop=0).series == (0, 0, 0, 0)


# -- (phi, phi^-1) pairs: the paper's dual-lamination laws off the fixtures ------
#
# Every rank-2 automorphism is geometric, so the pairs are drawn at rank 3 and
# 4.  f is the forward map and g = f^-1, read off the Nielsen moves that built
# f; the dual lamination of f's tree is carried by g's dual language.

automorphism_pair = st.builds(
    lambda rank, seed: automorphism_pairs(rank, 1, seed)[0], st.integers(3, 4), st.integers(0, 10**6)
)


@given(automorphism_pair)
def test_pairs_are_inverse(pair):
    f, g = pair
    for e in range(f.graph.num_edges):
        assert apply_map(f, g.edge_image[e]) == (2 * e,)
        assert apply_map(g, f.edge_image[e]) == (2 * e,)


@given(automorphism_pair)
def test_pair_dual_words_are_totally_illegal(pair):
    # acceptance criterion 9: each word of g's dual language has legal runs
    # in f's gates below f's illegality constant
    f, g = pair
    for n in (4, 8, 16):
        prof = illegality_between(f, g, n)
        assert prof.words == len(dual_language(g, n))
        assert prof.all_below, (f.edge_image, g.edge_image, n, prof.max_run, prof.c_illegal)


@given(automorphism_pair)
def test_pair_dual_words_contract_monotonically(pair):
    # acceptance criterion 10: f never raises the chopped illegal-turn count
    # of a dual word of g.  Few steps: a word through an INP keeps its count
    # and its images grow like lambda^step
    f, g = pair
    words = sorted(dual_language(g, 2 * f.cancellation_bound + 8))
    for w in words[:: max(1, len(words) // 6)]:
        series = ilt_contraction(f, w, steps=4).series
        assert all(x >= y for x, y in zip(series, series[1:])), (f.edge_image, g.edge_image, w, series)
