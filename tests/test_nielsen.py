"""Periodic structures, eigenrays, interior points, subdivision, INPs."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttlam import (
    GraphSelfMap,
    detect_inps,
    eigenray_prefix,
    is_primitive,
    is_train_track,
    nielsen,
    pf_data,
    periodic_structures,
    subdivide_at,
    transition_matrix,
)
from ttlam.errors import ConvergenceError, MapError, NotExpandingError, NotTrainTrackError, TtError
from ttlam.spectral import _LAM_TOL
from ttlam.nielsen import (
    NielsenPath,
    _default_window,
    _coded_rays,
    _cycle_periods,
    _descend,
    _eigenrays,
    _first_index,
    _first_interior_point,
    _pf_or_none,
    _refined_pf,
    _render_notes,
    _scan_ray_pairs,
    _tail_candidates,
    PeriodicPoint,
    doubled_index,
    point_image,
    stability_verdict,
)

from conftest import (
    RECORDED,
    cycle_rose,
    pinned_inp_maps,
    positive_rose_maps,
    reduced_rose_maps,
    rose_map,
    train_track_automorphisms,
)
from oracles import (
    apply_map,
    brute_force_inps,
    cycle_periods_by_walks,
    derivative_orbit_gates,
    detect_inps_cold,
    edge_iterate,
    index_at_multiple,
    iterated_eigenray_prefix,
    quadratic_tail_stems,
    scan_ray_pairs_by_iteration,
    subdivision_by_ranges,
)


def test_periodic_structures_trib(trib, rose3):
    pd = periodic_structures(trib)
    assert dict(pd.vertex_period) == {0: 1}
    name = rose3.dart_name
    periods = {name(d): p for d, p in pd.dart_period.items()}
    assert periods == {"a": 3, "b": 3, "c": 3, "b~": 2, "c~": 2}


def test_periodic_structures_fib(fib, rose2):
    pd = periodic_structures(fib)
    name = rose2.dart_name
    periods = {name(d): p for d, p in pd.dart_period.items()}
    assert periods == {"a": 1, "a~": 2, "b~": 2}


@given(st.integers(1, 12).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_cycle_periods_match_walks(step):
    # one pass gives every cycle element its minimal period, keys ascending
    periods = _cycle_periods(tuple(step))
    assert periods == cycle_periods_by_walks(step)
    assert list(periods) == sorted(periods)


def test_eigen_darts_one_per_gate(all_maps):
    # at a periodic vertex every gate holds exactly one eigen dart
    from ttlam import gates

    for f in all_maps.values():
        pd = periodic_structures(f)
        gt = gates(f)
        eigen = set(pd.dart_period)
        for v in pd.vertex_period:
            for gid in gt.gates_at(v):
                assert sum(1 for d in gt.members[gid] if d in eigen) == 1


def test_eigenray_prefix_trib(trib, rose3):
    # frozen: the ray of dart a starts a b b c
    assert rose3.path_str(eigenray_prefix(trib, 0, 4)) == "a b b c"


def test_eigenray_prefix_nesting(trib):
    r64 = eigenray_prefix(trib, 0, 64)
    r256 = eigenray_prefix(trib, 0, 256)
    assert r256[:64] == r64


def test_eigenray_rejects_non_eigen(trib):
    # dart a~ has Df-period 2 through b~, so a~ itself is not eigen
    with pytest.raises(MapError):
        eigenray_prefix(trib, 1, 8)


def test_eigenray_refuses_a_map_that_is_no_train_track_map():
    # f = a -> b, b -> a~ b~ is expanding but no train track map, and
    # [f^3] fixes each of its Df-periodic darts a~, b, b~ (Df-period 3):
    # eigenray_prefix refuses it, while the whole-path oracle, which takes
    # any map, finds that no prefix grows
    f = rose_map(["b", "a~ b~"])
    period = periodic_structures(f).dart_period
    assert f.is_expanding and not is_train_track(f) and set(period) == {1, 2, 3}
    for d in period:
        with pytest.raises(NotTrainTrackError):
            eigenray_prefix(f, d, 8)
        assert _outcome(iterated_eigenray_prefix, f, d, 8) is ConvergenceError


def test_eigenray_legal(trib, fib):
    from ttlam import ilt_count

    for f in (trib, fib):
        pd = periodic_structures(f)
        for d in pd.dart_period:
            assert ilt_count(f, eigenray_prefix(f, d, 128)) == 0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TtError as exc:
        return type(exc)


def _owed(f, d, n):
    """What eigenray_prefix owes: on an expanding train track map, whole-path
    iteration's answer, errors included; on any other map, MapError for a
    dart that is not Df-periodic, else NotExpandingError, else
    NotTrainTrackError."""
    want = _outcome(iterated_eigenray_prefix, f, d, n)
    if is_train_track(f) or want in (MapError, NotExpandingError):
        return want
    return NotTrainTrackError


def _check_eigenrays_against_iteration(f, lengths):
    for d in f.graph.darts():
        for n in lengths:
            assert _outcome(eigenray_prefix, f, d, n) == _owed(f, d, n), (f.edge_image, d, n)


def test_eigenray_streaming_matches_iteration_fixtures(all_maps):
    for f in all_maps.values():
        _check_eigenrays_against_iteration(f, (1, 2, 9, 64, 300))


@given(positive_rose_maps())
def test_eigenray_streaming_matches_iteration_positive(f):
    _check_eigenrays_against_iteration(f, (1, 5, 40))


# mostly no train track maps: refused after the checks on the dart and on expansion
@settings(max_examples=300)
@given(reduced_rose_maps())
def test_eigenray_streaming_matches_iteration_any_rose_map(f):
    _check_eigenrays_against_iteration(f, (1, 6, 40))


def _check_store_in_any_order(f, lengths, rng):
    """Prefixes asked of one map object in a shuffled order, streamed along
    the Df-cycles when f is a train track map, are what eigenray_prefix
    owes (`_owed`).  On an expanding train track map every ray is also
    asked at once, each Df-cycle streamed whole (`_coded_rays`), at
    shuffled points between the single asks."""
    period = periodic_structures(f).dart_period
    asked = [(d, n) for d in f.graph.darts() for n in lengths]
    if f.is_expanding and is_train_track(f):
        asked += [(None, n) for n in lengths]
    rng.shuffle(asked)
    for d, n in asked:
        if d is None:
            want = [tuple(map(chr, iterated_eigenray_prefix(f, c, n))) for c in period]
            assert [tuple(ray) for ray in _coded_rays(f, n, period)] == want, (f.edge_image, n)
            continue
        assert _outcome(eigenray_prefix, f, d, n) == _owed(f, d, n), (f.edge_image, d, n)


@given(positive_rose_maps(), st.randoms(use_true_random=False))
def test_eigenray_store_any_order_positive(f, rng):
    _check_store_in_any_order(f, (1, 5, 40, 2, 17, 64), rng)


@settings(max_examples=150)
@given(reduced_rose_maps(), st.randoms(use_true_random=False))
def test_eigenray_store_any_order_any_rose_map(f, rng):
    _check_store_in_any_order(f, (1, 6, 40, 3, 17), rng)


def _check_store_keeps_no_more_than_asked(ask):
    # Df-period 6: f^6(d) = d^4096 for every dart d, so the ray of d is d d
    # d ..., and rounds p -> [f^6(p)] would keep a whole [f^6(p)] however
    # short the prefix; a ray streamed from its predecessor's reads at most
    # as many darts as it lacks, each with an image of max|f(e)| = 4 darts
    f = cycle_rose(6, 4)
    assert is_train_track(f)
    longest = 0
    for n in (5, 300, 17, 1000, 2, 9000, 64, 4096):
        longest = max(longest, n)
        ask(f, n)
        held = [len(ray) for ray, _ in _eigenrays(f).values()]
        assert len(held) == f.graph.num_darts and all(longest <= m <= 4 * longest for m in held)


def test_eigenray_store_keeps_no_more_than_asked():
    def ask(f, n):
        for d in f.graph.darts():
            assert eigenray_prefix(f, d, n) == (d,) * n

    _check_store_keeps_no_more_than_asked(ask)


def test_eigenray_store_keeps_no_more_than_asked_cycle_at_once():
    # the scan's one call per window streams each Df-cycle until all of its
    # rays hold n darts, and the bound holds ray by ray as before
    def ask(f, n):
        assert _coded_rays(f, n, f.graph.darts()) == [chr(d) * n for d in f.graph.darts()]

    _check_store_keeps_no_more_than_asked(ask)


def _dart_iterate(f, d, t):
    """f^t(d): `edge_iterate` for a forward dart, reversed for a backward one."""
    p = edge_iterate(f, d >> 1, t)
    return tuple(x ^ 1 for x in reversed(p)) if d & 1 else p


def _check_coded_images(f):
    """The descents read f^t(d), t <= 3, as `_dart_iterate` has it: at
    every index i, `_descend` gives the dart P[i] of P = f^t(d) and the
    length |f^s(P[:i])| for s = 1 and t, which `point_image` and
    `doubled_index` read; and `_check_first_index` holds."""
    lengths = f.edge_iterates.lengths
    for t in (1, 2, 3):
        for d in range(f.graph.num_darts):
            p = _dart_iterate(f, d, t)
            for s in {1, t}:
                size = [len(edge_iterate(f, e, s)) for e in range(f.graph.num_edges)]
                ell = 0
                for i, x in enumerate(p):
                    assert _descend(f, d, t, i, lambda r: lengths(r + s)) == (x, ell), (f.edge_image, d, t, i, s)
                    ell += size[x >> 1]
    _check_first_index(f)


def _check_first_index(f):
    """`_first_index` finds the dart x in f^t(d), t <= 3, where `str.find`
    finds it from lo in the coded `_dart_iterate`, for every d and x and
    lo 0 and 1."""
    darts = range(f.graph.num_darts)
    occurs = [[sum(1 << x for x in set(_dart_iterate(f, d, r))) for d in darts] for r in range(3)]
    for t in (1, 2, 3):
        for d in darts:
            code = "".join(map(chr, _dart_iterate(f, d, t)))
            for lo in (0, 1):
                for x in darts:
                    i = code.find(chr(x), lo)
                    assert _first_index(f, d, t, x, lo, occurs) == (i if i >= 0 else None), (f.edge_image, d, t, x, lo)


def test_coded_images_match_iteration_fixtures(all_maps):
    for f in all_maps.values():
        _check_coded_images(f)


@given(positive_rose_maps())
def test_coded_images_match_iteration_positive(f):
    _check_coded_images(f)


def test_coded_images_match_iteration_backward_darts():
    # legal images with backward darts, so reversed occurrences too
    for f in train_track_automorphisms(3, 20, seed=4):
        _check_coded_images(f)


def interior_descriptors(f, t):
    """Descriptors (edge, exponent, index) of the interior points fixed by
    f^t, read off `edge_iterate`: a forward occurrence of e at
    0 < i < |f^t(e)| - 1 at exponent t, a reversed one at exponent 2t,
    where `doubled_index` moves it."""
    out = []
    for e in range(f.graph.num_edges):
        p = edge_iterate(f, e, t)
        for i, d in enumerate(p):
            if d == 2 * e + 1:
                out.append((e, 2 * t, doubled_index(f, e, t, i)))
            elif d == 2 * e and 0 < i < len(p) - 1:
                out.append((e, t, i))
    return out


def test_occurrences_fib(fib):
    # f^3(a) = a b a a b: edge a appears at 0 (initial vertex), 2 and 3 (interior)
    found = interior_descriptors(fib, 3)
    assert (0, 3, 2) in found
    assert (0, 3, 3) in found


def interior_periodic_points(f, max_period=6):
    """All interior points of period <= max_period, each once, in the order
    (period, edge, place along the edge): the full enumeration that
    `detect_inps` picks the first orbit of.

    A point of minimal period p is fixed by f^t exactly when p divides t,
    and then it carries one occurrence of e or e~ in f^t(e).  So the points
    of period t are the occurrences at exponent t, interior when forward,
    that are not the occurrence of a point of period p < t dividing t,
    which `index_at_multiple` carries from exponent p to t.  Each point is
    keyed by its occurrence at its own period, where the occurrences on one
    edge follow the order along it, and stored as `_first_interior_point`
    stores it: a forward one at exponent t, a reversed one at 2t, where
    `doubled_index` moves it.  It costs O(points x |f^t(e)|), t <=
    max_period, so it stays a test reference.
    """
    found = {}  # (period t, edge, index in f^t(e)) -> point
    for t in range(1, max_period + 1):
        old = {(e, index_at_multiple(f, e, p, i, t // p)) for p, e, i in found if t % p == 0}
        for e in range(f.graph.num_edges):
            img = edge_iterate(f, e, t)
            for i, d in enumerate(img):
                if (e, i) in old:
                    continue
                if d == 2 * e + 1:
                    found[t, e, i] = PeriodicPoint(e, 2 * t, doubled_index(f, e, t, i), t)
                elif d == 2 * e and 0 < i < len(img) - 1:
                    found[t, e, i] = PeriodicPoint(e, t, i, t)
    return tuple(found[key] for key in sorted(found))


def test_interior_points_fib_minimal_orbit(fib, rose2):
    pts = interior_periodic_points(fib, max_period=3)
    key = {(rose2.edge_names[p.edge], p.exponent, p.index, p.period) for p in pts}
    assert key == {("a", 3, 2, 3), ("a", 3, 3, 3), ("b", 3, 1, 3)}


def test_no_low_period_interior_points_fib(fib):
    assert interior_periodic_points(fib, max_period=2) == ()


def test_interior_points_trib_orbit(trib, rose3):
    pts = interior_periodic_points(trib, max_period=5)
    key = {(rose3.edge_names[p.edge], p.exponent, p.index) for p in pts}
    assert key == {("a", 5, 1), ("b", 5, 1), ("b", 5, 2), ("c", 5, 1), ("c", 5, 2)}
    assert all(p.period == 5 for p in pts)


def test_doubled_index_of_a_reversed_occurrence_trib_inv(trib_inv):
    # f(a) = c a~ holds a reversed occurrence of a at index 1; at the doubled
    # exponent the point sits on a forward a
    j = doubled_index(trib_inv, 0, 1, 1)
    assert trib_inv.iterate((0,), 2)[j] == 0


def test_doubled_index_consistent(fib):
    # the same point seen at exponent 3, 6 and 12
    i6 = doubled_index(fib, 0, 3, 2)
    assert fib.iterate((0,), 6)[i6] == 0
    i12 = doubled_index(fib, 0, 6, i6)
    assert i12 == index_at_multiple(fib, 0, 3, 2, 4)


def _check_doubled_index(f):
    """For every occurrence P[i] of e or e~ in P = f^t(e), t <= 3, the dart
    of f^(2t)(e) = f^t(P) at doubled_index is e.  It is read inside the
    block f^t(P[i]), which is P or P reversed and starts after the blocks of
    P[:i]: for a train track map no two blocks cancel.  A forward occurrence
    also agrees with `index_at_multiple`."""
    for t in (1, 2, 3):
        lens = [len(edge_iterate(f, e, t)) for e in range(f.graph.num_edges)]
        for e in range(f.graph.num_edges):
            p = edge_iterate(f, e, t)
            start = 0  # where the block of p[i] starts in f^t(P)
            for i, d in enumerate(p):
                if d >> 1 == e:
                    j = doubled_index(f, e, t, i) - start
                    assert 0 <= j < len(p), (f.edge_image, e, t, i)
                    if d & 1:
                        assert p[len(p) - 1 - j] ^ 1 == 2 * e, (f.edge_image, e, t, i)
                    else:
                        assert p[j] == 2 * e, (f.edge_image, e, t, i)
                        assert j + start == index_at_multiple(f, e, t, i, 2)
                start += lens[d >> 1]


def test_doubled_index_lands_on_the_edge_fixtures(all_maps):
    for f in all_maps.values():
        _check_doubled_index(f)


# one move per rank keeps |f^3(e)| in the hundreds: doubled_index costs
# O(i), so checking every occurrence costs O(|f^3(e)|^2)
@given(positive_rose_maps(moves_per_rank=1))
def test_doubled_index_lands_on_the_edge_random(f):
    _check_doubled_index(f)


def test_point_image_closes_orbit(fib):
    orbit = subdivide_at(fib, PeriodicPoint(0, 3, 2, 3)).orbit
    assert len(orbit) == 3
    assert {p.edge for p in orbit} == {0, 1}


def test_point_image_lands_on_point(fib):
    e2, i2, _ = point_image(fib, 0, 3, 2)
    p = fib.iterate((2 * e2,), 3)
    assert p[i2] == 2 * e2 or p[i2] == 2 * e2 + 1


def test_subdivision_fib_frozen(fib, rose2):
    pts = interior_periodic_points(fib, max_period=3)
    res = subdivide_at(fib, pts[0])
    sg = res.map.graph
    assert res.edge_split == {"a": ("a.1", "a.2", "a.3"), "b": ("b.1", "b.2")}
    images = {
        sg.edge_names[i]: sg.path_str(res.map.edge_image[i]) for i in range(sg.num_edges)
    }
    assert images == {
        "a.1": "a.1 a.2",
        "a.2": "a.3 b.1",
        "a.3": "b.2",
        "b.1": "a.1",
        "b.2": "a.2 a.3",
    }


def test_subdivision_preserves_train_track(fib):
    from ttlam import is_train_track, pf_data

    pts = interior_periodic_points(fib, max_period=3)
    res = subdivide_at(fib, pts[0])
    assert res.map.is_expanding
    assert is_train_track(res.map)
    assert abs(pf_data(res.map).lam - pf_data(fib).lam) < 1e-9


def _check_subdivision_refines(f):
    """Read each dart of the subdivided map as the dart of its old edge in
    the same direction: the images of the pieces of e, laid end to end, read
    f(e) with every dart repeated once per piece of its edge, and the orbit
    vertices map around the orbit."""
    point = _first_interior_point(f, 3)
    if point is None:
        return
    res = subdivide_at(f, point)
    g, h = f.graph, res.map.graph
    old_edge = {h.edge_names.index(p): e for e, name in enumerate(g.edge_names) for p in res.edge_split[name]}
    for e, name in enumerate(g.edge_names):
        joined = [x for p in res.edge_split[name] for x in res.map.edge_image[h.edge_names.index(p)]]
        read = [2 * old_edge[x >> 1] + (x & 1) for x in joined]
        assert read == [d for d in f.edge_image[e] for _ in res.edge_split[g.edge_names[d >> 1]]]
    new = [h.vertex_names.index(v) for v in res.new_vertices]
    assert [res.map.vertex_image[v] for v in new] == new[1:] + new[:1]
    assert res.map.vertex_image[: g.num_vertices] == f.vertex_image


def test_subdivision_refines_the_map_fixtures(all_maps):
    # the two rank-2 maps send an orbit point onto an edge holding two orbit
    # points, through a reversed dart of f(e)
    for f in [*all_maps.values(), rose_map(["a b~", "a~"]), rose_map(["b~", "b a~"])]:
        _check_subdivision_refines(f)


@given(positive_rose_maps())
def test_subdivision_refines_the_map_random(f):
    _check_subdivision_refines(f)


def test_subdivide_at_refuses_a_map_that_is_not_train_track():
    # f(a) = b a~ holds a~, which moves to (a, 2, 2) if nothing cancels;
    # but f(b) f(a~) = b~ a~ a b~ does, and [f^2(a)] = b~ b~ has two darts
    f = rose_map(["b a~", "b~ a~"])
    with pytest.raises(NotTrainTrackError):
        subdivide_at(f, PeriodicPoint(0, 2, 2, 1))
    with pytest.raises(NotTrainTrackError):
        _first_interior_point(f, 3)


def _check_lift_laws(f, max_period):
    """At the first interior point of period <= max_period, `subdivide_at`
    builds the map that `subdivision_by_ranges` rewrites dart by dart;
    `_check_first_index` holds; and `EdgeIterates.lengths(t)[e]`, t <= 4,
    is |f^t(e)|."""
    point = _first_interior_point(f, max_period)
    if point is not None:
        res = subdivide_at(f, point)
        ours = (res.map.graph, res.map.vertex_image, res.map.edge_image, res.edge_split, res.new_vertices)
        assert ours == subdivision_by_ranges(f, point, point_image), (f.edge_image, point)
    _check_first_index(f)
    for t in range(5):
        assert f.edge_iterates.lengths(t) == tuple(len(f.iterate((2 * e,), t)) for e in range(f.graph.num_edges))


@functools.cache
def _signed_automorphisms():
    """Eight train track automorphisms of each rank 2, 3 and 4 with a
    backward dart in some image, so with reversed occurrences too."""
    return tuple(f for rank in (2, 3, 4) for f in train_track_automorphisms(rank, 8, seed=30 + rank))


@given(st.deferred(lambda: st.sampled_from(_signed_automorphisms())), st.sampled_from((1, 2, 6)))
def test_lift_laws_signed_automorphisms(f, max_period):
    _check_lift_laws(f, max_period)


@given(st.deferred(lambda: st.sampled_from([f for _, f in pinned_inp_maps()])), st.sampled_from((1, 2, 6)))
def test_lift_laws_pinned_inp_maps(f, max_period):
    _check_lift_laws(f, max_period)


@given(positive_rose_maps(), st.sampled_from((1, 2, 6)))
def test_lift_laws_positive_roses(f, max_period):
    _check_lift_laws(f, max_period)


def _check_refined_pf(f, max_period):
    """The PF lengths that detection cuts for the subdivided map from f's
    agree with a cold `pf_data` of a copy of that map to 1e-9 relative, its
    lambda with f's to within twice the certified bound, the pieces of each
    edge sum to its PF length, and the windows are equal.  Returns False
    when f has no interior point of period <= max_period."""
    point = _first_interior_point(f, max_period)
    if point is None:
        return False
    sub = subdivide_at(f, point)
    pf = pf_data(f)
    lengths = _refined_pf(f, pf.lam, pf.pf_lengths, sub)
    cold = pf_data(GraphSelfMap(sub.map.graph, sub.map.vertex_image, sub.map.edge_image))
    assert abs(cold.lam - pf.lam) <= 2 * _LAM_TOL
    assert len(lengths) == len(cold.pf_lengths)
    for x, y in zip(lengths, cold.pf_lengths):
        assert abs(x - y) <= 1e-9 * y
    names = sub.map.graph.edge_names
    for e, name in enumerate(f.graph.edge_names):
        pieces = sum(lengths[names.index(piece)] for piece in sub.edge_split[name])
        assert abs(pieces - pf.pf_lengths[e]) <= 1e-12
    assert _default_window(pf.lam, lengths, None) == _default_window(cold.lam, cold.pf_lengths, None)
    return True


def test_refined_pf_fixtures(fib, trib, trib_inv):
    assert all(_check_refined_pf(f, 6) for f in (fib, trib, trib_inv))


@given(positive_rose_maps(), st.integers(1, 6))
def test_refined_pf_random(f, max_period):
    _check_refined_pf(f, max_period)


def test_refined_pf_signed():
    for _, f in pinned_inp_maps():
        if is_primitive(transition_matrix(f)):
            assert _check_refined_pf(f, 6)


def _check_subdivision_keeps_primitivity(f):
    """Lemma (B) of `_refined_pf`: the subdivided matrix is primitive iff
    f's is.  Returns False when f has no interior point of period <= 6."""
    point = _first_interior_point(f, 6)
    if point is None:
        return False
    sub = subdivide_at(f, point)
    assert is_primitive(transition_matrix(sub.map)) == is_primitive(transition_matrix(f)), f.edge_image
    return True


@given(positive_rose_maps())
def test_subdivision_keeps_primitivity_random(f):
    _check_subdivision_keeps_primitivity(f)


def test_subdivision_keeps_primitivity_signed():
    # the cycle rose among these maps is irreducible but not primitive
    maps = [f for _, f in pinned_inp_maps()]
    assert all(map(_check_subdivision_keeps_primitivity, maps))
    assert not all(is_primitive(transition_matrix(f)) for f in maps)


def test_subdivision_keeps_primitivity_reducible(reducible):
    # no PF data for f, so detection gives the subdivided pass none either
    assert _check_subdivision_keeps_primitivity(reducible)
    assert not is_primitive(transition_matrix(reducible))
    assert _refined_pf(reducible, None, None, subdivide_at(reducible, _first_interior_point(reducible, 6))) is None


def test_one_power_iteration_per_detection(monkeypatch, all_maps):
    # the subdivided pass reads lambda and its PF lengths off f's, so a
    # primitive map costs detection one power iteration, not two
    import ttlam.spectral as spectral

    calls = []

    def counted(f, *args):
        calls.append(f)
        return pf_data(f, *args)

    monkeypatch.setattr(spectral, "pf_data", counted)
    monkeypatch.setattr(nielsen, "pf_data", counted)
    for name in ("fib", "trib", "trib_inv"):
        f = all_maps[name]
        f = GraphSelfMap(f.graph, f.vertex_image, f.edge_image)
        calls.clear()
        rep = detect_inps(f)
        assert rep.subdivision is not None
        assert calls == [f], name


def test_detect_inps_fib(fib, rose2):
    rep = detect_inps(fib)
    assert rep.conclusive
    assert len(rep.inps) == 1
    inp = rep.inps[0]
    assert rose2.path_str(inp.path) == "a~ b~ a b"
    assert inp.period == 2
    assert inp.closed
    assert inp.tip_index == 2
    # exact re-verification at the reported period
    assert apply_map(fib, apply_map(fib, inp.path)) == inp.path
    assert apply_map(fib, inp.path) != inp.path


def test_detect_inps_none_for_trib(trib, trib_inv):
    for f in (trib, trib_inv):
        rep = detect_inps(f)
        assert rep.conclusive
        assert rep.inps == ()


def test_detect_inps_matches_oracle_fib(fib):
    rep = detect_inps(fib)
    oracle = brute_force_inps(fib, max_len=8, max_period=4)
    ours = {min(p.path, tuple(x ^ 1 for x in reversed(p.path))) for p in rep.inps}
    assert ours == oracle


def test_detect_inps_subdivided_matches_oracle(fib):
    rep = detect_inps(fib)
    assert rep.subdivision is not None
    sub = rep.subdivision.map
    oracle = brute_force_inps(sub, max_len=12, max_period=4)
    ours = {
        min(p.path, tuple(x ^ 1 for x in reversed(p.path))) for p in rep.subdivided_inps
    }
    assert ours == oracle
    assert len(oracle) == 1
    (path,) = [p.path for p in rep.subdivided_inps]
    assert len(path) == 10


def test_inp_halves_balance(fib):
    from ttlam import pf_data

    rep = detect_inps(fib)
    pf = pf_data(fib)
    for inp in rep.inps:
        left, right = inp.halves()
        assert abs(pf.pf_length(left) - pf.pf_length(right)) < 1e-9


def test_reducible_carries_inps(reducible, rose3):
    rep = detect_inps(reducible)
    got = {rose3.path_str(p.path) for p in rep.inps}
    # the fibonacci INP survives inside the lower stratum, and the extra
    # stratum wraps a period-one fixed path around c
    assert "a~ b~ a b" in got or "b~ a~ b a" in got
    for p in rep.inps:
        w = p.path
        for _ in range(p.period):
            w = apply_map(reducible, w)
        assert w == p.path


def test_stability_fib_flags_closed_inp(fib):
    rep = stability_verdict(fib, detect_inps(fib))
    assert rep.status == "fail"
    assert "conjugacy" in rep.reason


def test_stability_names_subdivided_inp_on_subdivided_graph(fib):
    # no known map has a closed INP only in the subdivided pass, so the
    # report is built by hand: a closed path a.1 a.2 a.3 of the subdivided
    # graph, whose darts 0 2 4 do not all exist on fib's rose
    rep = detect_inps(fib)
    sub_graph = rep.subdivision.map.graph
    fake = NielsenPath(path=sub_graph.parse_path("a.1 a.2 a.3"), period=1, tip_index=1, closed=True)
    rep = rep._replace(inps=(), subdivided_inps=(fake,))
    stab = stability_verdict(fib, rep)
    assert stab.status == "fail"
    assert "path a.1 a.2 a.3:" in stab.reason


def test_stability_trib_passes(trib):
    rep = stability_verdict(trib, detect_inps(trib))
    assert rep.status == "pass"


# Oracle path lengths per rank: at most the 8,748 reduced paths of length 8
# on the rank-2 rose (rank 3 at length 5: 3,750; rank 4 at length 4:
# 2,744).  brute_force_inps at length 8 visits ~560k paths on a rank-3 rose
# and takes seconds to minutes per call.
ORACLE_LEN = {2: 8, 3: 5, 4: 4, 6: 3}


def _check_first_orbit(f, p):
    """detect_inps subdivides at the orbit the full enumeration sorts
    first, and its vertex INPs agree with the exhaustive oracle."""
    rep = detect_inps(f, max_period=p)
    pts = interior_periodic_points(f, p)
    if pts:
        assert rep.subdivision.orbit[0] == pts[0]
    else:
        assert rep.subdivision is None
    max_len = ORACLE_LEN[f.graph.num_edges]
    oracle = brute_force_inps(f, max_len=max_len, max_period=p)
    ours = {inp.path for inp in rep.inps}
    assert oracle <= ours
    assert {w for w in ours if len(w) <= max_len} <= oracle


@pytest.mark.parametrize("p", [1, 2, 3])
def test_first_orbit_matches_full_enumeration_fixtures(all_maps, p):
    for f in all_maps.values():
        _check_first_orbit(f, p)


# one move per rank keeps lambda small (at most 7.2 in 40 draws, against 21
# with two): the oracle and the full enumeration both grow like lambda^p.
# Positive maps have no reversed occurrences; trib_inv above has one.
@given(positive_rose_maps(moves_per_rank=1), st.integers(1, 3))
def test_first_orbit_matches_full_enumeration_random(f, p):
    _check_first_orbit(f, p)


@pytest.mark.parametrize("k, n", [(3, 2), (3, 3), (6, 2), (6, 3), (6, 4)])
def test_first_orbit_matches_full_enumeration_block_roses(k, n):
    # f^k(e) = e^(n^k) starts with e, whose point there is the vertex, so
    # the first interior point is at index 1: the descent must skip index 0.
    # _check_first_orbit at p = k asserts that detection subdivides there
    f = cycle_rose(k, n)
    assert _first_interior_point(f, k) == PeriodicPoint(0, k, 1, k)
    for p in (k - 1, k):
        _check_first_orbit(f, p)


def test_first_interior_point_is_first_in_full_enumeration_with_reversed_occurrences():
    # positive maps have no reversed occurrence; on these non-positive ones
    # the first point is the first occurrence for both kinds, also where its
    # edge holds points of both kinds at that period, whichever comes first.
    # This seed's draws cover both orders, as about one seed in six does.
    seen = set()  # (first point reversed, its edge holds both kinds)
    for f in train_track_automorphisms(3, 60, seed=10):
        for p in (1, 2, 3):
            pts = interior_periodic_points(f, p)
            assert _first_interior_point(f, p) == (pts[0] if pts else None), (f.edge_image, p)
            if pts:
                kinds = {q.exponent == 2 * q.period for q in pts if (q.edge, q.period) == (pts[0].edge, pts[0].period)}
                seen.add((pts[0].exponent == 2 * pts[0].period, len(kinds) == 2))
    assert {(True, True), (False, True)} <= seen


@pytest.mark.parametrize("images", [
    # the rank-3 and rank-4 benchmark maps (lambda ~ 5) on which default
    # detection used to enumerate thousands of interior points up to period 6
    ["b a", "b a c b b a b a", "b a c"],
    ["a c d b c d d", "a c d b c d d b c d d", "c d b c d d", "c d d"],
])
def test_detection_stops_at_first_interior_period(monkeypatch, images):
    f = rose_map(images)
    searched, read = [], []  # every exponent t of an f^t(d) the scan searches, or reads at an index

    for name, asked in (("_first_index", searched), ("_descend", read)):
        helper = getattr(nielsen, name)
        monkeypatch.setattr(nielsen, name, lambda f, d, t, *rest, helper=helper, asked=asked: asked.append(t) or helper(f, d, t, *rest))
    point = _first_interior_point(f, 6)
    monkeypatch.undo()
    assert sorted(set(searched)) == list(range(1, point.period + 1))
    assert max(read, default=0) <= point.period
    rep = detect_inps(f)
    assert rep.subdivision.orbit[0] == point == interior_periodic_points(f, point.period)[0]
    assert rep.conclusive


def test_period_check_builds_no_whole_image(monkeypatch):
    # lambda ~ 22.7: |f^6(e)| runs to 1.7 * 10^8 darts, and building the
    # f^s-blocks of each candidate's halves up to s = 6 took over 2.5 GB.
    # Detection descends into f^t(d) at t = 1 only, and never applies f
    f = rose_map([
        "b a c a b a c b a c b a c a b a c b a c b a c a b a c",
        "b a c b a c a b a c c",
        "c b a c a b a c b a c b a c a b a c b a c b a c a b a c",
    ])
    for name in ("_first_index", "_descend"):
        helper = getattr(nielsen, name)

        def level_one(f, d, t, *rest, helper=helper):
            assert t <= 1, f"f^{t}(d) read"
            return helper(f, d, t, *rest)

        monkeypatch.setattr(nielsen, name, level_one)

    def applied(self, path):
        raise AssertionError("f applied to a path")

    monkeypatch.setattr(GraphSelfMap, "apply", applied)
    rep = detect_inps(f)
    assert (rep.inps, rep.notes, rep.conclusive) == ((), (), True)


def _candidates_by_pairs(rays, min_agree):
    """`quadratic_tail_stems` on every pair of rays, pairs a < b in order."""
    return [
        (a, b, m1, m2)
        for a in range(len(rays))
        for b in range(a + 1, len(rays))
        for m1, m2 in quadratic_tail_stems(rays[a], rays[b], min_agree)
    ]


def _one_pass_candidates(rays, min_agree, num_codes):
    """`_tail_candidates` on rays of integer codes below num_codes, joined
    at chr(num_codes), which codes none of them."""
    coded = ["".join(map(chr, r)) for r in rays]
    return list(_tail_candidates(coded, min_agree, chr(num_codes)))


# rays over two or three darts repeat a lot, so one tail occurs many times
# in the other rays, overlapping itself, and in its own ray, which the
# one-pass matcher must skip; rays shorter than min_agree have no tail
@given(
    st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.lists(st.integers(0, k - 1), max_size=60), min_size=1, max_size=5),
    )),
    st.integers(1, 12),
)
def test_tail_matches_agree_with_every_shift_scan_random(codes_rays, min_agree):
    k, rays = codes_rays
    rays = [tuple(r) for r in rays]
    assert _one_pass_candidates(rays, min_agree, k) == _candidates_by_pairs(rays, min_agree)


def test_tail_matches_agree_with_every_shift_scan_eigenrays(all_maps):
    maps = list(all_maps.values())
    maps += [detect_inps(f).subdivision.map for f in all_maps.values()]
    for f in maps:
        eigen = list(periodic_structures(f).dart_period)
        for window in (64, 155, 310, 620):
            min_agree = max(16, window // 2)
            rays = [eigenray_prefix(f, d, window) for d in eigen]
            got = _one_pass_candidates(rays, min_agree, f.graph.num_darts)
            assert got == _candidates_by_pairs(rays, min_agree), (f.edge_image, window)


# -- the whole report against one built without per-map reuse -------------------

@pytest.mark.parametrize("max_period", [1, 2, 3])
def test_detect_inps_matches_cold_report_fixtures(all_maps, max_period):
    for f in all_maps.values():
        assert detect_inps(f, max_period) == detect_inps_cold(f, max_period)


@given(positive_rose_maps(), st.integers(1, 3))
def test_detect_inps_matches_cold_report_random(f, max_period):
    assert detect_inps(f, max_period) == detect_inps_cold(f, max_period)


def test_detect_inps_reports_pinned():
    # the reports recorded before the subdivided pass read its PF lengths
    # off f's, byte for byte, subdivided windows and notes included
    recorded = json.loads((RECORDED / "detect-inps.json").read_text())
    got = {f"{label} max_period={p}": repr(detect_inps(f, p)) for label, f in pinned_inp_maps() for p in (1, 2, 6)}
    assert got.keys() == recorded.keys()
    for key, report in got.items():
        assert report == recorded[key], key


def test_detect_inps_matches_cold_report_signed():
    for f in train_track_automorphisms(3, 20, seed=11):
        for max_period in (1, 2, 3):
            assert detect_inps(f, max_period) == detect_inps_cold(f, max_period), (f.edge_image, max_period)


# -- INP verification: the length test never changes a scan --------------------

def _scan_against_oracle(f, window, max_period):
    """One scan, its notes rendered as the report words them, against the
    oracle's (verified, notes)."""
    pf = _pf_or_none(f)
    verified, notes = _scan_ray_pairs(f, window, max_period, pf.pf_lengths if pf else None)
    got = verified, _render_notes(f, window, notes)
    oracle = scan_ray_pairs_by_iteration(f, window, max_period, pf.pf_lengths if pf else None)
    assert got == oracle
    return got


def test_scan_matches_iteration_oracle_fixtures(all_maps):
    maps = list(all_maps.values())
    maps += [detect_inps(f).subdivision.map for f in all_maps.values()]
    kinds = set()
    for f in maps:
        for window in (64, 155):
            for max_period in (1, 2, 6):
                verified, notes = _scan_against_oracle(f, window, max_period)
                kinds.update(note.split(" at window")[0] for note in notes)
                kinds.update("verified" for _ in verified)
    # every outcome of a candidate occurs: verified, unverified, legal junction
    assert kinds == {"verified", "unverified tail candidate", "tail coincidence with legal junction"}


@given(positive_rose_maps(moves_per_rank=1), st.integers(1, 3))
def test_scan_matches_iteration_oracle_random(f, max_period):
    rep = detect_inps(f, max_period=max_period)
    _scan_against_oracle(f, rep.window, max_period)
    if rep.subdivision is not None:
        _scan_against_oracle(rep.subdivision.map, rep.window, max_period)


def _iterate_lengths(f, s):
    """|f^s(e)| for every edge: column sums of M^s in exact integers."""
    m = np.zeros((f.graph.num_edges,) * 2, dtype=object)
    for j, img in enumerate(f.edge_image):
        for d in img:
            m[d >> 1, j] += 1
    return np.linalg.matrix_power(m, s).sum(axis=0).tolist()


def _check_length_identity(f, rep):
    """Every verified INP a b~ of period s has sum_a |f^s(d)| - |a| equal to
    sum_b |f^s(d)| - |b|, its tip as its only illegal turn, and canonical
    orientation; returns how many INPs were checked."""
    found = [(f, p) for p in rep.inps]
    if rep.subdivision is not None:
        found += [(rep.subdivision.map, p) for p in rep.subdivided_inps]
    for g, inp in found:
        lens = _iterate_lengths(g, inp.period)
        a, b_bar = inp.halves()
        b = tuple(x ^ 1 for x in reversed(b_bar))
        assert sum(lens[d >> 1] for d in a) - len(a) == sum(lens[d >> 1] for d in b) - len(b)
        _, gate_of = derivative_orbit_gates(g)
        path = inp.path
        tips = [i for i in range(1, len(path)) if gate_of[path[i - 1] ^ 1] == gate_of[path[i]]]
        assert tips == [inp.tip_index]
        assert path <= tuple(x ^ 1 for x in reversed(path))
    return len(found)


def test_verified_inps_satisfy_length_identity_fixtures(all_maps):
    checked = sum(_check_length_identity(f, detect_inps(f)) for f in all_maps.values())
    assert checked >= 3


@given(positive_rose_maps(), st.integers(1, 6))
def test_verified_inps_satisfy_length_identity_random(f, max_period):
    _check_length_identity(f, detect_inps(f, max_period=max_period))
