"""Graph self-maps: construction, images, iteration, cancellation."""

import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from ttlam import Graph, GraphSelfMap, MapError, NotExpandingError, detect_inps
from ttlam.graph import reverse_path
from ttlam.graph_map import _checked_codes, check_image, compose, is_inner

from conftest import positive_rose_maps, reduced_rose_maps, train_track_automorphisms
from oracles import apply_map, cancellation_bound_all_pairs, random_reduced_word, reduce_word

import random


def test_build_infers_vertex_image(rose2, fib):
    assert fib.vertex_image == (0,)
    assert fib.edge_image == ((0, 2), (0,))


def test_build_rejects_unreduced(rose2):
    with pytest.raises(MapError):
        GraphSelfMap.build(rose2, {"a": "a a~ b", "b": "a"})


def test_build_rejects_empty_image(rose2):
    with pytest.raises(MapError):
        GraphSelfMap.build(rose2, {"a": "", "b": "a"})


def test_build_rejects_endpoint_conflict(theta):
    # q -> q~ forces the image of u to be w, while p -> q forces it to be u
    with pytest.raises(MapError):
        GraphSelfMap.build(theta, {"p": "q", "q": "q~", "r": "r"})


def test_dart_image_reverses(fib):
    assert fib.dart_image(0) == (0, 2)
    assert fib.dart_image(1) == (3, 1)
    assert fib.dart_image(2) == (0,)
    assert fib.dart_image(3) == (1,)


def test_apply_reduces(fib, rose2):
    # f(a) = a b, f(b~) = a~, and the concatenation a b a~ is already reduced
    assert fib.apply(rose2.parse_path("a b~")) == rose2.parse_path("a b a~")
    # a~ a collapses entirely
    assert fib.apply((1, 0)) == ()


def test_iterate_known_values(fib, rose2):
    # frozen: f^3(a) = a b a a b, f^4(a) = a b a a b a b a
    assert fib.iterate((0,), 3) == rose2.parse_path("a b a a b")
    assert fib.iterate((0,), 4) == rose2.parse_path("a b a a b a b a")


def test_iterate_additive(fib):
    w = (0, 2, 0)
    assert fib.iterate(fib.iterate(w, 2), 3) == fib.iterate(w, 5)


def test_derivative_table_trib(trib, rose3):
    # Df: a->b, b->c, c->a, a~->b~, b~->c~, c~->b~
    name = rose3.dart_name
    table = trib.derivative_table
    got = {name(d): name(table[d]) for d in range(6)}
    assert got == {"a": "b", "b": "c", "c": "a", "a~": "b~", "b~": "c~", "c~": "b~"}


def test_expanding(fib, trib, trib_inv, reducible):
    for f in (fib, trib, trib_inv, reducible):
        assert f.is_expanding
        assert f.non_expanding_witness() is None


def test_non_expanding_witness(rose2):
    ident = GraphSelfMap.build(rose2, {"a": "a", "b": "b"})
    assert not ident.is_expanding
    assert ident.non_expanding_witness() == "a"
    with pytest.raises(NotExpandingError):
        ident.require_expanding()


def test_cancellation_bound_values(fib, trib, trib_inv, reducible):
    assert fib.cancellation_bound == 2
    assert trib.cancellation_bound == 2
    assert reducible.cancellation_bound == 4
    assert trib_inv.cancellation_bound >= 0


@given(st.one_of(reduced_rose_maps(), positive_rose_maps()))
def test_cancellation_bound_matches_all_pairs(f):
    assert f.cancellation_bound == cancellation_bound_all_pairs(f)


def test_cancellation_bound_matches_all_pairs_subdivided_fixtures(all_maps):
    for f in all_maps.values():
        sub = detect_inps(f).subdivision.map
        assert sub.graph.num_vertices > 1
        assert sub.cancellation_bound == cancellation_bound_all_pairs(sub)


@given(positive_rose_maps(moves_per_rank=1))
def test_cancellation_bound_matches_all_pairs_subdivided(f):
    rep = detect_inps(f, max_period=2)
    if rep.subdivision is not None:  # the subdivided maps have two or more vertices
        sub = rep.subdivision.map
        assert sub.cancellation_bound == cancellation_bound_all_pairs(sub)


def test_cancellation_inequality(all_maps):
    # |[f(w)]| >= sum |f(w_i)| - (len(w) - 1) * C(f)
    rng = random.Random(11)
    for f in all_maps.values():
        g = f.graph
        for _ in range(200):
            w = random_reduced_word(g, rng.randrange(2, 40), rng)
            image_len = sum(len(f.dart_image(d)) for d in w)
            assert len(f.apply(w)) >= image_len - (len(w) - 1) * f.cancellation_bound


def test_apply_matches_oracle(all_maps):
    rng = random.Random(5)
    for f in all_maps.values():
        for _ in range(150):
            w = random_reduced_word(f.graph, rng.randrange(1, 60), rng)
            assert f.apply(w) == apply_map(f, w)


def _cancelling_word(f, rng):
    """A reduced word p~ q on a rose whose image cancels deeply: p and q start
    with two distinct darts whose images share the longest prefix, and q
    continues as p does wherever that stays reduced."""
    g = f.graph
    nd = g.num_darts

    def shared(x, y):
        a, b = f.dart_image(x), f.dart_image(y)
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        return k

    pairs = [(x, y) for x in range(nd) for y in range(nd) if x != y and g.origin(x) == g.origin(y)]
    best = max(shared(x, y) for x, y in pairs)
    x, y = rng.choice([(x, y) for x, y in pairs if shared(x, y) == best])
    tail = random_reduced_word(g, rng.randrange(2, 30), rng)
    p = (x,) + tail if tail[0] != x ^ 1 else (x,)
    q = (y,) + p[1:] if len(p) > 1 and p[1] != y ^ 1 else (y,)
    return tuple(d ^ 1 for d in reversed(p)) + q


def _check_apply(f, rng, count):
    """apply against the oracle on random and on deeply cancelling words;
    returns the largest number of darts cancelled in one image."""
    deepest = 0
    for i in range(count):
        if i % 2:
            w = _cancelling_word(f, rng)
        else:
            w = random_reduced_word(f.graph, rng.randrange(1, 40), rng)
        image = f.apply(w)
        assert image == apply_map(f, w)
        deepest = max(deepest, (sum(len(f.dart_image(d)) for d in w) - len(image)) // 2)
    return deepest


def test_apply_matches_oracle_cancelling_words(all_maps):
    rng = random.Random(11)
    deepest = [_check_apply(f, rng, 200) for f in all_maps.values()]
    assert max(deepest) >= 4


@given(st.one_of(reduced_rose_maps(), positive_rose_maps()), st.randoms(use_true_random=False))
def test_apply_matches_oracle_random_maps(f, rng):
    _check_apply(f, rng, 20)


def test_compose_inverse_pair(trib, trib_inv, rose3):
    both = compose(trib, trib_inv)
    for e in range(3):
        assert both.edge_image[e] == (2 * e,)
    other = compose(trib_inv, trib)
    for e in range(3):
        assert other.edge_image[e] == (2 * e,)


_WORDS = st.lists(st.integers(0, 3), max_size=2).map(lambda w: tuple(reduce_word(w)))


@given(_WORDS, _WORDS)
def test_is_inner_matches_search_over_conjugators(rose2, w0, w1):
    # a -> [w0 a w0~], b -> [w1 b w1~] is inner iff one short word w conjugates both
    def conj(w, d):
        return tuple(reduce_word(w + (d,) + tuple(x ^ 1 for x in reversed(w))))

    f = GraphSelfMap(rose2, (0,), (conj(w0, 0), conj(w1, 2)))
    words = {tuple(reduce_word(w)) for k in range(4) for w in itertools.product(range(4), repeat=k)}
    want = any(f.edge_image == (conj(w, 0), conj(w, 2)) for w in words)
    assert is_inner(f) == want


def test_is_inner_fixtures(trib, trib_inv, fib):
    assert is_inner(compose(trib, trib_inv)) and is_inner(compose(trib_inv, trib))
    assert not is_inner(trib) and not is_inner(fib)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_iterate_composes(fib, s, t):
    w = (0, 2)
    assert fib.iterate(w, s + t) == fib.iterate(fib.iterate(w, s), t)


# -- the whole-table image check ----------------------------------------------

def _verdict(graph, vertex_image, edge_image):
    """What check_image says of the table, image by image in edge order: the
    MapError text of the first image it refuses, or None."""
    known = dict(enumerate(vertex_image))
    try:
        for e, img in enumerate(edge_image):
            check_image(graph, e, img, known)
    except MapError as exc:
        return str(exc)
    return None


def _assert_checked_like_check_image(graph, vertex_image, edge_image):
    """The bulk check accepts exactly the tables that check_image accepts; an
    accepted table is coded dart by dart, a refused one raises check_image's
    text.  Returns the verdict."""
    vertex_image, edge_image = tuple(vertex_image), tuple(map(tuple, edge_image))
    verdict = _verdict(graph, vertex_image, edge_image)
    assert (_checked_codes(graph, vertex_image, edge_image) is None) == (verdict is not None)
    try:
        f = GraphSelfMap(graph, vertex_image, edge_image)
    except MapError as exc:
        assert str(exc) == verdict
        return verdict
    assert verdict is None
    images = tuple(x for img in edge_image for x in (img, reverse_path(img)))
    assert f.dart_images == images
    assert f.coded_images == tuple("".join(map(chr, img)) for img in images)
    return verdict


_MUTATIONS = ("none", "empty", "range", "cancel", "split", "chain", "vertex")


def _mutate(f, kind, rng):
    """f's vertex and edge image tables with one mutation of the given kind."""
    g, nd = f.graph, f.graph.num_darts
    vertex_image, images = list(f.vertex_image), [list(img) for img in f.edge_image]
    e = rng.randrange(g.num_edges)
    img = images[e]
    i = rng.randint(0, len(img))
    if kind == "empty":
        images[e] = []
    elif kind == "range":
        img.insert(i, rng.choice([-1, nd, nd + 1, 0x110000, 2**70]))
    elif kind == "cancel":  # a dart and its reversal inside one image
        at = g.terminus(img[i - 1]) if i else g.origin(img[0])
        d = rng.choice([x for x in g.darts() if g.origin(x) == at])
        img[i:i] = [d, d ^ 1]
    elif kind == "split" and e + 1 < g.num_edges and g.num_vertices == 1:
        # image e ends with the reversal of the dart that starts image e + 1
        nxt = images[e + 1]
        if img[-1] != nxt[0]:
            nxt.insert(0, img[-1] ^ 1)
    elif kind == "chain":
        img[min(i, len(img) - 1)] = rng.randrange(nd)
    elif kind == "vertex":
        vertex_image[rng.randrange(g.num_vertices)] = rng.randrange(g.num_vertices)
    return vertex_image, images


@functools.cache
def _subdivided_maps():
    """The subdivided maps of signed rose automorphisms, which have two or
    more vertices."""
    reps = [detect_inps(f, max_period=2) for rank in (2, 3) for f in train_track_automorphisms(rank, 6, 23)]
    return [rep.subdivision.map for rep in reps if rep.subdivision is not None]


@given(st.one_of(reduced_rose_maps(), st.integers(0, 10**6).map(lambda k: _subdivided_maps()[k % len(_subdivided_maps())])),
       st.sampled_from(_MUTATIONS), st.randoms(use_true_random=False))
def test_bulk_image_check_matches_check_image(f, kind, rng):
    vertex_image, images = _mutate(f, kind, rng)
    verdict = _assert_checked_like_check_image(f.graph, vertex_image, images)
    if kind == "cancel":
        assert verdict.endswith("is not reduced")
    elif kind in ("none", "split"):
        assert verdict is None


def test_bulk_image_check_with_isolated_vertices():
    # darts 2 and 3 are out of range, yet code the vertices w2 and w3
    g = Graph.build(["u", "w1", "w2", "w3"], [("a", "u", "u")])
    for images in ([(3,)], [(2,)], [(0, 3)], [(3, 3)], [(0,)]):
        for v in range(4):
            _assert_checked_like_check_image(g, (v, 0, 0, 0), images)
    assert _assert_checked_like_check_image(g, (3, 0, 0, 0), [(3,)]) == "image of edge 'a' is not an edge path: [3]"
