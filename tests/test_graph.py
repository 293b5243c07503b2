"""Graph structure, dart arithmetic, and path operations."""

import pytest
from hypothesis import given, strategies as st

from ttlam import Graph, GraphError, all_turns
from ttlam.graph import (
    is_reduced,
    join_reduced,
    path_reduce,
    reverse_path,
    turn,
    turns_of_path,
    validate_graph,
)
from ttlam.graph import equivalence_classes

from oracles import reduce_word


def test_equivalence_classes_order():
    # classes sorted, ordered by smallest member; pairs leaving items ignored
    pairs = [(5, 2), (3, 0), (2, 7), (4, 9)]
    assert equivalence_classes([7, 0, 5, 2, 3, 4, 6], pairs) == [(0, 3), (2, 5, 7), (4,), (6,)]
    assert equivalence_classes([], pairs) == []


def test_build_rose(rose3):
    assert rose3.num_vertices == 1
    assert rose3.num_edges == 3
    assert rose3.num_darts == 6
    assert rose3.valence(0) == 6


def test_build_theta(theta):
    assert theta.num_vertices == 2
    assert theta.origin(0) == 0 and theta.terminus(0) == 1
    assert theta.origin(1) == 1 and theta.terminus(1) == 0
    assert theta.valence(0) == 3 == theta.valence(1)


def test_build_rejects_duplicates():
    with pytest.raises(GraphError):
        Graph.build(["v", "v"], [("a", "v", "v")])
    with pytest.raises(GraphError):
        Graph.build(["v"], [("a", "v", "v"), ("a", "v", "v")])
    with pytest.raises(GraphError):
        Graph.build(["v"], [("a", "v", "x")])


def test_build_names_the_first_refused_edge():
    # edges are checked in order, each name before its vertices: the first
    # repeated name is the one named, although a later edge repeats another
    # and an edge between them uses an unknown vertex
    edges = [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v"), ("b", "v", "v"), ("d", "v", "x"), ("a", "v", "v")]
    with pytest.raises(GraphError, match=r"^duplicate edge name 'b'$"):
        Graph.build(["v"], edges)
    with pytest.raises(GraphError, match=r"^edge 'd' uses unknown vertex 'x'$"):
        Graph.build(["v"], edges[:3] + edges[4:])
    with pytest.raises(GraphError, match=r"^duplicate edge name 'a'$"):
        Graph.build(["v"], edges[:3] + edges[5:] + edges[4:5])
    many = [(f"e{i}", "v", "v") for i in range(3000)]
    assert Graph.build(["v"], many).num_edges == 3000
    with pytest.raises(GraphError, match=r"^duplicate edge name 'e2999'$"):
        Graph.build(["v"], many + many[::-1])


def test_dart_names(rose2):
    assert rose2.dart_name(0) == "a"
    assert rose2.dart_name(1) == "a~"
    assert rose2.dart_name(2) == "b"
    assert rose2.darts_by_name["b~"] == 3
    assert rose2.path_str((1, 3, 0, 2)) == "a~ b~ a b"
    assert rose2.parse_path("a~ b~ a b") == (1, 3, 0, 2)


def test_parse_path_rejects_unknown(rose2):
    with pytest.raises(GraphError):
        rose2.parse_path("a z")


def test_path_reduce_examples(rose2):
    assert path_reduce((0, 1)) == ()
    assert path_reduce((0, 2, 3, 1)) == ()
    assert path_reduce((0, 2, 3, 0)) == (0, 0)
    assert path_reduce(()) == ()


def test_turns(rose2):
    assert turn(0, 2) == (0, 2)
    assert turn(2, 0) == (0, 2)
    assert tuple(turns_of_path((0, 2))) == ((1, 2),)
    assert len(all_turns(rose2)) == 6  # C(4,2)


def test_turn_count_rose3(rose3):
    assert len(all_turns(rose3)) == 15  # C(6,2)


def test_all_turns_in_dart_order(rose3, theta):
    # every pair d1 < d2 of darts at one vertex, by d1 and then d2, as the
    # `turns` report lists them
    chain = Graph.build(["u", "w", "x"], [("p", "u", "w"), ("q", "w", "x"), ("r", "x", "u"), ("s", "w", "w")])
    for g in (rose3, theta, chain):
        darts = g.darts()
        assert all_turns(g) == [(a, b) for a in darts for b in darts if a < b and g.origin(a) == g.origin(b)]


def test_validate_graph_flags_isolated():
    g = Graph.build(["u", "w"], [("a", "u", "u")])
    problems = validate_graph(g)
    assert any("w" in p for p in problems)


words = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=60).map(tuple)


@given(words)
def test_reduce_matches_oracle(w):
    assert path_reduce(w) == reduce_word(w)


@given(words)
def test_reduce_idempotent(w):
    r = path_reduce(w)
    assert path_reduce(r) == r
    assert is_reduced(r)


@given(words)
def test_reverse_involution(w):
    assert reverse_path(reverse_path(w)) == tuple(w)


@given(words)
def test_reduce_commutes_with_reverse(w):
    assert path_reduce(reverse_path(w)) == reverse_path(path_reduce(w))


@given(words, words)
def test_reduce_concat_associative(u, v):
    # reducing in stages agrees with reducing the concatenation at once
    assert path_reduce(path_reduce(u) + path_reduce(v)) == path_reduce(tuple(u) + tuple(v))


# blocks over two edges cancel against each other often, and deeply
reduced_blocks = st.lists(st.integers(min_value=0, max_value=3), max_size=12).map(path_reduce)


def _coded(path):
    return "".join(map(chr, path))


@given(reduced_blocks, st.lists(reduced_blocks, max_size=8))
def test_join_reduced_matches_reduction_of_concatenation(stack, blocks):
    joined = tuple(stack) + tuple(d for block in blocks for d in block)
    code, _ = join_reduced(map(_coded, [stack, *blocks]))
    assert tuple(map(ord, code)) == path_reduce(joined) == reduce_word(joined)


def test_join_reduced_cancels_across_blocks(rose2):
    p = rose2.parse_path
    code, junctions = join_reduced(map(_coded, [p("a b a"), p("a~ b~"), p("a~"), p("a b")]))
    # a~ b~ and a~ consume a b a; a b then stands alone, at the start
    assert tuple(map(ord, code)) == p("a b")
    assert junctions == []


def _join_by_blocks(blocks):
    """Block by block on a list of darts: each block cancels against the
    stack's top, dart by dart, and pushes its leftover, whose start is
    recorded if the leftover is nonempty and not at the start; a recorded
    start that a later block pops the stack down to, or below, is dropped."""
    stack, starts = [], []
    for block in blocks:
        k = 0
        while k < len(block) and stack and stack[-1] == block[k] ^ 1:
            stack.pop()
            k += 1
        starts = [j for j in starts if j < len(stack)]
        if k < len(block) and stack:
            starts.append(len(stack))
        stack.extend(block[k:])
    return tuple(stack), starts


# reduced blocks over two or three edges, with empty blocks among them: on
# a map that is not a train track map a reduced image [f^k(d)] can be empty
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda edges: st.lists(
            st.one_of(
                st.just(()),
                st.lists(st.integers(min_value=0, max_value=2 * edges - 1), max_size=8).map(reduce_word),
            ),
            max_size=10,
        )
    )
)
def test_join_reduced_law_with_empty_blocks(blocks):
    code, junctions = join_reduced(map(_coded, blocks))
    joined = tuple(d for block in blocks for d in block)
    assert tuple(map(ord, code)) == reduce_word(joined)
    assert (tuple(map(ord, code)), junctions) == _join_by_blocks(blocks)
