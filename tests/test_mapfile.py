"""Map file parsing, serialization, and error reporting."""

import pytest
from hypothesis import given, strategies as st

from ttlam import ParseError, detect_inps, graph_map, mapfile
from ttlam.mapfile import MapFile, parse_map_file, serialize_map_file

from conftest import positive_rose_maps

GOOD = """\
# comment line
graph demo
vertex v
edge a v v
edge b v v
map
a -> a b
b -> a
assert iwip
"""


def test_parse_good():
    mf = parse_map_file(GOOD)
    assert mf.name == "demo"
    assert mf.assertions == ("iwip",)
    assert mf.map.graph.edge_names == ("a", "b")
    assert mf.map.edge_image == ((0, 2), (0,))


def test_parse_tilde_and_inverse():
    text = GOOD.replace("a -> a b", "a -> b~ a")
    mf = parse_map_file(text)
    assert mf.map.edge_image[0] == (3, 0)


def test_parse_inverse_of():
    text = GOOD + "assert inverse-of other\n"
    mf = parse_map_file(text)
    assert mf.asserts_inverse_of() == "other"


def test_parse_errors_carry_line_numbers():
    bad = GOOD.replace("edge b v v", "edge b v w")
    with pytest.raises(ParseError) as err:
        parse_map_file(bad)
    assert "line 5" in str(err.value)


LINES = """\
graph g
vertex v
vertex w
edge a v v
edge b v w
edge c w v
map
a -> a b c
b -> b
c -> c
""".splitlines()


@pytest.mark.parametrize("lineno, text, error", [
    pytest.param(9, "b -> z", "line 9: unknown edge 'z'", id="unknown-edge"),
    # a token names an edge, then at most one `~`
    pytest.param(9, "b -> z~", "line 9: unknown edge 'z'", id="unknown-reversed-edge"),
    pytest.param(9, "b -> a~~", "line 9: unknown edge 'a~'", id="double-tilde"),
    pytest.param(9, "b -> ~", "line 9: unknown edge ''", id="bare-tilde"),
    pytest.param(8, "a~ -> a b c", "line 8: image for unknown edge 'a~'", id="image-of-a-reversed-dart"),
    pytest.param(8, "a -> a c", "line 8: image of edge 'a' is not an edge path: a c", id="not-a-path"),
    # the line of the later of the two images
    pytest.param(9, "b -> a", "line 10: vertex w gets conflicting images", id="conflict"),
    pytest.param(3, "vertex v", "line 3: duplicate vertex name 'v'", id="duplicate-vertex"),
    # the duplicate's own line, not the first declaration's
    pytest.param(6, "edge b w v", "line 6: duplicate edge name 'b'", id="duplicate-edge"),
])
def test_parse_errors_name_their_own_line(lineno, text, error):
    assert parse_map_file("\n".join(LINES) + "\n").map.vertex_image == (0, 1)
    lines = list(LINES)
    lines[lineno - 1] = text
    with pytest.raises(ParseError) as err:
        parse_map_file("\n".join(lines) + "\n")
    assert str(err.value) == error


def test_parse_accepts_edges_before_vertices():
    text = "graph g\nedge a v v\nvertex v\nmap\na -> a a\n"
    assert parse_map_file(text).map.edge_image == ((0, 0),)


def test_parse_rejects_duplicate_image():
    bad = GOOD + "a -> b\n"
    with pytest.raises(ParseError):
        parse_map_file(bad)


def test_parse_rejects_missing_image():
    bad = GOOD.replace("b -> a\n", "")
    with pytest.raises(ParseError):
        parse_map_file(bad)


def test_parse_rejects_junk_before_sections():
    with pytest.raises(ParseError):
        parse_map_file("edge a v v\ngraph g\n")


def test_parse_rejects_subdivision_separators_in_ids():
    # subdivision splits a into a.1 and a.2, which would collide with the
    # edge a.1 of this map; the same map with b in place of a.1 is fine
    text = "graph g\nvertex v\nedge a v v\nedge a.1 v v\nedge c v v\nmap\na -> c a a.1\na.1 -> a\nc -> a.1\n"
    parse_map_file(text.replace("a.1", "b"))
    with pytest.raises(ParseError, match=r"line 4: edge name 'a\.1' uses a reserved character: '\.' and '\*'"):
        parse_map_file(text)
    with pytest.raises(ParseError, match=r"line 2: vertex id 'v\*1' uses a reserved character"):
        parse_map_file(text.replace(" v", " v*1"))
    assert parse_map_file(GOOD.replace("graph demo", "graph demo.v2*")).name == "demo.v2*"


def test_parse_rejects_unreduced_image():
    bad = GOOD.replace("a -> a b", "a -> b b~ a")
    with pytest.raises(ParseError) as err:
        parse_map_file(bad)
    assert "line" in str(err.value)


def test_conflict_is_named_on_the_later_line_in_file_order():
    # the images come in reverse edge order; read in edge order, c's image
    # would be the one that conflicts, but in the file b's comes later
    lines = LINES[:7] + ["c -> c", "b -> a", "a -> a b c"]
    with pytest.raises(ParseError) as err:
        parse_map_file("\n".join(lines) + "\n")
    assert str(err.value) == "line 9: vertex w gets conflicting images"


def test_each_image_is_checked_once_per_parse(monkeypatch):
    # all images are checked at once; check_image only words a refusal
    bulk, checked = [], []
    codes, check = graph_map._checked_codes, graph_map.check_image

    def counting_bulk(graph, vertex_image, edge_image):
        bulk.append(edge_image)
        return codes(graph, vertex_image, edge_image)

    def counting(graph, e, img, vertex_image):
        checked.append(e)
        check(graph, e, img, vertex_image)

    monkeypatch.setattr(graph_map, "_checked_codes", counting_bulk)
    monkeypatch.setattr(graph_map, "check_image", counting)
    monkeypatch.setattr(mapfile, "check_image", counting)
    parse_map_file("\n".join(LINES) + "\n")
    assert (len(bulk), checked) == (1, [])
    # a's image, first in edge order, is no edge path; b's, on line 9, is
    # the first refused in file order and the one named
    lines = LINES[:7] + ["c -> c", "b -> b b~ b", "a -> a c"]
    with pytest.raises(ParseError) as err:
        parse_map_file("\n".join(lines) + "\n")
    assert str(err.value) == "line 9: image of edge 'b' is not reduced"
    assert (len(bulk), checked) == (2, [0, 2, 1])  # a in edge order; c, b in file order


def test_roundtrip_fixture_files(map_files):
    for mf in map_files.values():
        text = serialize_map_file(mf)
        again = parse_map_file(text)
        assert again.name == mf.name
        assert again.assertions == mf.assertions
        assert again.map.edge_image == mf.map.edge_image
        assert again.map.graph.edge_names == mf.map.graph.edge_names
        assert serialize_map_file(again) == text


def test_fixture_names(map_files):
    assert map_files["tribonacci-inv"].asserts_inverse_of() == "tribonacci"
    assert map_files["fibonacci"].asserts_inverse_of() is None
    assert map_files["reducible"].assertions == ()


images_st = st.sampled_from(
    [
        {"a": "a b", "b": "a"},
        {"a": "b", "b": "a b"},
        {"a": "b a", "b": "a"},
        {"a": "a b a", "b": "a b"},
        {"a": "b~ a", "b": "a~"},
    ]
)


@given(images_st)
def test_roundtrip_generated(images):
    lines = ["graph g", "vertex v", "edge a v v", "edge b v v", "map"]
    lines += [f"{e} -> {w}" for e, w in images.items()]
    mf = parse_map_file("\n".join(lines) + "\n")
    assert parse_map_file(serialize_map_file(mf)).map.edge_image == mf.map.edge_image


@given(positive_rose_maps())
def test_roundtrip_rose_maps(f):
    mf = MapFile(name="g", map=f, assertions=())
    assert parse_map_file(serialize_map_file(mf)).map == mf.map


def test_serialize_refuses_names_the_parser_refuses(fib):
    # subdivision names its new vertices a*1, ...: unreadable as a map file
    sub = detect_inps(fib).subdivision.map
    with pytest.raises(ParseError, match="line 3: vertex id 'a\\*1' uses a reserved character"):
        serialize_map_file(MapFile(name="fib", map=sub, assertions=()))

