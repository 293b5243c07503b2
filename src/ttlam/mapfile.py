"""Line-oriented text format for graphs, self-maps and asserted metadata.

Grammar (one declaration per line, `#` starts a comment):

    graph <name>
    vertex <id>
    edge <name> <origin-vertex> <terminus-vertex>
    map
    <edge> -> <dart> <dart> ...
    assert iwip
    assert atoroidal
    assert inverse-of <name>

A name is a letter, digit or `_` followed by letters, digits and `_.*-`.
Edge names and vertex ids may not use `.` or `*`: subdivision names the
pieces of edge e as e.1, e.2, ... and its new vertices as e*1, e*2, ..., so
these two characters are reserved for the names it makes.  A dart token is
an edge name, optionally suffixed with `~` for the reversed direction.
Vertex images are inferred from the edge images and checked for
coherence.  Assertions are unverified metadata: they record what the author
claims about the map, and reports carry them verbatim so downstream checks
can treat them as assumptions.
"""

import re
from typing import Collection, NamedTuple

from .errors import GraphError, MapError, ParseError
from .graph import Graph, Path
from .graph_map import GraphSelfMap, check_image

_NAME = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.*-]*$")
_ID = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_-]*$")  # a name without '.' and '*', which subdivision keeps
_KNOWN_ASSERTS = ("iwip", "atoroidal", "inverse-of")


class MapFile(NamedTuple):
    """Parsed artifact: a named map plus its asserted (unverified) properties."""

    name: str
    map: GraphSelfMap
    assertions: tuple[str, ...]

    def asserts_inverse_of(self) -> str | None:
        for a in self.assertions:
            if a.startswith("inverse-of "):
                return a.split(None, 1)[1]
        return None


def _check_name(token: str, line: int, what: str) -> str:
    if not _NAME.match(token):
        raise ParseError(f"invalid {what} {token!r}", line)
    return token


def _check_id(token: str, line: int, what: str) -> str:
    """One match; a refused token is matched again as a name, to tell an
    invalid name from a name with a reserved character."""
    if not _ID.match(token):
        _check_name(token, line, what)
        raise ParseError(
            f"{what} {token!r} uses a reserved character: '.' and '*' are kept for subdivision", line
        )
    return token


def _declared_graph(vertices: list[str], edges: Collection[tuple[int, tuple[str, str, str]]]) -> Graph:
    """The graph of the declarations, each edge given with its line; an edge
    with an undeclared end vertex fails on its own line."""
    for lineno, (name, *ends) in edges:
        for v in ends:
            if v not in vertices:
                raise ParseError(f"edge {name!r} uses unknown vertex {v!r}", lineno)
    return Graph.build(vertices, [edge for _, edge in edges])


def _first_bad_image(graph: Graph, images: dict[int, tuple[int, Path]]) -> ParseError | None:
    """The error of the first image in file order that `check_image` refuses,
    given the vertex images that the images above it infer, on its line."""
    vertex_image: dict[int, int] = {}
    for lineno, e, img in sorted((lineno, e, img) for e, (lineno, img) in images.items()):
        try:
            check_image(graph, e, img, vertex_image)
        except MapError as exc:
            return ParseError(str(exc), lineno)
    return None


def parse_map_file(text: str) -> MapFile:
    """Parse a map file, checking each declaration and the darts of each
    edge image on its own line; the graph is complete at the `map` line, as
    no vertex or edge may follow it.  Each image is checked once, when the
    map is built; an image it refuses is reported on its own line, the first
    in file order that `check_image` refuses."""
    name: str | None = None
    vertices: list[str] = []
    edges: dict[str, tuple[int, tuple[str, str, str]]] = {}  # name -> (line, (name, origin, terminus))
    graph: Graph | None = None  # built at the map line
    images: dict[int, tuple[int, Path]] = {}  # edge -> (line, image)
    assertions: list[str] = []
    ids: set[str] = set()  # the ids accepted so far: each distinct id is matched once
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        if head == "graph":
            if len(toks) != 2:
                raise ParseError("expected: graph <name>", lineno)
            if name is not None:
                raise ParseError("duplicate graph declaration", lineno)
            name = _check_name(toks[1], lineno, "graph name")
        elif head in ("vertex", "edge") and graph is not None:
            raise ParseError(f"{head} declared after map section", lineno)
        elif head == "vertex":
            if len(toks) != 2:
                raise ParseError("expected: vertex <id>", lineno)
            vertex = toks[1]
            if vertex not in ids:
                ids.add(_check_id(vertex, lineno, "vertex id"))
            if vertex in vertices:
                raise ParseError(f"duplicate vertex name {vertex!r}", lineno)
            vertices.append(vertex)
        elif head == "edge":
            if len(toks) != 4:
                raise ParseError("expected: edge <name> <origin> <terminus>", lineno)
            for token, what in zip(toks[1:], ("edge name", "vertex id", "vertex id")):
                if token not in ids:
                    ids.add(_check_id(token, lineno, what))
            edge = (toks[1], toks[2], toks[3])
            if edge[0] in edges:
                raise ParseError(f"duplicate edge name {edge[0]!r}", lineno)
            edges[edge[0]] = (lineno, edge)
        elif head == "map":
            if len(toks) != 1:
                raise ParseError("expected: map", lineno)
            graph = graph or _declared_graph(vertices, edges.values())
        elif head == "assert":
            body = line.split(None, 1)[1].rstrip() if len(toks) > 1 else ""
            if body == "iwip" or body == "atoroidal":
                assertions.append(body)
            elif toks[1:2] == ["inverse-of"] and len(toks) == 3:
                assertions.append(f"inverse-of {_check_name(toks[2], lineno, 'map name')}")
            else:
                raise ParseError(
                    f"unknown assertion {body!r} (known: {', '.join(_KNOWN_ASSERTS)})", lineno
                )
        elif len(toks) >= 3 and toks[1] == "->":
            if graph is None:
                raise ParseError("edge image before the map line", lineno)
            dart = graph.darts_by_name.get(toks[0])
            if dart is None or dart & 1:
                raise ParseError(f"image for unknown edge {toks[0]!r}", lineno)
            if dart >> 1 in images:
                raise ParseError(f"duplicate image for edge {toks[0]!r}", lineno)
            try:
                images[dart >> 1] = (lineno, graph.parse_tokens(toks[2:]))
            except GraphError as exc:
                raise ParseError(str(exc), lineno) from exc
        else:
            raise ParseError(f"unrecognized line {line.strip()!r}", lineno)
    if name is None:
        raise ParseError("missing graph declaration")
    if not vertices:
        raise ParseError("no vertices declared")
    if not edges:
        raise ParseError("no edges declared")
    graph = graph or _declared_graph(vertices, edges.values())
    for e, ename in enumerate(graph.edge_names):
        if e not in images:
            raise ParseError(f"edge {ename!r} has no image")
    try:
        gsm = GraphSelfMap.inferred(graph, [images[e][1] for e in range(graph.num_edges)])
    except MapError as exc:  # a refused image, else a vertex that no edge touches
        raise _first_bad_image(graph, images) or ParseError(str(exc)) from exc
    return MapFile(name=name, map=gsm, assertions=tuple(assertions))


def parse_map_path(path: str) -> MapFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map_file(fh.read())


def serialize_map_file(mf: MapFile) -> str:
    """The map file text of mf; a name the parser would refuse raises its
    ParseError, with the line number the name would have."""
    g = mf.map.graph
    names = g.vertex_names
    lines = [f"graph {_check_name(mf.name, 1, 'graph name')}"]
    lines.extend(f"vertex {_check_id(v, i, 'vertex id')}" for i, v in enumerate(names, 2))
    for i, e in enumerate(g.edge_names):
        e = _check_id(e, len(lines) + 1, "edge name")
        lines.append(f"edge {e} {names[g.origin(2 * i)]} {names[g.terminus(2 * i)]}")
    lines.append("map")
    for i, e in enumerate(g.edge_names):
        lines.append(f"{e} -> {g.path_str(mf.map.edge_image[i])}")
    lines.extend(f"assert {a}" for a in mf.assertions)
    return "\n".join(lines) + "\n"
