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
from dataclasses import dataclass

from .errors import GraphError, MapError, ParseError
from .graph import Graph
from .graph_map import GraphSelfMap

_NAME = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.*-]*$")
_RESERVED = ".*"  # the separators of the names subdivision makes
_KNOWN_ASSERTS = ("iwip", "atoroidal", "inverse-of")


@dataclass(frozen=True)
class MapFile:
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
    if any(c in _RESERVED for c in _check_name(token, line, what)):
        raise ParseError(
            f"{what} {token!r} uses a reserved character: '.' and '*' are kept for subdivision", line
        )
    return token


def parse_map_file(text: str) -> MapFile:
    name: str | None = None
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    edge_lines: dict[str, int] = {}
    images: dict[str, str] = {}
    image_lines: dict[str, int] = {}
    assertions: list[str] = []
    in_map = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "graph":
            if len(toks) != 2:
                raise ParseError("expected: graph <name>", lineno)
            if name is not None:
                raise ParseError("duplicate graph declaration", lineno)
            name = _check_name(toks[1], lineno, "graph name")
        elif head == "vertex":
            if len(toks) != 2:
                raise ParseError("expected: vertex <id>", lineno)
            if in_map:
                raise ParseError("vertex declared after map section", lineno)
            vertices.append(_check_id(toks[1], lineno, "vertex id"))
        elif head == "edge":
            if len(toks) != 4:
                raise ParseError("expected: edge <name> <origin> <terminus>", lineno)
            if in_map:
                raise ParseError("edge declared after map section", lineno)
            edges.append(
                (
                    _check_id(toks[1], lineno, "edge name"),
                    _check_id(toks[2], lineno, "vertex id"),
                    _check_id(toks[3], lineno, "vertex id"),
                )
            )
            edge_lines.setdefault(toks[1], lineno)
        elif head == "map":
            if len(toks) != 1:
                raise ParseError("expected: map", lineno)
            in_map = True
        elif head == "assert":
            body = line.split(None, 1)[1] if len(toks) > 1 else ""
            if body == "iwip" or body == "atoroidal":
                assertions.append(body)
            elif toks[1:2] == ["inverse-of"] and len(toks) == 3:
                assertions.append(f"inverse-of {_check_name(toks[2], lineno, 'map name')}")
            else:
                raise ParseError(
                    f"unknown assertion {body!r} (known: {', '.join(_KNOWN_ASSERTS)})", lineno
                )
        elif len(toks) >= 3 and toks[1] == "->":
            if not in_map:
                raise ParseError("edge image before the map line", lineno)
            ename = toks[0]
            if ename in images:
                raise ParseError(f"duplicate image for edge {ename!r}", lineno)
            images[ename] = " ".join(toks[2:])
            image_lines[ename] = lineno
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if name is None:
        raise ParseError("missing graph declaration")
    if not vertices:
        raise ParseError("no vertices declared")
    if not edges:
        raise ParseError("no edges declared")
    try:
        graph = Graph.build(vertices, edges)
    except GraphError as exc:
        msg = str(exc)
        lineno = next((ln for en, ln in edge_lines.items() if f"{en!r}" in msg), None)
        raise ParseError(msg, lineno) from exc
    for ename in images:
        if ename not in graph.edge_names:
            raise ParseError(f"image for unknown edge {ename!r}", image_lines[ename])
    for ename in graph.edge_names:
        if ename not in images:
            raise ParseError(f"edge {ename!r} has no image")
    # re-raise per-edge problems with their line numbers
    try:
        gsm = GraphSelfMap.build(graph, images)
    except (MapError, GraphError) as exc:
        msg = str(exc)
        lineno = None
        for ename, ln in image_lines.items():
            if f"{ename!r}" in msg:
                lineno = ln
                break
        raise ParseError(msg, lineno) from exc
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
