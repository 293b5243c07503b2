"""Finite graphs with oriented darts, and reduced edge paths.

A graph is stored as a list of vertices plus a list of (unoriented) edges.
Edge ``i`` contributes two darts: ``2*i`` traverses the edge forward and
``2*i + 1`` traverses it backward, so reversal is a single xor.  Paths are
tuples of dart ids; a path is *reduced* (also: tight) when no dart is
immediately followed by its own reversal.  Every free reduction goes
through `join_reduced`, on paths coded as strings, dart d as chr(d).

Turns are unordered pairs of darts sharing an origin vertex.  They are kept
canonical as ``(min, max)`` so that dict/set membership never depends on the
order a turn was encountered in.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import GraphError

Dart = int
Path = tuple[int, ...]
Turn = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Connected graph with named vertices and edges.

    ``dart_origin[d]`` is the vertex a dart points away from; the terminal
    vertex of ``d`` is the origin of ``d ^ 1``.  Construction goes through
    :meth:`build`, which takes human-oriented (name, origin, terminus)
    triples and freezes everything into tuples.  A dataclass, not a
    NamedTuple like the result records: its `cached_property` tables live
    in the instance ``__dict__``, which a NamedTuple does not have.
    """

    vertex_names: tuple[str, ...]
    edge_names: tuple[str, ...]
    dart_origin: tuple[int, ...]

    @staticmethod
    def build(vertices: Sequence[str], edges: Sequence[tuple[str, str, str]]) -> "Graph":
        vnames = tuple(vertices)
        if len(set(vnames)) != len(vnames):
            raise GraphError("duplicate vertex name")
        vindex = {v: i for i, v in enumerate(vnames)}
        enames: dict[str, None] = {}  # a dict keeps the order and tests membership in O(1)
        origin = []
        for name, o, t in edges:
            if name in enames:
                raise GraphError(f"duplicate edge name {name!r}")
            for v in (o, t):
                if v not in vindex:
                    raise GraphError(f"edge {name!r} uses unknown vertex {v!r}")
            enames[name] = None
            origin.append(vindex[o])
            origin.append(vindex[t])
        return Graph(vnames, tuple(enames), tuple(origin))

    # -- size ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def num_edges(self) -> int:
        return len(self.edge_names)

    @property
    def num_darts(self) -> int:
        return 2 * len(self.edge_names)

    def darts(self) -> range:
        return range(self.num_darts)

    # -- incidence ----------------------------------------------------------

    def origin(self, d: Dart) -> int:
        return self.dart_origin[d]

    def terminus(self, d: Dart) -> int:
        return self.dart_origin[d ^ 1]

    def valence(self, v: int) -> int:
        return sum(1 for d in self.darts() if self.dart_origin[d] == v)

    # -- names --------------------------------------------------------------

    def dart_name(self, d: Dart) -> str:
        name = self.edge_names[d >> 1]
        return name if (d & 1) == 0 else name + "~"

    @cached_property
    def darts_by_name(self) -> dict[str, Dart]:
        """Dart of each token: an edge name for the forward dart, the name
        and `~` for the backward one.  A token ending in `~` is only ever
        read as a backward dart."""
        table = {name: 2 * i for i, name in enumerate(self.edge_names) if not name.endswith("~")}
        table.update((name + "~", 2 * i + 1) for i, name in enumerate(self.edge_names))
        return table

    @cached_property
    def dart_names(self) -> tuple[str, ...]:
        """`dart_name` of every dart, indexed by dart id."""
        return tuple(map(self.dart_name, self.darts()))

    @cached_property
    def flip_table(self) -> str:
        """The `str.translate` table of a flip, dart d coded as chr(d): d to
        d ^ 1, and chr(num_darts), which codes no dart, to itself."""
        return "".join([chr(d ^ 1) for d in self.darts()]) + chr(self.num_darts)

    def path_str(self, path: Iterable[int]) -> str:
        return " ".join(map(self.dart_names.__getitem__, path))

    def parse_path(self, text: str) -> Path:
        return self.parse_tokens(text.split())

    def parse_tokens(self, tokens: Iterable[str]) -> Path:
        """The path of the dart tokens, one lookup each in `darts_by_name`."""
        try:
            return tuple(map(self.darts_by_name.__getitem__, tokens))
        except KeyError as exc:
            raise _unknown_token(exc.args[0]) from None

    # -- path predicates ----------------------------------------------------

    def is_edge_path(self, path: Sequence[int]) -> bool:
        """Darts chain: terminus of each equals origin of the next."""
        origin = self.dart_origin
        if path and (min(path) < 0 or max(path) >= len(origin)):
            return False
        return [origin[a ^ 1] for a in path[:-1]] == [origin[b] for b in path[1:]]

    def is_closed(self, path: Sequence[int]) -> bool:
        return bool(path) and self.origin(path[0]) == self.terminus(path[-1])


def _unknown_token(token: str) -> GraphError:
    """The error for a token that names no dart: it names the edge, the
    token less one trailing `~`."""
    name = token[:-1] if token.endswith("~") else token
    return GraphError(f"unknown edge {name!r}")


# -- reduction and turns ----------------------------------------------------

def join_reduced(blocks: Iterable[str]) -> tuple[str, list[int]]:
    """The free reduction of reduced paths laid end to end, and where each
    block's leftover that stands in it starts, ascending; paths are coded,
    dart d as chr(d).  This is the one place where darts cancel.

    When the stack and a block are each reduced, free reduction of their
    concatenation can only cancel where they meet: the stack's last dart
    against the block's first, then the next pair inwards.  So the darts
    cancelled are counted by comparing codes backwards from the stack's
    end, and the stack is trimmed once; what is left is reduced again.
    Dart images, the images of legal segments and single darts are all
    reduced, so this is exact for every map, train track or not.  The
    stack is kept as the leftovers of the blocks, so a trim slices the top
    leftover only, and whole leftovers are dropped; one join at the end
    builds the string.  A block that cancels k darts on each side of a
    stack of s darts leaves its leftover starting at s - k, a junction
    unless the leftover is empty or starts the path.  A later block that
    pops the stack below a junction consumes it.
    """
    parts: list[str] = []
    size = 0
    junctions: list[int] = []
    for block in blocks:
        k, n = 0, len(block)
        if n and parts and ord(parts[-1][-1]) ^ 1 == ord(block[0]):
            while parts and k < n:
                top = parts[-1]
                i = len(top)
                while i and k < n and ord(top[i - 1]) ^ 1 == ord(block[k]):
                    i -= 1
                    k += 1
                if i:
                    parts[-1] = top[:i]
                    break
                parts.pop()
        if k < n:
            parts.append(block[k:])
        start = size - k
        size = start + n - k
        while junctions and junctions[-1] >= start:
            junctions.pop()
        if 0 < start < size:
            junctions.append(start)
    return "".join(parts), junctions


def path_reduce(path: Iterable[int]) -> Path:
    """Free reduction: `join_reduced` over the path's darts as one-dart
    blocks."""
    return tuple(map(ord, join_reduced(map(chr, path))[0]))


def is_reduced(path: Sequence[int]) -> bool:
    """No dart is followed by its reversal."""
    return all(map(operator.ne, [d ^ 1 for d in path[:-1]], path[1:]))


def reverse_path(path: Sequence[int]) -> Path:
    return tuple((d ^ 1) for d in reversed(path))


def turn(d1: Dart, d2: Dart) -> Turn:
    """Canonical unordered pair."""
    return (d1, d2) if d1 <= d2 else (d2, d1)


def turns_of_path(path: Sequence[int]) -> Iterator[Turn]:
    """Turns crossed while traversing the path: at each interior vertex the
    pair (incoming reversed, outgoing)."""
    for a, b in zip(path, path[1:]):
        yield turn(a ^ 1, b)


def all_turns(graph: Graph) -> list[Turn]:
    """Every non-degenerate turn (d1, d2), d1 < d2, by d1 and then d2: each
    dart paired with the later darts at its vertex."""
    later: dict[int, list[int]] = {}
    for d, v in enumerate(graph.dart_origin):
        later.setdefault(v, []).append(d)
    out: list[Turn] = []
    for d1, v in enumerate(graph.dart_origin):
        later[v].pop(0)  # d1, the least dart left at v
        out.extend(zip(repeat(d1), later[v]))
    return out


def equivalence_classes(items: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Classes of the equivalence on items generated by pairs, by union-find.

    Each class is sorted, and classes are ordered by their smallest member.
    A pair with an end outside items is ignored.
    """
    parent = {x: x for x in items}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    classes: dict[int, list[int]] = {}
    for x in sorted(parent):
        classes.setdefault(find(x), []).append(x)
    return [tuple(c) for c in classes.values()]


def validate_graph(graph: Graph) -> list[str]:
    """Structural complaints; empty list means the graph is usable.

    The dart encoding makes the reversal involution total and fixed-point
    free by construction, so only connectivity and valence can go wrong.
    """
    problems = []
    if graph.num_vertices == 0:
        return ["graph has no vertices"]
    if len(graph.dart_origin) != 2 * len(graph.edge_names):
        problems.append("dart table length disagrees with edge count")
        return problems
    for d in graph.darts():
        if not (0 <= graph.dart_origin[d] < graph.num_vertices):
            problems.append(f"dart {d} has out-of-range origin")
            return problems
    endpoints = ((graph.dart_origin[2 * i], graph.dart_origin[2 * i + 1]) for i in range(graph.num_edges))
    components = len(equivalence_classes(range(graph.num_vertices), endpoints))
    if components > 1:
        problems.append(f"graph is disconnected ({components} components)")
    for v in range(graph.num_vertices):
        val = graph.valence(v)
        if val == 0:
            problems.append(f"vertex {graph.vertex_names[v]} is isolated")
        elif val == 1:
            problems.append(f"vertex {graph.vertex_names[v]} has valence 1")
    return problems
