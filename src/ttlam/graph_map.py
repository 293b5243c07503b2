"""Graph self-maps: vertices to vertices, edges to reduced edge paths.

A map is stored by its action on forward darts only; the image of a backward
dart is the reversed image of its partner, and both are read from one table
of dart images built once per map.  Composition-style questions (what does
the n-th iterate do to a path?) always pass through free reduction, so
iterated images are reduced edge paths by construction.
"""

from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import chain
from operator import add, eq
from typing import Callable, Sequence, TypeVar

from .errors import MapError, NotExpandingError
from .graph import Graph, Path, is_reduced, join_reduced, path_reduce, reverse_path


@dataclass(frozen=True)
class GraphSelfMap:
    """A homotopy-class representative f: G -> G.

    ``edge_image[i]`` is the reduced edge path crossed by f(edge i), recorded
    on forward darts.  ``vertex_image[v]`` is the image vertex.  Immutability
    keeps derived tables (dart images, derivative, iterates) safely cacheable.
    A dataclass, not a NamedTuple like the result records: its
    `cached_property` tables and `per_map` memos live in the instance
    ``__dict__``, which a NamedTuple does not have.
    """

    graph: Graph
    vertex_image: tuple[int, ...]
    edge_image: tuple[Path, ...]
    # `dart_images` coded, dart d as chr(d), by the image check; it is also
    # the `str.translate` table sending a coded path to its image, unreduced
    coded_images: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        if len(self.vertex_image) != g.num_vertices:
            raise MapError("vertex image table has wrong length")
        for v, w in enumerate(self.vertex_image):
            if not (0 <= w < g.num_vertices):
                raise MapError(f"vertex {g.vertex_names[v]} maps out of range")
        if len(self.edge_image) != g.num_edges:
            raise MapError("edge image table has wrong length")
        codes = _checked_codes(g, self.vertex_image, self.edge_image)
        if codes is None:  # check_image words why, for the first image in edge order
            vertex_image = dict(enumerate(self.vertex_image))
            for e, img in enumerate(self.edge_image):
                check_image(g, e, img, vertex_image)
            raise AssertionError("check_image accepts the images that _checked_codes refused")
        object.__setattr__(self, "coded_images", codes)

    @staticmethod
    def build(graph: Graph, images: dict[str, str]) -> "GraphSelfMap":
        """Build from edge-name -> path-literal, inferring vertex images."""
        if set(images) != set(graph.edge_names):
            missing = set(graph.edge_names) - set(images)
            extra = set(images) - set(graph.edge_names)
            raise MapError(f"edge images missing {sorted(missing)} / unknown {sorted(extra)}")
        return GraphSelfMap.inferred(graph, [graph.parse_path(images[name]) for name in graph.edge_names])

    @staticmethod
    def inferred(graph: Graph, edge_image: Sequence[Path]) -> "GraphSelfMap":
        """The map with these edge images, tuples of darts of graph, each
        vertex sent where the first image in edge order that touches it
        sends it; the constructor checks every image against these vertex
        images.  A vertex that no image touches raises MapError."""
        origin = graph.dart_origin
        vimg: dict[int, int] = {}
        for e, img in enumerate(edge_image):
            if img:
                vimg.setdefault(origin[2 * e], origin[img[0]])
                vimg.setdefault(origin[2 * e + 1], origin[img[-1] ^ 1])
        for v in range(graph.num_vertices):
            if v not in vimg:
                raise MapError(f"vertex {graph.vertex_names[v]} touched by no edge")
        vertex_image = tuple(vimg[v] for v in range(graph.num_vertices))
        return GraphSelfMap(graph, vertex_image, tuple(edge_image))

    # -- action on darts and paths -------------------------------------------

    @cached_property
    def dart_images(self) -> tuple[Path, ...]:
        """The reduced image of every dart, indexed by dart id: the edge
        image on a forward dart, its reversal on the backward one."""
        backward = [tuple(map(ord, code)) for code in self.coded_images[1::2]]
        return tuple(chain.from_iterable(zip(self.edge_image, backward)))

    def dart_image(self, d: int) -> Path:
        """Image of a single dart as a reduced edge path."""
        return self.dart_images[d]

    def apply(self, path: Sequence[int]) -> Path:
        """f(path), freely reduced: the coded dart images joined by
        `join_reduced`, decoded."""
        return tuple(map(ord, join_reduced(map(self.coded_images.__getitem__, path))[0]))

    def iterate(self, path: Sequence[int], n: int) -> Path:
        """[f^n(path)], reduced after every application."""
        if n < 0:
            raise MapError("negative iterate")
        p = path_reduce(path)
        for _ in range(n):
            p = self.apply(p)
        return p

    @cached_property
    def derivative_table(self) -> tuple[int, ...]:
        """Df: the first dart crossed by the image of each dart."""
        return tuple(img[0] for img in self.dart_images)

    @cached_property
    def edge_iterates(self) -> "EdgeIterates":
        """This map's store of the lengths |f^t(e)|, filled on demand."""
        return EdgeIterates(self)

    # -- basic properties -----------------------------------------------------

    @cached_property
    def is_expanding(self) -> bool:
        """Every edge eventually maps over more than one edge."""
        return self.non_expanding_witness() is None

    def require_expanding(self) -> None:
        if not self.is_expanding:
            witness = self.non_expanding_witness()
            raise NotExpandingError(f"iterated images of edge {witness!r} never grow")

    def non_expanding_witness(self) -> str | None:
        """Name of an edge trapped in a cycle of length-1 images, if any.

        Follow Df from each dart while the image stays a single dart; if the
        walk survives num_darts steps it has cycled among length-1 edges.
        """
        nd, images = self.graph.num_darts, self.dart_images
        for d0 in range(nd):
            d = d0
            steps = 0
            while len(images[d]) == 1:
                d = images[d][0]
                steps += 1
                if steps > nd:
                    return self.graph.edge_names[d0 >> 1]
        return None

    @cached_property
    def cancellation_bound(self) -> int:
        """C(f): twice the longest common prefix of the images f(d1), f(d2)
        of two distinct darts at one vertex.

        This is the cancellation of f(d1~) * f(d2) alone, not a proved bound
        on the cancellation of f(..d1~) * f(d2..): the blocks that follow
        can cancel further.  For the train track map a -> a b a a b a a,
        b -> c a b a, c -> c c a b a, C(f) = 8, yet f(a~ b) * f(c~ b a)
        cancels 11 darts on each side.  ROADMAP item 1 replaces it with a
        proved constant.

        The images at each vertex are sorted, and only neighbours compared:
        in sorted order the common prefix of two images is the shortest of
        those of the neighbouring pairs between them, so a neighbouring pair
        reaches the maximum over all pairs, in O(d log d) comparisons for d
        darts.
        """
        at_vertex: dict[int, list[Path]] = {}
        for d, img in enumerate(self.dart_images):
            at_vertex.setdefault(self.graph.dart_origin[d], []).append(img)
        best = 0
        for imgs in at_vertex.values():
            imgs.sort()
            for a, b in zip(imgs, imgs[1:]):
                k = 0
                while k < len(a) and k < len(b) and a[k] == b[k]:
                    k += 1
                best = max(best, k)
        return 2 * best


def _checked_codes(graph: Graph, vertex_image: tuple[int, ...], edge_image: tuple[Path, ...]) -> tuple[str, ...] | None:
    """The coded images of all darts, dart d as chr(d), if `check_image`
    accepts every edge image, else None.  The images are checked at once on
    their joined code, each followed by the separator chr(num_darts).  An
    image doubles back where a dart is followed by its reversal.  It is an
    edge path with the right ends when, preceded by the image of its edge's
    origin, it reads as terminuses as it does as origins followed by the
    image of its edge's terminus; there a character that codes no dart
    reads as no vertex, so a dart out of range fails, unless it is the
    separator, which cuts its image in two.  Reversed, the codes are those
    of the backward darts."""
    nd, nv = graph.num_darts, graph.num_vertices
    sep = chr(nd)
    parts = [(nd,)] * (2 * len(edge_image))
    parts[::2] = edge_image
    try:
        joined = "".join(map(chr, chain.from_iterable(parts)))
    except (TypeError, ValueError, OverflowError):
        return None
    codes = joined.split(sep)
    if len(codes) != len(edge_image) + 1 or "" in codes[:-1]:
        return None
    flipped = joined.translate(graph.flip_table)
    # the separator to chr(nv); past it, up to chr(nv) and beyond the table, no vertex
    origin = "".join(map(chr, graph.dart_origin + (nv,) + (nv + 1,) * (nv - nd)))
    ends = "".join(map(chr, vertex_image))
    as_terminuses = map(add, origin[:nd:2].translate(ends), flipped.translate(origin).split(chr(nv)))
    as_origins = map(add, joined.translate(origin).split(chr(nv)), origin[1:nd:2].translate(ends))
    if any(map(eq, joined[1:], flipped)) or "".join(as_terminuses) != "".join(as_origins):
        return None
    return tuple(chain.from_iterable(zip(codes, flipped[::-1].split(sep)[:0:-1])))


def check_image(graph: Graph, e: int, img: Path, vertex_image: dict[int, int]) -> None:
    """Raise MapError unless img can be the image of edge e: a nonempty,
    reduced edge path whose ends agree with vertex_image, the vertex images
    known so far.  An end vertex that vertex_image lacks is added to it, so
    checking the images one at a time infers the vertex images and stops at
    the first image that conflicts with an earlier one."""
    name = graph.edge_names[e]
    if not img:
        raise MapError(f"edge {name!r} has empty image")
    if not graph.is_edge_path(img):
        shown = graph.path_str(img) if all(0 <= d < graph.num_darts for d in img) else list(img)
        raise MapError(f"image of edge {name!r} is not an edge path: {shown}")
    if not is_reduced(img):
        raise MapError(f"image of edge {name!r} is not reduced")
    for v, w in ((graph.origin(2 * e), graph.origin(img[0])),
                 (graph.terminus(2 * e), graph.terminus(img[-1]))):
        if vertex_image.setdefault(v, w) != w:
            raise MapError(f"vertex {graph.vertex_names[v]} gets conflicting images")


T = TypeVar("T")


def per_map(compute: Callable[[GraphSelfMap], T]) -> Callable[[GraphSelfMap], T]:
    """Decorator: compute(f) at most once per map instance.

    The value is kept in the map's ``__dict__``, as `cached_property` keeps
    `dart_images`, so it lives exactly as long as the map; a module-level
    cache would keep every map alive.  Every caller shares the one value,
    so `compute` must return an immutable one.
    """
    key = f"{compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def cached(f: GraphSelfMap) -> T:
        memo = f.__dict__
        if key not in memo:
            memo[key] = compute(f)
        return memo[key]

    return cached


class EdgeIterates:
    """The exact lengths |f^t(e)| of one map, each level computed once.

    ``lengths(t)[e]`` is the column sum of M^t, advanced exactly by
    |f^t(e)| = sum of |f^(t-1)(d)| over the darts d of f(e); for a train
    track map it is the length of f^t(e), one `sum(map(...))` over f(e)
    per edge and level.  The images f^t(d) themselves are never kept: the
    INP search reads a dart or a place in f^t(e) by descent through these
    lengths (`nielsen._descend`).
    """

    def __init__(self, f: GraphSelfMap):
        self._f = f
        self._lengths = [(1,) * f.graph.num_edges]

    def lengths(self, t: int) -> tuple[int, ...]:
        table = self._lengths
        while len(table) <= t:
            by_dart = list(chain.from_iterable(zip(table[-1], table[-1])))  # |f^(t-1)(d)|, dart d
            table.append(tuple(sum(map(by_dart.__getitem__, img)) for img in self._f.edge_image))
        return table[t]

    def first_level_over(self, c: int) -> int:
        """The least s >= 1 with every lengths(s)[e] > c.  The search ends
        only when those column sums grow past c; each caller proves that."""
        s = 1
        while min(self.lengths(s)) <= c:
            s += 1
        return s


def compose(outer: GraphSelfMap, inner: GraphSelfMap) -> GraphSelfMap:
    """outer . inner on a shared graph, with reduced edge images."""
    if outer.graph != inner.graph:
        raise MapError("composition requires identical graphs")
    vertex_image = tuple(outer.vertex_image[w] for w in inner.vertex_image)
    edge_image = tuple(outer.apply(img) for img in inner.edge_image)
    return GraphSelfMap(outer.graph, vertex_image, edge_image)  # MapError on a collapsed edge


def is_inner(f: GraphSelfMap) -> bool:
    """Whether f, a map of a one-vertex graph, sends every edge e to [w e w~]
    for one word w.  Only an edge e with w ending in e or e~ loses darts in
    w e w~, so on rank >= 2 a longest image is w e w~ and w its first half;
    on rank 1 every w gives e, as w = () does."""
    longest = max(f.edge_image, key=len)
    w = longest[: len(longest) // 2]
    return all(
        img == path_reduce(w + (2 * e,) + reverse_path(w)) for e, img in enumerate(f.edge_image)
    )
