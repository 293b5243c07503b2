"""Periodic points, eigenrays, subdivision, and fixed-path (INP) detection.

An expanding train track map fixes a sparse set of points: periodic vertices,
and isolated interior points of edges where some iterate maps an edge over
itself.  At every periodic point each gate carries exactly one *eigenray*, an
infinite legal ray with f^k(rho) = rho.  A periodic indivisible Nielsen path
(INP) is a reduced path eta with exactly one illegal turn and [f^t(eta)] =
eta; its two legal halves extend to eigenrays sharing an exactly equal
infinite tail, which is what the detector looks for.

Interior periodic points are tracked symbolically as occurrences: the point
fixed by f^T on edge e "at index i" is the unique fixed point of the inverse
branch of f^T through the i-th dart of f^T(e).  All comparisons, orbit steps
and refinements stay in exact integer arithmetic (occurrence indices plus
the exact lengths |f^t(e)|), so no floating point enters the subdivision.
On a train track map nothing cancels, so f^t(d) is f^(t-1)(d) with each
dart replaced by its image.  The map's one coded store (`_CodedStore`) builds
each f^t(d) that way, once per map, as a string with one character per dart;
the eigenrays and the interior-point scan both read it.  The lengths
|f^t(e)| come from `GraphSelfMap.edge_iterates`, and the periodic data are
kept once per map too (`graph_map.per_map`).
"""

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import eq, mul
from types import MappingProxyType

from .errors import (
    ConvergenceError,
    MapError,
    NotPrimitiveError,
    SubdivisionError,
)
from .graph import Graph, Path, extend_reduced, turn
from .graph_map import GraphSelfMap, per_map
from .spectral import PFData, _pf_data_from, pf_data
from .train_track import is_legal_turn, known_train_track, require_train_track


# -- periodic vertices and darts ---------------------------------------------

def _cycle_periods(step: tuple[int, ...]) -> dict[int, int]:
    """For a finite self-map given as a table, the elements lying on cycles
    and their minimal periods."""
    n = len(step)
    out: dict[int, int] = {}
    for x in range(n):
        y = x
        for k in range(1, n + 1):
            y = step[y]
            if y == x:
                out[x] = k
                break
    return out


@dataclass(frozen=True)
class PeriodicData:
    """Vertices periodic under f and darts periodic under Df, each mapped to
    its period, keys ascending.  The maps are read-only views, since every
    caller of `periodic_structures` shares them."""

    vertex_period: Mapping[int, int]
    dart_period: Mapping[int, int]


@per_map
def periodic_structures(f: GraphSelfMap) -> PeriodicData:
    return PeriodicData(
        MappingProxyType(_cycle_periods(f.vertex_image)),
        MappingProxyType(_cycle_periods(f.derivative_table)),
    )


# -- eigenrays ----------------------------------------------------------------

def eigenray_prefix(f: GraphSelfMap, dart: int, n: int) -> Path:
    """First n darts of the unique f-invariant ray in the direction `dart`.

    The dart must be Df-periodic with some period k; iterating f^k on the
    one-dart path then yields nested prefixes p_0 = (dart,),
    p_(j+1) = [f^k(p_j)] of the ray.

    On a map already shown to be a train track map (`known_train_track`:
    every map that INP detection, `singular` and `dual` see), the ray is
    read from the map's coded store, block by block (`_CodedStore`), and a
    longer prefix continues the stream instead of rebuilding it.  On any
    other map `_eigenray_by_rounds` runs afresh on every call.
    """
    if n < 1:
        raise MapError("prefix length must be >= 1")
    k = periodic_structures(f).dart_period.get(dart)
    if k is None:
        raise MapError(f"dart {f.graph.dart_name(dart)} is not Df-periodic; no eigenray")
    f.require_expanding()
    if known_train_track(f):
        return tuple(map(ord, _coded_store(f).prefix(dart, k, n)))
    return _eigenray_by_rounds(f, dart, k, n)


def _eigenray_by_rounds(f: GraphSelfMap, dart: int, k: int, n: int) -> Path:
    """First n darts of the eigenray of `dart`, of Df-period k, on any
    expanding map, by the rounds p_(j+1) = [f^k(p_j)].

    The iterates are streamed, not recomputed.  Once p_j is known to be a
    prefix of p_(j+1), write p_(j+1) = p_j s; free reduction is confluent, so

        [f^k(p_(j+1))] = [f^k(p_j) f^k(s)] = [p_(j+1) [f^k(s)]].

    Each round therefore reduces only the f^k-blocks of the new suffix s onto
    a stack that already holds p_(j+1), with `extend_reduced`.  A block
    [f^k(d)] is made by `GraphSelfMap.iterate` once per dart and call, and
    this holds for any expanding map, train track or not.
    A round that loses the prefix property raises ConvergenceError, and so
    do more than num_darts rounds in a row without growth.  Every other
    round grows the prefix, so the loop ends.
    """
    blocks: dict[int, Path] = {}  # dart -> [f^k(dart)]
    image: list[int] = []  # [f^k(p[:done])], reduced as a stack
    p: Path = (dart,)
    done = 0
    stalls = 0
    while len(p) < n:
        for d in set(p[done:]).difference(blocks):
            blocks[d] = f.iterate((d,), k)
        extend_reduced(image, map(blocks.__getitem__, p[done:]))
        done = len(p)
        q = tuple(image)
        if q[:done] != p:
            raise ConvergenceError("eigenray iteration lost the prefix property")
        if len(q) == done:
            stalls += 1
            if stalls > f.graph.num_darts:
                raise ConvergenceError("eigenray prefix stopped growing")
        else:
            stalls = 0
        p = q
    return p[:n]


class _CodedStore:
    """The iterated images f^t(d) of one train track map, coded one
    character per dart (dart d is chr(d)), and its eigenrays as far as each
    has been asked for.  `level(t)` is the table d -> f^t(d) (`_Blocks`),
    the map's only f^t(d) for t >= 1: the eigenrays, the interior-point
    scan, `doubled_index`, `point_image` and `_refined_pf` all read it.

    The eigenray R of a dart of Df-period k is fixed by f^k, and legal like
    every f^j(d), so f^k(R) is the blocks f^k(R[i]) laid end to end:

        R = f^k(R[0]) f^k(R[1]) f^k(R[2]) ...,   R[0] = the dart.

    Block 0 starts with the dart, as Df^k fixes it, and has at least two
    darts on an expanding map, since a block of one dart would repeat
    forever.  So block i starts inside the prefix that blocks 0 .. i - 1
    have already written, and the ray streams from itself.  Each ray keeps
    its prefix, the block it is reading and the offset inside it; a call
    reads on from there and stops inside the block that reaches the length
    asked, so a ray holds no more darts than the longest prefix asked for.
    Whole blocks are appended m at a time, m the most that still fit, found
    by bisection in the running sums of their lengths |f^k(d)|, unless even
    blocks of the longest length would all fit; the m darts become their
    blocks by one `str.translate` through `level(k)`.  The block that
    reaches the length is cut.
    """

    def __init__(self, f: GraphSelfMap):
        self._lengths = f.edge_iterates.lengths
        self._images = {d: "".join(map(chr, img)) for d, img in enumerate(f.dart_images)}
        self._levels: list[Mapping[int, str]] = [{d: chr(d) for d in self._images}]  # levels[t]: d -> f^t(d)
        self._rays: dict[int, tuple[str, int, int]] = {}  # dart -> (prefix, block index, offset in block)

    def level(self, t: int) -> "_Blocks":
        """The table d -> f^t(d), t >= 1, with the tables below it."""
        levels = self._levels
        while len(levels) <= t:
            levels.append(_Blocks(levels[-1], self._images, self._lengths(len(levels))))
        return levels[t]

    def prefix(self, dart: int, k: int, n: int) -> str:
        """The first n darts of the eigenray of `dart`, of Df-period k."""
        ray, i, off = self._rays.pop(dart, (chr(dart), 0, 1))  # popped, so += can grow it in place
        blocks = self.level(k)
        while len(ray) < n:
            need = n - len(ray)
            if not off:
                # no more than need // shortest blocks fit, and all of these
                # do if even blocks of the longest length would
                run = ray[i : i + need // blocks.shortest]
                if len(run) * blocks.longest <= need:
                    m = len(run)
                else:
                    m = bisect_right(list(accumulate(map(blocks.sizes.__getitem__, run))), need)
                if m:
                    ray += run[:m].translate(blocks)
                    i += m
                    continue
            block = blocks[ord(ray[i])]
            part = block[off : off + need]
            ray += part
            off += len(part)
            if off == len(block):
                i, off = i + 1, 0
        self._rays[dart] = ray, i, off
        return ray[:n]


class _Blocks(dict):
    """The table d -> f^t(d), coded, of a train track map, each block made
    on first use as the block f^(t-1)(d) of the table below translated
    through the table d -> f(d).  It is a `str.translate` table, so a run
    of darts becomes its f^t-blocks in one call, which makes the missing
    ones.  `sizes` gives |f^t(d)| by the code of d."""

    def __init__(self, below: Mapping[int, str], images: dict[int, str], lengths: tuple[int, ...]):
        super().__init__()
        self._below = below
        self._images = images
        self.sizes = {chr(d): lengths[d >> 1] for d in images}
        self.shortest = min(lengths)
        self.longest = max(lengths)

    def __missing__(self, d: int) -> str:
        block = self[d] = self._below[d].translate(self._images)
        return block


@per_map
def _coded_store(f: GraphSelfMap) -> _CodedStore:
    """The map's one coded store, for a train track map only, since the
    translation is exact only when nothing cancels.  Unlike other per-map
    values it grows, but only by reading further along images and rays
    that are fixed, so every caller gets the answer a fresh store would
    give."""
    require_train_track(f)
    return _CodedStore(f)


# -- interior periodic points --------------------------------------------------

@dataclass(frozen=True)
class PeriodicPoint:
    """Interior periodic point as an orientation-preserving occurrence.

    The point is the unique fixed point of the inverse branch of f^exponent
    through the `index`-th dart of f^exponent(edge); `period` is its minimal
    period as a point of the graph.
    """

    edge: int
    exponent: int
    index: int
    period: int


def doubled_index(f: GraphSelfMap, e: int, t: int, i: int) -> int:
    """Index in f^(2t)(e) of the point that the occurrence P[i] = e or e~,
    P = f^t(e), carries.

    f^(2t)(e) = f^t(P), whose block f^t(P[i]) starts at ell = |f^t(P[:i])|
    and reads P forward when P[i] = e, P reversed when P[i] = e~.  Either
    way the dart e of that block, the one holding the point, sits at ell + i
    or at ell + |P| - 1 - i.  No two blocks may cancel, so f must be a train
    track map: the coded store it reads raises NotTrainTrackError otherwise.
    """
    blocks = _coded_store(f).level(t)
    p = blocks[2 * e]
    ell = sum(map(blocks.sizes.__getitem__, p[:i]))
    return ell + (len(p) - 1 - i if ord(p[i]) & 1 else i)


def point_image(f: GraphSelfMap, e: int, t: int, i: int) -> tuple[int, int, int]:
    """Where f sends the interior fixed point (e, t, i).

    Returns (new_edge, new_index, dart_pos): the image point as a descriptor
    at the same exponent, plus the position of the dart of f(e) it lies on
    (needed when cutting edge images during subdivision).

    Writing P = f^t(e), Q = f(e) and ell = |f(P[:i])|, the image point sits
    on the unique dart Q[k] whose f^t-block [C_k, C_k + L_k) inside f^t(Q)
    contains position ell + k; reversed darts mirror the in-block index.
    Like `doubled_index` it needs a train track map.
    """
    store = _coded_store(f)
    blocks = store.level(t)
    p = blocks[2 * e]
    if p[i] != chr(2 * e):
        raise MapError("descriptor is not an orientation-preserving occurrence")
    ell = sum(map(store.level(1).sizes.__getitem__, p[:i]))
    q = f.edge_image[e]
    lens = f.edge_iterates.lengths(t)
    cum = 0
    for k, g in enumerate(q):
        ge = g >> 1
        lk = lens[ge]
        pos = ell + k
        if cum <= pos < cum + lk:
            rel = pos - cum
            new_index = (lk - 1 - rel) if (g & 1) else rel
            if not (0 < new_index < lk - 1):
                raise MapError("image of an interior fixed point landed on a vertex")
            if blocks[2 * ge][new_index] != chr(2 * ge):
                raise MapError("point image descriptor failed verification")
            return ge, new_index, k
        cum += lk
    raise MapError("fixed point image not located inside f(e)")


def _first_interior_point(f: GraphSelfMap, max_period: int) -> PeriodicPoint | None:
    """The first interior point in the order (period, edge, place along the
    edge) among those of period <= max_period, or None when there is none.

    Exponents t = 1, 2, ... are walked in turn, then edges e ascending, and
    the first occurrence in the coded P = f^t(e) is returned, found by one
    `str.find` for e~ and one for e.  A forward occurrence P[i] = e carries
    an interior point only for 0 < i < |P| - 1, since at the first (last)
    index the fixed point is the initial (terminal) vertex; it is stored at
    exponent t.  A reversed occurrence P[i] = e~ always carries one, since
    an orientation-reversing branch fixes no endpoint; it is stored at
    exponent 2t (`doubled_index`).
    `detect_inps` says why the first t with an occurrence gives the points
    of smallest period.

    Why the first occurrence is the leftmost point.  The occurrence P[i]
    carries the fixed point of the inverse branch of f^t through P[i], and
    that point lies in the i-th of the consecutive intervals of e that f^t
    maps onto the darts of P.  So along e the points follow i, for forward
    and reversed occurrences alike.  At exponent 2t the point lies in block
    i of f^t(P), which is where `doubled_index` puts it, so ordering by
    index at the common exponent 2t picks the same point as ordering by i.
    """
    level = _coded_store(f).level
    for t in range(1, max_period + 1):
        blocks = level(t)
        for e in range(f.graph.num_edges):
            p = blocks[2 * e]
            back = p.find(chr(2 * e + 1))
            forth = p.find(chr(2 * e), 1, len(p) - 1)
            if back >= 0 and not 0 <= forth < back:
                return PeriodicPoint(e, 2 * t, doubled_index(f, e, t, back), t)
            if forth >= 0:
                return PeriodicPoint(e, t, forth, t)
    return None


# -- subdivision at a periodic orbit -------------------------------------------

@dataclass(frozen=True)
class SubdivisionResult:
    """Map on the refined graph, with the orbit bookkeeping that produced it."""

    map: GraphSelfMap
    orbit: tuple[PeriodicPoint, ...]
    new_vertices: tuple[str, ...]
    edge_split: dict[str, tuple[str, ...]]


def subdivide_at(f: GraphSelfMap, point: PeriodicPoint) -> SubdivisionResult:
    """Subdivide the graph at the full orbit of one interior periodic point
    and carry f to the refined graph.

    The orbit is walked once: each `point_image` step gives orbit point
    j + 1 and the dart of f(e_j) holding it, where f(e_j) is cut.  The walk
    closes at its start within t steps, since f^t fixes the point.  Orbit
    point j becomes vertex num_vertices + j, and f sends it to orbit point
    j + 1 (mod the period).  An edge holding r orbit points splits into
    r + 1 edges with consecutive ids.  Names are
    made only for `Graph.build` and the report: the pieces of edge e are
    e.1 .. e.(r+1), the orbit point that is the j-th along e is e*j, and an
    edge holding no orbit point keeps its name.  f must be a train track
    map, as `point_image` needs (NotTrainTrackError otherwise), and the
    rebuilt map is checked to stay an expanding train track map.
    """
    require_train_track(f)
    g = f.graph
    t = point.exponent
    walk = [(point.edge, point.index)]  # orbit point j as (edge, index) at exponent t
    cut_dart: list[int] = []  # cut_dart[j]: the dart of f(e_j) holding orbit point j + 1
    for _ in range(t):
        ce, ci = walk[-1]
        ne, ni, k = point_image(f, ce, t, ci)
        cut_dart.append(k)
        if (ne, ni) == walk[0]:
            break
        walk.append((ne, ni))
    else:
        raise ConvergenceError(f"point orbit did not close within {t} steps")
    period = len(walk)
    orbit = tuple(PeriodicPoint(e, t, i, period) for e, i in walk)
    nv = g.num_vertices
    on_edge: list[list[int]] = [[] for _ in range(g.num_edges)]  # orbit points along each edge
    for j in sorted(range(period), key=lambda j: orbit[j].index):
        on_edge[orbit[j].edge].append(j)
    rank = [0] * period  # 1-based place of orbit point j along its edge
    first = [0]  # edge e splits into the edges first[e] .. first[e + 1] - 1
    for pts in on_edge:
        for r, j in enumerate(pts, start=1):
            rank[j] = r
        first.append(first[-1] + len(pts) + 1)

    vertex_names = list(g.vertex_names)
    vertex_names += (f"{g.edge_names[p.edge]}*{rank[j]}" for j, p in enumerate(orbit))
    edge_split: dict[str, tuple[str, ...]] = {}
    edges: list[tuple[str, str, str]] = []
    for e, pts in enumerate(on_edge):
        name = g.edge_names[e]
        pieces = tuple(f"{name}.{r}" for r in range(1, len(pts) + 2)) if pts else (name,)
        edge_split[name] = pieces
        ends = (g.origin(2 * e), *(nv + j for j in pts), g.terminus(2 * e))
        chain = [vertex_names[v] for v in ends]
        edges += zip(pieces, chain, chain[1:])
    new_graph = Graph.build(vertex_names, edges)

    def rewrite(d: int) -> range:
        e = d >> 1
        if d & 1:
            return range(2 * first[e + 1] - 1, 2 * first[e], -2)
        return range(2 * first[e], 2 * first[e + 1], 2)

    # edge images, cut where f(e) crosses the image of each orbit point on e
    images: list[Path] = []
    for e, pts in enumerate(on_edge):
        img = f.edge_image[e]
        w = [x for d in img for x in rewrite(d)]
        cuts = [0]
        for j in pts:
            k = cut_dart[j]
            before = sum(len(rewrite(d)) for d in img[:k])
            r = rank[(j + 1) % period]  # the image point's place along the edge of img[k]
            cuts.append(before + (len(rewrite(img[k])) - r if img[k] & 1 else r))
        cuts.append(len(w))
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise SubdivisionError("orbit images are not ordered along the edge image")
        images += (tuple(w[a:b]) for a, b in zip(cuts, cuts[1:]))

    vertex_image = f.vertex_image + tuple(nv + (j + 1) % period for j in range(period))
    new_map = GraphSelfMap(new_graph, vertex_image, tuple(images))
    if not new_map.is_expanding:
        raise SubdivisionError("subdivided map lost expansion")
    require_train_track(new_map)
    return SubdivisionResult(
        map=new_map,
        orbit=orbit,
        new_vertices=tuple(vertex_names[nv:]),
        edge_split=edge_split,
    )


# -- INP detection --------------------------------------------------------------

@dataclass(frozen=True)
class NielsenPath:
    """Reduced path with exactly one illegal turn and [f^period(path)] = path.

    `tip_index` marks the illegal turn: it sits between path[tip_index - 1]
    and path[tip_index].  Stored in canonical orientation (lexicographically
    smaller of the path and its reverse).  The scan builds it canonical, as
    r1[:m1] + reverse(r2[:m2]) from the eigenrays of eigen darts d1 < d2,
    which starts with d1 while its reverse starts with d2.  Its tip is m1:
    both halves are eigenray prefixes of a train track map, hence legal,
    and the scan has checked that the junction turn is illegal.
    """

    path: Path
    period: int
    tip_index: int
    closed: bool

    def halves(self) -> tuple[Path, Path]:
        """Legal halves (alpha-bar, beta) with the tip between them."""
        return self.path[: self.tip_index], self.path[self.tip_index :]


def _pf_or_none(f: GraphSelfMap) -> PFData | None:
    try:
        return pf_data(f)
    except NotPrimitiveError:
        return None


def _refined_pf(f: GraphSelfMap, pf: PFData | None, sub: SubdivisionResult) -> PFData | None:
    """PF data of the subdivided map, its power iteration started from the
    PF vector read off f's, or None when it is not primitive.

    Lemma.  The orbit point (e, t, i), the fixed point of the branch of f^t
    through the forward occurrence P[i] = e, P = f^t(e), sits at PF
    distance x = L / (lam^t - 1) from the origin of e, where L is the PF
    length of P[:i].  In the PF metric f stretches every edge uniformly by
    lam, so f^t carries the point at distance x along e to distance lam^t x
    along P, which is x along the dart P[i] = e, after P[:i]: lam^t x = L + x.

    Each edge's pieces between its orbit points then have the PF lengths of
    the refined map, whose pieces f stretches by the same lam, so the start
    is its PF vector, of volume 1 as f's is, up to rounding and up to the
    error of f's own vector, which settled to 1e-12.  So `pf_data`'s
    settling and Collatz-Wielandt tests pass at the first step, or now and
    then at the second, where a cold start takes tens of steps.  Without
    f's PF data (f not primitive) the iteration starts cold.
    """
    if pf is None:
        return _pf_or_none(sub.map)
    level = _coded_store(f).level
    cuts: list[list[float]] = [[] for _ in f.edge_image]
    for p in sub.orbit:
        head = tuple(map(ord, level(p.exponent)[2 * p.edge][: p.index]))
        cuts[p.edge].append(pf.pf_length(head) / (pf.lam**p.exponent - 1.0))
    start: list[float] = []
    for length, xs in zip(pf.pf_lengths, cuts):
        ends = [0.0, *sorted(xs), length]
        start += (b - a for a, b in zip(ends, ends[1:]))
    try:
        return _pf_data_from(sub.map, start)
    except NotPrimitiveError:
        return None


def _default_window(pf: PFData | None, max_pf_len: float | None) -> int:
    if pf is None:
        return 64
    if max_pf_len is None:
        max_pf_len = 4.0 * pf.vol_pf / (pf.lam - 1.0)
    need = int(max_pf_len / pf.min_pf_length) + 1
    return max(64, need)


def _occurrences_of(pattern: str, text: str) -> list[int]:
    """Every start of `pattern` in `text`, overlapping ones included."""
    out = []
    i = text.find(pattern)
    while i >= 0:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def _last_mismatch(s1: str, s2: str, lo: int, end: int, delta: int) -> int:
    """The largest i in [lo, end) with s1[i] != s2[i - delta], or -1.

    The whole range is compared first, as one slice.  If it differs, tails
    s1[end - j : end] are compared with their partners, j = 1, 2, 4, ...
    until one differs, and then the last agreeing length is found by
    bisection, so a mismatch j darts before the end costs O(j log j)
    character comparisons in C, not j steps in Python.
    """
    if s1[lo:end] == s2[lo - delta : end - delta]:
        return -1
    good, j = 0, 1  # s1[end - good : end] agrees with its partner
    while s1[end - j : end] == s2[end - j - delta : end - delta]:
        good, j = j, min(2 * j, end - lo)
    while j - good > 1:  # the tail of length j differs, the one of length good agrees
        mid = (good + j) // 2
        if s1[end - mid : end] == s2[end - mid - delta : end - delta]:
            good = mid
        else:
            j = mid
    return end - j


def _tail_stems(s1: str, s2: str, min_agree: int) -> list[tuple[int, int]]:
    """Stem lengths (m1, m2) of the tail candidates of two rays, coded one
    character per dart as s1, s2, in ascending order of the shift delta.

    A shift aligns s1[i] with s2[i - delta] on the overlap [lo, hi),
    lo = max(0, delta), hi = min(len(s1), len(s2) + delta).  It is a
    candidate when the last min_agree darts of the overlap agree and an
    earlier one does not; the last mismatch is s1[m1 - 1] != s2[m2 - 1].
    The overlap ends where one ray ends, so its last min_agree darts are
    that ray's tail found in the other ray, and every such occurrence is a
    shift: a substring search for both tails visits exactly these shifts,
    in linear time rather than quadratic, and sorting them keeps the order
    of a scan over every shift.

    The overlap of a shift found holds at least min_agree darts, the last
    min_agree agreeing, so the mismatch is sought before hi - min_agree
    (`_last_mismatch`).  A mismatch there gives lo + 1 <= m1 <= hi - min_agree,
    hence m1 >= 1, m2 = m1 - delta >= lo + 1 - delta >= 1, and min_agree
    agreeing darts after it; an overlap that agrees throughout gives no
    candidate.
    """
    n1, n2 = len(s1), len(s2)
    if min(n1, n2) < min_agree:
        return []
    t1, t2 = s1[n1 - min_agree :], s2[n2 - min_agree :]
    if t1 not in s2 and t2 not in s1:  # most pairs: no shift at all
        return []
    shifts = {n1 - min_agree - pos for pos in _occurrences_of(t1, s2)}
    shifts.update(pos + min_agree - n2 for pos in _occurrences_of(t2, s1))
    out = []
    for delta in sorted(shifts):
        i = _last_mismatch(s1, s2, max(0, delta), min(n1, n2 + delta) - min_agree, delta)
        if i >= 0:
            out.append((i + 1, i + 1 - delta))
    return out


def _image_darts(f: GraphSelfMap, path: Path, s: int) -> Iterator[int]:
    """The darts of f^s(path), one at a time, for a legal path of a train
    track map: the blocks f^(s-1)(d) over the darts d of f(path), laid end
    to end, with nothing cancelled and nothing stored."""
    if s == 0:
        yield from path
        return
    images = f.dart_images
    for d in path:
        yield from _image_darts(f, images[d], s - 1)


def _nielsen_period(f: GraphSelfMap, a: Path, b: Path, max_period: int) -> int | None:
    """The least s <= max_period with [f^s(a b~)] = a b~, or None, for a
    train track map f and nonempty legal paths a, b whose junction turn
    (a[-1]~, b[-1]~) is illegal; b~ is b reversed.

    Write fa = f^s(a), fb = f^s(b).  f sends legal paths to legal paths
    without cancellation, so fa and fb are legal, and [f^s(a b~)] is fa b~
    with the longest common suffix w of fa = x w and fb = y w cancelled:
    x y~.  If x y~ = a b~ and |x| > |a|, then x holds the illegal turn
    of a b~ at |a|, which a legal path cannot; likewise |y| > |b| is
    impossible, so x = a and y = b: fa = a w and fb = b w.  Conversely
    these two identities give [f^s(a b~)] = [a w w~ b~] = a b~.  Since
    nothing cancels, |fa| is the sum of |f^s(d)| over the darts d of a, read
    from `edge_iterates.lengths(s)`, so every period satisfies

        sum_a |f^s(d)| - |a| = |w| = sum_b |f^s(d)| - |b|,

    which is tested as one sum over the edges: |f^s(e)| times how often a
    crosses e, less how often b does, equals |a| - |b|.

    Periods are tried in order, and only at periods that pass this integer
    test are fa and fb compared: fa[:|a|] = a, fb[:|b|] = b and
    fa[|a|:] = fb[|b|:], which suffices.  As nothing cancels, both are
    streamed dart by dart from the dart images (`_image_darts`) and the
    comparison stops at the first difference, so no f^s-block is built: a
    candidate of a map with large images that fails costs its agreeing
    prefix, not |f^s(a)| darts, which can run to billions.  Detection checks
    the train track property first.
    """
    store = f.edge_iterates
    m1, m2 = len(a), len(b)
    surplus = [0] * f.graph.num_edges  # how often a crosses each edge, less how often b does
    for path, sign in ((a, 1), (b, -1)):
        for d, c in Counter(path).items():
            surplus[d >> 1] += sign * c
    for s in range(1, max_period + 1):
        if sum(map(mul, surplus, store.lengths(s))) != m1 - m2:
            continue
        fa, fb = _image_darts(f, a, s), _image_darts(f, b, s)
        # the two rests have one length, so map stops at the end of both
        if tuple(islice(fa, m1)) == a and tuple(islice(fb, m2)) == b and all(map(eq, fa, fb)):
            return s
    return None


def _render_notes(f: GraphSelfMap, window: int, notes: list[tuple[str, Path]]) -> list[str]:
    """The report's text of the notes of a scan at this window."""
    return [f"{kind} at window {window}: {f.graph.path_str(eta)}" for kind, eta in notes]


def _scan_ray_pairs(
    f: GraphSelfMap,
    window: int,
    max_period: int,
    pf: PFData | None,
    periods: dict[tuple[str, str], int | None],
) -> tuple[dict[Path, tuple[int, int]], list[tuple[str, Path]]]:
    """One pass of eigenray tail matching at a fixed window size, for a map
    already shown to be an expanding train track map.

    Returns (verified INPs as {path: (period, tip)}, notes), one note
    (kind, path) for each candidate that failed; `_render_notes` words
    them.  Candidates come from `_tail_stems`: tails agree to the window
    end, the preceding darts differ, both stems are nonempty; the junction
    turn must be illegal, and verification is the exact identity
    [f^s(eta)] = eta at the least s <= max_period where it holds
    (`_nielsen_period`, which rules most periods out by an integer length
    test before building anything).  `periods` holds the verdicts
    of `_nielsen_period` by coded stem pair, read and filled here, so a scan
    at a wider window re-verifies no candidate that an earlier one settled.
    A genuine INP expands both halves by the same overflow, forcing equal
    PF-lengths; unequal-stem coincidences are discarded as impossible rather
    than held against conclusiveness.

    The rays are read coded from the map's store (`_CodedStore`), and a
    candidate stays coded, one character per dart, until it is verified
    or noted: `seen` holds the code of eta, and a PF length sums a table
    over the characters in the order `PFData.pf_length` sums its darts, so
    the sums are the same floats.
    """
    store = _coded_store(f)
    eigen = periodic_structures(f).dart_period
    rays = [store.prefix(d, k, window) for d, k in eigen.items()]
    flip = {d: d ^ 1 for d in f.graph.darts()}
    pf_len = None if pf is None else {chr(d): pf.pf_lengths[d >> 1] for d in f.graph.darts()}
    min_agree = max(16, window // 2)
    verified: dict[Path, tuple[int, int]] = {}
    notes: list[tuple[str, Path]] = []
    seen: set[str] = set()
    for a, r1 in enumerate(rays):
        for r2 in rays[a + 1 :]:
            for m1, m2 in _tail_stems(r1, r2, min_agree):
                stems = h1, h2 = r1[:m1], r2[:m2]
                code = h1 + h2[::-1].translate(flip)
                if code in seen:
                    continue
                seen.add(code)
                if pf_len is not None:
                    l1 = sum(map(pf_len.__getitem__, h1))
                    l2 = sum(map(pf_len.__getitem__, h2))
                    if abs(l1 - l2) > 1e-6 * max(l1, l2):
                        continue
                eta = tuple(map(ord, code))
                if is_legal_turn(f, turn(ord(h1[-1]) ^ 1, ord(h2[-1]) ^ 1)):
                    notes.append(("tail coincidence with legal junction", eta))
                    continue
                if stems not in periods:
                    periods[stems] = _nielsen_period(f, eta[:m1], tuple(map(ord, h2)), max_period)
                period = periods[stems]
                if period is not None:
                    verified[eta] = (period, m1)
                else:
                    notes.append(("unverified tail candidate", eta))
    return verified, notes


def _detect_on(
    f: GraphSelfMap,
    window: int,
    max_period: int,
    pf: PFData | None,
) -> tuple[tuple[NielsenPath, ...], list[str]]:
    """Scan at the window, then at twice and four times it, until a scan
    leaves no note; the notes are those of the last scan.

    The scans share one memo of period verdicts by stem pair: a verdict
    depends on f, the two stems and max_period only, all fixed here, and a
    candidate that leaves a note at one window tends to come back at the
    next.  Each wider scan reads its rays on from where the last one
    stopped (`_CodedStore`), and only the reported scan's notes are
    rendered as text.
    """
    periods: dict[tuple[str, str], int | None] = {}
    for w in (window, 2 * window, 4 * window):
        verified, notes = _scan_ray_pairs(f, w, max_period, pf, periods)
        if not notes:
            break
    inps = tuple(
        NielsenPath(
            path=path,
            period=s,
            tip_index=tip,
            closed=f.graph.is_closed(path),
        )
        for path, (s, tip) in sorted(verified.items())
    )
    return inps, _render_notes(f, w, notes)


@dataclass(frozen=True)
class InpReport:
    """Everything the INP search established, including the subdivided pass."""

    inps: tuple[NielsenPath, ...]
    conclusive: bool
    window: int
    notes: tuple[str, ...]
    subdivision: SubdivisionResult | None
    subdivided_inps: tuple[NielsenPath, ...]


def detect_inps(
    f: GraphSelfMap,
    max_period: int = 6,
    max_pf_len: float | None = None,
) -> InpReport:
    """Find periodic indivisible Nielsen paths of period <= max_period.

    Vertex-based INPs come from matching eigenray tails at periodic
    vertices.  INPs anchored at interior periodic points are caught by
    subdividing at one interior orbit, the first one in the order (period,
    edge, index at a common exponent) of all interior periodic points, and
    re-running the vertex scan on the refined map.  Every reported path is
    verified exactly; `conclusive` is False only when a full-window tail
    coincidence resisted both verification and window growth.  A map that
    is not an expanding train track map raises NotTrainTrackError or
    NotExpandingError.

    The orbit is found without enumerating every interior periodic point.
    Exponents t = 1, 2, ... are scanned in turn, and the scan stops at the
    first t with an interior occurrence.  Every point found at exponent t
    is fixed by f^t, so its period divides t; a point of period p < t would
    have shown up at exponent p already.  So the points found at the first
    such t are exactly the points of smallest period, the ones the full
    enumeration sorts first.  Its descriptor is the one the full enumeration
    stores too, the occurrence at exponent t (2t when it is reversed), since
    a point of period t first occurs at exponent t.  Among the points of
    that period, `_first_interior_point` explains why the first occurrence
    is the one on the smallest edge, leftmost along it.

    Each piece of work is done once per map.  Both f and the subdivided map
    are train track maps, shown so before any ray is read, so their rays
    come from the map's eigenray store, and the wider windows of a scan
    and `leaf_window` read on from where the last call stopped
    (`_CodedStore`).  The period verdicts are kept by stem pair across
    the windows of one scan (`_detect_on`).  The subdivided map's power
    iteration starts from its PF vector read off f's (`_refined_pf`).
    """
    require_train_track(f)
    f.require_expanding()
    if max_period < 1:
        raise MapError("max_period must be >= 1")
    if max_pf_len is not None and not 0 < max_pf_len < math.inf:
        raise MapError("max_pf_len must be > 0 and finite")
    pf = _pf_or_none(f)
    w = _default_window(pf, max_pf_len)
    inps, notes = _detect_on(f, w, max_period, pf)
    sub: SubdivisionResult | None = None
    sub_inps: tuple[NielsenPath, ...] = ()
    point = _first_interior_point(f, max_period)
    if point is not None:
        sub = subdivide_at(f, point)
        sub_pf = _refined_pf(f, pf, sub)
        sub_inps, sub_notes = _detect_on(sub.map, _default_window(sub_pf, max_pf_len), max_period, sub_pf)
        notes = notes + sub_notes
    return InpReport(
        inps=inps,
        conclusive=not notes,
        window=w,
        notes=tuple(notes),
        subdivision=sub,
        subdivided_inps=sub_inps,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Atoroidality verdict: a closed INP is an invariant conjugacy class."""

    status: str  # "pass" | "fail" | "inconclusive"
    reason: str


def stability_verdict(f: GraphSelfMap, rep: InpReport) -> StabilityReport:
    """The atoroidality verdict that an existing INP report of f supports.

    A closed INP found in the subdivided pass is named on the subdivided
    graph, whose darts its path indexes.
    """
    closed = [(f.graph, p) for p in rep.inps if p.closed]
    if rep.subdivision is not None:
        closed += [(rep.subdivision.map.graph, p) for p in rep.subdivided_inps if p.closed]
    if closed:
        graph, inp = closed[0]
        shown = graph.path_str(inp.path)
        return StabilityReport(
            status="fail",
            reason=f"closed indivisible fixed path {shown}: invariant conjugacy class (surface-type)",
        )
    if not rep.conclusive:
        return StabilityReport(
            status="inconclusive",
            reason="unverified eigenray tail coincidences remain",
        )
    if rep.inps or rep.subdivided_inps:
        return StabilityReport(
            status="pass",
            reason="indivisible fixed paths exist but none is closed",
        )
    return StabilityReport(status="pass", reason="no indivisible fixed paths found")
