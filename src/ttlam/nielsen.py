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
On a train track map nothing cancels, so every fact the search needs is
read with work bounded by its window, and no f^t(d) is built whole.  An
eigenray is streamed from its predecessor's on its Df-cycle, one f-step
at a time, coded one character per dart, each cycle streamed whole
(`_stream`); the tail scan asks every ray at once, once per window
(`_coded_rays`), and finds the tail matches of all ray pairs in one pass
over the joined rays (`_tail_candidates`).  A dart of f^t(e), its place,
and the first place of a given dart are found by descent through the
blocks f^r(c) of f^t(e), skipping whole blocks by their lengths |f^r(c)|
(`_descend`, `_first_index`).  The lengths come from
`GraphSelfMap.edge_iterates`, and the rays and the periodic data are kept
once per map (`graph_map.per_map`).
"""

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import reduce
from itertools import accumulate, islice
from operator import eq, mul, or_
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    ConvergenceError,
    MapError,
    NotPrimitiveError,
    SubdivisionError,
)
from .graph import Graph, Path, extend_reduced, turn
from .graph_map import GraphSelfMap, per_map
from .spectral import PFData, pf_data
from .train_track import is_legal_turn, is_train_track, require_train_track


# -- periodic vertices and darts ---------------------------------------------

def _cycle_periods(step: tuple[int, ...]) -> dict[int, int]:
    """For a finite self-map given as a table, the elements lying on cycles
    and their minimal periods, keys ascending.

    One pass: a walk from each element not yet visited marks what it visits
    until it reaches a visited element.  If that element was marked by this
    walk, the walk closed a new cycle, from that element on; otherwise it
    ran into an earlier walk, whose cycle is already known.
    """
    walk_of = [-1] * len(step)
    out: dict[int, int] = {}
    for x in range(len(step)):
        walk: list[int] = []
        y = x
        while walk_of[y] < 0:
            walk_of[y] = x
            walk.append(y)
            y = step[y]
        if walk_of[y] == x:
            cycle = walk[walk.index(y) :]
            out.update(dict.fromkeys(cycle, len(cycle)))
    return dict(sorted(out.items()))


class PeriodicData(NamedTuple):
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

    On a train track map the ray is streamed along its Df-cycle
    (`_coded_rays`), and a longer prefix continues the stream instead of
    rebuilding it.  On any other map `_eigenray_by_rounds` runs afresh on
    every call.
    """
    if n < 1:
        raise MapError("prefix length must be >= 1")
    k = periodic_structures(f).dart_period.get(dart)
    if k is None:
        raise MapError(f"dart {f.graph.dart_name(dart)} is not Df-periodic; no eigenray")
    f.require_expanding()
    if is_train_track(f):
        (ray,) = _coded_rays(f, n, (dart,))
        return tuple(map(ord, ray))
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
    does a round without growth: it returns q = p with no new suffix, so
    every later round would return p again.  Every other round grows the
    prefix, so the loop ends.
    """
    blocks: dict[int, Path] = {}  # dart -> [f^k(dart)]
    image: list[int] = []  # [f^k(p[:done])], reduced as a stack
    p: Path = (dart,)
    done = 0
    while len(p) < n:
        for d in set(p[done:]).difference(blocks):
            blocks[d] = f.iterate((d,), k)
        extend_reduced(image, map(blocks.__getitem__, p[done:]))
        done = len(p)
        q = tuple(image)
        if q[:done] != p:
            raise ConvergenceError("eigenray iteration lost the prefix property")
        if len(q) == done:
            raise ConvergenceError("eigenray prefix stopped growing")
        p = q
    return p[:n]


@per_map
def _eigenrays(f: GraphSelfMap) -> dict[int, tuple[str, int]]:
    """The eigenrays as far as `_stream` has streamed them: dart -> (the
    ray, coded one character per dart, dart d as chr(d), and how many darts
    of its predecessor's ray it has read).  Unlike other per-map values the
    rays grow, but only by reading further along rays that are fixed, so
    every caller gets the answer a fresh table would give."""
    return {}


def _coded_rays(f: GraphSelfMap, n: int, darts: Iterable[int]) -> list[str]:
    """The first n darts of the eigenrays of the given Df-periodic darts,
    coded, in the order given, on an expanding train track map.  A ray
    held shorter has its whole Df-cycle streamed until all of its rays
    hold n darts (`_stream`), so the tail scan, which asks every ray at
    once, makes each cycle once per window."""
    require_train_track(f)
    f.require_expanding()
    rays = _eigenrays(f)
    out = []
    for d in darts:
        if d not in rays or len(rays[d][0]) < n:
            _stream(f, d, n)
        out.append(rays[d][0][:n])
    return out


def _stream(f: GraphSelfMap, dart: int, n: int) -> None:
    """Stream the eigenrays of the Df-cycle of `dart` until all of them hold
    n darts.

    Let p be a dart of the cycle, and R(p) its eigenray.  Then f(R(p)) is
    legal, so nothing cancels; it starts with Df(p), and f^k fixes it, so
    it is the eigenray of Df(p):

        R(Df(p)) = f(R(p)[0]) f(R(p)[1]) f(R(p)[2]) ...

    So each ray of the cycle streams from its predecessor's, starting as
    f(p).  Rounds go once around the cycle, the ray of `dart` last.  In a
    round each ray shorter than n reads on in its predecessor's, at most as
    many darts as it lacks, since each gives at least one, and translates
    them to their images.  So no ray holds more than n * max|f(e)| darts,
    for n the longest prefix asked.  A round that added nothing while a ray
    q was short would leave q having read all of its predecessor p's ray,
    so p no longer than q, hence short too; round the cycle, every ray
    would have read all of its predecessor's and be as long.  So every dart
    in them would have an image of one dart, and f^k(dart) = dart, which
    an expanding map rules out.
    """
    df, images, rays = f.derivative_table, f.coded_images, _eigenrays(f)
    cycle = [dart]
    while df[cycle[-1]] != dart:
        cycle.append(df[cycle[-1]])
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))  # (p, Df(p)), the ray of `dart` made last
    for p, q in steps:
        rays.setdefault(q, (images[p], 1))
    while any(len(rays[q][0]) < n for q in cycle):
        for p, q in steps:
            ray, read = rays[q]
            if len(ray) < n:
                run = rays[p][0][read : read + n - len(ray)]
                rays[q] = ray + run.translate(images), read + len(run)


# -- interior periodic points --------------------------------------------------

class PeriodicPoint(NamedTuple):
    """Interior periodic point as an orientation-preserving occurrence.

    The point is the unique fixed point of the inverse branch of f^exponent
    through the `index`-th dart of f^exponent(edge); `period` is its minimal
    period as a point of the graph.  The field `index` shadows `tuple.index`.
    """

    edge: int
    exponent: int
    index: int
    period: int


def _descend(f: GraphSelfMap, d: int, t: int, i: int, weight: Callable[[int], Sequence[float]]) -> tuple[int, float]:
    """The dart P[i] of P = f^t(d), and the sum over P[:i] of a weight,
    given for whole blocks: weight(r)[e] is that of f^r(c), c a dart of e.

    On a train track map nothing cancels, so f^r(c) is the blocks
    f^(r-1)(c') over the darts c' of f(c), laid end to end.  From r = t
    down, the blocks before the one holding the index are skipped by their
    lengths, their weights added, and the descent goes on inside that
    block: t images f(c) are read, never P.  Weighing f^r(e) by |f^(r+s)(e)|
    gives |f^s(P[:i])|; by its PF length, the PF length of P[:i].  A map
    that is not a train track map raises NotTrainTrackError.
    """
    require_train_track(f)
    lengths, images = f.edge_iterates.lengths, f.dart_images
    total = 0
    for r in range(t - 1, -1, -1):
        sizes, weights = lengths(r), weight(r)
        for c in images[d]:
            if i < sizes[c >> 1]:
                break
            i -= sizes[c >> 1]
            total += weights[c >> 1]
        d = c
    return d, total


def _first_index(f: GraphSelfMap, d: int, t: int, x: int, lo: int, occurs: list[list[int]]) -> int | None:
    """The first index >= lo, lo 0 or 1, of the dart x in f^t(d), t >= 1,
    or None, for a train track map; occurs[r][c], r < t, is the bit mask of
    the darts of f^r(c).

    A depth-first descent through the blocks of `_descend` that enters
    only blocks holding x which end after lo.  Such a block holds x at an
    index >= lo unless it starts at 0 and holds x only there, so at most
    one block per level is entered in vain: O(t * max|f(e)|) work.  A
    block f(c) at pos of the last level has the masks 1 << c' of its darts
    c', so its first x is one `str.find` in the coded f(c) from lo - pos.
    """
    require_train_track(f)
    lengths, images = f.edge_iterates.lengths, f.dart_images
    stack = [(d, t, 0)]  # (dart c, level r, index in f^t(d) where f^r(c) starts)
    while stack:
        d, r, pos = stack.pop()
        if r == 1:
            i = f.coded_images[d].find(chr(x), max(lo - pos, 0))
            if i >= 0:
                return pos + i
            continue
        sizes, holds = lengths(r - 1), occurs[r - 1]
        blocks = []
        for c in images[d]:
            if holds[c] >> x & 1 and pos + sizes[c >> 1] > lo:
                blocks.append((c, r - 1, pos))
            pos += sizes[c >> 1]
        stack += reversed(blocks)
    return None


def doubled_index(f: GraphSelfMap, e: int, t: int, i: int) -> int:
    """Index in f^(2t)(e) of the point that the occurrence P[i] = e or e~,
    P = f^t(e), carries.

    f^(2t)(e) = f^t(P), whose block f^t(P[i]) starts at ell = |f^t(P[:i])|
    and reads P forward when P[i] = e, P reversed when P[i] = e~.  Either
    way the dart e of that block, the one holding the point, sits at ell + i
    or at ell + |P| - 1 - i.  No two blocks may cancel, so f must be a train
    track map (`_descend`).
    """
    lengths = f.edge_iterates.lengths
    d, ell = _descend(f, 2 * e, t, i, lambda r: lengths(r + t))
    return ell + (lengths(t)[e] - 1 - i if d & 1 else i)


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
    lengths = f.edge_iterates.lengths
    d, ell = _descend(f, 2 * e, t, i, lambda r: lengths(r + 1))
    if d != 2 * e:
        raise MapError("descriptor is not an orientation-preserving occurrence")
    lens, cum = lengths(t), 0  # cum <= ell + k holds at every k reached
    for k, g in enumerate(f.edge_image[e]):
        ge, rel = g >> 1, ell + k - cum
        lk = lens[ge]
        if rel < lk:
            new_index = (lk - 1 - rel) if (g & 1) else rel
            if not (0 < new_index < lk - 1):
                raise MapError("image of an interior fixed point landed on a vertex")
            if _descend(f, 2 * ge, t, new_index, lengths)[0] != 2 * ge:
                raise MapError("point image descriptor failed verification")
            return ge, new_index, k
        cum += lk
    raise MapError("fixed point image not located inside f(e)")


def _first_interior_point(f: GraphSelfMap, max_period: int) -> PeriodicPoint | None:
    """The first interior point in the order (period, edge, place along the
    edge) among those of period <= max_period, or None when there is none.

    Exponents t = 1, 2, ... are walked in turn, then edges e ascending, and
    the first occurrence in P = f^t(e) is returned, found by one descent
    (`_first_index`) for e~ and one for e, with the sets of the darts of
    each f^r(d), r < t, made one level at a time.  A forward occurrence
    P[i] = e carries an interior point only for 0 < i < |P| - 1, since at
    the first (last) index the fixed point is the initial (terminal)
    vertex; it is stored at exponent t.  A reversed occurrence P[i] = e~
    always carries one, since an orientation-reversing branch fixes no
    endpoint; it is stored at exponent 2t (`doubled_index`).
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
    occurs = [[1 << d for d in f.graph.darts()]]  # occurs[r][d]: the darts of f^r(d)
    for t in range(1, max_period + 1):
        last = f.edge_iterates.lengths(t)
        for e in range(f.graph.num_edges):
            back = _first_index(f, 2 * e, t, 2 * e + 1, 0, occurs)
            forth = _first_index(f, 2 * e, t, 2 * e, 1, occurs)
            if forth is not None and forth < last[e] - 1 and (back is None or forth < back):
                return PeriodicPoint(e, t, forth, t)
            if back is not None:
                return PeriodicPoint(e, 2 * t, doubled_index(f, e, t, back), t)
        below = occurs[-1]
        occurs.append([reduce(or_, map(below.__getitem__, img)) for img in f.dart_images])
    return None


# -- subdivision at a periodic orbit -------------------------------------------

class SubdivisionResult(NamedTuple):
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

    The refined f(e) is one `str.translate` of the coded f(e) through a
    lift table, lift[d] the coded pieces of dart d, cut at the orbit
    images.  The image of orbit point j is the r-th point along the edge of
    d = f(e_j)[k], so its cut is |lift(f(e_j)[:k])| + r, or + |lift[d]| - r
    when d is backward.
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

    # lift[d]: the pieces of dart d, coded; a backward dart's are the flip of its edge's
    forward = ["".join(map(chr, range(2 * a, 2 * b, 2))) for a, b in zip(first, first[1:])]
    lift = [x for w in forward for x in (w, w[::-1].translate(new_graph.flip_table))]
    # edge images, cut where f(e) crosses the image of each orbit point on e
    images: list[Path] = []
    for e, pts in enumerate(on_edge):
        code = f.coded_images[2 * e]
        w = code.translate(lift)
        cuts = [0]
        for j in pts:
            k = cut_dart[j]
            d, r = f.edge_image[e][k], rank[(j + 1) % period]  # r: the image point's place along d's edge
            cuts.append(len(code[:k].translate(lift)) + (len(lift[d]) - r if d & 1 else r))
        cuts.append(len(w))
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise SubdivisionError("orbit images are not ordered along the edge image")
        images += (tuple(map(ord, w[a:b])) for a, b in zip(cuts, cuts[1:]))

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

class NielsenPath(NamedTuple):
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


def _refined_pf(
    f: GraphSelfMap, lam: float | None, lengths: Sequence[float] | None, sub: SubdivisionResult
) -> tuple[float, ...] | None:
    """The PF lengths of the subdivided map, of volume 1, cut from f's, or
    None when f has none; lam is f's growth rate, and the subdivided map's.

    Lemma.  The orbit point (e, t, i), the fixed point of the branch of f^t
    through the forward occurrence P[i] = e, P = f^t(e), sits at PF
    distance x = L / (lam^t - 1) from the origin of e, where L is the PF
    length of P[:i].  In the PF metric f stretches every edge uniformly by
    lam, so f^t carries the point at distance x along e to distance lam^t x
    along P, which is x along the dart P[i] = e, after P[:i]: lam^t x = L + x.
    L is read by `_descend`, with the PF lengths of the blocks f^r(e)
    summed level by level, not taken as lam^r times f's, whose error lam^r
    would scale.  Each edge is cut at its orbit points into its pieces.

    (A) f sends each piece onto a path of pieces, stretched by lam, so the
    pieces' lengths are a positive left eigenvector of the subdivided
    matrix M' for lam.  A nonnegative matrix with a positive eigenvector
    has that eigenvalue as its spectral radius (Collatz-Wielandt: every
    ratio is lam), so lam' = lam, within the bound that f's own bracket
    certifies.

    (B) M' is primitive iff M is.  If M'^k > 0, the image f^k(e) holds
    f^k of a piece of e, which crosses every piece, hence every edge.
    Conversely, let M^k > 0.  The subdivided map is an expanding train
    track map, so f^m(s) of a piece s grows without bound and, once long
    enough, crosses some edge of G whole, since a path of pieces turns off
    an edge only at its ends; then f^(m+j)(s) does too for every j >= 0,
    and f^(m+j+k)(s) crosses every edge, hence every piece.  So without
    f's PF data the subdivided map has none either.
    """
    if lengths is None:
        return None
    blocks = [lengths]  # blocks[r][e]: the PF length of f^r(e)
    for _ in range(1, sub.orbit[0].exponent):
        blocks.append([sum(blocks[-1][d >> 1] for d in img) for img in f.edge_image])
    cuts: list[list[float]] = [[] for _ in f.edge_image]
    for p in sub.orbit:
        _, head = _descend(f, 2 * p.edge, p.exponent, p.index, blocks.__getitem__)
        cuts[p.edge].append(head / (lam**p.exponent - 1.0))
    pieces: list[float] = []
    for length, xs in zip(lengths, cuts):
        ends = [0.0, *sorted(xs), length]
        pieces += (b - a for a, b in zip(ends, ends[1:]))
    vol = sum(pieces)
    return tuple(x / vol for x in pieces)


def _default_window(lam: float | None, lengths: Sequence[float] | None, max_pf_len: float | None) -> int:
    """The first scan's window, from lam and the PF lengths of volume 1."""
    if lengths is None:
        return 64
    if max_pf_len is None:
        max_pf_len = 4.0 / (lam - 1.0)
    need = int(max_pf_len / min(lengths)) + 1
    return max(64, need)


def _last_mismatch(s1: str, s2: str, lo: int, end: int, delta: int) -> int:
    """The largest i in [lo, end) with s1[i] != s2[i - delta], or -1.

    The whole range is compared first, as one slice, since most shifts the
    tail scan finds agree throughout; otherwise the darts are compared
    backwards from the end until one differs.
    """
    if s1[lo:end] == s2[lo - delta : end - delta]:
        return -1
    return next(i for i in range(end - 1, lo - 1, -1) if s1[i] != s2[i - delta])


def _tail_candidates(rays: Sequence[str], min_agree: int, sep: str) -> Iterator[tuple[int, int, int, int]]:
    """The tail candidates of every pair of rays, coded one character per
    dart, as (a, b, m1, m2): stem lengths m1 of rays[a] and m2 of rays[b],
    pairs a < b in order, and the shifts of each pair ascending.

    For s1 = rays[a], s2 = rays[b], a shift delta aligns s1[i] with
    s2[i - delta] on the overlap [lo, hi), lo = max(0, delta),
    hi = min(len(s1), len(s2) + delta).  It is a candidate when the last
    min_agree darts of the overlap agree and an earlier one does not; the
    last mismatch is s1[m1 - 1] != s2[m2 - 1].  The overlap ends where one
    ray ends, so its last min_agree darts are that ray's tail found in the
    other ray, and every such occurrence is a shift.

    So one pass finds every shift of every pair.  The rays are joined into
    one text, separated by `sep`, which codes no dart, so no occurrence of
    a tail runs across two rays.  One `find` loop per ray visits every
    occurrence of its tail in the other rays, skipping its own ray, and
    the ray offsets turn each into (other ray, shift).  Sorting pairs and
    shifts keeps the order of a scan over every pair and every shift.

    The overlap of a shift found holds at least min_agree darts, the last
    min_agree agreeing, so the mismatch is sought before hi - min_agree
    (`_last_mismatch`).  A mismatch there gives lo + 1 <= m1 <= hi - min_agree,
    hence m1 >= 1, m2 = m1 - delta >= lo + 1 - delta >= 1, and min_agree
    agreeing darts after it; an overlap that agrees throughout gives no
    candidate.
    """
    text = sep.join(rays)
    starts = list(accumulate((len(r) + 1 for r in rays[:-1]), initial=0))
    shifts: dict[tuple[int, int], set[int]] = {}
    for a, ray in enumerate(rays):
        lead = len(ray) - min_agree  # where the tail starts in its own ray
        if lead < 0:
            continue
        tail = ray[lead:]
        i = text.find(tail)
        while i >= 0:
            b = bisect_right(starts, i) - 1
            if b == a:
                i = text.find(tail, starts[a] + len(ray))
                continue
            delta = lead - (i - starts[b])  # rays[a]'s tail at i - starts[b] in rays[b]
            if a < b:
                shifts.setdefault((a, b), set()).add(delta)
            else:
                shifts.setdefault((b, a), set()).add(-delta)
            i = text.find(tail, i + 1)
    for (a, b), deltas in sorted(shifts.items()):
        s1, s2 = rays[a], rays[b]
        for delta in sorted(deltas):
            i = _last_mismatch(s1, s2, max(0, delta), min(len(s1), len(s2) + delta) - min_agree, delta)
            if i >= 0:
                yield a, b, i + 1, i + 1 - delta


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
    lengths: Sequence[float] | None,
    periods: dict[tuple[str, str], int | None],
) -> tuple[dict[Path, tuple[int, int]], list[tuple[str, Path]]]:
    """One pass of eigenray tail matching at a fixed window size, for a map
    already shown to be an expanding train track map.

    Returns (verified INPs as {path: (period, tip)}, notes), one note
    (kind, path) for each candidate that failed; `_render_notes` words
    them.  Candidates come from `_tail_candidates`, which matches the tails
    of all ray pairs in one pass over the rays joined into one text, pairs
    a < b in order and shifts ascending, the order of a scan of every pair:
    tails agree to the window end, the preceding darts differ, both stems
    are nonempty.  The junction turn must be illegal, and verification is
    the exact identity [f^s(eta)] = eta at the least s <= max_period where
    it holds (`_nielsen_period`, which rules most periods out by an integer
    length test before building anything).  `periods` holds the verdicts
    of `_nielsen_period` by coded stem pair, read and filled here, so a scan
    at a wider window re-verifies no candidate that an earlier one settled.
    A genuine INP expands both halves by the same overflow, forcing equal
    PF-lengths; unequal-stem coincidences are discarded as impossible rather
    than held against conclusiveness.

    The rays are read coded, every Df-cycle streamed at once until all of
    its rays hold the window (`_coded_rays`), and a candidate stays coded,
    one character per dart, until it is verified or noted: `seen` holds
    the code of eta, and a PF length sums a table over the characters in
    the order `PFData.pf_length` sums its darts, so the sums are the same
    floats.
    """
    rays = _coded_rays(f, window, periodic_structures(f).dart_period)
    flip = f.graph.flip_table
    pf_len = None if lengths is None else {chr(d): lengths[d >> 1] for d in f.graph.darts()}
    min_agree = max(16, window // 2)
    verified: dict[Path, tuple[int, int]] = {}
    notes: list[tuple[str, Path]] = []
    seen: set[str] = set()
    for a, b, m1, m2 in _tail_candidates(rays, min_agree, chr(f.graph.num_darts)):
        stems = h1, h2 = rays[a][:m1], rays[b][:m2]
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
    lengths: Sequence[float] | None,
) -> tuple[tuple[NielsenPath, ...], list[str]]:
    """Scan at the window, then at twice and four times it, until a scan
    leaves no note; the notes are those of the last scan.

    The scans share one memo of period verdicts by stem pair: a verdict
    depends on f, the two stems and max_period only, all fixed here, and a
    candidate that leaves a note at one window tends to come back at the
    next.  Each wider scan reads its rays on from where the last one
    stopped (`_coded_rays`), and only the reported scan's notes are
    rendered as text.
    """
    periods: dict[tuple[str, str], int | None] = {}
    for w in (window, 2 * window, 4 * window):
        verified, notes = _scan_ray_pairs(f, w, max_period, lengths, periods)
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


class InpReport(NamedTuple):
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

    Each piece of work is done once per map, and bounded by the window:
    the rays of f and of the subdivided map, both shown to be train track
    maps first, are streamed along their Df-cycles, a wider window reading
    on where the last stopped (`_coded_rays`), and the orbit is found by
    descent through f^t(e), never built (`_descend`).  The period verdicts
    are kept by stem pair across the windows of one scan (`_detect_on`).
    The subdivided map has no PF computation of its own: its lam is f's,
    and its PF lengths are f's cut at the orbit (`_refined_pf`), so one
    power iteration serves both passes.
    """
    require_train_track(f)
    f.require_expanding()
    if max_period < 1:
        raise MapError("max_period must be >= 1")
    if max_pf_len is not None and not 0 < max_pf_len < math.inf:
        raise MapError("max_pf_len must be > 0 and finite")
    pf = _pf_or_none(f)
    lam, lengths = (pf.lam, pf.pf_lengths) if pf else (None, None)
    w = _default_window(lam, lengths, max_pf_len)
    inps, notes = _detect_on(f, w, max_period, lengths)
    sub: SubdivisionResult | None = None
    sub_inps: tuple[NielsenPath, ...] = ()
    point = _first_interior_point(f, max_period)
    if point is not None:
        sub = subdivide_at(f, point)
        sub_lengths = _refined_pf(f, lam, lengths, sub)
        sub_w = _default_window(lam, sub_lengths, max_pf_len)
        sub_inps, sub_notes = _detect_on(sub.map, sub_w, max_period, sub_lengths)
        notes = notes + sub_notes
    return InpReport(
        inps=inps,
        conclusive=not notes,
        window=w,
        notes=tuple(notes),
        subdivision=sub,
        subdivided_inps=sub_inps,
    )


class StabilityReport(NamedTuple):
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
