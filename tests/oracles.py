"""Independent oracle implementations for cross-checking the library.

Everything here is written from the definitions with no imports from ttlam
internals beyond the plain data carriers (Graph, GraphSelfMap) and the error
types.  Slower and dumber on purpose: repeated-scan reduction, dictionary
orbit walks, exhaustive path enumeration, numpy eigensolvers, comparison at
every shift, whole-path iteration.
"""

import functools
import os
from collections import Counter

import numpy as np

from ttlam.errors import ConvergenceError, MapError


def reduce_word(darts):
    """Free reduction by repeated full scans (quadratic, obviously correct)."""
    w = list(darts)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == w[i + 1] ^ 1:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def apply_map(f, path):
    """Image of a path under f, reduced; the dart images laid end to end,
    then reduced by repeated scans.  Each dart's image is made once per
    call, the edge image reversed and flipped by hand on a backward dart."""
    table = {}
    out = []
    for d in path:
        img = table.get(d)
        if img is None:
            img = f.edge_image[d >> 1]
            img = table[d] = tuple(x ^ 1 for x in reversed(img)) if d & 1 else img
        out.extend(img)
    return reduce_word(out)


def reduced_successors(g):
    """For each dart d, the darts that may follow it in a reduced path:
    every dart leaving the terminus of d except d reversed, read from the
    graph's origin table."""
    origin = g.dart_origin
    return [
        [x for x in range(g.num_darts) if origin[x] == origin[d ^ 1] and x != d ^ 1]
        for d in range(g.num_darts)
    ]


@functools.lru_cache(maxsize=64)
def edge_iterate(f, e, t):
    """f^t(e) for the forward dart of edge e, by t applications of
    `apply_map`; each (map, edge, exponent) is built once."""
    return (2 * e,) if t == 0 else apply_map(f, edge_iterate(f, e, t - 1))


def index_at_multiple(f, e, t, i, factor):
    """Index in f^(factor t)(e) of the point that the occurrence P[i] of e
    or e~, P = f^t(e), carries, for a train track map f.

    f^((k+1)t)(e) = f^(kt)(P) holds the point inside its block f^(kt)(P[i]),
    which starts after |f^(kt)(P[:i])| darts and reads f^(kt)(e) forward
    when P[i] = e, reversed when P[i] = e~.  Inside the block the point
    sits where it sits in f^(kt)(e), mirrored in a reversed block.  Nothing
    cancels between the blocks of a train track map, so each length is that
    of an `edge_iterate`.
    """
    p = edge_iterate(f, e, t)
    assert p[i] >> 1 == e, "not an occurrence of the edge"
    index = i
    for k in range(1, factor):
        lens = [len(edge_iterate(f, x, k * t)) for x in range(f.graph.num_edges)]
        inside = lens[e] - 1 - index if p[i] & 1 else index
        index = sum(lens[d >> 1] for d in p[:i]) + inside
    return index


def counted_transition_matrix(f):
    """M as nested lists: M[i][j] is how often the image of edge j crosses
    edge i, counted by a Counter over the (edge, image) pairs."""
    n = f.graph.num_edges
    counts = Counter((d >> 1, j) for j, img in enumerate(f.edge_image) for d in img)
    return [[counts[i, j] for j in range(n)] for i in range(n)]


def derivative(f, d):
    """Df(d): the first dart of the image of d, read off the edge image,
    whose last dart, reversed, starts the image of a backward dart."""
    img = f.edge_image[d >> 1]
    return img[0] if not (d & 1) else (img[-1] ^ 1)


def derivative_orbit_gates(f):
    """Gate partition from the definition: darts d1, d2 at the same vertex lie
    in one gate iff Df^t(d1) == Df^t(d2) for some t below the orbit bound."""
    g = f.graph
    nd = g.num_darts
    bound = 2 * nd
    classes = []
    assigned = {}
    for d in range(nd):
        if d in assigned:
            continue
        cls = {d}
        for e in range(d + 1, nd):
            if e in assigned or g.origin(e) != g.origin(d):
                continue
            x, y = d, e
            for _ in range(bound):
                if x == y:
                    cls.add(e)
                    break
                x, y = derivative(f, x), derivative(f, y)
            else:
                if x == y:
                    cls.add(e)
        for e in cls:
            assigned[e] = len(classes)
        classes.append(frozenset(cls))
    return classes, assigned


def used_illegal_turns_by_closure(f):
    """The used turns that are illegal, sorted, from the definitions: the
    turns crossed by the edge images, closed under the turn map of `derivative`
    with the degenerate turns left out, then those whose two darts lie in
    one `derivative_orbit_gates` gate."""
    used = set()
    frontier = [tuple(sorted((a ^ 1, b))) for img in f.edge_image for a, b in zip(img, img[1:])]
    while frontier:
        t = frontier.pop()
        if t[0] != t[1] and t not in used:
            used.add(t)
            frontier.append(tuple(sorted((derivative(f, t[0]), derivative(f, t[1])))))
    _, assigned = derivative_orbit_gates(f)
    return tuple(sorted(t for t in used if assigned[t[0]] == assigned[t[1]]))


def cycle_periods_by_walks(step):
    """The elements of a finite self-map's table that lie on cycles, each
    with its minimal period, by a walk of up to len(step) steps from every
    element."""
    out = {}
    for x in range(len(step)):
        y = step[x]
        for k in range(1, len(step) + 1):
            if y == x:
                out[x] = k
                break
            y = step[y]
    return out


def illegal_turn_count(f, path, assigned):
    return sum(
        1
        for a, b in zip(path, path[1:])
        if assigned[a ^ 1] == assigned[b]
    )


def cancellation_bound_all_pairs(f):
    """C(f) from its definition: twice the longest common prefix of the
    images of two distinct darts at one vertex, over every such pair, with
    each backward dart's image reversed by hand."""
    g = f.graph

    def image(d):
        img = f.edge_image[d >> 1]
        return tuple(x ^ 1 for x in reversed(img)) if d & 1 else img

    pairs = [
        (d1, d2)
        for d1 in range(g.num_darts)
        for d2 in range(d1 + 1, g.num_darts)
        if g.dart_origin[d1] == g.dart_origin[d2]
    ]
    return 2 * max((len(os.path.commonprefix([image(d1), image(d2)])) for d1, d2 in pairs), default=0)


def chopped_ilt_series(f, word, steps, chop):
    """The chopped illegal-turn series of a word, from its definition: the
    reduced word's count, then `steps` times apply_map, drop chop darts from
    each end (all of a word of at most 2 chop darts), and count the illegal
    turns in the Df-orbit gates.  Every step applies f, legal word or not."""
    _, assigned = derivative_orbit_gates(f)
    w = reduce_word(word)
    series = [illegal_turn_count(f, w, assigned)]
    for _ in range(steps):
        w = apply_map(f, w)
        w = w[chop : len(w) - chop] if len(w) > 2 * chop else ()
        series.append(illegal_turn_count(f, w, assigned))
    return tuple(series)


def brute_force_inps(f, max_len, max_period=4):
    """All one-illegal-turn reduced paths with [f^s(p)] == p for some s.

    Exhaustive DFS over reduced edge paths of simplicial length <= max_len,
    pruned to at most one illegal turn; flip-deduplicated canonical forms.
    Each node carries [f^s(path)] for s = 1 .. max_period.  A step to the
    path extended by a dart d lays the reduced block [f^s(d)] after each:
    both are reduced, so darts cancel only where they meet, and a walk
    inwards from the junction finds how many.
    """
    g = f.graph
    _, assigned = derivative_orbit_gates(f)
    nexts = reduced_successors(g)
    blocks = [[(d,) for d in range(g.num_darts)]]  # blocks[s][d] = [f^s(d)]
    for _ in range(max_period):
        blocks.append([apply_map(f, b) for b in blocks[-1]])

    def flip(path):
        return tuple(x ^ 1 for x in reversed(path))

    def join(w, block):
        k = 0
        while k < len(w) and k < len(block) and w[-1 - k] == block[k] ^ 1:
            k += 1
        return w[: len(w) - k] + block[k:]

    found = set()

    def dfs(path, images, ilt):
        if len(path) >= 2 and ilt == 1 and path in images:
            found.add(min(path, flip(path)))
        if len(path) == max_len:
            return
        for nd in nexts[path[-1]]:
            extra = 1 if assigned[path[-1] ^ 1] == assigned[nd] else 0
            if ilt + extra <= 1:
                step = [join(w, blocks[s][nd]) for s, w in enumerate(images, start=1)]
                dfs(path + (nd,), step, ilt + extra)

    for d in range(g.num_darts):
        dfs((d,), [blocks[s][d] for s in range(1, max_period + 1)], 0)
    return found


def bisect_root(fn, lo, hi, iters=200):
    """Root of a continuous fn with fn(lo) < 0 < fn(hi), by pure bisection."""
    flo = fn(lo)
    assert flo < 0 < fn(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def numpy_spectral(m):
    """(dominant eigenvalue, left eigenvector summing to 1) via numpy.eig."""
    vals, vecs = np.linalg.eig(np.asarray(m, dtype=np.float64).T)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    v = vecs[:, k].real
    if v.sum() < 0:
        v = -v
    return lam, v / v.sum()


def pf_data_reference(f, tol=1e-12):
    """``spectral.pf_data(f, tol)`` in the plain form of its power
    iteration: every step sums w with ``w.sum()`` and runs the whole settle
    test max|w - v| < tol before the Collatz-Wielandt certificate.  The library
    runs the vector test only on steps whose first entry settled, which
    cannot change the step it stops at, so every field must come out
    equal, floats bit for bit.  The certificate, the primitivity test and
    the matrix are the library's; other tests check them."""
    import math

    from ttlam.errors import NotPrimitiveError
    from ttlam.spectral import _MAX_ITER, PFData, _collatz_wielandt_certified, is_primitive, transition_matrix

    m = transition_matrix(f)
    if not is_primitive(m):
        raise NotPrimitiveError("transition matrix is not primitive")
    n = m.shape[0]
    rows = m.T.tolist()
    mt = m.T.astype(np.float64)
    v = np.ones(n) / n
    lam = 0.0
    it = 0
    for it in range(1, _MAX_ITER + 1):
        w = mt @ v
        lam = float(w.sum())
        if lam <= 0:
            raise ConvergenceError("power iteration collapsed")
        w /= lam
        if float(np.abs(w - v).max()) < tol and _collatz_wielandt_certified(rows, lam, w):
            v = w
            break
        v = w
    else:
        raise ConvergenceError(f"power iteration did not settle and certify in {_MAX_ITER} steps")
    residual = float(np.abs(mt @ v - lam * v).max())
    v = v / v.sum()
    lengths = tuple(float(x) for x in v)
    min_len = min(lengths)
    return PFData(
        lam=lam,
        pf_lengths=lengths,
        vol_pf=1.0,
        bbt_bound=1.0,
        min_pf_length=min_len,
        c_illegal=math.ceil(4.0 / min_len),
        residual=residual,
        iterations=it,
    )


def first_power_over(m, c):
    """The smallest s >= 1 with every column sum of M^s above c, from plain
    matrix powers in numpy's object dtype (Python ints, no overflow)."""
    a = np.asarray(m, dtype=object)
    power = a.copy()
    s = 1
    while min(power.sum(axis=0)) <= c:
        power = power.dot(a)
        s += 1
    return s


def primitivity_exponent(m):
    """The smallest k with M^k > 0, from boolean powers; None when no power
    up to Wielandt's bound (n - 1)^2 + 1 is positive."""
    a = np.asarray(m) > 0
    n = a.shape[0]
    power = a.copy()
    for k in range(1, (n - 1) ** 2 + 2):
        if power.all():
            return k
        power = (power.astype(np.int64) @ a.astype(np.int64)) > 0
    return None


def random_reduced_word(g, length, rng, nexts=None):
    if nexts is None:
        nexts = reduced_successors(g)
    w = [rng.randrange(g.num_darts)]
    for _ in range(length - 1):
        w.append(rng.choice(nexts[w[-1]]))
    return tuple(w)


def harvest_factors(f, lengths, rounds):
    """{n: length-n factors of f^t(e) for t <= rounds, flip closed} for each
    n in lengths; no stability heuristic, just a fixed horizon.  Each edge
    is iterated once for all the lengths.  An image is a numpy gather of
    the dart images, reduced by `reduce_word` only when two adjacent darts
    cancel; each factor is marked in a table indexed by its digits in base
    num_darts."""
    nd = f.graph.num_darts
    images = [f.edge_image[d >> 1] for d in range(nd)]
    images = [tuple(x ^ 1 for x in reversed(img)) if d & 1 else img for d, img in enumerate(images)]
    flat = np.array([x for img in images for x in img], dtype=np.int32)
    size = np.array([len(img) for img in images], dtype=np.int32)
    start = np.cumsum(size, dtype=np.int32) - size
    seen = {n: np.zeros(nd**n, dtype=bool) for n in lengths}
    for e in range(f.graph.num_edges):
        p = np.array([2 * e], dtype=np.int32)
        for _ in range(rounds):
            k = size[p]
            offsets = np.repeat(start[p] - np.cumsum(k, dtype=np.int32) + k, k)
            p = flat[offsets + np.arange(len(offsets), dtype=np.int32)]
            if np.any(p[:-1] == p[1:] ^ 1):
                p = np.array(reduce_word(p.tolist()), dtype=np.int32)
            for n, table in seen.items():
                code = np.zeros(max(len(p) - n + 1, 0), dtype=np.int64)
                for i in range(n):
                    code = code * nd + p[i : i + len(code)]
                table[code] = True
    out = {}
    for n, table in seen.items():
        words = set()
        for c in np.flatnonzero(table).tolist():
            digits = []
            for _ in range(n):
                c, r = divmod(c, nd)
                digits.append(r)
            words.add(tuple(reversed(digits)))
        out[n] = words | {tuple(x ^ 1 for x in reversed(w)) for w in words}
    return out


def scan_ray_pairs_by_iteration(f, window, max_period, pf_lengths):
    """(verified, notes) of one eigenray tail scan at a window, as
    ``nielsen._scan_ray_pairs`` defines them, from the definitions: eigenrays
    by whole-path iteration of apply_map, candidates from a comparison at
    every shift, each put in canonical orientation, legality from Df orbits,
    each candidate verified by applying f at every period up to max_period,
    and the tip of a verified path read as its only illegal turn.
    verified maps each path to (period, tip).  pf_lengths (or None) drives
    the same PF-length filter."""
    g = f.graph
    nd = g.num_darts
    _, assigned = derivative_orbit_gates(f)

    def df_period(d):
        x = derivative(f, d)
        for k in range(1, nd + 1):
            if x == d:
                return k
            x = derivative(f, x)
        return None

    def flip(path):
        return tuple(x ^ 1 for x in reversed(path))

    def illegal_turns(path):
        return [i for i in range(1, len(path)) if assigned[path[i - 1] ^ 1] == assigned[path[i]]]

    def ray(d, k):
        p = (d,)
        while len(p) < window:
            q = p
            for _ in range(k):
                q = apply_map(f, q)
            assert q[: len(p)] == p and len(q) > len(p), "eigenray iteration stalled"
            p = q
        return p[:window]

    eigen = [d for d in range(nd) if df_period(d) is not None]
    rays = {d: ray(d, df_period(d)) for d in eigen}
    min_agree = max(16, window // 2)
    verified, notes, seen = {}, [], set()
    for i, d1 in enumerate(eigen):
        for d2 in eigen[i + 1 :]:
            r1, r2 = rays[d1], rays[d2]
            for m1, m2 in quadratic_tail_stems(r1, r2, min_agree):
                eta = r1[:m1] + flip(r2[:m2])
                canon = min(eta, flip(eta))
                if canon in seen:
                    continue
                seen.add(canon)
                if pf_lengths is not None:
                    l1 = sum(pf_lengths[d >> 1] for d in r1[:m1])
                    l2 = sum(pf_lengths[d >> 1] for d in r2[:m2])
                    if abs(l1 - l2) > 1e-6 * max(l1, l2):
                        continue
                x, y = r1[m1 - 1] ^ 1, r2[m2 - 1] ^ 1
                if x != y and assigned[x] != assigned[y]:
                    notes.append(f"tail coincidence with legal junction at window {window}: {g.path_str(canon)}")
                    continue
                w = canon
                for s in range(1, max_period + 1):
                    w = apply_map(f, w)
                    if w == canon:
                        tips = illegal_turns(canon)
                        assert len(tips) == 1, "a verified path has exactly one illegal turn"
                        verified[canon] = (s, tips[0])
                        break
                else:
                    notes.append(f"unverified tail candidate at window {window}: {g.path_str(canon)}")
    return verified, notes


def detect_inps_cold(f, max_period, max_pf_len=None):
    """The InpReport of ``nielsen.detect_inps(f, max_period, max_pf_len)``
    without the work it does once per map: every scan by
    `scan_ray_pairs_by_iteration`, which rebuilds each eigenray from its
    dart by whole-path iteration at every window and verifies every
    candidate afresh, its notes rendered at every window; and the PF data
    of f and of the subdivided map by a cold `pf_data`.  The window rule,
    the first interior orbit and the subdivision are the library's, which
    other tests check against their own references."""
    from ttlam.errors import NotPrimitiveError
    from ttlam.nielsen import InpReport, NielsenPath, _default_window, _first_interior_point, subdivide_at
    from ttlam.spectral import pf_data

    def pf_or_none(g):
        try:
            return pf_data(g)
        except NotPrimitiveError:
            return None

    def detect_on(g):
        pf = pf_or_none(g)
        window = _default_window(pf.lam if pf else None, pf.pf_lengths if pf else None, max_pf_len)
        for w in (window, 2 * window, 4 * window):
            verified, notes = scan_ray_pairs_by_iteration(g, w, max_period, pf.pf_lengths if pf else None)
            if not notes:
                break
        inps = tuple(NielsenPath(p, s, tip, g.graph.is_closed(p)) for p, (s, tip) in sorted(verified.items()))
        return window, inps, notes

    window, inps, notes = detect_on(f)
    sub, sub_inps = None, ()
    point = _first_interior_point(f, max_period)
    if point is not None:
        sub = subdivide_at(f, point)
        _, sub_inps, sub_notes = detect_on(sub.map)
        notes = notes + sub_notes
    return InpReport(inps, not notes, window, tuple(notes), sub, sub_inps)


def subdivision_by_ranges(f, point, step):
    """(graph, vertex images, edge images, edge_split, new vertex names) of
    ``nielsen.subdivide_at(f, point)``, each refined image rewritten dart by
    dart: every dart of f(e) becomes the range of the piece ids of its
    edge, run backwards for a backward dart, and f(e) is cut where each
    orbit image falls, after the ranges of the darts before it.  The orbit
    walk is `step`, the library's ``nielsen.point_image``, which other
    tests check against whole-path iteration; the refined map is not
    checked."""
    from ttlam.graph import Graph

    g, t = f.graph, point.exponent
    walk, cut_dart = [(point.edge, point.index)], []
    for _ in range(t):
        ce, ci = walk[-1]
        ne, ni, k = step(f, ce, t, ci)
        cut_dart.append(k)
        if (ne, ni) == walk[0]:
            break
        walk.append((ne, ni))
    period, nv = len(walk), g.num_vertices
    on_edge = [[] for _ in range(g.num_edges)]
    for j in sorted(range(period), key=lambda j: walk[j][1]):
        on_edge[walk[j][0]].append(j)
    rank, first = [0] * period, [0]
    for pts in on_edge:
        for r, j in enumerate(pts, start=1):
            rank[j] = r
        first.append(first[-1] + len(pts) + 1)
    vertex_names = list(g.vertex_names) + [f"{g.edge_names[e]}*{rank[j]}" for j, (e, _) in enumerate(walk)]
    edge_split, edges = {}, []
    for e, pts in enumerate(on_edge):
        name = g.edge_names[e]
        pieces = tuple(f"{name}.{r}" for r in range(1, len(pts) + 2)) if pts else (name,)
        edge_split[name] = pieces
        ends = [vertex_names[v] for v in (g.dart_origin[2 * e], *(nv + j for j in pts), g.dart_origin[2 * e + 1])]
        edges += zip(pieces, ends, ends[1:])

    def rewrite(d):
        e = d >> 1
        if d & 1:
            return range(2 * first[e + 1] - 1, 2 * first[e], -2)
        return range(2 * first[e], 2 * first[e + 1], 2)

    images = []
    for e, pts in enumerate(on_edge):
        img = f.edge_image[e]
        w = [x for d in img for x in rewrite(d)]
        cuts = [0]
        for j in pts:
            k = cut_dart[j]
            before = sum(len(rewrite(d)) for d in img[:k])
            r = rank[(j + 1) % period]
            cuts.append(before + (len(rewrite(img[k])) - r if img[k] & 1 else r))
        cuts.append(len(w))
        images += (tuple(w[a:b]) for a, b in zip(cuts, cuts[1:]))
    vertex_image = f.vertex_image + tuple(nv + (j + 1) % period for j in range(period))
    return Graph.build(vertex_names, edges), vertex_image, tuple(images), edge_split, tuple(vertex_names[nv:])


def quadratic_tail_stems(r1, r2, min_agree):
    """Stem lengths (m1, m2) of the eigenray tail candidates of a ray pair,
    in ascending shift order.  Every shift delta aligning r1[i] with
    r2[i - delta] is compared backwards from the end of the overlap; it is a
    candidate when the first mismatch r1[m1 - 1] != r2[m2 - 1] leaves at
    least min_agree agreeing darts after it."""
    n1, n2 = len(r1), len(r2)
    out = []
    for delta in range(-(n2 - min_agree), n1 - min_agree + 1):
        lo = max(0, delta)
        hi = min(n1, n2 + delta)
        if hi - lo < min_agree + 1:
            continue
        mismatch = -1
        for i in range(hi - 1, lo - 1, -1):
            if r1[i] != r2[i - delta]:
                mismatch = i
                break
        if mismatch < 0:
            continue
        m1 = mismatch + 1
        m2 = m1 - delta
        if m1 < 1 or m2 < 1 or hi - m1 < min_agree:
            continue
        out.append((m1, m2))
    return out


def iterated_eigenray_prefix(f, dart, n):
    """First n darts of the eigenray of a Df-periodic dart, recomputing
    p <- [f^k(p)] from (dart,) on the whole path each round, k the Df-period.
    Raises MapError for a dart that is not Df-periodic, and ConvergenceError
    when an iterate does not extend the last or the path stops growing for
    more than num_darts rounds."""
    nd = f.graph.num_darts
    x, k = derivative(f, dart), 1
    while x != dart and k <= nd:
        x, k = derivative(f, x), k + 1
    if x != dart:
        raise MapError("dart is not Df-periodic")
    f.require_expanding()
    p = (dart,)
    stalls = 0
    while len(p) < n:
        q = f.iterate(p, k)
        if q[: len(p)] != p:
            raise ConvergenceError("iterate does not extend the prefix")
        if len(q) == len(p):
            stalls += 1
            if stalls > nd:
                raise ConvergenceError("prefix stopped growing")
        else:
            stalls = 0
        p = q
    return p[:n]


def leaf_language_by_closure(f, n):
    """Length-n factors of the iterated edge images f^t(e), t >= 1, flip
    closed, for a train track map f.  Each edge is iterated by `apply_map`
    until its image has n darts, and the windows of those images are closed
    under u -> the windows of apply_map(f, u): nothing cancels on a legal
    word, so a window of f(P) lies in f(u) for a length-n factor u of P."""

    def windows(p):
        return {p[i : i + n] for i in range(len(p) - n + 1)}

    words = set()
    for e in range(f.graph.num_edges):
        p = apply_map(f, (2 * e,))
        while len(p) < n:
            p = apply_map(f, p)
        words |= windows(p)
    todo = list(words)
    while todo:
        new = windows(apply_map(f, todo.pop())) - words
        words |= new
        todo += new
    return words | {tuple(x ^ 1 for x in reversed(w)) for w in words}


def recurrence_by_closure(f, m):
    """(witness, conclusive, factors) of the uniform recurrence check, for a
    train track map f, by closing factor sets under f.

    S_t(e) is the set of factors of f^t(e) of length at most m.  Nothing
    cancels on a legal word, so a factor of f^(t+1)(e) of length at most m
    lies in apply_map(f, u) for some u in S_t(e), and S_(t+1)(e) is the
    union of the factors of those images.  The tuple (S_t(e))_e is iterated
    until it repeats; the levels from its first occurrence on cycle forever.
    The language is the length-m words met on the way, flip closed.  Level t
    holds when every edge's S_t(e) has each language word or its flip; the
    witness is the least T with every level t >= T holding, -1 when a level
    of the cycle fails."""

    def flip(w):
        return tuple(x ^ 1 for x in reversed(w))

    def factors(p):
        return frozenset(p[i : i + k] for k in range(1, m + 1) for i in range(len(p) - k + 1))

    images = {}

    def advance(s):
        out = set()
        for u in s:
            if u not in images:
                images[u] = factors(apply_map(f, u))
            out |= images[u]
        return frozenset(out)

    history = []
    state = tuple(factors(apply_map(f, (2 * e,))) for e in range(f.graph.num_edges))
    while state not in history:
        history.append(state)
        state = tuple(advance(s) for s in state)
    lang = {w for states in history for s in states for w in s if len(w) == m}
    lang |= {flip(w) for w in lang}
    holds = [all(w in s or flip(w) in s for s in states for w in lang) for states in history]
    if not all(holds[history.index(state) :]):
        witness = -1
    else:
        witness = 1 + max((t for t, ok in enumerate(holds, 1) if not ok), default=0)
    return witness, witness > 0, len(lang)
