"""Laminary languages, singular leaves, duality and illegality profiles.

The attracting lamination of an expanding train track map is described here
through finite data: the *leaf language* (all length-n factors of iterated
edge images, closed under reversal), eigenray *equivalence classes* (gates
joined through used turns, which certify the iwip property), and *singular
leaves* (eigenray, connector, eigenray: the connector an unused legal turn
or an indivisible Nielsen path), which close the gap between the leaf
language and the full dual lamination of the limit tree.

Everything here is window-based and exact, and every reported structure can
be re-checked by direct iteration.  A language is worked on coded, dart d as
chr(d), and decoded to a frozenset of dart tuples at the end; a flip, reverse
and translate d -> d ^ 1, is of a level's clips or a window set, never a word.
"""

from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import IncompatibleGraphsError, MapError
from .graph import Graph, Path, equivalence_classes, join_reduced, path_reduce
from .graph_map import GraphSelfMap
from .nielsen import _coded_rays, detect_inps, periodic_structures
from .spectral import pf_data
from .train_track import gates, illegal_positions, legal_segments, require_train_track, used_turns


# -- factor languages ------------------------------------------------------------
#
# A train track map never cancels on a legal path, and every iterated edge
# image is legal, so f^s(P) for a factor P of some f^t(e) is the
# concatenation of the blocks f^s(d) over the darts d of P, and a short
# factor of it lies in the images of a few adjacent darts of P.  The
# languages below are therefore read off finitely many images with no
# length budget.  The argument needs the absence of cancellation, so each
# language first requires a train track map.

def _clipped_levels(f: GraphSelfMap, n: int) -> Iterator[tuple[list[list[str]], list[str]]]:
    """For t = 1, 2, ...: the runs of each f^t(e), by edge, and the clip of
    each f^t(d), by dart, for a train track map, all coded.

    No whole image is built: on a map whose strata grow at different rates,
    a fast edge's image can be far longer than n.  Write m = n - 1.  The
    clip of f^t(d) is f^t(d) itself while it has fewer than m darts, and
    otherwise its first and last m darts joined by a cut, chr(num_darts),
    which codes no dart; so a clip is cut iff longer than m.  f^t(e) is the
    concatenation of the blocks f^(t-1)(d) over the darts d of f(e), so
    joining the clips of those blocks and splitting at the cuts gives runs
    of f^t(e).  A window meeting two or more blocks cannot run past both
    ends of a cut block, which takes m + 2 darts, so it meets each cut block
    in at most m darts at one end, and lies in one run.  Any other window
    lies inside one block, where it is a window of f^(t-1) of an edge or of
    its flip; at t = 1 no clip is cut, and the one run is f(e).  Flip
    closure distributes over union, so a reader may flip-close the windows
    of many runs and levels at once.  The clip of e~ is the flip of e's, and
    one `_flips` makes a level's.  The generator never ends; each reader
    stops it.
    """
    m = n - 1
    cut = chr(f.graph.num_darts)
    flip = f.graph.flip_table
    clips = [chr(d) for d in f.graph.darts()]
    while True:
        runs = ["".join(map(clips.__getitem__, img)).split(cut) for img in f.edge_image]
        heads = [r[0] if len(r) == 1 and len(r[0]) < m else r[0][:m] + cut + r[-1][len(r[-1]) - m :] for r in runs]
        clips = [c for pair in zip(heads, _flips(heads, flip)) for c in pair]
        yield runs, clips


def _flips(words: Collection[str], flip: str) -> list[str]:
    """The flips of coded words, in order: their join at chr(len(flip)), which
    codes no dart and no cut, reversed, translated and split, then reversed."""
    sep = chr(len(flip))
    return sep.join(words)[::-1].translate(flip).split(sep)[::-1] if words else []


# -- leaf language --------------------------------------------------------------

def leaf_language(f: GraphSelfMap, n: int) -> frozenset[Path]:
    """All length-n factors of the iterated edge images f^t(e), t >= 1,
    closed under reversal.  Raises NotTrainTrackError for a map that is not
    a train track map.

    Let k >= 1 be the least level with every |f^k(e)| >= n - 1, the first
    level of `_clipped_levels` at which every clip is a pair.  The language
    is the flip closure of
      (A) the length-n windows of f^t(e), for every edge e and 1 <= t <= k;
      (B) for n > 1 and each used turn {x, y}, the windows of
          f^k(x~ y) = tail(f^k(x~)) + head(f^k(y)), both n - 1 darts long.
    Each word of (A) and (B) is a factor: x~ y is a legal factor of some
    f^t(e) with t >= 1, so f^k(x~ y) = f^k(x~) f^k(y), without
    cancellation, is a factor of f^(t+k)(e).  Each factor is in (A) or (B):
    one of f^t(e) with t <= k is in (A).  For t > k, f^t(e) is the
    concatenation of the blocks f^k(d) over the darts d of f^(t-k)(e),
    each of >= n - 1 darts, so a window meets at most two adjacent blocks.
    Inside one block it is a window of f^k(e) or of its flip; across two it
    is a window of f^k(x~ y) for the turn {x, y} that f^(t-k)(e) crosses
    there, which is used.  The terms of (A) with t < k matter for a map
    that is not primitive, where f^t(e) may hold a word no later image does.
    The windows of the runs over 1 <= t <= k are (A), and the clips at
    level k give (B) once per used turn {x, y}: the join f^k(y~ x) is the
    flip of f^k(x~ y), and flip closure distributes over union, so the
    language is flip-closed once, at the end.

    k exists.  The lengths never shrink: |f^(t+1)(e)| is the sum of
    |f^t(d)| over the darts d of f(e), and |f^t(e)| of |f^(t-1)(d)|, so
    |f^t| >= |f^(t-1)| gives |f^(t+1)| >= |f^t|, from |f^1| >= 1 = |f^0|.
    An expanding map sends each edge e over two darts at some first level;
    at the largest of these levels, T, every |f^T(e)| >= 2, and then
    |f^(t+T)(e)| >= 2|f^t(e)|.
    """
    return frozenset(tuple(map(ord, w)) for w in _leaf_codes(f, n))


def _leaf_codes(f: GraphSelfMap, n: int) -> set[str]:
    """`leaf_language(f, n)`, coded."""
    if n < 1:
        raise MapError("window length must be >= 1")
    f.require_expanding()
    require_train_track(f)
    m = n - 1
    words: set[str] = set()
    for runs, clips in _clipped_levels(f, n):
        words |= {r[i : i + n] for rs in runs for r in rs for i in range(len(r) - n + 1)}
        if min(map(len, clips)) > m:
            break
    # f^k(x~ y), 2m darts: the tail [m + 1 :] of one pair and the head [:m] of another
    joins = [clips[x ^ 1][m + 1 :] + clips[y][:m] for x, y in used_turns(f)]
    words |= {w[i : i + n] for w in joins for i in range(m)}
    return words.union(_flips(words, f.graph.flip_table))


# -- uniform recurrence -----------------------------------------------------------

class RecurrenceReport(NamedTuple):
    """Witness that the whole factor language recurs in every deep image.

    `witness` is the first iterate T such that every length-m language word
    occurs (up to flip) in f^t(e) for every edge e and every t >= T.
    """

    m: int
    witness: int  # -1 when the language never recurs in every deep image
    conclusive: bool
    factors: int


def uniform_recurrence_check(f: GraphSelfMap, m: int) -> RecurrenceReport:
    """Find the iterate from which every edge image carries the full language.

    A flip of a factor counts as an occurrence: leaves are unoriented.  The
    language is `leaf_language(f, m)`, so a map that is not a train track
    map raises NotTrainTrackError.  held_t(e), the flip-closed length-m
    windows of f^t(e), is read off `_clipped_levels`: the flip-closed
    windows of the level's runs, through one flip table per call, and
    held_(t-1) of the edges f(e) crosses, as a window of f^t(e) lies in one
    run or in one block f^(t-1)(d), whose windows held_(t-1) of d's edge
    holds flip closed; held_0 is empty.

    The witness is the first t at which every edge holds the language.
    f^(t+1)(e) is the blocks f^t(d) over the darts d of f(e) laid end to
    end, with nothing cancelled, so held_(t+1)(e) contains each held_t(d),
    and once every edge holds the language it always will.  Level t + 1 is
    a function of the state (clips, held) at level t, on finitely many
    states; when a state repeats first, the levels cycle without the
    language, and the witness is -1.
    """
    lang = _leaf_codes(f, m)
    flip = f.graph.flip_table
    crossed = [{d >> 1 for d in img} for img in f.edge_image]
    held: list[frozenset[str]] = [frozenset()] * f.graph.num_edges
    seen: set[tuple] = set()
    witness = -1
    for t, (runs, clips) in enumerate(_clipped_levels(f, m), 1):
        windows = [{r[i : i + m] for r in rs for i in range(len(r) - m + 1)} for rs in runs]
        held = [frozenset(ws).union(_flips(ws, flip), *map(held.__getitem__, es)) for ws, es in zip(windows, crossed)]
        if all(h == lang for h in held):
            witness = t
            break
        state = (tuple(clips), tuple(held))
        if state in seen:
            break
        seen.add(state)
    return RecurrenceReport(m=m, witness=witness, conclusive=witness > 0, factors=len(lang))


# -- eigenray equivalence --------------------------------------------------------

class EquivalenceReport(NamedTuple):
    """Gates at periodic vertices, glued along used turns.

    Classes are tuples of gate ids; `dart_classes` spells each class out as
    the sorted darts of its gates.  One single class over the whole graph is
    the certificate used by the iwip check; two or more classes certify a
    reducible (NOT-iwip) map.
    """

    classes: tuple[tuple[int, ...], ...]
    dart_classes: tuple[tuple[int, ...], ...]
    num_classes: int


def eigenray_equivalence(f: GraphSelfMap) -> EquivalenceReport:
    gt = gates(f)
    periodic = periodic_structures(f).vertex_period
    nodes = [gid for gid in range(len(gt.members)) if gt.vertex_of_gate[gid] in periodic]
    gate_pairs = ((gt.gate_of[d1], gt.gate_of[d2]) for d1, d2 in used_turns(f))
    classes = tuple(equivalence_classes(nodes, gate_pairs))
    dart_classes = tuple(
        tuple(sorted(d for gid in cls for d in gt.members[gid])) for cls in classes
    )
    return EquivalenceReport(
        classes=classes,
        dart_classes=dart_classes,
        num_classes=len(classes),
    )


# -- singular leaves ------------------------------------------------------------------

class SingularLeaf(NamedTuple):
    """A singular leaf: down the eigenray of `entry`, across `connector`, up
    the eigenray of `exit`.  A turn leaf has the empty connector and
    entry < exit; an INP leaf's connector is the INP's path."""

    entry: int
    connector: Path
    exit: int


class SingularReport(NamedTuple):
    """Leaves of the dual lamination beyond the leaf language: the
    sorted turn leaves, then the sorted INP leaves."""

    leaves: tuple[SingularLeaf, ...]
    conclusive: bool


def singular_leaves(f: GraphSelfMap) -> SingularReport:
    """The turn leaves and INP leaves of f; their ends are eigen darts, which
    start at periodic vertices.  A turn leaf (d1, (), d2) joins eigen darts
    d1 < d2 at one vertex, in different gates, whose turn is unused.  For
    each INP of `detect_inps(f)`, an INP leaf (din, path, dout) joins an
    eigen dart din outside the gate of the path's first dart to an eigen
    dart dout outside the gate of its last dart reversed: both turns legal."""
    gt = gates(f)
    eigen = periodic_structures(f).dart_period
    used = used_turns(f)
    origin = f.graph.origin

    def ends(d: int) -> list[int]:  # eigen darts at d's origin, outside d's gate
        return [e for e in eigen if origin(e) == origin(d) and not gt.same_gate(e, d)]

    inps = detect_inps(f)
    turn_leaves = [
        SingularLeaf(a, (), b) for a in eigen for b in ends(a) if a < b and (a, b) not in used
    ]
    inp_leaves = [
        SingularLeaf(a, inp.path, b)
        for inp in inps.inps for a in ends(inp.path[0]) for b in ends(inp.path[-1] ^ 1)
    ]
    return SingularReport(tuple(sorted(turn_leaves) + sorted(inp_leaves)), inps.conclusive)


def leaf_window(f: GraphSelfMap, leaf: SingularLeaf, n: int) -> Path:
    """A 2n-or-longer window of a singular leaf, centered on its connector:
    reverse(ray entry) + connector + ray exit, each ray n darts long."""
    return tuple(map(ord, _leaf_window_code(f, leaf, n)))


def _leaf_window_code(f: GraphSelfMap, leaf: SingularLeaf, n: int) -> str:
    """`leaf_window(f, leaf, n)`, coded, with the rays streamed by `_coded_rays`."""
    if n < 1:
        raise MapError("prefix length must be >= 1")
    entry, connector, exit_ = leaf
    down, up = _coded_rays(f, n, (entry, exit_))
    return down[::-1].translate(f.graph.flip_table) + "".join(map(chr, connector)) + up


# -- dual language ---------------------------------------------------------------------

def singular_language(f: GraphSelfMap, n: int) -> frozenset[Path]:
    """Length-n factors of the singular leaves' windows, flip closed."""
    return frozenset(tuple(map(ord, w)) for w in _singular_codes(f, n))


def _singular_codes(f: GraphSelfMap, n: int) -> set[str]:
    """`singular_language(f, n)`, coded."""
    lines = [_leaf_window_code(f, leaf, n) for leaf in singular_leaves(f).leaves]
    words = {w[i : i + n] for w in lines for i in range(len(w) - n + 1)}
    return words.union(_flips(words, f.graph.flip_table))


def dual_language(f_minus: GraphSelfMap, n: int) -> frozenset[Path]:
    """Length-n factor language of the full dual lamination, computed on the
    inverse-direction map: the leaf language plus every factor of the
    singular leaves (flip closed)."""
    return frozenset(tuple(map(ord, w)) for w in _leaf_codes(f_minus, n) | _singular_codes(f_minus, n))


def leaf_language_names(f: GraphSelfMap, n: int) -> list[str]:
    """The words of `leaf_language(f, n)`, named by `Graph.path_str`, sorted."""
    return _names(f.graph, _leaf_codes(f, n))


def dual_language_names(f_minus: GraphSelfMap, n: int) -> tuple[list[str], bool]:
    """The words of `dual_language(f_minus, n)`, named by `Graph.path_str`,
    sorted, and whether they are just the leaf language's."""
    base = _leaf_codes(f_minus, n)
    words = base | _singular_codes(f_minus, n)
    return _names(f_minus.graph, words), len(words) == len(base)


def _names(g: Graph, codes: set[str]) -> list[str]:
    """Coded words named, sorted, by one translate of them all, joined at
    chr(num_darts), which codes no dart, then cut apart."""
    names = [name + " " for name in g.dart_names] + ["\n"]
    return sorted(chr(g.num_darts).join(codes).translate(names)[:-1].split(" \n")) if codes else []


# -- illegality profile -------------------------------------------------------------------

class IllegalityProfile(NamedTuple):
    """How long the legal stretches of a word collection get, measured in the
    gate structure of a reference map."""

    max_run: int
    histogram: tuple[tuple[int, int], ...]  # (run length, count), sorted
    c_illegal: int
    all_below: bool
    words: int


def illegality_profile(f_ref: GraphSelfMap, words: Iterable[Path]) -> IllegalityProfile:
    pf = pf_data(f_ref)
    hist: dict[int, int] = {}
    max_run = 0
    count = 0
    for w in words:
        count += 1
        if not f_ref.graph.is_edge_path(w):
            raise IncompatibleGraphsError("word is not an edge path on the reference graph")
        for run in legal_segments(f_ref, w):
            hist[run] = hist.get(run, 0) + 1
            max_run = max(max_run, run)
    return IllegalityProfile(
        max_run=max_run,
        histogram=tuple(sorted(hist.items())),
        c_illegal=pf.c_illegal,
        all_below=max_run < pf.c_illegal,
        words=count,
    )


def illegality_between(f_ref: GraphSelfMap, f_src: GraphSelfMap, n: int, dual: bool = True) -> IllegalityProfile:
    """Profile the (dual or plain leaf) language of f_src against the gates
    of f_ref; both maps must live on the same marked graph."""
    if f_ref.graph != f_src.graph:
        raise IncompatibleGraphsError("maps live on different graphs")
    words = dual_language(f_src, n) if dual else leaf_language(f_src, n)
    return illegality_profile(f_ref, sorted(words))


# -- iterated illegal-turn contraction --------------------------------------------------------

class ContractionReport(NamedTuple):
    """Chopped ILT series of a word under iteration.

    Each step applies f, freely reduces, chops `chop` darts from both ends
    (emptying short words), and records the remaining illegal-turn count.
    `block` is the smallest s with every |f^s(e)| > c_illegal: the scale on
    which the count would drop until it reaches <= 1 if c_illegal rested on
    a proved cancellation constant, which it does not yet (ROADMAP item 1).
    """

    series: tuple[int, ...]
    chop: int
    block: int
    reached_le_one: bool
    step_reached: int  # first index with series value <= 1, or -1


def contraction_block(f: GraphSelfMap) -> int:
    """The smallest s with every |f^s(e)| > c = c_illegal, the column sums
    of M^s searched by the map's store, `edge_iterates.first_level_over`.

    The search ends by s = k + c, k the primitivity exponent of M (M^k > 0;
    `pf_data` requires a primitive M).  Write L_s = 1^T M^s for the column
    sums of M^s and R_s = M^s 1 for its row sums, so sum L_s = sum R_s.
    M^k > 0 leaves M no zero row, so every R_s[i] >= 1; an expanding map has
    some L_1[e] = |f(e)| >= 2, since were every image one dart no edge would
    grow.  So sum L_(s+1) = L_1 . R_s >= sum R_s + 1 = sum L_s + 1, and
    sum L_s >= n + s for n edges.  Column e of M^(k+s) is M^s times column e
    of M^k, whose entries are >= 1, so L_(k+s)[e] >= sum L_s >= n + s > c
    once s >= c.
    """
    c = pf_data(f).c_illegal
    f.require_expanding()
    return f.edge_iterates.first_level_over(c)


def ilt_contraction(
    f: GraphSelfMap,
    word: Sequence[int],
    steps: int | None = None,
    chop: int | None = None,
) -> ContractionReport:
    """Drive a word toward the lamination: iterate, trim boundary effects,
    count illegal turns.

    The word must be an edge path of f's graph (MapError otherwise).  f
    must be a train track map (NotTrainTrackError otherwise), so that the
    series is non-increasing: applying f never raises the count and
    chopping only removes turns; the empty word records 0.  A count of 0
    means a legal word, whose images stay legal, so the series is filled
    with zeros from there without applying f again.  The default
    boundary trim is C(f) (`GraphSelfMap.cancellation_bound`), which is not
    a proved bounded-cancellation constant, so that the count reaches <= 1
    within `steps` is what `reached_le_one` reports, not a guarantee; see
    ROADMAP item 1.

    Each step counts only at junctions.  A train track map sends a legal
    path s to the legal, reduced path f(s), the blocks f(d) over its darts
    laid end to end: each f(d) is legal, as every turn of an edge image is
    used, and Df sends the legal turns of s to legal turns.  So f(w) is the
    reduction of the blocks f(s) over the maximal legal segments s of w, cut
    at its illegal turns, and what is left of each block is a subpath of a
    legal path: an illegal turn of f(w) sits where what is left of one block
    meets what is left of another.  The word is coded, dart d as chr(d), so
    each block is one `str.translate` of its segment through the map's
    coded images, and `join_reduced` lays the blocks end to end.  The illegal
    turns among the junctions left standing inside the chop window are the
    count, and the cuts of the next step.  A step thus takes one
    Python-level pass per legal segment of w, at most |w|, rather than one
    per dart of f(w), as a scan of the whole image would.
    """
    require_train_track(f)
    if chop is None:
        chop = f.cancellation_bound
    if chop < 0:
        raise MapError("boundary trim must be >= 0")
    if steps is not None and steps < 0:
        raise MapError("step count must be >= 0")
    if not f.graph.is_edge_path(word):
        raise MapError("word is not an edge path")
    w = path_reduce(word)
    if len(w) <= 2 * chop and chop > 0:
        raise MapError(f"word of length {len(w)} is consumed by a boundary trim of {chop}")
    block = contraction_block(f)
    gate_of = gates(f).gate_of
    images = f.coded_images
    cuts = illegal_positions(f, w)
    code = "".join(map(chr, w))
    series = [len(cuts)]
    if steps is None:
        steps = block * (series[0] + 2)
    for _ in range(steps):
        if not cuts:
            break
        stack, junctions = join_reduced(code[a:b].translate(images) for a, b in zip([0] + cuts, cuts + [len(code)]))
        end = len(stack) - chop
        cuts = [
            j - chop
            for j in junctions
            if chop < j < end and gate_of[ord(stack[j - 1]) ^ 1] == gate_of[ord(stack[j])]
        ]
        series.append(len(cuts))
        code = stack[chop:end]
    series += [0] * (steps + 1 - len(series))
    reached = next((i for i, v in enumerate(series) if v <= 1), -1)
    return ContractionReport(
        series=tuple(series),
        chop=chop,
        block=block,
        reached_le_one=reached >= 0,
        step_reached=reached,
    )
