"""Gates, turn legality, and the train track property.

Two darts at a vertex belong to the same *gate* when some iterate of the
derivative map Df sends them to the same dart.  A turn is *legal* when its
darts lie in distinct gates, equivalently no Df-iterate degenerates it.  A
map is a train track map when every edge image stays reduced under all
iterates: every turn crossed by some iterated edge image (a *used* turn) is
legal.  By Bestvina-Handel it suffices to read the turns of the edge images
f(e) themselves and follow the illegal ones forward under Df
(`used_illegal_turns`); the whole closure of the used turns is built only
where a report lists it.  Gates and turns are built once per map
(`graph_map.per_map`), and every lookup below reads them from the map.
"""

from typing import NamedTuple, Sequence

from .errors import NotTrainTrackError
from .graph import Turn, turn
from .graph_map import GraphSelfMap, per_map


class Gates(NamedTuple):
    """Partition of the darts at each vertex into gates."""

    gate_of: tuple[int, ...]           # dart -> gate id (global numbering)
    members: tuple[tuple[int, ...], ...]  # gate id -> sorted darts
    vertex_of_gate: tuple[int, ...]

    def same_gate(self, d1: int, d2: int) -> bool:
        return self.gate_of[d1] == self.gate_of[d2]

    def gates_at(self, v: int) -> list[int]:
        return [gid for gid, w in enumerate(self.vertex_of_gate) if w == v]


@per_map
def gates(f: GraphSelfMap) -> Gates:
    """Gates: the darts at one vertex with one image under Df^P, for P the
    first power of two >= N = num_darts.

    Two darts share a gate iff Df^t(d1) == Df^t(d2) for some t, and then for
    every later t.  If they first meet at t >= 1, the distinct darts
    Df^(t-1)(d1) and Df^(t-1)(d2) have one image.  Df permutes the darts on
    its cycles, so one of the two is off every cycle: the pre-period of d1
    or d2 is at least t.  A pre-period is below N, so t < N <= P and
    grouping the darts by (origin, Df^P(d)) is exact.  Df^P is the table of
    Df squared log2(P) times, O(N log N) work.  Darts are visited in
    ascending order, so each gate is sorted and gates are ordered by their
    smallest dart.
    """
    g = f.graph
    tip = f.derivative_table
    power = 1
    while power < g.num_darts:
        tip = [tip[d] for d in tip]
        power *= 2
    buckets: dict[tuple[int, int], list[int]] = {}
    for d, t in enumerate(tip):
        buckets.setdefault((g.dart_origin[d], t), []).append(d)
    members = tuple(tuple(darts) for darts in buckets.values())
    gate_of = [0] * g.num_darts
    for gid, darts in enumerate(members):
        for d in darts:
            gate_of[d] = gid
    vertex_of_gate = tuple(v for v, _ in buckets)
    return Gates(tuple(gate_of), members, vertex_of_gate)


def is_legal_turn(f: GraphSelfMap, t: Turn) -> bool:
    """Legal iff non-degenerate and the two darts sit in distinct gates."""
    return t[0] != t[1] and not gates(f).same_gate(t[0], t[1])


def turn_image(f: GraphSelfMap, t: Turn) -> Turn:
    """The induced map on turns: apply Df to both darts."""
    df = f.derivative_table
    return turn(df[t[0]], df[t[1]])


def illegal_positions(f: GraphSelfMap, path: Sequence[int]) -> list[int]:
    """The positions i, ascending, where the turn between path[i - 1] and
    path[i] is illegal: the one scan of a path's turns against the gates."""
    gate_of = gates(f).gate_of
    return [i for i in range(1, len(path)) if gate_of[path[i - 1] ^ 1] == gate_of[path[i]]]


def ilt_count(f: GraphSelfMap, path: Sequence[int]) -> int:
    """Number of illegal turns crossed by the path, with multiplicity."""
    return len(illegal_positions(f, path))


def legal_segments(f: GraphSelfMap, path: Sequence[int]) -> list[int]:
    """Lengths (in darts) of the maximal legal subpaths, in order: the gaps
    between the illegal turns."""
    cuts = illegal_positions(f, path)
    return [b - a for a, b in zip([0] + cuts, cuts + [len(path)])] if path else []


@per_map
def used_turns(f: GraphSelfMap) -> frozenset[Turn]:
    """Turns crossed by some iterated edge image.

    Seed with the turns crossed by the (forward) edge images, then close
    under the induced turn map.  Reversed images cross the same unordered
    turns, so forward darts suffice for the seed.  A reduced path never
    crosses a degenerate turn (d, d), so such images are left out.
    `is_train_track` does not read this closure (see `used_illegal_turns`).
    """
    closed = {turn(a ^ 1, b) for img in f.edge_image for a, b in zip(img, img[1:])}
    frontier = list(closed)
    while frontier:
        ti = turn_image(f, frontier.pop())
        if ti[0] != ti[1] and ti not in closed:
            closed.add(ti)
            frontier.append(ti)
    return frozenset(closed)


@per_map
def used_illegal_turns(f: GraphSelfMap) -> tuple[Turn, ...]:
    """The used turns that are illegal, sorted; none for a train track map.

    They are the forward Df-orbits of the illegal turns that the edge images
    f(e) cross (the Bestvina-Handel criterion reads only these turns), each
    walked until it degenerates or meets a turn already found, whose orbit
    is walked already; the closure `used_turns` is not built.

    Lemma: for a turn s of some f(e) and k >= 0, a non-degenerate
    Df^k(s) is illegal iff s is.  If Df(x) and Df(y) met under some Df^t,
    x and y would meet under Df^(t+1) and share a gate; so darts in
    distinct gates have Df-images in distinct gates, and a legal turn stays
    legal.  Darts in one gate have Df-images in one gate, so a
    non-degenerate image of an illegal turn is illegal.  The used turns are
    exactly the non-degenerate Df^k(s), so the walks find exactly the
    illegal ones among them.
    """
    df = f.derivative_table
    gate_of = gates(f).gate_of
    found: set[Turn] = set()
    for img in f.edge_image:
        for a, b in zip(img, img[1:]):
            x, y = a ^ 1, b
            if gate_of[x] == gate_of[y]:
                while x != y and turn(x, y) not in found:
                    found.add(turn(x, y))
                    x, y = df[x], df[y]
    return tuple(sorted(found))


def is_train_track(f: GraphSelfMap) -> bool:
    """Every used turn is legal (equivalently, all [f^n(e)] stay reduced)."""
    return not used_illegal_turns(f)


def require_train_track(f: GraphSelfMap) -> None:
    bad = used_illegal_turns(f)
    if bad:
        names = [f"({f.graph.dart_name(a)}, {f.graph.dart_name(b)})" for a, b in bad[:4]]
        raise NotTrainTrackError(f"used turns are degenerate under Df iterates: {', '.join(names)}")


def two_gates_everywhere(f: GraphSelfMap) -> bool:
    """At least two gates at every vertex (needed for local injectivity on rays)."""
    gt = gates(f)
    return all(len(gt.gates_at(v)) >= 2 for v in range(f.graph.num_vertices))
