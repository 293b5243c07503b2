"""Gates, turn legality, and the train track property.

Two darts at a vertex belong to the same *gate* when some iterate of the
derivative map Df sends them to the same dart.  A turn is *legal* when its
darts lie in distinct gates, equivalently no Df-iterate degenerates it.  A
map is a train track map when every edge image stays reduced under all
iterates; operationally, every turn crossed by some edge image (a *used*
turn) must be legal, and that set must be closed under the induced turn map.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import NotTrainTrackError
from .graph import Turn, equivalence_classes, turn, turns_of_path
from .graph_map import GraphSelfMap


def _df_orbit_merges(f: GraphSelfMap) -> list[tuple[int, int]]:
    """Pairs of darts (same origin) identified by some power of Df.

    Df^t for t up to 2 * num_darts suffices: past that, dart orbits have
    entered their cycles, so no new coincidences appear.
    """
    g = f.graph
    nd = g.num_darts
    df = f.derivative_table
    merges = []
    current = list(range(nd))
    for _ in range(2 * nd):
        current = [df[d] for d in current]
        seen: dict[tuple[int, int], int] = {}
        for d in range(nd):
            key = (g.origin(d), current[d])
            if key in seen:
                merges.append((seen[key], d))
            else:
                seen[key] = d
    return merges


@dataclass(frozen=True)
class Gates:
    """Partition of the darts at each vertex into gates."""

    gate_of: tuple[int, ...]           # dart -> gate id (global numbering)
    members: tuple[tuple[int, ...], ...]  # gate id -> sorted darts
    vertex_of_gate: tuple[int, ...]

    def same_gate(self, d1: int, d2: int) -> bool:
        return self.gate_of[d1] == self.gate_of[d2]

    def gates_at(self, v: int) -> list[int]:
        return [gid for gid, w in enumerate(self.vertex_of_gate) if w == v]

    def num_gates_at(self, v: int) -> int:
        return len(self.gates_at(v))


def gates(f: GraphSelfMap) -> Gates:
    g = f.graph
    nd = g.num_darts
    members = equivalence_classes(range(nd), _df_orbit_merges(f))
    gate_of = [0] * nd
    for gid, darts in enumerate(members):
        for d in darts:
            gate_of[d] = gid
    vertex_of_gate = tuple(g.origin(darts[0]) for darts in members)
    return Gates(tuple(gate_of), tuple(members), vertex_of_gate)


def is_legal_turn(f: GraphSelfMap, t: Turn, gate_table: Gates | None = None) -> bool:
    """Legal iff non-degenerate and the two darts sit in distinct gates."""
    if t[0] == t[1]:
        return False
    gt = gate_table if gate_table is not None else gates(f)
    return not gt.same_gate(t[0], t[1])


def turn_image(f: GraphSelfMap, t: Turn) -> Turn:
    """The induced map on turns: apply Df to both darts."""
    df = f.derivative_table
    return turn(df[t[0]], df[t[1]])


def ilt_count(f: GraphSelfMap, path: Sequence[int], gate_table: Gates | None = None) -> int:
    """Number of illegal turns crossed by the path, with multiplicity."""
    gate_of = (gate_table if gate_table is not None else gates(f)).gate_of
    return sum(1 for a, b in zip(path, path[1:]) if gate_of[a ^ 1] == gate_of[b])


def legal_segments(f: GraphSelfMap, path: Sequence[int], gate_table: Gates | None = None) -> list[int]:
    """Lengths (in darts) of the maximal legal subpaths, in order."""
    gate_of = (gate_table if gate_table is not None else gates(f)).gate_of
    if not path:
        return []
    runs = []
    cur = 1
    for a, b in zip(path, path[1:]):
        if gate_of[a ^ 1] == gate_of[b]:
            runs.append(cur)
            cur = 1
        else:
            cur += 1
    runs.append(cur)
    return runs


@dataclass(frozen=True)
class TurnTable:
    """Per-turn book-keeping for one map: legality, usage, turn image."""

    turns: tuple[Turn, ...]
    legal: dict[Turn, bool]
    used: frozenset[Turn]
    image: dict[Turn, Turn]

    def used_illegal(self) -> list[Turn]:
        return [t for t in self.used if not self.legal[t]]


def used_turns(f: GraphSelfMap) -> frozenset[Turn]:
    """Turns crossed by some iterated edge image.

    Seed with the turns crossed by the (forward) edge images, then close
    under the induced turn map.  Reversed images cross the same unordered
    turns, so forward darts suffice for the seed.
    """
    seed: set[Turn] = set()
    for img in f.edge_image:
        seed |= set(turns_of_path(img))
    frontier = list(seed)
    closed = set(seed)
    while frontier:
        t = frontier.pop()
        ti = turn_image(f, t)
        if ti not in closed:
            closed.add(ti)
            frontier.append(ti)
    return frozenset(closed)


def turn_table(f: GraphSelfMap) -> TurnTable:
    from .graph import all_turns

    gt = gates(f)
    ts = tuple(all_turns(f.graph))
    legal = {t: is_legal_turn(f, t, gt) for t in ts}
    used = used_turns(f)
    image = {t: turn_image(f, t) for t in ts}
    return TurnTable(ts, legal, used, image)


def is_train_track(f: GraphSelfMap) -> bool:
    """Every used turn is legal (equivalently, all [f^n(e)] stay reduced)."""
    gt = gates(f)
    return all(is_legal_turn(f, t, gt) for t in used_turns(f))


def require_train_track(f: GraphSelfMap) -> None:
    if not is_train_track(f):
        bad = sorted(t for t in used_turns(f) if not is_legal_turn(f, t))
        names = [f"({f.graph.dart_name(a)}, {f.graph.dart_name(b)})" for a, b in bad[:4]]
        raise NotTrainTrackError(f"used turns are degenerate under Df iterates: {', '.join(names)}")


def two_gates_everywhere(f: GraphSelfMap) -> bool:
    """At least two gates at every vertex (needed for local injectivity on rays)."""
    gt = gates(f)
    return all(gt.num_gates_at(v) >= 2 for v in range(f.graph.num_vertices))
