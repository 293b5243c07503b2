"""Build a graph self-map by hand and inspect its combinatorial structure.

Run from the repository root:

    python3 demos/structure_tour.py
"""

from pathlib import Path

from ttlam import (
    Graph,
    GraphSelfMap,
    all_turns,
    gates,
    is_legal_turn,
    is_train_track,
    parse_map_path,
    two_gates_everywhere,
    used_turns,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- a rank-3 rose and the tribonacci substitution --------------------------------

# One vertex, three loops.  Darts come in pairs: dart 2i runs the edge
# forward, dart 2i+1 runs it backward, and names show the backward
# direction with a ~ suffix.
g = Graph.build(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
print("graph:", g.vertex_names, g.edge_names)
print("darts:", [g.dart_name(d) for d in g.darts()])

f = GraphSelfMap.build(g, {"a": "b", "b": "c", "c": "a b"})
print("\nedge images:")
for i, e in enumerate(g.edge_names):
    print(f"  {e} -> {g.path_str(f.edge_image[i])}")

# Iterating the map stretches every edge; lengths follow the tribonacci
# recurrence L(t) = L(t-1) + L(t-3).
w = (0,)
for t in range(1, 9):
    w = f.apply(w)
    print(f"|f^{t}(a)| = {len(w)}")

# -- gates --------------------------------------------------------------------------

# Two darts share a gate when some power of the derivative map sends them
# to the same dart.  Legal turns are the pairs that end up in distinct
# gates; a turn inside one gate gets folded flat by iteration.
gt = gates(f)
print("\ngates at v:")
for members in gt.members:
    print("  {" + ", ".join(g.dart_name(d) for d in members) + "}")
assert two_gates_everywhere(f)

# -- turns: legal, used, and the train track condition --------------------------

# Each map builds its gates and used turns once and keeps them, so these
# lookups can be asked again and again at no extra cost.
turns = all_turns(g)
used = used_turns(f)
n_legal = sum(1 for t in turns if is_legal_turn(f, t))
print(f"\n{len(turns)} turns, {n_legal} legal, {len(used)} used")
print("used turns:", sorted(
    "(" + g.dart_name(t[0]) + "," + g.dart_name(t[1]) + ")" for t in used
))

# A map is a train track map when every used turn is legal: iteration then
# never creates cancellation inside an edge image.
print("train track:", is_train_track(f))
assert all(is_legal_turn(f, t) for t in used)

# -- the same questions, answered from a map file --------------------------------

mf = parse_map_path(str(FIXTURES / "reducible.tt"))
h = mf.map
print(f"\nloaded '{mf.name}' with assertions {mf.assertions}")
print("train track:", is_train_track(h))
print("gates:", [
    "{" + ", ".join(h.graph.dart_name(d) for d in m) + "}" for m in gates(h).members
])
# This one is a perfectly good train track map, but the spectral demo
# shows its transition matrix is not primitive: the subgraph {a, b} is
# invariant, so the map cannot be irreducible.
print("turns:", len(all_turns(h.graph)))
