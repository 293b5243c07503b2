"""Find the paths a map cannot shrink: indivisible periodic Nielsen paths.

Run from the repository root:

    python3 demos/nielsen_tour.py
"""

from pathlib import Path

from ttlam import (
    detect_inps,
    eigenray_prefix,
    ilt_count,
    parse_map_path,
    periodic_structures,
    pf_data,
    stability_verdict,
    subdivide_at,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

f = parse_map_path(str(FIXTURES / "fibonacci.tt")).map
g = f.graph

# -- periodic directions and eigenrays -----------------------------------------------

# A dart is eigen when some power of the derivative map fixes it.  Sliding
# along its images forever produces an eigenray, the local picture of an
# attracting lamination leaf.
pd = periodic_structures(f)
print("eigen darts and periods:")
for d, period in pd.dart_period.items():
    print(f"  {g.dart_name(d)}: period {period}")
ray = eigenray_prefix(f, 0, 24)
print("ray from a:", g.path_str(ray))

# -- detecting the Nielsen path -------------------------------------------------------

# The golden-ratio map carries exactly one indivisible Nielsen path: the
# commutator loop a~ b~ a b.  It is reduced, crosses exactly one illegal
# turn at its tip, and f^2 brings it back to itself on the nose.
rep = detect_inps(f)
print(f"\nINP search (window {rep.window}, conclusive: {rep.conclusive})")
for inp in rep.inps:
    word = g.path_str(inp.path)
    print(f"  {word}   period {inp.period}, tip at {inp.tip_index}, closed: {inp.closed}")
    assert ilt_count(f, inp.path) == 1
    w = inp.path
    for _ in range(inp.period):
        w = f.apply(w)
    assert w == inp.path

# The two legal halves are exchanged (up to orientation) by the map, and
# they balance exactly in the eigenvector metric.
inp = rep.inps[0]
alpha, beta = inp.halves()
pf = pf_data(f)
print("halves:", g.path_str(alpha), "|", g.path_str(beta))
print(f"pf lengths: {pf.pf_length(alpha):.12f} vs {pf.pf_length(beta):.12f}")

# -- interior periodic points and subdivision ------------------------------------

# Points fixed by a power of f in the interior of an edge give finer
# vertices to cut at.  Cutting along one full orbit keeps the map
# simplicial and keeps the train track property.  The INP search above
# already cut at the interior orbit of smallest period; here is that orbit.
orbit = rep.subdivision.orbit
print("\ninterior periodic orbit the search subdivided at:")
for p in orbit:
    print(f"  edge {g.edge_names[p.edge]}, iterate {p.exponent}, index {p.index}, period {p.period}")

sub = subdivide_at(f, orbit[0])
h = sub.map
print("subdivision:", dict(sub.edge_split))
print("new vertices:", sub.new_vertices)
for i, e in enumerate(h.graph.edge_names):
    print(f"  {e} -> {h.graph.path_str(h.edge_image[i])}")

# The Nielsen path survives subdivision, now crossing subedges.
print("subdivided INPs:")
for inp in rep.subdivided_inps:
    print("  " + rep.subdivision.map.graph.path_str(inp.path))

# -- stability ---------------------------------------------------------------------------

# A closed INP is an honest conjugacy invariant: this map is stable in
# every other sense, but the check reports the loop so callers know the
# automorphism has a periodic conjugacy class (here, the commutator).  The
# verdict is read from the INP report found above.
st = stability_verdict(f, rep)
print(f"\nstability: {st.status}")
print("reason:", st.reason)

# Maps without INPs pass clean.
t = parse_map_path(str(FIXTURES / "tribonacci.tt")).map
st = stability_verdict(t, detect_inps(t))
print("tribonacci:", st.status, "-", st.reason)
