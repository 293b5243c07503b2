"""Transition matrices, growth rates, and the metric they induce.

Run from the repository root:

    python3 demos/spectral_tour.py
"""

from pathlib import Path

import numpy as np

from ttlam import (
    charpoly_coefficients,
    is_primitive,
    parse_map_path,
    pf_data,
    transition_matrix,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

f = parse_map_path(str(FIXTURES / "tribonacci.tt")).map
g = f.graph

# -- the transition matrix -----------------------------------------------------------

# M[i][j] counts how often edge j's image crosses edge i, in either
# direction.  Column sums are the image lengths.
m = transition_matrix(f)
print("M =")
print(m)
print("column sums:", m.sum(axis=0), "=", [len(p) for p in f.edge_image])

# Primitive means some power is strictly positive: every edge eventually
# maps over every other.
print("primitive:", is_primitive(m))
print("M^6 =")
print(np.linalg.matrix_power(m, 6))

# -- growth rate ------------------------------------------------------------------------

# The characteristic polynomial here is x^3 - x - 1 and the growth rate is
# its real root, about 1.3247 (the smallest possible for rank 3).
print("\ncharpoly coefficients:", charpoly_coefficients(m))
lam = pf_data(f).lam
print("growth rate:", lam)

# Edge lengths grow like lam^t; the ratio of consecutive total lengths
# converges to lam.  The map keeps the exact lengths |f^t(e)|, the column
# sums of M^t, in its store of iterates.
lengths = f.edge_iterates.lengths
prev = None
for t in (5, 10, 15, 20, 25):
    total = sum(lengths(t))
    if prev is not None:
        print(f"t={t:2d}  total={total:8d}  ratio^(1/5)={(total / prev) ** 0.2:.9f}")
    prev = total

# The powers are exact integers, so growth can be read far beyond float
# range without losing a digit.
big = sum(lengths(300))
print("digits of total length at t=300:", len(str(big)))

# -- the eigenvector metric ---------------------------------------------------------

# The left eigenvector assigns each edge a length that the map scales by
# exactly lam.  Normalized to total volume 1, it also bounds how much
# cancellation one application of f can cause, and that bound turns into
# the illegality constant used by the lamination demos.
pf = pf_data(f)
print("\npf lengths:", [round(x, 6) for x in pf.pf_lengths])
for i, e in enumerate(g.edge_names):
    img_len = pf.pf_length(f.edge_image[i])
    print(f"  |f({e})| = {img_len:.12f} = lam * {pf.pf_lengths[i]:.12f}")
print("volume:", pf.vol_pf)
print("cancellation bound (pf metric):", pf.bbt_bound)
print("illegality constant:", pf.c_illegal)

# -- a non-primitive contrast ---------------------------------------------------------

h = parse_map_path(str(FIXTURES / "reducible.tt")).map
mh = transition_matrix(h)
print("\nreducible fixture:")
print(mh)
print("primitive:", is_primitive(mh))
# The zero block never fills in: c maps over a and b, but no other edge
# ever maps over c, and the (a, b) block just runs fibonacci on its own.
