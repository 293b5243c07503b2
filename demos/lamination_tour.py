"""Leaf languages, duality between a map and its inverse, and contraction.

Run from the repository root:

    python3 demos/lamination_tour.py
"""

from pathlib import Path

from ttlam import (
    dual_language,
    eigenray_equivalence,
    illegality_between,
    ilt_contraction,
    ilt_count,
    leaf_language,
    leaf_window,
    parse_map_path,
    singular_leaves,
    uniform_recurrence_check,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

fwd = parse_map_path(str(FIXTURES / "tribonacci.tt")).map
inv = parse_map_path(str(FIXTURES / "tribonacci-inv.tt")).map
g = fwd.graph

# -- the leaf language -------------------------------------------------------------

# Every length-n factor of every iterated edge image, closed under
# orientation flip.  This is the symbolic shadow of the attracting
# lamination: a shift space whose complexity grows linearly.
for n in (1, 2, 3, 4, 6, 8):
    lang = leaf_language(fwd, n)
    print(f"n={n}: {len(lang)} factors")
print("n=2 factors:", sorted(g.path_str(w) for w in leaf_language(fwd, 2)))

# -- uniform recurrence ---------------------------------------------------------------

# In a minimal shift every factor reappears in every sufficiently long
# window.  The check reports the first iterate by which every length-m
# factor occurs inside every edge image, and that it stays that way.
for m in (1, 2, 3, 4):
    rep = uniform_recurrence_check(fwd, m)
    print(f"m={m}: every factor in every f^t(e) from t={rep.witness} on "
          f"(conclusive: {rep.conclusive})")

# One equivalence class of gates at the periodic vertices is the
# whole-graph connectivity certificate behind irreducibility.
print("equivalence classes:", eigenray_equivalence(fwd).num_classes)

# -- singular leaves and the dual language ------------------------------------------

# Beyond the recurrent leaves, isolated leaves turn through legal but
# unused turns.  Their windows are almost legal: one special turn in the
# middle, legal everywhere else.
sing = singular_leaves(fwd)
print("\nsingular turn pairs:")
for leaf in sing.leaves:  # tribonacci has no INP, so every connector is a turn
    w = leaf_window(fwd, leaf, 12)
    print(f"  ({g.dart_name(leaf.entry)}, {g.dart_name(leaf.exit)}):  {g.path_str(w)}")

# The dual language collects leaf factors plus singular-leaf factors on
# the inverse-direction map.
for n in (4, 8, 16):
    print(f"dual n={n}: {len(dual_language(inv, n))} factors")

# -- duality through illegality --------------------------------------------------------

# Read the inverse map's dual leaves through the forward map's gates:
# every legal stretch stays below the forward illegality constant.  Leaves
# of one lamination are as crooked as possible for the other map.
prof = illegality_between(fwd, inv, 16)
print(f"\nlegal runs of the dual language, forward gates: max {prof.max_run}, "
      f"constant {prof.c_illegal}, all below: {prof.all_below}")
print("run histogram:", prof.histogram)

# The forward map's own leaves are the opposite extreme: fully legal.
own = illegality_between(fwd, fwd, 12, dual=False)
print(f"own leaves: every window is one legal run of {own.max_run}")

# -- contraction -------------------------------------------------------------------------

# Iterating the forward map on any word crushes its illegal turns: the
# count never increases and reaches <= 1 in bounded time (after trimming
# the ends, where cancellation can nibble).
w = sorted(dual_language(inv, 64))[0]
rep = ilt_contraction(fwd, w, steps=12)
print(f"\nilt series of one 64-window: {rep.series}")
print(f"reached <= 1 at step {rep.step_reached} (trim {rep.chop} per end)")
assert ilt_count(fwd, w) == rep.series[0]
