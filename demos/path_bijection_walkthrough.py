#!/usr/bin/env python3
"""Step through the bijection between decorated matchings and labeled
2-colored Schroeder paths on a 12-vertex instance.

Pure openers become rises, pure closers falls; a wiggly pair becomes a
color-1 long level step and a dashed pair a color-2 one.  The label on a
closing step records which of the currently open arches is being closed
(counted in increasing order of opener); a dashed pair that closes its own
arch takes the one out-of-range label h+1.
"""

from wardcf.matchings import (
    PerfectMatching,
    SuperMatching,
    cr,
    enumerate_super,
    format_matching,
    ne,
)
from wardcf.paths import (
    enumerate_labeled_schroeder2,
    format_path,
    matching_to_path,
    path_to_matching,
    verify_heights,
    verify_statistics,
)

example = SuperMatching(
    PerfectMatching.from_pairs([(1, 4), (2, 8), (3, 5), (6, 12), (7, 11), (9, 10)]),
    wiggly=[5],
    dashed=[3, 9],
)
print("matching:", format_matching(example))

lp = matching_to_path(example)
print("path:    ", format_path(lp))
print("heights: ", lp.path.heights)

# Per-step narration.
print("\nstep by step:")
for i, step in enumerate(lp.path.steps, start=1):
    if step is None:
        continue
    h = lp.path.heights[i - 1]
    xi = lp.labels[i - 1]
    kind = {"R": "rise", "F": "fall", "W": "wiggly level", "D": "dashed level"}[step]
    print(f"    s_{i:<2} {kind:13s} from height {h}, label {xi}")

# The label and the height at a closing vertex encode its crossing and
# nesting counts exactly: cr = h - label, ne = label - 1 (falls and wiggly
# levels), shifted by one for dashed levels.
k = 8  # the fall at vertex 8
print(f"\nvertex {k}: cr = {cr(k, example.base)}, ne = {ne(k, example.base)};"
      f" path h = {lp.path.heights[k - 1]}, label = {lp.labels[k - 1]}")

assert path_to_matching(lp) == example
assert verify_heights(example, lp.path) and verify_statistics(example)
print("\nround trip and statistic translation verified on the instance")

# Exhaustively for all sizes up to 4, the map is a bijection onto exactly
# the label vectors bounded by A=1, B_k=k, C1_k=k, C2_k=k+1.
for n in range(5):
    image = {matching_to_path(sm) for sm in enumerate_super(n)}
    assert image == set(enumerate_labeled_schroeder2(2 * n))
print("image characterization verified exhaustively for n <= 4")
