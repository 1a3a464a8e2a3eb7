"""Geometry of the space of rooted four-leaf trees.

The space is a cone over the Petersen graph: 10 split axes, 15 Euclidean
quadrants glued along them.  This script enumerates that structure,
compares geodesics against the cone path through the origin, locates
Frechet means in easy and hard configurations, and writes the Petersen
projections that `treestats plot --format csv` writes.
"""

import math

from treestats import (
    T4Point,
    T4Sample,
    all_splits,
    compatible,
    spine_stickiness_t4,
    stratum_of,
    t4_distance,
    t4_mean,
    tree_type_newick,
)
from treestats.plots import petersen_csv

L = (1, 2, 3, 4)
P = lambda coords: T4Point(L, {frozenset(c): v for c, v in coords.items()})

print("=== Combinatorics ===")
splits = all_splits(L)
# a quadrant is spanned by two distinct compatible splits
quadrants = [(e, f) for i, e in enumerate(splits) for f in splits[i + 1:] if compatible(e, f)]
print(f"{len(splits)} split axes, {len(quadrants)} quadrants")
incidences = {tuple(sorted(s)): sum(1 for q in quadrants if s in q) for s in splits}
print("every axis bounds", set(incidences.values()), "quadrants (3-regular)")

print()
print("=== Geodesics: unfolding vs the cone path ===")
x = P({(1, 2): 1.0, (1, 2, 3): 1.0})
y = P({(1, 2): 1.0, (1, 2, 4): 1.0})
print("x =", x, " in tree form", tree_type_newick(L, x))
print("y =", y, " in tree form", tree_type_newick(L, y))
print("geodesic distance :", t4_distance(x, y))
print("cone-path bound   :", round(x.norm() + y.norm(), 6))
axis = P({(1, 2): 1.0})
print("via the shared axis:", t4_distance(x, axis), "+", t4_distance(axis, y))

a, b = P({(1, 2): 1.0}), P({(1, 3): 1.0})
print()
print("incompatible axes: d =", t4_distance(a, b),
      "(the geodesic passes through the star tree)")

print()
print("=== Frechet means ===")
one_quadrant = T4Sample(L, (
    P({(1, 2): 1.0, (1, 2, 3): 1.0}),
    P({(1, 2): 3.0, (1, 2, 3): 3.0}),
))
est = t4_mean(one_quadrant)
print("single-quadrant sample -> coordinate mean:", est.mean,
      "in the", stratum_of(est.mean).value, "stratum")

spread = T4Sample(L, (P({(1, 2): 1.0}), P({(1, 3): 1.0}), P({(2, 3): 1.0})))
est = t4_mean(spread)
print("three incompatible axes -> mean sticks to the origin:", est.mean,
      f"(Frechet value {est.frechet_value:.3f})")

print()
print("=== Spine stickiness inside an open-book neighborhood ===")
axis = frozenset({1, 2})
book_pts = tuple(
    P({tuple(axis): 1.0, tuple(partner): 0.8})
    for partner in (frozenset({3, 4}), frozenset({1, 2, 3}), frozenset({1, 2, 4}))
)
rep = spine_stickiness_t4(T4Sample(L, book_pts), axis)
print(f"symmetric sample around axis {set(axis)}: {rep.verdict},",
      f"spine coordinate {rep.x1_star:.3f}")

print()
print("=== Petersen projections, as `treestats plot --format csv` writes them ===")
print(petersen_csv(T4Sample(L, (
    P({(1, 2): 2.0}), P({(1, 2): 1.0, (3, 4): 1.0}),
    P({(1, 2): 1.0, (1, 2, 3): math.sqrt(3)}), P({}),
))), end="")
