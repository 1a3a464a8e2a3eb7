"""The space of rooted four-leaf trees as a two-dimensional stratified space.

Coordinates are *splits*: clusters of leaves cut off by an interior edge,
read from the root side.  Over four leaves there are exactly 10 valid
clusters (6 pairs, 4 triples), one coordinate half-axis each.  Two splits
are compatible when nested or disjoint; each compatible pair spans one of
the 15 Euclidean quadrants, glued along shared axes.  The axis/quadrant
incidence graph is the Petersen graph (10 vertices, 15 edges, 3-regular,
girth 5), and the whole space is the one-sheet cone over it, with the
star tree at the origin.

Geodesics: with the piecewise-Euclidean metric the space is CAT(0) (means
are unique).  The distance between two points is the minimum of

* the straight segment, when one closed quadrant contains both points,
* straight segments in unfoldings of 2 or 3 consecutive quadrants along
  Petersen-graph paths, valid while the unfolded angle stays below pi
  (every split axis is crossed at a nonnegative radius exactly then), and
* the cone path through the origin, of length ``|x| + |y|``.

Unfoldings of four or more quadrants always span at least pi, so the cone
path dominates them; enumeration over short Petersen paths is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import EmptySampleError, NotInBookError, UndefinedProjectionError
from .openbook import OpenBookPoint, OpenBookSample, SpineStickinessReport, openbook_mean
from .spider import validate_weights

__all__ = [
    "Quadrant",
    "T4Point",
    "T4Sample",
    "T4MeanEstimate",
    "Stratum",
    "PetersenProjection",
    "all_splits",
    "compatible",
    "enumerate_quadrants",
    "t4_distance",
    "geodesic_point",
    "frechet_function",
    "t4_mean",
    "stratum_of",
    "book_partners",
    "spine_stickiness_t4",
    "petersen_projection",
    "tree_type_newick",
]

_HALF_PI = math.pi / 2.0


def _split_key(split: frozenset):
    return (len(split), tuple(sorted(split)))


def all_splits(labels) -> list[frozenset]:
    """The 10 clusters (6 pairs + 4 triples) over four leaf labels."""
    labels = tuple(sorted(labels))
    if len(labels) != 4 or len(set(labels)) != 4:
        raise ValueError("exactly four distinct labels required")
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(frozenset((labels[i], labels[j])))
    for i in range(4):
        out.append(frozenset(labels) - {labels[i]})
    return sorted(out, key=_split_key)


def compatible(a: frozenset, b: frozenset) -> bool:
    """Splits are compatible when their clusters are nested or disjoint."""
    return a <= b or b <= a or not (a & b)


@dataclass(frozen=True)
class Quadrant:
    """A top-dimensional stratum: an unordered compatible pair of splits."""

    axes: tuple[frozenset, frozenset]

    def __post_init__(self):
        a, b = sorted(self.axes, key=_split_key)
        if a == b or not compatible(a, b):
            raise ValueError("a quadrant needs two distinct compatible splits")
        object.__setattr__(self, "axes", (a, b))

    def __contains__(self, split: frozenset) -> bool:
        return split in self.axes


def enumerate_quadrants(labels=(1, 2, 3, 4)) -> list[Quadrant]:
    """All 15 quadrants; every split is an axis of exactly 3 of them."""
    splits = all_splits(labels)
    out = []
    for i, a in enumerate(splits):
        for b in splits[i + 1 :]:
            if compatible(a, b):
                out.append(Quadrant((a, b)))
    return out


class _Geometry:
    """Cached combinatorics of the split axes for one label universe."""

    def __init__(self, labels: tuple):
        self.labels = labels
        self.splits = all_splits(labels)
        self.adjacency = {
            s: tuple(t for t in self.splits if t != s and compatible(s, t))
            for s in self.splits
        }
        # ordered simple Petersen paths with 1..3 edges, keyed by first edge
        self.paths_by_first: dict[tuple, list[tuple]] = {}
        for e0 in self.splits:
            for e1 in self.adjacency[e0]:
                paths = [(e0, e1)]
                for e2 in self.adjacency[e1]:
                    if e2 in (e0, e1):
                        continue
                    paths.append((e0, e1, e2))
                    for e3 in self.adjacency[e2]:
                        if e3 in (e0, e1, e2):
                            continue
                        paths.append((e0, e1, e2, e3))
                self.paths_by_first[(e0, e1)] = paths


@lru_cache(maxsize=None)
def _geometry(labels: tuple) -> _Geometry:
    return _Geometry(labels)


class T4Point:
    """A tree-space point: at most two compatible splits with positive lengths.

    Zero lengths are dropped, so the empty coordinate map is the star tree
    (origin).  ``labels`` fixes the leaf universe and is kept sorted.
    """

    __slots__ = ("labels", "_items")

    def __init__(self, labels, coords=None):
        labels = tuple(sorted(labels))
        if len(labels) != 4 or len(set(labels)) != 4:
            raise ValueError("exactly four distinct labels required")
        universe = set(labels)
        items = []
        pairs = coords.items() if hasattr(coords, "items") else (coords or ())
        for cluster, length in pairs:
            cluster = frozenset(cluster)
            length = float(length)
            if not math.isfinite(length) or length < 0:
                raise ValueError(f"split length must be finite and >= 0: {length}")
            if length == 0.0:
                continue
            if not (2 <= len(cluster) <= 3) or not cluster <= universe:
                raise ValueError(f"invalid cluster {set(cluster)}")
            items.append((cluster, length))
        items.sort(key=lambda cl: _split_key(cl[0]))
        if len(items) > 2:
            raise ValueError("a four-leaf tree has at most two interior edges")
        if len(set(c for c, _ in items)) != len(items):
            raise ValueError("repeated cluster")
        if len(items) == 2 and not compatible(items[0][0], items[1][0]):
            raise ValueError(
                f"incompatible splits {set(items[0][0])} and {set(items[1][0])}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_items", tuple(items))

    @property
    def support(self) -> tuple[frozenset, ...]:
        return tuple(c for c, _ in self._items)

    @property
    def coords(self) -> dict:
        return {c: l for c, l in self._items}

    def get(self, split: frozenset) -> float:
        for c, l in self._items:
            if c == split:
                return l
        return 0.0

    def norm(self) -> float:
        return math.sqrt(sum(l * l for _, l in self._items))

    @property
    def is_origin(self) -> bool:
        return not self._items

    def __eq__(self, other):
        return (
            isinstance(other, T4Point)
            and self.labels == other.labels
            and self._items == other._items
        )

    def __hash__(self):
        return hash((self.labels, self._items))

    def __repr__(self):
        if not self._items:
            return "T4Point(origin)"
        parts = ", ".join(
            "{%s}:%g" % ("|".join(map(str, sorted(c))), l) for c, l in self._items
        )
        return f"T4Point({parts})"

    def to_dict(self) -> dict:
        return {
            "splits": [
                {"cluster": sorted(c), "length": l} for c, l in self._items
            ]
        }

    @classmethod
    def from_dict(cls, obj: dict, labels) -> "T4Point":
        coords = {frozenset(s["cluster"]): s["length"] for s in obj["splits"]}
        return cls(labels, coords)


def origin(labels) -> T4Point:
    return T4Point(labels, {})


@dataclass(frozen=True)
class T4Sample:
    """Sample of tree-space points over one shared label universe."""

    labels: tuple
    points: tuple[T4Point, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))
        object.__setattr__(self, "points", tuple(self.points))
        for pt in self.points:
            if pt.labels != self.labels:
                raise ValueError("all points must share the sample's labels")
        if self.weights is not None:
            w = validate_weights(self.weights, len(self.points))
            object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    def normalized_weights(self) -> np.ndarray:
        if self.weights is None:
            n = len(self.points)
            return np.full(n, 1.0 / n) if n else np.empty(0)
        return np.asarray(self.weights)

    def to_dict(self) -> dict:
        out = {
            "labels": list(self.labels),
            "points": [pt.to_dict() for pt in self.points],
        }
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "T4Sample":
        labels = tuple(obj["labels"])
        pts = tuple(T4Point.from_dict(o, labels) for o in obj["points"])
        weights = obj.get("weights")
        return cls(labels, pts, tuple(weights) if weights else None)


# --------------------------------------------------------------------------
# geodesics
# --------------------------------------------------------------------------

def _first_pairs(geom: _Geometry, support) -> list[tuple]:
    if len(support) == 2:
        e, f = support
        return [(e, f), (f, e)]
    (e,) = support
    out = []
    for t in geom.adjacency[e]:
        out.append((e, t))
        out.append((t, e))
    return out


def _route(x: T4Point, y: T4Point):
    """Shortest route between two points: (length, kind, payload)."""
    if x.labels != y.labels:
        raise ValueError("points live over different label universes")
    union = set(x.support) | set(y.support)
    if len(union) <= 1 or (len(union) == 2 and compatible(*union)):
        axes = sorted(union, key=_split_key)
        d = math.sqrt(sum((x.get(e) - y.get(e)) ** 2 for e in axes))
        return d, "segment", tuple(axes)
    rx, ry = x.norm(), y.norm()
    best = (rx + ry, "cone", None)
    geom = _geometry(x.labels)
    sy = set(y.support)
    for first in _first_pairs(geom, x.support):
        for path in geom.paths_by_first[first]:
            if not sy <= {path[-2], path[-1]}:
                continue
            alpha = math.atan2(x.get(path[1]), x.get(path[0]))
            k = len(path) - 1
            beta = (k - 1) * _HALF_PI + math.atan2(
                y.get(path[-1]), y.get(path[-2])
            )
            span = beta - alpha
            if span >= math.pi:
                continue
            cand = math.sqrt(
                max(rx * rx + ry * ry - 2.0 * rx * ry * math.cos(span), 0.0)
            )
            if cand < best[0]:
                best = (cand, "unfold", (path, alpha, beta))
    return best


def t4_distance(x: T4Point, y: T4Point) -> float:
    """Geodesic distance; never exceeds the cone-path bound ``|x| + |y|``."""
    return _route(x, y)[0]


def geodesic_point(x: T4Point, y: T4Point, t: float) -> T4Point:
    """Point at arclength fraction ``t`` along the geodesic from x to y."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    length, kind, payload = _route(x, y)
    labels = x.labels
    if kind == "segment":
        coords = {e: (1.0 - t) * x.get(e) + t * y.get(e) for e in payload}
        return T4Point(labels, coords)
    if kind == "unfold":
        path, alpha, beta = payload
        rx, ry = x.norm(), y.norm()
        qx = (1.0 - t) * rx * math.cos(alpha) + t * ry * math.cos(beta)
        qy = (1.0 - t) * rx * math.sin(alpha) + t * ry * math.sin(beta)
        r = math.hypot(qx, qy)
        ang = math.atan2(qy, qx)
        if ang < 0.0:  # unfolded wedges may span past pi; unwrap
            ang += 2.0 * math.pi
        ang = min(max(ang, alpha), beta)
        k = len(path) - 1
        j = min(max(int(ang // _HALF_PI), 0), k - 1)
        phi = ang - j * _HALF_PI
        c1, c2 = r * math.cos(phi), r * math.sin(phi)
        eps = 1e-12 * max(r, 1.0)
        coords = {}
        if c1 > eps:
            coords[path[j]] = c1
        if c2 > eps:
            coords[path[j + 1]] = c2
        return T4Point(labels, coords)
    # cone path through the origin
    rx, ry = x.norm(), y.norm()
    s = t * length
    if s <= rx:
        scale = (rx - s) / rx
        return T4Point(labels, {e: scale * x.get(e) for e in x.support})
    scale = (s - rx) / ry
    return T4Point(labels, {e: scale * y.get(e) for e in y.support})


def frechet_function(x: T4Point, sample: T4Sample) -> float:
    """Weighted mean squared geodesic distance from ``x`` to the sample."""
    if not sample.points:
        raise EmptySampleError("empty sample")
    wts = sample.normalized_weights()
    return float(
        sum(w * t4_distance(x, pt) ** 2 for w, pt in zip(wts, sample.points))
    )


# --------------------------------------------------------------------------
# intrinsic mean
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class T4MeanEstimate:
    """Mean point plus convergence diagnostics of the estimation run."""

    mean: T4Point
    frechet_value: float
    last_epoch_movement: float
    epochs_run: int
    converged: bool
    method: str
    polish_shift: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.to_dict(),
            "frechet_value": self.frechet_value,
            "last_epoch_movement": self.last_epoch_movement,
            "epochs_run": self.epochs_run,
            "converged": self.converged,
            "method": self.method,
            "polish_shift": self.polish_shift,
        }


def _fits_one_quadrant(splits: set) -> bool:
    if len(splits) <= 1:
        return True
    if len(splits) > 2:
        return False
    return compatible(*splits)


def _snap_point(labels, coords: dict, eps: float = 1e-9) -> T4Point:
    return T4Point(labels, {e: v for e, v in coords.items() if v > eps})


def t4_mean(
    sample: T4Sample,
    epochs: int = 50,
    seed: int = 0,
    movement_tol: float = 1e-8,
    polish: bool = True,
) -> T4MeanEstimate:
    """Frechet mean of a tree-space sample (unique: the space is CAT(0)).

    When all points share one closed quadrant the mean is the coordinate
    mean there, computed exactly.  Otherwise an inductive pass walks the
    sample in seeded shuffled order, pulling the estimate along geodesics
    with step ``1/(k+1)``, for up to ``epochs`` passes or until the
    estimate moves less than ``movement_tol`` within a pass.  A convex
    polish then minimizes the Frechet value over every closed quadrant
    (the restriction is convex there), which makes the result effectively
    seed-independent.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not sample.points:
        raise EmptySampleError("cannot average an empty sample")
    labels = sample.labels
    wts = sample.normalized_weights()

    union = set()
    for pt in sample.points:
        union |= set(pt.support)
    if _fits_one_quadrant(union):
        coords = {
            e: float(sum(w * pt.get(e) for w, pt in zip(wts, sample.points)))
            for e in union
        }
        mean = _snap_point(labels, coords, eps=0.0)
        return T4MeanEstimate(
            mean, frechet_function(mean, sample), 0.0, 0, True, "euclidean"
        )

    rng = np.random.default_rng(seed)
    n = len(sample.points)
    uniform = sample.weights is None
    current: T4Point | None = None
    count = 0
    movement = math.inf
    epochs_run = 0
    converged = False
    for _ in range(epochs):
        order = (
            rng.permutation(n)
            if uniform
            else rng.choice(n, size=n, p=wts, replace=True)
        )
        start = current
        for idx in order:
            pt = sample.points[int(idx)]
            if current is None:
                current = pt
                count = 1
            else:
                current = geodesic_point(current, pt, 1.0 / (count + 1))
                count += 1
        epochs_run += 1
        if start is not None:
            movement = t4_distance(start, current)
            if movement < movement_tol:
                converged = True
                break

    current = _snap_point(labels, current.coords)
    best_point = current
    best_value = frechet_function(current, sample)
    method = "inductive"
    if polish:
        from scipy.optimize import minimize  # deferred: a slow import few commands need

        geom = _geometry(labels)
        candidates = [(frechet_function(origin(labels), sample), origin(labels))]
        for i, e in enumerate(geom.splits):
            for f in geom.splits[i + 1 :]:
                if not compatible(e, f):
                    continue

                def fun(v, e=e, f=f):
                    coords = {}
                    if v[0] > 0:
                        coords[e] = v[0]
                    if v[1] > 0:
                        coords[f] = v[1]
                    return frechet_function(T4Point(labels, coords), sample)

                x0 = np.array([max(current.get(e), 0.0), max(current.get(f), 0.0)])
                res = minimize(
                    fun,
                    x0,
                    method="L-BFGS-B",
                    bounds=[(0.0, None), (0.0, None)],
                    options={"maxiter": 100},
                )
                pt = _snap_point(labels, {e: float(res.x[0]), f: float(res.x[1])})
                candidates.append((frechet_function(pt, sample), pt))
        val, pt = min(candidates, key=lambda c: c[0])
        # prefer the deterministic polished point on ties
        if val <= best_value:
            best_value, best_point = val, pt
            method = "inductive+polish"
    shift = t4_distance(current, best_point)
    return T4MeanEstimate(
        best_point, best_value, movement, epochs_run, converged, method, shift
    )


# --------------------------------------------------------------------------
# strata, open-book neighborhoods, Petersen projection
# --------------------------------------------------------------------------

class Stratum(Enum):
    TOP2D = "top2d"
    ONE_D = "one_d"
    ORIGIN = "origin"


def stratum_of(x: T4Point) -> Stratum:
    """Which stratum a point belongs to, by its number of active splits."""
    k = len(x.support)
    if k == 2:
        return Stratum.TOP2D
    if k == 1:
        return Stratum.ONE_D
    return Stratum.ORIGIN


def book_partners(axis: frozenset, labels) -> tuple[frozenset, ...]:
    """The three splits spanning a quadrant with ``axis``, in canonical order.

    These are the leaves of the open book around the axis; the axis itself
    is the spine.
    """
    axis = frozenset(axis)
    geom = _geometry(tuple(sorted(labels)))
    if axis not in geom.adjacency:
        raise ValueError(f"{set(axis)} is not a split over {labels}")
    return tuple(sorted(geom.adjacency[axis], key=_split_key))


def spine_stickiness_t4(
    sample: T4Sample, axis: frozenset, tolerance: float = 0.0
) -> SpineStickinessReport:
    """Spine-stickiness analysis of a sample living around one axis.

    Every point must lie in one of the three quadrants incident to
    ``axis`` (or on the axis itself); the sample is mapped onto the open
    book with the axis as spine (leaves numbered by canonical partner
    order, see :func:`book_partners`) and classified there.
    """
    axis = frozenset(axis)
    partners = book_partners(axis, sample.labels)
    pts = []
    for pt in sample.points:
        extra = [e for e in pt.support if e != axis]
        if not extra:
            pts.append(OpenBookPoint(None, pt.get(axis), 0.0))
        elif len(extra) == 1 and extra[0] in partners:
            leaf = partners.index(extra[0]) + 1
            pts.append(OpenBookPoint(leaf, pt.get(axis), pt.get(extra[0])))
        else:
            raise NotInBookError(
                f"{pt!r} lies outside the open book around {set(axis)}"
            )
    book = OpenBookSample(tuple(pts), sample.weights)
    return openbook_mean(book, tolerance)


@dataclass(frozen=True)
class PetersenProjection:
    """Central projection of a point onto the Petersen graph.

    ``splits`` holds one split for a vertex hit, two for an edge hit;
    ``s`` is the angular fraction from the first split toward the second
    (0 at a vertex), and ``radius`` the distance to the origin.
    """

    splits: tuple
    s: float
    radius: float

    @property
    def kind(self) -> str:
        return "vertex" if len(self.splits) == 1 else "edge"


def petersen_projection(x: T4Point) -> PetersenProjection:
    """Project a nonzero point radially onto the Petersen graph."""
    if x.is_origin:
        raise UndefinedProjectionError("the origin has no radial projection")
    r = x.norm()
    support = x.support
    if len(support) == 1:
        return PetersenProjection((support[0],), 0.0, r)
    e, f = support  # already canonically sorted
    s = math.atan2(x.get(f), x.get(e)) / _HALF_PI
    return PetersenProjection((e, f), s, r)


def tree_type_newick(labels, splits) -> str:
    """Newick-style topology string (no lengths) of a split set.

    ``splits`` may be a :class:`T4Point`, a mapping, or an iterable of
    clusters.  Example: clusters {a,b} and {a,b,c} give
    ``(((a,b),c),d)``; no clusters give the star ``(a,b,c,d)``.
    """
    if isinstance(splits, T4Point):
        clusters = list(splits.support)
    elif hasattr(splits, "keys"):
        clusters = [frozenset(c) for c in splits.keys()]
    else:
        clusters = [frozenset(c) for c in splits]
    groups = [(frozenset([lb]), str(lb)) for lb in sorted(labels)]
    for cluster in sorted(clusters, key=len):
        inside = [g for g in groups if g[0] <= cluster]
        outside = [g for g in groups if not g[0] <= cluster]
        merged_set = frozenset().union(*(g[0] for g in inside))
        inner = ",".join(g[1] for g in sorted(inside, key=lambda g: min(g[0])))
        groups = outside + [(merged_set, f"({inner})")]
    groups.sort(key=lambda g: min(g[0]))
    return "(" + ",".join(g[1] for g in groups) + ")"
