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
are unique).  Seen from a point x, in the frame of a closed quadrant that
holds it, a point y has one image per Petersen-graph path of 1 to 3 edges
from that quadrant to y's support: where y lies in the plane unfolding
the path's consecutive quadrants (a point of the frame is its own image).
The distance is the minimum of

* the straight segments to the images whose unfolded angle from x stays
  below pi (every split axis is crossed at a nonnegative radius exactly
  then), and
* the cone path through the origin, of length ``|x| + |y|``.

Unfoldings of four or more quadrants always span at least pi, so the cone
path dominates them; the short paths are exact.  ``_Geometry.image_tables``
holds these images, one table per frame; distances, geodesics, the
Frechet function and the mean all evaluate them through
``_QuadrantImages``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    EmptySampleError,
    InvalidParameterError,
    InvalidSampleError,
    NotInBookError,
    UndefinedProjectionError,
)
from .openbook import OpenBookSample, SpineStickinessReport, openbook_mean
from .spider import MAX_COORD, ArraySample, json_number, json_numbers, json_points

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
    return [Quadrant(q) for q in _geometry(tuple(sorted(labels))).quadrants]


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
        self.index = {s: i for i, s in enumerate(self.splits)}
        self.quadrants = [
            (e, f) for i, e in enumerate(self.splits) for f in self.splits[i + 1 :]
            if compatible(e, f)
        ]
        # support classes of points: the origin, the 10 axes, the 15 quadrants
        self.supports = [()] + [(s,) for s in self.splits] + self.quadrants
        self.support_class = {s: c for c, s in enumerate(self.supports)}
        # the frame of each class: the first quadrant that holds its support
        self.frames = [next(q for q, axes in enumerate(self.quadrants) if set(sup) <= set(axes))
                       for sup in self.supports]
        # split indices of each class's support, 10 for none, and back
        none = len(self.splits)
        self.pairs = np.array([([self.index[s] for s in sup] + [none, none])[:2]
                               for sup in self.supports])
        self.class_of = np.full((none + 1, none + 1), -1)  # -1: no point has that support
        self.class_of[tuple(self.pairs.T)] = np.arange(len(self.supports))

    @cached_property
    def image_tables(self) -> list[np.ndarray]:  # built when a distance needs them
        return [self._image_table(e, f) for e, f in self.quadrants]

    def _image_table(self, e, f) -> np.ndarray:
        """Image slots (support class, slot, 4) in the frame of quadrant (e, f).

        A point inside the closed quadrant is its own image; any other point
        has one image per path of ``paths_by_first`` that starts with (e, f)
        or (f, e) and whose last edge holds its support.  A slot holds the
        indices of the splits read as the image's local coordinates (the
        path's last edge), the quarter turns of the unfolding, and 1 for a
        clockwise one (first pair (f, e)).  Padding slots turn four quarters,
        past pi from any x, so they are never valid.
        """
        rows = [
            [(e, f, 0, 0)] if set(support) <= {e, f} else [
                (path[-2], path[-1], len(path) - 2, int(first == (f, e)))
                for first in ((e, f), (f, e))
                for path in self.paths_by_first[first]
                if set(support) <= {path[-2], path[-1]}
            ]
            for support in self.supports
        ]
        width = max(map(len, rows))
        return np.array([
            [(self.index[x], self.index[y], turns, cw) for x, y, turns, cw in row]
            + [(0, 0, 4, 0)] * (width - len(row))
            for row in rows
        ])


@lru_cache(maxsize=None)
def _geometry(labels: tuple) -> _Geometry:
    return _Geometry(labels)


_SUPPORT_RULE = "a four-leaf tree has at most two distinct compatible splits of 2 or 3 leaves"


class T4Point:
    """A tree-space point: at most two compatible splits with positive lengths.

    Zero lengths are dropped, so the empty coordinate map is the star tree
    (origin).  ``labels`` fixes the leaf universe and is kept sorted.
    """

    __slots__ = ("labels", "_items")

    def __init__(self, labels, coords=None):
        labels = tuple(sorted(labels))
        if len(labels) != 4 or len(set(labels)) != 4:
            raise InvalidSampleError("labels: exactly four distinct labels required")
        items = []
        pairs = coords.items() if hasattr(coords, "items") else (coords or ())
        for cluster, length in pairs:
            length = json_number(length, "splits: length")
            if not 0 <= length <= MAX_COORD:  # NaN fails too
                raise InvalidSampleError(
                    f"splits: length must be finite and in 0..{MAX_COORD:g}, got {length}")
            if length != 0.0:
                items.append((frozenset(cluster), length))
        geom = _geometry(labels)
        items.sort(key=lambda cl: geom.index.get(cl[0], -1))  # canonical order
        if tuple(c for c, _ in items) not in geom.support_class:
            raise InvalidSampleError(f"splits: {_SUPPORT_RULE}, got {[set(c) for c, _ in items]}")
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


def _is_labels(x) -> bool:
    """A JSON list of leaf labels (strings)."""
    return isinstance(x, list) and all(isinstance(label, str) for label in x)


class T4Sample(ArraySample):
    """Sample of tree-space points over one shared label universe, held as
    read-only arrays (see :class:`~treestats.spider.ArraySample`): ``codes``,
    each point's support class (0 the star tree, 1..10 an axis, 11..25 a
    quadrant: ``_Geometry.supports``), and ``coords`` (n, 2), the lengths of
    its support's splits in canonical order, 0 past them.
    ``T4Sample(labels, points, weights)`` takes :class:`T4Point` objects,
    :meth:`from_splits` split bitmasks and lengths.
    """

    _eq_fields = ("labels", "codes", "coords")

    def __init__(self, labels, points=(), weights=None):
        points, labels = tuple(points), tuple(sorted(labels))
        if any(pt.labels != labels for pt in points):
            raise ValueError("all points must share the sample's labels")
        rows = [[*pt._items, ((), 0.0), ((), 0.0)][:2] for pt in points]
        masks = [[sum(1 << labels.index(x) for x in c) for c, _ in row] for row in rows]
        lengths = [[length for _, length in row] for row in rows]
        self._set(labels, np.reshape(masks, (-1, 2)), np.reshape(lengths, (-1, 2)), weights)
        self.__dict__["points"] = points

    def _set(self, labels, masks, lengths, weights):
        """Check (n, w) arrays of split bitmasks and lengths and store them as
        support classes and coordinates; bit i of a mask is ``labels[i]``."""
        geom = _geometry(tuple(sorted(labels)))
        none = len(geom.splits)
        split_of = np.array([  # bit 4 and above name no label
            geom.index.get(frozenset(lb for i, lb in enumerate(labels) if m >> i & 1), none)
            for m in range(16)] + [none] * 16)
        pad = ((0, 0), (0, max(0, 2 - np.shape(masks)[1])))  # two columns at least
        masks, lengths = np.pad(masks, pad).astype(np.int64), np.pad(lengths, pad).astype(float)
        bad = ~((lengths >= 0) & (lengths <= MAX_COORD))  # NaN fails too
        kept = (lengths != 0) & ~bad
        split = np.where(kept, split_of[np.clip(masks, 0, 31)], none)
        bad |= kept & (split == none)
        first = np.argsort(split, axis=1)[:, :2]  # the kept splits, in canonical order
        s = np.take_along_axis(split, first, axis=1)
        xy = np.where(s < none, np.take_along_axis(lengths, first, axis=1), 0.0)
        codes = geom.class_of[s[:, 0], s[:, 1]]
        wrong = bad.any(axis=1) | (kept.sum(axis=1) > 2) | (codes < 0)
        if wrong.any():
            i = int(np.argmax(wrong))
            j = int(np.argmax(bad[i] & ~kept[i]))
            raise InvalidSampleError(f"points[{i}].splits: " + (
                f"length must be finite and in 0..{MAX_COORD:g}, got {lengths[i, j]}"
                if bad[i, j] and not kept[i, j]
                else f"{_SUPPORT_RULE}, got bitmasks {masks[i][kept[i]].tolist()} of {list(labels)}"))
        self.__dict__["labels"] = geom.labels
        self._keep(codes, weights, coords=xy)

    @classmethod
    def from_splits(cls, labels, masks, lengths, weights=None) -> "T4Sample":
        """Build a sample from (n, w) arrays of split bitmasks and lengths.

        Bit i of a mask stands for ``labels[i]``.  As in :class:`T4Point`,
        splits of length 0 are dropped, and a point keeps at most two
        distinct compatible splits of two or three leaves, with lengths
        finite and >= 0; :class:`InvalidSampleError` names the first bad point.
        """
        sample = cls.__new__(cls)
        sample._set(labels, masks, lengths, weights)
        return sample

    @cached_property
    def points(self) -> tuple[T4Point, ...]:
        supports = _geometry(self.labels).supports
        return tuple(T4Point(self.labels, dict(zip(supports[code], xy)))
                     for code, xy in zip(self.codes.tolist(), self.coords.tolist()))

    def _point_dicts(self) -> list[dict]:
        clusters = [[sorted(s) for s in support] for support in _geometry(self.labels).supports]
        return [{"splits": [{"cluster": list(c), "length": x} for c, x in zip(clusters[code], xy)]}
                for code, xy in zip(self.codes.tolist(), self.coords.tolist())]

    def to_dict(self) -> dict:
        return {"labels": list(self.labels), **super().to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "T4Sample":
        labels = obj.get("labels")
        if not _is_labels(labels) or len(set(labels)) != 4 or len(labels) != 4:
            raise InvalidSampleError(f"labels must be four distinct strings, got {labels!r}")
        rows = [o.get("splits") for o in json_points(obj)]
        splits = [s for row in rows if type(row) is list for s in row]
        clusters = [s.get("cluster") if type(s) is dict else None for s in splits]
        if not ({*map(type, rows)} <= {list} and {*map(type, clusters)} <= {list}
                and {type(lb) for c in clusters for lb in c} <= {str}):
            i = next(i for i, row in enumerate(rows) if not isinstance(row, list) or not all(
                isinstance(s, dict) and _is_labels(s.get("cluster")) for s in row))
            raise InvalidSampleError(
                f"points[{i}].splits must be a list of {{cluster, length}} objects")
        owner = np.repeat(np.arange(len(rows)), [len(row) for row in rows])  # point of each split
        lengths = json_numbers([s.get("length") for s in splits], lambda k: (
            f"points[{owner[k]}].splits[{k - np.searchsorted(owner, owner[k])}].length"))
        # a point keeps the last length of a repeated cluster, as T4Point reads it
        keys = list(map(frozenset, clusters))
        kept = sorted({(i, c): k for k, (i, c) in enumerate(zip(owner.tolist(), keys))}.values())
        # any label outside the four sets bit 4, which names no split
        bit = {lb: 1 << i for i, lb in enumerate(labels)}
        mask = {c: sum({bit.get(lb, 16) for lb in c}) for c in set(keys)}
        point = owner[kept]
        col = np.arange(len(kept)) - np.searchsorted(point, point)  # place in its point
        shape = (len(rows), int(col.max(initial=-1)) + 1)
        masks, coords = np.zeros(shape, dtype=np.int64), np.zeros(shape)
        masks[point, col] = [mask[keys[k]] for k in kept]
        coords[point, col] = lengths[kept]
        return cls.from_splits(labels, masks, coords, obj.get("weights"))


# --------------------------------------------------------------------------
# geodesics
# --------------------------------------------------------------------------

def _frame(x: T4Point, labels, classes, coords, weights):
    """Points of support classes ``classes`` and (n, 10) split lengths
    ``coords`` unfolded into the frame of ``x``: the first quadrant (e, f)
    that holds it.  Returns the images, (e, f) and x's coordinates there."""
    if x.labels != labels:
        raise ValueError("points live over different label universes")
    geom = _geometry(labels)
    q = geom.frames[geom.support_class[x.support]]
    e, f = geom.quadrants[q]
    images = _QuadrantImages(geom.image_tables[q], classes, coords, weights)
    return images, (e, f), (x.get(e), x.get(f))


def _one_point(y: T4Point):
    """``y`` as the arrays of a sample of one: labels, support class, split
    lengths and weight, the arguments of :func:`_frame` after ``x``."""
    geom = _geometry(y.labels)
    coords = np.zeros((1, len(geom.splits)))
    coords[0, [geom.index[c] for c in y.support]] = [length for _, length in y._items]
    return y.labels, [geom.support_class[y.support]], coords, np.ones(1)


def t4_distance(x: T4Point, y: T4Point) -> float:
    """Geodesic distance; never exceeds the cone-path bound ``|x| + |y|``."""
    images, _, at = _frame(x, *_one_point(y))
    return math.sqrt(images.value(at))


def geodesic_point(x: T4Point, y: T4Point, t: float) -> T4Point:
    """Point at arclength fraction ``t`` along the geodesic from x to y.

    Unless the cone path wins, the geodesic is the straight segment to y's
    nearest valid image in the frame of x, in the unfolding of its path:
    the frame's first pair, then the image's pair.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    images, first, (a, b) = _frame(x, *_one_point(y))
    _, on_image, slot = images._terms((a, b))
    labels = x.labels
    if not on_image[0]:  # the cone path through the origin
        rx, ry = x.norm(), y.norm()
        s = t * (rx + ry)
        if s <= rx:
            return T4Point(labels, {e: (rx - s) / rx * length for e, length in x._items})
        return T4Point(labels, {e: (s - rx) / ry * length for e, length in y._items})
    k = int(slot[0])
    sx, sy, turns, clockwise = images.slots[0, k].tolist()
    splits = _geometry(labels).splits
    path = list(first[::-1] if clockwise else first)  # path[j] lies at angle j pi/2
    path[turns:] = splits[sx], splits[sy]
    px, py = (1.0 - t) * a + t * images.qx[0, k], (1.0 - t) * b + t * images.qy[0, k]
    if clockwise:  # to the unfolding's own coordinates, the frame's mirror image
        (a, b), (px, py) = (b, a), (py, px)
    ang = math.atan2(py, px)
    if ang < 0.0:  # unfolded wedges may span past pi; unwrap
        ang += 2.0 * math.pi
    alpha, beta = math.atan2(b, a), images.beta[0, k]
    # a geodesic inside the frame may run from a larger angle to a smaller
    ang = min(max(ang, min(alpha, beta)), max(alpha, beta))
    j = min(int(ang // _HALF_PI), turns)
    c1, c2 = _turn(-j, px, py)  # the point in the quadrant (path[j], path[j + 1])
    eps = 1e-12 * max(x.norm(), y.norm())  # above the rounding of px and py
    return T4Point(labels, {e: float(c) for e, c in ((path[j], c1), (path[j + 1], c2)) if c > eps})


def frechet_function(x: T4Point, sample: T4Sample) -> float:
    """Weighted mean squared geodesic distance from ``x`` to the sample."""
    if not len(sample):
        raise EmptySampleError("empty sample")
    coords = _split_coords(sample, _geometry(sample.labels))
    images, _, at = _frame(x, sample.labels, sample.codes, coords, sample.normalized_weights())
    return images.value(at)


# --------------------------------------------------------------------------
# intrinsic mean
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class T4MeanEstimate:
    """Mean point and Frechet value, and how the solver reached them.

    ``quadrant`` holds the axes of the closed quadrant the mean was found in
    (``()`` when the star tree wins; the sample's common support for
    ``method="euclidean"``), ``iterations`` the Newton steps over all
    quadrants, and ``projected_gradient_norm`` the first-order optimality
    residual there (0 for the closed-form Euclidean mean and star tree).
    """

    mean: T4Point
    frechet_value: float
    method: str
    quadrant: tuple[frozenset, ...] = ()
    iterations: int = 0
    projected_gradient_norm: float = 0.0

    def to_dict(self) -> dict:
        return {**vars(self), "mean": self.mean.to_dict(),
                "quadrant": [sorted(c) for c in self.quadrant]}


def _split_coords(sample: T4Sample, geom: _Geometry) -> np.ndarray:
    """The points' lengths on the 10 splits, (n, 10): 0 off their supports."""
    out = np.zeros((len(sample), len(geom.splits) + 1))  # the last column is "none"
    np.put_along_axis(out, geom.pairs[sample.codes], sample.coords, axis=1)
    return out[:, :-1]


def _turn(k, x, y):
    """``(x, y)`` turned by ``k`` quarter turns (arrays or scalars), by swap
    and sign: exact where cos and sin of the angle round."""
    k = np.asarray(k) % 4
    cos_k, sin_k = np.choose(k, (1, 0, -1, 0)), np.choose(k, (0, 1, 0, -1))
    return cos_k * x - sin_k * y, sin_k * x + cos_k * y


class _QuadrantImages:
    """Points unfolded into the frame of one quadrant (e at 0, f at pi/2).

    Each point has the image slots of ``_Geometry._image_table`` (kept as
    ``slots``), at its own radius.  From ``x`` in the closed quadrant an
    image is valid while its angle ``beta`` stays less than pi past
    ``x``'s; the straight segment to it is then a path in the space (an
    invalid one under-estimates).  The squared distance to a point is the
    least valid image distance, else the cone term ``(|x| + |p|)**2``.
    """

    def __init__(self, table: np.ndarray, classes, coords, weights):
        self.slots = table[classes]
        sx, sy, turns, clockwise = np.moveaxis(self.slots, -1, 0)
        lx = np.take_along_axis(coords, sx, axis=1)
        ly = np.take_along_axis(coords, sy, axis=1)
        self.beta = turns * _HALF_PI + np.arctan2(ly, lx)
        self.clockwise = clockwise.astype(bool)
        ux, uy = _turn(turns, lx, ly)
        # a clockwise unfolding is the mirror image across the diagonal
        self.qx = np.where(self.clockwise, uy, ux)
        self.qy = np.where(self.clockwise, ux, uy)
        self.norms = np.sqrt((coords * coords).sum(axis=1))
        self.weights, self.total = weights, float(weights.sum())
        self.rows = np.arange(len(classes))

    def _terms(self, x):
        a, b = x
        alpha = np.where(self.clockwise, math.atan2(a, b), math.atan2(b, a))
        d2 = np.where(self.beta - alpha < math.pi,
                      (a - self.qx) ** 2 + (b - self.qy) ** 2, np.inf)
        slot = d2.argmin(axis=1)
        image, cone = d2[self.rows, slot], (math.sqrt(a * a + b * b) + self.norms) ** 2
        return np.minimum(image, cone), image <= cone, slot

    def value(self, x) -> float:
        """Frechet function at ``x = (a, b)``, the point ``a e + b f``."""
        return float(self.weights @ self._terms(x)[0])

    def derivatives(self, x):
        """Value, gradient and Hessian at ``x``, which is not the origin.

        An image term ``|x - q|**2`` has Hessian 2I; a cone term
        ``(r + |p|)**2`` has ``2uu' + 2 (r + |p|) / r (I - uu')``.
        """
        d2, on_image, slot = self._terms(x)
        w_image = np.where(on_image, self.weights, 0.0)
        pick = (self.rows, slot)
        pull = np.array([w_image @ self.qx[pick], w_image @ self.qy[pick]])
        cone = (self.weights - w_image) @ self.norms  # sum of w |p| over cone terms
        r = math.sqrt(x @ x)
        u = x / r
        grad = 2.0 * (self.total * x - pull + cone * u)
        hess = 2.0 * (self.total * np.eye(2) + cone / r * (np.eye(2) - np.outer(u, u)))
        return float(self.weights @ d2), grad, hess


def _start(images: _QuadrantImages, start, star: float):
    """Best point of the ray out of the star tree through ``start``, or of
    another ray when that one does not descend; None when none descends.

    The space is a Euclidean cone: on a ray ``t u`` the Frechet function is
    exactly ``star - 2 t G(u) + t**2``, best at ``t = G(u)``.  On the chord
    ``v(s) = scale (1 - s, s)``, ``k(s) = star + |v|**2 - F(v)`` is
    ``2 |v| G`` of the ray through ``v`` and ``-|v|`` times a directional
    derivative of a convex function at the star tree, so it is concave in
    ``s``: bisection on the sign of ``k'`` stops at the first ``k > 0``, or
    once the tangents at the bracket ends bound ``k`` by 0.
    """
    scale = math.sqrt(star)

    def probe(s):  # (s, v, k, dk/ds)
        v = scale * np.array([1.0 - s, s])
        value, grad, _ = images.derivatives(v)
        return s, v, star + v @ v - value, scale * (grad - 2.0 * v) @ (1.0, -1.0)

    found = probe(start[1] / start.sum())
    if found[2] <= 0.0:
        lo, hi = probe(0.0), probe(1.0)
        lo, hi = (found, hi) if found[3] > 0.0 else (lo, found)
        for _ in range(60):
            found = max(lo, hi, key=lambda p: p[2])
            (s0, _, k0, d0), (s1, _, k1, d1) = lo, hi
            if found[2] > 0.0:
                break
            if d0 <= 0.0 or d1 >= 0.0:
                return None  # k peaks at a bracket end, where it is <= 0
            top = (k1 - k0 + d0 * s0 - d1 * s1) / (d0 - d1)  # the tangents meet
            if k0 + d0 * (top - s0) <= 0.0:
                return None
            mid = probe(0.5 * (s0 + s1))
            lo, hi = (mid, hi) if mid[3] > 0.0 else (lo, mid)
        else:
            return None
    _, v, k, _ = found
    return v * (k / (2.0 * (v @ v)))


_NEWTON_STEPS = 100


def _quadrant_minimum(images: _QuadrantImages, start, star: float):
    """Projected Newton with Armijo backtracking on the closed quadrant.

    It starts from ``_start``, so every iterate beats the star tree and
    avoids the origin, where the function is not differentiable.  A
    coordinate at 0 whose partial derivative points outward stays at 0.
    Returns ``(x, value, projected-gradient norm, steps)``, or None when
    the quadrant's minimum is the star tree.
    """
    x = _start(images, start, star)
    if x is None:
        return None
    for steps in range(_NEWTON_STEPS + 1):
        value, grad, hess = images.derivatives(x)
        free = (x > 0.0) | (grad < 0.0)
        pg = np.where(free, grad, 0.0)
        if pg @ pg <= 1e-16 * value or steps == _NEWTON_STEPS:
            break
        d = -np.linalg.solve(hess, grad) if free.all() else -pg / np.diag(hess)
        for lam in 0.5 ** np.arange(30):
            trial = np.maximum(x + lam * d, 0.0)
            if images.value(trial) <= value + 1e-4 * grad @ (trial - x):
                break
        else:  # no measurable decrease is left
            break
        x = trial
    return x, value, math.sqrt(pg @ pg), steps


def t4_mean(sample: T4Sample) -> T4MeanEstimate:
    """Frechet mean of a tree-space sample (unique: the space is CAT(0)).

    When all points share one closed quadrant the mean is the coordinate
    mean there, computed exactly (``method="euclidean"``).  Otherwise the
    Frechet function, convex on each closed quadrant, is minimized on each
    one by projected Newton from the weighted coordinate means, on the
    sample's images unfolded into its frame; the best of these minima and
    the star tree wins (``method="newton"``).
    """
    if not len(sample):
        raise EmptySampleError("cannot average an empty sample")
    labels, wts = sample.labels, sample.normalized_weights()
    geom = _geometry(labels)
    classes, coords = sample.codes, _split_coords(sample, geom)
    union = {e for c in np.unique(classes).tolist() for e in geom.supports[c]}
    if len(union) <= 1 or (len(union) == 2 and compatible(*union)):
        # a plain running sum per split, which a fused dot product is not:
        # equal points then average to themselves exactly
        mean = T4Point(labels, dict(zip(geom.splits, (wts[:, None] * coords).sum(axis=0))))
        axes = tuple(sorted(union, key=_split_key))
        return T4MeanEstimate(mean, frechet_function(mean, sample), "euclidean", axes)

    # solved at a power-of-two scale, exact in binary, at which no squared
    # length underflows
    exp = math.frexp(coords.max())[1]
    coords = np.ldexp(coords, -exp)
    star = float(wts @ (coords * coords).sum(axis=1))
    best, steps = (star, (), (), 0.0), 0
    for (e, f), table in zip(geom.quadrants, geom.image_tables):
        start = wts @ coords[:, [geom.index[e], geom.index[f]]]
        if not start.any():
            continue  # all images lie in x, y <= 0: the origin is best here
        images = _QuadrantImages(table, classes, coords, wts)
        found = _quadrant_minimum(images, start, star)
        if found is None:
            continue
        x, value, pg_norm, used = found
        steps += used
        if value < best[0]:
            best = (value, (e, f), x, pg_norm)
    value, quadrant, x, pg_norm = best
    mean = T4Point(labels, dict(zip(quadrant, np.ldexp(x, exp))))
    return T4MeanEstimate(mean, math.ldexp(value, 2 * exp), "newton", quadrant, steps,
                          math.ldexp(pg_norm, exp))


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
        raise InvalidParameterError(
            f"axis {sorted(axis, key=str)} is not a split over {sorted(labels, key=str)}"
        )
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
    geom = _geometry(sample.labels)
    leaf = {(): 0, (axis,): 0}  # of the book by support, 0 on the spine
    for k, e in enumerate(partners, 1):
        leaf[(e,)] = leaf[tuple(sorted((axis, e), key=_split_key))] = k
    leaves = np.array([leaf.get(support, -1) for support in geom.supports])[sample.codes]
    if (leaves < 0).any():
        pt = sample.points[int(np.argmax(leaves < 0))]
        raise NotInBookError(f"{pt!r} lies outside the open book around {sorted(axis)}")
    lengths = _split_coords(sample, geom)[:, [geom.index[e] for e in (axis, *partners)]]
    x2 = np.where(leaves > 0, lengths[np.arange(len(leaves)), leaves], 0.0)
    book = OpenBookSample.from_arrays(leaves, lengths[:, 0], x2, sample.weights)
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
