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
holds these images, one table per frame; distances, the Frechet function
and the mean all evaluate them through ``_QuadrantImages``, with the
lengths divided by a power of two above the largest: exact in binary, and
no squared length underflows.

Means: the space is a Euclidean cone, so on each ray out of the star tree
the Frechet function is a parabola in the radius, and a quadrant's minimum
lies on the ray that maximizes its linear coefficient.  ``_best_ray`` finds
that ray in closed form, piece by piece between the angles where a point's
image turns valid or invalid; no iteration is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    EmptySampleError,
    InvalidParameterError,
    InvalidSampleError,
    NotInBookError,
)
from .spider import (
    MAX_COORD, ROUNDING_RTOL, ArraySample, Record, _codes, _immutable, coordinates, json_numbers,
    json_points)

if TYPE_CHECKING:
    from .openbook import SpineStickinessReport

__all__ = [
    "T4Point",
    "T4Sample",
    "T4MeanEstimate",
    "Stratum",
    "all_splits",
    "compatible",
    "t4_distance",
    "frechet_function",
    "t4_mean",
    "stratum_of",
    "book_partners",
    "spine_stickiness_t4",
    "tree_type_newick",
]

_HALF_PI = math.pi / 2.0


def _split_key(split: frozenset):
    return (len(split), tuple(sorted(split)))


def all_splits(labels) -> list[frozenset]:
    """The 10 clusters (6 pairs + 4 triples) over four leaf labels."""
    return list(_geometry(tuple(labels)).splits)


def compatible(a: frozenset, b: frozenset) -> bool:
    """Splits are compatible when their clusters are nested or disjoint."""
    return a <= b or b <= a or not (a & b)


class _Geometry:
    """Cached combinatorics of the split axes for one label universe."""

    def __init__(self, labels: tuple):
        self.labels = labels
        pairs = [frozenset((a, b)) for i, a in enumerate(labels) for b in labels[i + 1:]]
        self.splits = sorted(pairs + [frozenset(labels) - {x} for x in labels], key=_split_key)
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
        # each class's clusters, sorted, as documents list them
        self.clusters = [[sorted(s) for s in sup] for sup in self.supports]
        # the frame of each class: the first quadrant that holds its support
        self.frames = [next(q for q, axes in enumerate(self.quadrants) if set(sup) <= set(axes))
                       for sup in self.supports]
        # split indices of each class's support, 10 for none, and back
        none = len(self.splits)
        self.pairs = np.array([([self.index[s] for s in sup] + [none, none])[:2]
                               for sup in self.supports])
        self.class_of = np.full((none + 1, none + 1), -1)  # -1: no point has that support
        self.class_of[tuple(self.pairs.T)] = np.arange(len(self.supports))

    def support_classes(self, split, lengths, field, got):
        """Support classes and (n, 2) coordinates of points from (n, w) split
        indices and lengths, by the one support rule: lengths follow
        :func:`~treestats.spider.coordinates`, those of 0 are dropped, and at
        most two distinct compatible splits stay, in canonical order; index
        10 (``_NO_SPLIT``) is a cluster that is no split.  Errors name
        ``field(i)`` of the first bad point, a bad length before a bad
        support, and then ``got(i, kept)``, ``kept`` its nonzero lengths."""
        none, split = _NO_SPLIT, np.asarray(split)
        n, w = split.shape
        flat = lengths.ravel() if isinstance(lengths, np.ndarray) else [
            x for row in lengths for x in row]
        x = np.zeros((n, max(w, 3)))  # a third split, when kept, is refused
        x[:, :w] = json_numbers(flat, lambda k: f"{field(k // w)}: length").reshape(n, w)
        s = np.full(x.shape, none)
        s[:, :w] = split
        zero = x == 0.0  # NaN is kept, and refused below
        not_split = ((s == none) & ~zero).any(axis=1)  # a kept cluster that is no split
        x[zero], s[zero] = 0.0, none  # -0.0 is stored as 0.0
        order = s.argsort(axis=1)  # the kept splits first, in canonical order
        rows = np.arange(n)[:, None]
        top = s[rows, order]
        codes = self.class_of[top[:, 0], top[:, 1]]
        wrong = not_split | (codes < 0) | (top[:, 2] != none)
        i = int(np.argmax(wrong)) if wrong.any() else n
        coordinates(x[:i + 1, :w], lambda k: f"{field(k // w)}: length")
        if i < n:
            raise InvalidSampleError(f"{field(i)}: {_SUPPORT_RULE}, got {got(i, ~zero[i, :w])}")
        return codes, x[rows, order[:, :2]]

    @cached_property
    def image_tables(self) -> list[np.ndarray]:  # built when a distance needs them
        return [self._image_table(e, f) for e, f in self.quadrants]

    def _image_table(self, e, f) -> np.ndarray:
        """Image slots (support class, slot, 4) in the frame of quadrant (e, f).

        A point inside the closed quadrant is its own image; any other point
        has one image per path of ``paths_by_first`` that starts with (e, f)
        or (f, e) and whose last edge, but not the edge before it, holds its
        support (an axis point on both has the same image on the path one
        edge shorter).  A slot holds the indices of the splits read as the
        image's local coordinates (the path's last edge), the quarter turns
        of the unfolding, and 1 for a clockwise one (first pair (f, e)).
        Padding slots turn four quarters, past pi from any x, so they are
        never valid.
        """
        rows = [
            [(e, f, 0, 0)] if set(support) <= {e, f} else [
                (path[-2], path[-1], len(path) - 2, int(first == (f, e)))
                for first in ((e, f), (f, e))
                for path in self.paths_by_first[first]
                if set(support) <= set(path[-2:]) and not set(support) <= set(path[-3:-1])
            ]
            for support in self.supports
        ]
        width = max(map(len, rows))
        return np.array([
            [(self.index[x], self.index[y], turns, cw) for x, y, turns, cw in row]
            + [(0, 0, 4, 0)] * (width - len(row))
            for row in rows
        ])


def _geometry(labels: tuple) -> _Geometry:
    """The geometry of ``labels``, a tuple in any order, built once, by the
    one labels rule: four distinct labels that hash and sort, else
    :class:`InvalidSampleError`."""
    try:
        return _geometries(labels)
    except TypeError:  # labels that do not hash, or do not order, such as 1 and 'a'
        raise InvalidSampleError(_LABELS_RULE.format(list(labels))) from None


@lru_cache(maxsize=None)
def _geometries(labels: tuple) -> _Geometry:
    key = tuple(sorted(labels))
    if len(key) != 4 or len(set(key)) != 4:
        raise InvalidSampleError(_LABELS_RULE.format(list(labels)))
    return _Geometry(key) if key == labels else _geometries(key)


_LABELS_RULE = "labels must name four distinct leaves that sort, got {}"


_NO_SPLIT = 10  # the split index of a cluster that is no split, and of an empty slot
_SUPPORT_RULE = "a four-leaf tree has at most two distinct compatible splits of 2 or 3 leaves"


class T4Point:
    """A tree-space point: at most two compatible splits with positive lengths.

    Zero lengths are dropped, so the empty coordinate map is the star tree
    (origin).  ``labels`` fixes the leaf universe and is kept sorted.  The
    point holds its row of a :class:`T4Sample`: ``code``, its support class,
    and ``lengths``, those of its support's splits in canonical order.  It
    is checked as a sample of one point: see ``_Geometry.support_classes``.
    """

    __slots__ = ("labels", "code", "lengths")

    def __init__(self, labels, coords=None):
        geom = _geometry(tuple(labels))
        pairs = list(coords.items() if hasattr(coords, "items") else coords or ())
        split = [[geom.index.get(frozenset(c), _NO_SPLIT) for c, _ in pairs]]
        (code,), (xy,) = geom.support_classes(
            split, [[x for _, x in pairs]], lambda i: "splits",
            lambda i, kept: "clusters {}".format(
                [sorted(c, key=str) for (c, _), k in zip(pairs, kept) if k]))
        object.__setattr__(self, "labels", geom.labels)
        object.__setattr__(self, "code", int(code))
        object.__setattr__(self, "lengths", tuple(xy.tolist()[:len(geom.supports[code])]))

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):  # copy and pickle rebuild the point through the constructor
        return type(self), (self.labels, self.coords)

    @property
    def support(self) -> tuple[frozenset, ...]:
        return _geometry(self.labels).supports[self.code]

    @property
    def coords(self) -> dict:
        return dict(zip(self.support, self.lengths))

    def get(self, split: frozenset) -> float:
        return self.coords.get(split, 0.0)

    def norm(self) -> float:
        return math.hypot(*self.lengths)

    @property
    def is_origin(self) -> bool:
        return not self.code

    def __eq__(self, other):
        return isinstance(other, T4Point) and (self.labels, self.code, self.lengths) == (
            other.labels, other.code, other.lengths)

    def __hash__(self):
        return hash((self.labels, self.code, self.lengths))

    def __repr__(self):
        parts = ", ".join(
            "{%s}:%g" % ("|".join(map(str, sorted(c))), l) for c, l in self.coords.items())
        return f"T4Point({parts or 'origin'})"

    def to_dict(self) -> dict:
        return {"splits": [{"cluster": sorted(c), "length": l} for c, l in self.coords.items()]}


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
    whose supports and lengths it reads as they are, and :meth:`from_splits`
    split bitmasks and lengths, which it checks by the points' rules.
    """

    _eq_fields = ("labels", "codes", "coords")

    def __init__(self, labels, points=(), weights=None):
        points, geom = tuple(points), _geometry(tuple(labels))
        if any(pt.labels != geom.labels for pt in points):
            raise InvalidSampleError("all points must share the sample's labels")
        codes = np.array([pt.code for pt in points], dtype=np.int64)
        coords = np.reshape([[*pt.lengths, 0.0, 0.0][:2] for pt in points], (-1, 2))
        self.__dict__.update(labels=geom.labels, points=points)
        self._keep(codes, weights, coords=coords)

    @classmethod
    def from_splits(cls, labels, masks, lengths, weights=None) -> "T4Sample":
        """Build a sample from (n, w) arrays of split bitmasks, bit i standing
        for ``labels[i]``, and lengths, checked by the rules :class:`T4Point`
        follows; :class:`InvalidSampleError` names the first bad point."""
        geom, sample = _geometry(tuple(labels)), cls.__new__(cls)
        try:
            same = np.ndim(masks) == 2 and np.shape(masks) == np.shape(lengths)
        except ValueError:  # rows of different lengths
            same = False
        if not same:
            raise InvalidSampleError("masks and lengths must be 2-D arrays of one shape")
        split_of = np.array([  # bit 4 and above name no label
            geom.index.get(frozenset(lb for i, lb in enumerate(labels) if m >> i & 1), _NO_SPLIT)
            for m in range(16)] + [_NO_SPLIT] * 16)
        n, w = np.shape(masks)
        flat = masks.ravel() if isinstance(masks, np.ndarray) else [m for row in masks for m in row]
        masks = _codes(flat, 31, lambda k: f"points[{k // w}].splits: bitmask").reshape(n, w)
        codes, xy = geom.support_classes(
            split_of[np.clip(masks, 0, 31)], lengths, "points[{}].splits".format,
            lambda i, kept: f"bitmasks {masks[i][kept].tolist()} of {list(labels)}")
        sample.__dict__["labels"] = geom.labels
        sample._keep(codes, weights, coords=xy)
        return sample

    @cached_property
    def points(self) -> tuple[T4Point, ...]:
        supports = _geometry(self.labels).supports
        return tuple(T4Point(self.labels, dict(zip(supports[code], xy)))
                     for code, xy in zip(self.codes.tolist(), self.coords.tolist()))

    def _header(self) -> dict:
        return {"labels": list(self.labels)}

    def _numbers(self) -> np.ndarray:
        return self.coords

    def _point_dict(self, code: int, numbers) -> dict:
        clusters = _geometry(self.labels).clusters[code]
        return {"splits": [{"cluster": list(c), "length": x} for c, x in zip(clusters, numbers)]}

    @classmethod
    def from_dict(cls, obj: dict) -> "T4Sample":
        labels = obj.get("labels")
        if not (_is_labels(labels) and len(labels) == len(set(labels)) == 4):
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
        point = owner[kept]
        col = np.arange(len(kept)) - np.searchsorted(point, point)  # place in its point
        shape = (len(rows), int(col.max(initial=-1)) + 1)
        geom, split, coords = _geometry(tuple(labels)), np.full(shape, _NO_SPLIT), np.zeros(shape)
        split[point, col] = [geom.index.get(keys[k], _NO_SPLIT) for k in kept]
        coords[point, col] = lengths[kept]
        # a bad point's kept clusters are named as the document lists them
        codes, xy = geom.support_classes(
            split, coords, "points[{}].splits".format, lambda i, nonzero: "clusters {}".format(
                [c for c, z in zip([clusters[k] for k in kept if owner[k] == i], nonzero) if z]))
        sample = cls.__new__(cls)
        sample.__dict__["labels"] = geom.labels
        sample._keep(codes, obj.get("weights"), coords=xy)
        return sample


# --------------------------------------------------------------------------
# geodesics
# --------------------------------------------------------------------------

def _frame(x: T4Point, labels, classes, coords, weights):
    """Points of support classes ``classes`` and (n, 10) split lengths
    ``coords`` unfolded into the frame of ``x``: the first quadrant (e, f)
    that holds it, with all lengths divided by ``2**exp``, which is above
    the largest.  Returns the images, x's coordinates there and exp."""
    if x.labels != labels:
        raise InvalidSampleError("points live over different label universes")
    geom = _geometry(labels)
    q = geom.frames[x.code]
    e, f = geom.quadrants[q]
    exp = math.frexp(max([coords.max(initial=0.0), *x.lengths]))[1]
    images = _QuadrantImages(geom.image_tables[q], classes, np.ldexp(coords, -exp), weights)
    return images, (math.ldexp(x.get(e), -exp), math.ldexp(x.get(f), -exp)), exp


def _one_point(y: T4Point):
    """``y`` as the arrays of a sample of one: labels, support class, split
    lengths and weight, the arguments of :func:`_frame` after ``x``."""
    geom = _geometry(y.labels)
    coords = np.zeros((1, len(geom.splits)))
    coords[0, geom.pairs[y.code, :len(y.lengths)]] = y.lengths
    return y.labels, [y.code], coords, np.ones(1)


def t4_distance(x: T4Point, y: T4Point) -> float:
    """Geodesic distance; never exceeds the cone-path bound ``|x| + |y|``."""
    images, at, exp = _frame(x, *_one_point(y))
    return math.ldexp(math.sqrt(images.value(at)), exp)


def frechet_function(x: T4Point, sample: T4Sample) -> float:
    """Weighted mean squared geodesic distance from ``x`` to the sample."""
    if not len(sample):
        raise EmptySampleError("empty sample")
    coords = _split_coords(sample, _geometry(sample.labels))
    images, at, exp = _frame(x, sample.labels, sample.codes, coords, sample.normalized_weights())
    return math.ldexp(images.value(at), 2 * exp)


# --------------------------------------------------------------------------
# intrinsic mean
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class T4MeanEstimate(Record):
    """Mean point and Frechet value, and how they were found.

    ``method`` is ``"euclidean"`` for the coordinate mean of a sample in one
    closed quadrant and ``"cone"`` for the per-quadrant ray solve of
    :func:`t4_mean`; ``quadrant`` holds the axes of the closed quadrant the
    mean was found in (``()`` when the star tree wins; the sample's common
    support for ``"euclidean"``).
    """

    mean: T4Point
    frechet_value: float
    method: str
    quadrant: tuple[frozenset, ...] = ()


def _split_coords(sample: T4Sample, geom: _Geometry) -> np.ndarray:
    """The points' lengths on the 10 splits, (n, 10): 0 off their supports."""
    out = np.zeros((len(sample), len(geom.splits) + 1))  # the last column is "none"
    np.put_along_axis(out, geom.pairs[sample.codes], sample.coords, axis=1)
    return out[:, :-1]


def _turn(k, x, y):
    """``(x, y)`` turned by ``k`` quarter turns (arrays), by swap and sign:
    exact where cos and sin of the angle round."""
    k = np.asarray(k) % 4
    cos_k, sin_k = np.choose(k, (1, 0, -1, 0)), np.choose(k, (0, 1, 0, -1))
    return cos_k * x - sin_k * y, sin_k * x + cos_k * y


class _QuadrantImages:
    """Points unfolded into the frame of one quadrant (e at 0, f at pi/2).

    Each point has the image slots of ``_Geometry._image_table``, at its
    own radius.  From ``x`` in the closed quadrant an image is valid while
    its angle ``beta`` stays less than pi past ``x``'s; the straight
    segment to it is then a path in the space (an invalid one
    under-estimates).  The squared distance to a point is the
    least valid image distance, else the cone term ``(|x| + |p|)**2``.
    """

    def __init__(self, table: np.ndarray, classes, coords, weights):
        sx, sy, turns, clockwise = np.moveaxis(table[classes], -1, 0)
        lx = np.take_along_axis(coords, sx, axis=1)
        ly = np.take_along_axis(coords, sy, axis=1)
        self.beta = turns * _HALF_PI + np.arctan2(ly, lx)
        self.clockwise = clockwise.astype(bool)
        ux, uy = _turn(turns, lx, ly)
        # a clockwise unfolding is the mirror image across the diagonal
        self.qx = np.where(self.clockwise, uy, ux)
        self.qy = np.where(self.clockwise, ux, uy)
        self.norms = np.sqrt((coords * coords).sum(axis=1))
        self.weights, self.total = weights, math.fsum(weights)
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

    def assignment(self, x):
        """Value at ``x``, which is not the origin, and the pull of its
        image/cone assignment there: ``pull``, the weighted sum of the
        nearest valid images, and ``cone``, the sum of ``w |p|`` over the
        points reached through the origin.  Near ``x`` the Frechet function
        is ``total |x|**2 - 2 x . pull + 2 |x| cone`` plus a constant."""
        d2, on_image, slot = self._terms(x)
        w_image = np.where(on_image, self.weights, 0.0)
        pick = (self.rows, slot)
        pull = np.array([w_image @ self.qx[pick], w_image @ self.qy[pick]])
        return float(self.weights @ d2), pull, float((self.weights - w_image) @ self.norms)


def _best_ray(images: _QuadrantImages) -> tuple[float, float]:
    """The largest gain ``G`` over the quadrant's rays out of the star tree,
    and the angle from ``e`` of a ray that reaches it.

    The space is a Euclidean cone, so on the ray ``t u`` at angle ``theta``
    the Frechet function is exactly ``star - 2 t G(theta) + total t**2``,
    with ``G = sum w |p| c``: ``c`` is the cosine of the angle to the
    point's valid image, or -1 (the cone path) where none is valid.  In the
    quadrant's frame an image at angle ``phi`` is valid within pi of it,
    and a point's images lie at least 5 pi / 2 apart (a path and the other
    way round to one support close a cycle of at least five quadrants: the
    Petersen graph has girth 5), so at most one is valid at any angle.  One
    sweep over the ends of these windows inside the arc sums ``G`` on each
    piece between them as ``A cos + B sin + C``, largest at the point of
    the piece nearest ``atan2(B, A)`` round the circle.  The gain is then
    evaluated at that angle from the images themselves.
    """
    phi = np.where(images.clockwise, _HALF_PI - images.beta, images.beta)
    lo, hi = np.clip(phi - math.pi, 0.0, _HALF_PI), np.clip(phi + math.pi, 0.0, _HALF_PI)
    w = images.weights[:, None]
    terms = np.stack(np.broadcast_arrays(  # (A, B, C) of each image's window
        w * images.qx, w * images.qy, w * images.norms[:, None]), -1)
    kept = lo < hi
    starts, ends = kept & (lo > 0.0), kept & (hi < _HALF_PI)
    first = terms[kept & ~starts].sum(axis=0) - (0.0, 0.0, images.weights @ images.norms)
    at = np.concatenate([lo[starts], hi[ends]])
    order = at.argsort()
    steps = np.concatenate([terms[starts], -terms[ends]])[order]
    a, b, c = np.cumsum(np.vstack([first, steps]), axis=0).T
    bounds = np.concatenate([[0.0], at[order], [_HALF_PI]])
    left, right = bounds[:-1], bounds[1:]
    peak = np.arctan2(b, a)
    peak[peak < 0.5 * (left + right) - math.pi] += 2.0 * math.pi
    theta = np.clip(peak, left, right)
    theta = float(theta[np.argmax(a * np.cos(theta) + b * np.sin(theta) + c)])
    u = _unit(theta)
    _, pull, cone = images.assignment(u)
    return float(pull @ u) - cone, theta


def _unit(theta: float) -> np.ndarray:
    """The quadrant's unit vector at angle ``theta``, exactly on f at pi/2."""
    return np.array([math.cos(theta), math.sin(theta)] if theta < _HALF_PI else [0.0, 1.0])


def _ray_minimum(images: _QuadrantImages, gain: float, theta: float):
    """``(value, x)``, the quadrant's minimum from its best ray: the ray's
    optimum ``t = gain / total``, or one closed-form step from the
    image/cone assignment there when its value is no higher.  The step
    solves ``total x = pull - cone u`` inside the quadrant, and on an axis
    along it."""
    u = _unit(theta)
    x = u * (gain / images.total)
    value, pull, cone = images.assignment(x)
    r = math.hypot(*pull)
    if 0.0 < theta < _HALF_PI:
        step = pull * ((1.0 - cone / r) / images.total) if r > cone else None
    else:
        step = u * ((pull @ u - cone) / images.total)
    if step is not None and step.min() >= 0.0 and step.max() > 0.0:
        value, x = min((images.value(step), step), (value, x), key=lambda vx: vx[0])
    return value, x


def t4_mean(sample: T4Sample) -> T4MeanEstimate:
    """Frechet mean of a tree-space sample (unique: the space is CAT(0)).

    When all points share one closed quadrant the mean is the coordinate
    mean there, computed exactly (``method="euclidean"``).  Otherwise each
    closed quadrant's minimum lies on its best ray out of the star tree
    (:func:`_best_ray`), found in closed form on the sample's images
    unfolded into its frame; the best of these minima and the star tree
    wins (``method="cone"``).
    """
    if not len(sample):
        raise EmptySampleError("cannot average an empty sample")
    labels, wts = sample.labels, sample.normalized_weights()
    geom = _geometry(labels)
    classes, coords = sample.codes, _split_coords(sample, geom)
    union = {e for c in set(classes.tolist()) for e in geom.supports[c]}
    if len(union) <= 1 or (len(union) == 2 and compatible(*union)):
        # a plain running sum per split, which a fused dot product is not:
        # equal points then average to themselves exactly; a weighted mean of
        # lengths up to MAX_COORD may round past it
        lengths = np.minimum((wts[:, None] * coords).sum(axis=0), MAX_COORD)
        mean = T4Point(labels, dict(zip(geom.splits, lengths)))
        axes = tuple(sorted(union, key=_split_key))
        return T4MeanEstimate(mean, frechet_function(mean, sample), "euclidean", axes)

    # solved at a power-of-two scale, exact in binary, at which no squared
    # length underflows
    exp = math.frexp(coords.max())[1]
    coords = np.ldexp(coords, -exp)
    best = (float(wts @ (coords * coords).sum(axis=1)), (), ())  # the star tree
    for (e, f), table in zip(geom.quadrants, geom.image_tables):
        if not (wts @ coords[:, [geom.index[e], geom.index[f]]]).any():
            continue  # all images lie in x, y <= 0: the origin is best here
        images = _QuadrantImages(table, classes, coords, wts)
        gain, theta = _best_ray(images)
        # beats the star tree only above rounding of sum w |p|, the scale of G
        if gain > ROUNDING_RTOL * float(wts @ images.norms):
            value, x = _ray_minimum(images, gain, theta)
            if value < best[0]:
                best = (value, (e, f), x)
    value, quadrant, x = best
    mean = T4Point(labels, dict(zip(quadrant, np.minimum(np.ldexp(x, exp), MAX_COORD))))
    return T4MeanEstimate(mean, math.ldexp(value, 2 * exp), "cone", quadrant)


# --------------------------------------------------------------------------
# strata and open-book neighborhoods
# --------------------------------------------------------------------------

class Stratum(Enum):
    TOP2D = "top2d"
    ONE_D = "one_d"
    ORIGIN = "origin"


def stratum_of(x: T4Point) -> Stratum:
    """Which stratum a point belongs to, by its number of active splits."""
    return (Stratum.ORIGIN, Stratum.ONE_D, Stratum.TOP2D)[len(x.lengths)]


def book_partners(axis: frozenset, labels) -> tuple[frozenset, ...]:
    """The three splits spanning a quadrant with ``axis``, in canonical order.

    These are the leaves of the open book around the axis; the axis itself
    is the spine.
    """
    axis = frozenset(axis)
    geom = _geometry(tuple(labels))
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
        i = int(np.argmax(leaves < 0))
        pt = T4Point(sample.labels, zip(geom.supports[sample.codes[i]], sample.coords[i].tolist()))
        raise NotInBookError(f"{pt!r} lies outside the open book around {sorted(axis)}")
    lengths = _split_coords(sample, geom)[:, [geom.index[e] for e in (axis, *partners)]]
    x2 = np.where(leaves > 0, lengths[np.arange(len(leaves)), leaves], 0.0)
    from .openbook import OpenBookSample, openbook_mean  # the only open-book path

    book = OpenBookSample.from_arrays(leaves, lengths[:, 0], x2, sample.weights)
    return openbook_mean(book, tolerance)


def tree_type_newick(labels, point: T4Point) -> str:
    """Newick-style topology string (no lengths) of a point's splits.

    Example: splits {a,b} and {a,b,c} give ``(((a,b),c),d)``; the origin
    gives the star ``(a,b,c,d)``.
    """
    groups = [(frozenset([lb]), str(lb)) for lb in sorted(labels)]
    for cluster in point.support:  # canonical order: pairs before triples
        inside = [g for g in groups if g[0] <= cluster]
        outside = [g for g in groups if not g[0] <= cluster]
        merged_set = frozenset().union(*(g[0] for g in inside))
        inner = ",".join(g[1] for g in sorted(inside, key=lambda g: min(g[0])))
        groups = outside + [(merged_set, f"({inner})")]
    groups.sort(key=lambda g: min(g[0]))
    return "(" + ",".join(g[1] for g in groups) + ")"
