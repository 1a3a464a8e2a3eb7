"""Intrinsic statistics on p-leg spiders.

A p-leg spider is the union of p half-lines (legs) glued at a single
center point.  The space of rooted three-leaf trees is the 3-leg spider:
legs correspond to the three resolved topologies, the coordinate along a
leg is the interior edge length, and the center is the star tree.

Where the Frechet mean of a sample sits is decided by the per-leg moment
gaps ``theta_a = v_a - sum(v_b, b != a)`` with ``v_a`` the mass-weighted
mean coordinate of leg ``a``:

* some ``theta_a > 0``   -> the mean lies on leg ``a`` at coordinate
  ``theta_a`` and classical normal asymptotics apply there;
* all ``theta_a < 0``    -> the mean *sticks* to the center: the sample
  mean is exactly the center for all large samples;
* max ``theta_a == 0``   -> boundary case; after folding the other legs
  onto the negative half-line the scaled mean has a half-normal limit.

At most one ``theta_a`` can be positive when all ``v_a`` are nonnegative.

Every sample's leg sums come from one reduction, :func:`segment_sums`.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import sys
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    EmptySampleError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSampleError,
    InvalidWeightsError,
)

__all__ = [
    "Record",
    "SpiderPoint",
    "CENTER",
    "SpiderSample",
    "SpiderMeasureSummary",
    "Verdict",
    "StickinessReport",
    "SpiderInterval",
    "spider_distance",
    "frechet_function",
    "segment_sums",
    "code_sums",
    "leg_means",
    "gaps",
    "check_tolerance",
    "check_interval",
    "normal_half_width",
    "VERDICT_KINDS",
    "verdict",
    "intrinsic_mean",
    "clt_interval",
]


def validate_weights(weights, count: int | None = None) -> tuple[float, ...]:
    """Weights as floats, checked to be finite, nonnegative and sum to 1.

    ``weights`` is read by :func:`json_list` and :func:`json_numbers`;
    ``count``, when given, is the number of points they belong to.  Shared
    by the spider, open-book and tree-space samples and the simulation
    laws; raises :class:`InvalidWeightsError`.
    """
    w = json_list(weights, "weights", InvalidWeightsError)
    w = tuple(json_numbers(w, "weights[{}]".format, InvalidWeightsError).tolist())
    if count is not None and len(w) != count:
        raise InvalidWeightsError("weights length must match point count")
    if not all(math.isfinite(x) for x in w):
        raise InvalidWeightsError("weights must be finite")
    if any(x < 0 for x in w):
        raise InvalidWeightsError("weights must be nonnegative")
    if abs(sum(w) - 1.0) > 1e-9:
        raise InvalidWeightsError("weights must sum to 1")
    return w


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    NaN and infinities are refused (``ValueError``): they are not JSON.
    Every document and report is written by it, or to its bytes
    (:meth:`ArraySample.to_json`).
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


class Record:
    """Base of the result dataclasses: :meth:`to_dict` writes each field
    with ``compare=True`` by one rule.  A value with a ``to_dict`` of its
    own is written by it, an ``Enum`` as its ``value``, a ``frozenset`` as
    a sorted list, a tuple as a list item by item, anything else as it is."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.compare}


def _plain(x):
    if hasattr(x, "to_dict"):
        return x.to_dict()
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, frozenset):
        return sorted(x)
    return [_plain(v) for v in x] if isinstance(x, tuple) else x


# The line of a key whose value is the number 0.0, in canonical_json's text.
# A line that lists a string (a label) cannot match: a quote inside a
# string is escaped.
# Compiled on first use, by re's cache, so that commands that write no
# sample document do not pay for it.
_ZERO_LINE = r'(?m)^( *"[^"\\]*": )0\.0(,?)$'


def _fill_list(doc: str, key: str, items: list[str]) -> str:
    """``doc``, canonical_json's text of an object whose ``key`` holds an
    empty list, with the JSON texts ``items`` in that list."""
    if not items:
        return doc
    return doc.replace(f'\n  "{key}": []',
                       f'\n  "{key}": [\n    ' + ",\n    ".join(items) + "\n  ]", 1)


# Readers of JSON documents.  They check structure and types only, and
# every loader of a sample, summary or law goes through them; the range
# checks are the library constructors'.  In a document an absent or null
# "weights" means uniform weights, and any other value goes to
# validate_weights.

def json_list(value, field: str, error=InvalidSampleError) -> list:
    """``value``, a required list (library callers may pass a tuple or a
    numpy array); ``error`` names ``field`` when it is absent (``None``)
    or not a list."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise error(f"{field} is missing" if value is None
                    else f"{field} must be a list, got {value!r}")
    return value


def json_points(obj) -> list[dict]:
    """The ``points`` list of a sample document, each entry an object."""
    points = json_list(obj.get("points"), "points")
    if not {*map(type, points)} <= {dict}:
        i, o = next((i, o) for i, o in enumerate(points) if type(o) is not dict)
        raise InvalidSampleError(f"points[{i}] must be an object, got {o!r}")
    return points


def json_number(x, field: str, error=InvalidSampleError) -> float:
    """``x`` as a float, by the one number rule of documents: a real number
    (in JSON an int or a float), never a bool or a string.  An integer too
    large for a float reads as infinity, so the range check after this one
    names ``field``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{field} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def json_numbers(values, entry, error=InvalidSampleError) -> np.ndarray:
    """A list or tuple of numbers as a float array, converted in one pass;
    a numpy array of integers or floats passes straight through (as a copy).

    Entries follow :func:`json_number`, and ``entry(i)`` names entry ``i``
    in errors.  A list of plain ints and floats converts in one numpy call;
    any other list or array is read entry by entry.
    """
    if (values.dtype.kind in "iuf" if isinstance(values, np.ndarray)
            else {*map(type, values)} <= {int, float}):
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an int too large for a float, read below
            pass
    return np.array([json_number(x, entry(i), error) for i, x in enumerate(values)], dtype=float)


# The most legs a spider sample or summary may have.  Reports list the
# mass, mean and gap of every leg, and the means loop over the legs, so p
# is bounded before anything per leg is allocated.
MAX_LEGS = 2**16

# The largest coordinate a sample holds (a spider's u, an open book's x1
# and x2, a tree-space split length) and the largest summary w0, w or nu:
# squared distances and leg moments of such values, summed with weights
# that sum to 1 (or over at most MAX_LEGS legs), stay finite in doubles.
MAX_COORD = 1e150

# The one rounding floor.  A quantity that is exactly 0 in theory but is
# computed in floating point comes out a few ulps of its scale off zero: a
# law exactly on the boundary has its largest moment gap within at most
# 0.75 * epsilon * sum(v) of 0 (over 4000 laws with weights (0.5, x, 0.5 - x)).
# A value within this share of its scale counts as 0: the boundary regime
# of a law (scale sum(v)), a degenerate law's limit variance (scale its
# second moment) and a four-leaf ray's gain over the star tree (scale
# sum w |p|).
ROUNDING_RTOL = 8 * sys.float_info.epsilon


def _check_p(p, what: str) -> None:
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or not 1 <= p <= MAX_LEGS:
        raise InvalidSampleError(f"{what} must be an integer in 1..{MAX_LEGS}, got {p!r}")


# The rules for points, stated once: ArraySample._store checks a sample's
# arrays by them, and SpiderPoint and OpenBookPoint their one row.

def coordinates(values, entry) -> np.ndarray:
    """Coordinates and split lengths as a float array, each read by :func:`json_number`
    and in ``0..MAX_COORD``; else :class:`InvalidSampleError` names ``entry(i)``."""
    c = json_numbers(values, entry)
    # min/max are NaN when a NaN is present, so NaN fails too
    if c.size and not (c.min() >= 0 and c.max() <= MAX_COORD):
        i = int(np.argmax(~((c >= 0) & (c <= MAX_COORD))))
        raise InvalidSampleError(
            f"{entry(i)} must be finite and in 0..{MAX_COORD:g}, got {c.flat[i]}")
    return c


def _codes(codes, n_codes: int, entry) -> np.ndarray:
    """Codes as an int64 array: each an integer, Python or numpy, never a
    bool, else :class:`InvalidSampleError` names ``entry(i)``.  Codes past
    int64 are clipped, still out of ``1..n_codes``, for the range check."""
    if not (isinstance(codes, np.ndarray) and codes.dtype.kind in "iu"):
        if not {*map(type, codes)} <= {int}:
            for i, c in enumerate(codes):
                if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                    raise InvalidSampleError(f"{entry(i)} must be an integer, got {c!r}")
        raw, codes = codes, np.asarray(codes)
        if codes.dtype.kind not in "iu":  # Python ints past int64 read as floats or objects
            codes = np.array([min(max(c, 0), n_codes + 1) for c in raw], dtype=np.int64)
    if codes.dtype.kind == "u":
        codes = np.minimum(codes, n_codes + 1)
    return codes.astype(np.int64, copy=False)


def point_arrays(n_codes: int, code: str, codes, at: str = "points[{}].", given=None, **coords):
    """Checked codes and a dict of coordinate arrays of spider or open-book
    points, by :func:`_codes` and :func:`coordinates`.  The last coordinate
    is the distance from the center or spine: where it is 0 the code becomes
    0, elsewhere it must be in ``1..n_codes``.  Errors name the first bad
    field, of point ``i`` as ``at.format(i)`` and the field's name, and show
    a bad code as listed in ``given``, by default ``codes``."""
    raw, codes = codes if given is None else given, _codes(codes, n_codes, f"{at}{code}".format)
    coords = {name: coordinates(c, f"{at}{name}".format) for name, c in coords.items()}
    if any(c.shape != (codes.size,) for c in (codes, *coords.values())):
        raise InvalidSampleError("codes and coordinates must be 1-D arrays of one length")
    name, dist = next(reversed(coords.items()))
    off = dist != 0.0
    off_codes = np.where(off, codes, 1)  # codes of the points off the center
    if codes.size and not (off_codes.min() >= 1 and off_codes.max() <= n_codes):
        i = int(np.argmax((off_codes < 1) | (off_codes > n_codes)))
        raise InvalidSampleError(
            f"{at.format(i)}{code} must be in 1..{n_codes} where {name} > 0, got {raw[i]}")
    return np.where(off, codes, 0), coords


def _immutable(self, *_):
    """``__setattr__`` and ``__delattr__`` of an object that is never changed."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class ArraySample:
    """Base of the spider, open-book and tree-space samples: read-only arrays.

    A sample holds ``codes`` (the leg or leaf of each point, 0 for the
    center or spine; a tree-space point's support class), its coordinate
    arrays, ``weights`` (``None`` for uniform) and ``_w``, the per-point
    weights with uniform ones filled in.  ``points`` (of the class
    ``_point``) is built from the arrays on first access, ``==`` compares
    ``weights`` and the attributes listed in ``_eq_fields``, and
    :meth:`to_dict` and :meth:`to_json` write the arrays without building
    a point.  Codes and coordinates are checked by :func:`point_arrays`,
    whose rules the point classes follow too.
    """

    _code = "leg"  # field name of the codes in sample documents
    _coords = ("u",)  # coordinate arrays, named as in sample documents

    def _store(self, n_codes: int, codes, weights, **coords):
        """Check the arrays by :func:`point_arrays` and store them."""
        codes, coords = point_arrays(n_codes, self._code, codes, **coords)
        self._keep(codes, weights, **coords)

    def _keep(self, codes, weights, **arrays):
        """Store the arrays read-only, and the weights once checked."""
        for x in (codes, *arrays.values()):
            x.flags.writeable = False
        n = codes.size
        if weights is not None:
            weights = validate_weights(weights, n)
        w = np.full(n, 1.0 / max(n, 1)) if weights is None else np.asarray(weights)
        self.__dict__.update(arrays, codes=codes, weights=weights, _w=w)

    @classmethod
    def _json_columns(cls, obj, *coords: str) -> list[list]:
        """Code and coordinate columns of a sample document's points, read
        by :meth:`_store`; a missing or null code is 0 and a missing
        coordinate 0.0."""
        points = json_points(obj)
        codes = [o.get(cls._code) for o in points]
        return [[0 if x is None else x for x in codes],
                *([o.get(name, 0.0) for o in points] for name in coords)]

    __setattr__ = __delattr__ = _immutable

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.weights == other.weights and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in self._eq_fields
        )

    def __repr__(self):
        return f"{type(self).__name__}(n={len(self)}, weights={self.weights})"

    @cached_property
    def points(self) -> tuple:
        rows = zip(self.codes.tolist(), self._numbers().tolist())
        return tuple(self._point(code or None, *numbers) for code, numbers in rows)

    def normalized_weights(self) -> np.ndarray:
        return self._w

    def _header(self) -> dict:
        """The fields of the sample document besides ``points`` and ``weights``."""
        return {}

    def _numbers(self) -> np.ndarray:
        """Each point's numbers, (n, k), in the order the document lists them."""
        return np.column_stack([getattr(self, name) for name in self._coords])

    def _point_dict(self, code: int, numbers) -> dict:
        """A point of the sample document, as the point classes' ``to_dict`` write it."""
        return dict(zip((self._code, *self._coords), (code or None, *numbers)))

    def to_dict(self) -> dict:
        points = zip(self.codes.tolist(), self._numbers().tolist())
        out = {**self._header(), "points": [self._point_dict(*pt) for pt in points]}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    def to_json(self) -> str:
        """The sample document, to the byte ``canonical_json(self.to_dict())``,
        written from the arrays.

        Each code's point is written once by :func:`canonical_json`, with
        numbers 0.0, and each 0.0 becomes a ``%r`` slot; ``%.0r`` slots,
        which write nothing, take the numbers a code does not list (the
        second length of a four-leaf point on an axis).  Every point then
        fills its code's template: ``%r`` of a float is ``float.__repr__``,
        which is what ``json`` writes.
        """
        numbers, weights = self._numbers(), self.weights or ()
        if not (np.isfinite(numbers).all() and all(map(math.isfinite, weights))):
            return canonical_json(self.to_dict())  # which refuses them
        codes, k = self.codes.tolist(), numbers.shape[1]
        templates = {}
        for code in set(codes):  # np.unique would import numpy.ma, some ms per process
            text = canonical_json(self._point_dict(code, [0.0] * k)).replace("%", "%%")
            text, slots = re.subn(_ZERO_LINE, r"\1%r\2", text[:-1])
            templates[code] = text.replace("\n", "\n    ") + "%.0r" * (k - slots)
        doc = canonical_json({**self._header(), "points": [],
                              **({} if self.weights is None else {"weights": []})})
        points = zip(codes, zip(*numbers.T.tolist()))
        doc = _fill_list(doc, "points", [templates[code] % row for code, row in points])
        return _fill_list(doc, "weights", list(map(float.__repr__, weights)))


@dataclass(frozen=True)
class SpiderPoint(Record):
    """A point of a spider: leg index (1-based) and distance to the center.

    The center is canonical: ``u == 0`` forces ``leg = None``.  The point
    is checked as a sample of one point on ``MAX_LEGS`` legs, by
    :func:`point_arrays`.
    """

    leg: int | None
    u: float

    def __post_init__(self):
        codes, coords = point_arrays(MAX_LEGS, "leg", [0 if self.leg is None else self.leg],
                                     at="", given=[self.leg], u=[self.u])
        object.__setattr__(self, "leg", int(codes[0]) or None)
        object.__setattr__(self, "u", float(coords["u"][0]))


CENTER = SpiderPoint(None, 0.0)


def spider_distance(x: SpiderPoint, y: SpiderPoint) -> float:
    """Geodesic distance: along a leg, or through the center across legs."""
    if x.leg == y.leg:
        return abs(x.u - y.u)
    return x.u + y.u


class SpiderSample(ArraySample):
    """Sample of spider points with optional weights (default uniform).

    Held as read-only arrays ``codes`` (leg, 0 for the center) and ``u``
    (distance to the center); see :class:`ArraySample`.
    ``SpiderSample(p, points, weights)`` takes point objects,
    :meth:`from_arrays` the arrays.
    """

    _eq_fields = ("p", "codes", "u")
    _point = SpiderPoint

    def __init__(self, p: int, points=(), weights=None):
        points = tuple(points)
        codes = [0 if pt.leg is None else pt.leg for pt in points]
        self._set(p, codes, [pt.u for pt in points], weights)
        self.__dict__["points"] = points

    def _set(self, p, codes, u, weights):
        _check_p(p, "p")
        self.__dict__["p"] = p
        self._store(p, codes, weights, u=u)

    @classmethod
    def from_arrays(cls, p, leg_codes, u, weights=None) -> "SpiderSample":
        """Build a sample from arrays; leg code 0 means the center."""
        sample = cls.__new__(cls)
        sample._set(p, leg_codes, u, weights)
        return sample

    def _header(self) -> dict:
        return {"p": self.p}

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderSample":
        codes, u = cls._json_columns(obj, *cls._coords)
        return cls.from_arrays(obj.get("p"), codes, u, obj.get("weights"))


@dataclass(frozen=True)
class SpiderMeasureSummary(Record):
    """Per-leg masses and conditional means of a spider measure.

    ``w[a-1]`` is the mass on leg ``a``, ``nu[a-1]`` its conditional mean
    coordinate, and ``v = w * nu`` the leg moments the verdicts are built
    from.  A summary carries no second moments, so its Frechet values, and
    the ``intrinsic_sd`` of its report, are unavailable.

    Masses normally sum to 1 but the constructor does not enforce it, so
    summaries quoted from published tables can be fed in verbatim.
    """

    p: int
    w0: float
    w: tuple[float, ...]
    nu: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w0", json_number(self.w0, "summary w0"))
        for name in ("w", "nu"):
            values = json_list(getattr(self, name), f"summary {name}")
            object.__setattr__(self, name, tuple(
                json_numbers(values, f"summary {name}[{{}}]".format).tolist()))
        _check_p(self.p, "summary p")
        if any(len(x) != self.p for x in (self.w, self.nu)):
            raise InvalidSampleError(f"summary w and nu need one entry per leg (p={self.p})")
        for name, values in (("w0", (self.w0,)), ("w", self.w), ("nu", self.nu)):
            for i, x in enumerate(values):
                field = name if name == "w0" else f"{name}[{i}]"
                if not math.isfinite(x):
                    raise InvalidWeightsError(f"summary {name} must be finite, got {field} = {x}")
                if not 0 <= x <= MAX_COORD:
                    raise InvalidSampleError(f"summary {field} must be in 0..{MAX_COORD:g}, got {x}")
        for i, v in enumerate(self.v):  # theta, and so the mean, is at most v
            if not v <= MAX_COORD:
                raise InvalidSampleError(
                    f"summary w[{i}] * nu[{i}] must be in 0..{MAX_COORD:g}, got {v}")

    @property
    def v(self) -> tuple[float, ...]:
        return tuple(wa * na for wa, na in zip(self.w, self.nu))


def segment_sums(w, x, lengths):
    """Mass and first moment of each run of a leg-sorted sample: the pairwise
    sums of the point weights ``w`` and of ``w * x`` over each run of
    ``lengths`` consecutive points, in point order.

    The one per-leg reduction, so spider and open-book means (through
    :func:`code_sums`) and simulated replicates agree bit for bit.  Runs
    of one length k are gathered into one ``(count, k)`` array, whose
    ``sum`` along the rows is the pairwise sum of each run alone, a lone
    run too.  The cost does not grow with the number of legs, only with
    the number of points and of distinct run lengths.
    """
    starts = np.cumsum(lengths) - lengths
    wx = w * x
    mass, moment = np.zeros(lengths.size), np.zeros(lengths.size)
    order = np.argsort(lengths, kind="stable")
    by_length = lengths[order]
    cuts = [0, *(np.flatnonzero(np.diff(by_length)) + 1).tolist(), lengths.size]
    for a, b in zip(cuts, cuts[1:]):  # runs of length 0 sum to the 0.0 already there
        rows = order[a:b]
        at = starts[rows, None] + np.arange(by_length[a])
        mass[rows], moment[rows] = w.take(at).sum(axis=-1), wx.take(at).sum(axis=-1)
    return mass, moment


def code_sums(codes, n_codes: int, w, x):
    """:func:`segment_sums` of a sample in point order, one segment per code
    ``0..n_codes``: a stable sort of the codes puts each code's points in
    point order, the points a mask of that code would pick."""
    order = np.argsort(codes, kind="stable")
    return segment_sums(w[order], x[order], np.bincount(codes, minlength=n_codes + 1))


def leg_means(w, s):
    """Conditional means ``nu = s / w`` (0 on a leg without mass) and leg
    moments ``v = w * nu`` of per-leg masses ``w`` and first moments ``s``,
    along the last axis."""
    nu = np.divide(s, w, out=np.zeros(np.shape(s)), where=w > 0)
    return nu, w * nu


def gaps(v) -> np.ndarray:
    """Moment gaps ``v_a - sum(v_b, b != a)`` of the leg moments ``v``,
    along the last axis (one row of leg moments per sample).

    The one place the gaps are computed: spider samples and summaries,
    the open book's transverse coordinate, the simulation laws and their
    replicates all pass their leg moments here.  The total is summed leg
    by leg from the left, as ``sum`` does for a single row.
    """
    legs = np.asarray(v, dtype=float).T  # legs first: iterating gives one leg at a time
    return (legs - (sum(legs) - legs)).T


def check_tolerance(tolerance: float) -> None:
    """Raise :class:`InvalidParameterError` unless the verdict tolerance
    is finite and >= 0."""
    if not 0 <= tolerance < math.inf:  # NaN fails too
        raise InvalidParameterError(f"tolerance must be finite and >= 0, got {tolerance}")


def check_interval(confidence: float, n: int) -> None:
    """Raise unless a normal-theory interval at ``confidence`` can be built
    from ``n`` points: :class:`InvalidParameterError` for a confidence
    outside (0, 1), :class:`InsufficientDataError` for ``n < 2``."""
    if not 0 < confidence < 1:
        raise InvalidParameterError("confidence must be in (0, 1)")
    if n < 2:
        raise InsufficientDataError("confidence intervals need n >= 2")


def normal_half_width(sd, n: int, confidence: float):
    """``(half, se)`` of the normal interval at ``confidence`` for a mean of
    ``n`` points with standard deviation ``sd``, a float or an array: ``se =
    sd / sqrt(n)`` and ``half = z * se``, ``z`` the quantile at 0.5 + confidence / 2."""
    from statistics import NormalDist  # loads fractions and decimal: only here

    se = sd / math.sqrt(n)
    return NormalDist().inv_cdf(0.5 + confidence / 2.0) * se, se


VERDICT_KINDS = ("non_sticky", "boundary", "sticky")


def verdict(th, tolerance: float = 0.0):
    """Stickiness verdict of the moment gaps ``th``.

    The largest gap (the first one on ties) decides: above ``tolerance``
    the mean is off the center on that leg, at or above ``-tolerance``
    it is the boundary case, below it the mean sticks to the center.

    One row of gaps gives a :class:`Verdict`.  Gaps with leading axes
    (one row per sample) give two integer arrays instead: the index of
    each kind in ``VERDICT_KINDS`` and the deciding leg (1-based, also
    filled in where the kind is sticky).
    """
    check_tolerance(tolerance)
    th = np.asarray(th, dtype=float)
    best = th.argmax(axis=-1)
    top = np.take_along_axis(th, best[..., None], -1)[..., 0]
    kind = np.where(top > tolerance, 0, np.where(top >= -tolerance, 1, 2))
    if th.ndim > 1:
        return kind, best + 1
    kind = VERDICT_KINDS[kind]
    return Verdict(kind) if kind == "sticky" else Verdict(kind, int(best) + 1)


def frechet_function(x: SpiderPoint, sample: SpiderSample) -> float:
    """Weighted mean squared distance from ``x`` to the sample."""
    if not len(sample):
        raise EmptySampleError("empty sample")
    codes, u, wts = sample.codes, sample.u, sample._w
    x_code = 0 if x.leg is None else x.leg
    dist = np.where(codes == x_code, np.abs(u - x.u), u + x.u)
    return float((wts * dist * dist).sum())


@dataclass(frozen=True)
class Verdict(Record):
    """Stickiness classification: kind plus the leg it points at, if any."""

    kind: str  # "non_sticky" | "boundary" | "sticky" | "stuck_to_spine"
    leg: int | None = None

    def __str__(self):
        name = "".join(part.capitalize() for part in self.kind.split("_"))  # NonSticky
        return f"{name}(leg {self.leg})" if self.leg is not None else name


@dataclass(frozen=True)
class StickinessReport(Record):
    """Verdict, mean location, moment gaps, and spread of a spider sample
    or summary.  ``intrinsic_sd`` is ``None`` for a summary (no second
    moments), in the library as in JSON; ``n`` is ``None`` there too."""

    p: int
    w0: float
    w: tuple[float, ...]
    nu: tuple[float, ...]
    theta: tuple[float, ...]
    verdict: Verdict
    mean: SpiderPoint
    intrinsic_sd: float | None
    n: int | None = None


def intrinsic_mean(data, tolerance: float = 0.0) -> StickinessReport:
    """Frechet mean of a sample (or summary) with stickiness verdict.

    With some ``theta_a > tolerance`` the mean is ``(leg a, theta_a)``;
    with all gaps below ``-tolerance`` the mean sticks to the center; in
    between the verdict is the boundary case (mean reported at the
    center).  ``intrinsic_sd`` is the square root of the minimized
    Frechet value, population convention; it is ``None`` for a summary,
    which carries no second moments.
    """
    is_sample = isinstance(data, SpiderSample)
    if is_sample:
        if not len(data):
            raise EmptySampleError("cannot summarize an empty sample")
        mass, moment = code_sums(data.codes, data.p, data._w, data.u)
        w0, w = float(mass[0]), mass[1:]
        nu, v = leg_means(w, moment[1:])
    else:
        w0, w, nu = data.w0, np.array(data.w), np.array(data.nu)
        v = w * nu
    th = tuple(gaps(v).tolist())
    vd = verdict(th, tolerance)
    # a weighted mean of coordinates up to MAX_COORD may round past it
    mean = SpiderPoint(vd.leg, min(th[vd.leg - 1], MAX_COORD)) if vd.kind == "non_sticky" else CENTER
    sd = math.sqrt(frechet_function(mean, data)) if is_sample else None
    n = len(data) if is_sample else None
    return StickinessReport(data.p, w0, tuple(w.tolist()), tuple(nu.tolist()), th, vd,
                            mean, sd, n)


@dataclass(frozen=True)
class SpiderInterval(Record):
    """Confidence interval for the mean, as a sub-segment of the spider.

    ``leg`` is ``None`` for the degenerate center interval.  ``lo``/``hi``
    are coordinates on that leg after truncation at the center;
    ``folded_mean``/``folded_se`` describe the unfolded real-line CI.
    """

    leg: int | None
    lo: float
    hi: float
    folded_mean: float
    folded_se: float
    confidence: float
    verdict: Verdict
    note: str = ""


def clt_interval(
    sample: SpiderSample, confidence: float = 0.95, tolerance: float = 0.0
) -> SpiderInterval:
    """Normal-theory confidence interval for the intrinsic mean.

    Non-sticky samples get a classical CI for the folded coordinate on the
    winning leg, truncated at the center.  Boundary samples get the
    half-normal interval ``[0, q]``.  Sticky samples get the degenerate
    interval at the center, where the sample mean sits almost surely for
    large n.  Requires uniform weights.
    """
    check_interval(confidence, len(sample))
    if sample.weights is not None:
        raise InvalidWeightsError("clt_interval expects an unweighted sample")
    report = intrinsic_mean(sample, tolerance)
    if report.verdict.kind == "sticky":
        return SpiderInterval(None, 0.0, 0.0, 0.0, 0.0, confidence, report.verdict,
                              note="sticky mean: the sample mean is the center a.s. for large n")
    leg = report.verdict.leg
    s = np.where(sample.codes == leg, sample.u, -sample.u)  # other legs folded negative
    m = float(s.mean())
    half, se = normal_half_width(float(s.std(ddof=1)), len(sample), confidence)
    if report.verdict.kind == "non_sticky":
        lo = m - half
        note = "interval truncated at the center" if lo < 0 else ""
        return SpiderInterval(leg, max(lo, 0.0), m + half, m, se, confidence, report.verdict, note)
    # boundary: half-normal quantile of the scaled folded mean
    return SpiderInterval(leg, 0.0, half, m, se, confidence, report.verdict,
                          note="boundary case: folded half-normal interval")
