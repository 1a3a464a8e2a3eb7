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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
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
    "SpiderPoint",
    "CENTER",
    "SpiderSample",
    "SpiderMeasureSummary",
    "Verdict",
    "StickinessReport",
    "SpiderInterval",
    "spider_distance",
    "summarize",
    "frechet_function",
    "theta",
    "thetas",
    "leg_sums",
    "leg_means",
    "gaps",
    "check_tolerance",
    "check_interval",
    "VERDICT_KINDS",
    "verdict",
    "intrinsic_mean",
    "clt_interval",
    "net_moment",
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
    a numpy array passes straight through (as a copy).

    Entries follow :func:`json_number`, and ``entry(i)`` names entry ``i``
    in errors.  A list of plain ints and floats converts in one numpy call;
    any other list is read entry by entry.
    """
    if isinstance(values, np.ndarray) or {*map(type, values)} <= {int, float}:
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


def _check_p(p, what: str) -> None:
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or not 1 <= p <= MAX_LEGS:
        raise InvalidSampleError(f"{what} must be an integer in 1..{MAX_LEGS}, got {p!r}")


# What ndarray.sum/min/max call, minus their Python-level wrappers (the
# same pairwise sum); the per-replicate paths of simulate use them.
_sum, _min, _max = np.add.reduce, np.minimum.reduce, np.maximum.reduce


class ArraySample:
    """Base of the spider, open-book and tree-space samples: read-only arrays.

    A sample holds ``codes`` (the leg or leaf of each point, 0 for the
    center or spine; a tree-space point's support class), its coordinate
    arrays, ``weights`` (``None`` for uniform) and ``_w``, the per-point
    weights with uniform ones filled in.  ``points`` (of the class
    ``_point``) is built from the arrays on first access, ``==`` compares
    ``weights`` and the attributes listed in ``_eq_fields``, and
    :meth:`to_dict` writes the arrays without building a point.
    """

    _code = "leg"  # field name of the codes in sample documents
    _coords = ("u",)  # coordinate arrays, named as in sample documents

    def _store(self, n_codes: int, codes, weights, **coords):
        """Check and store the arrays; the last coordinate is the distance
        from the center or spine, and where it is 0 the code becomes 0.

        Coordinates are read by :func:`json_numbers` and must be in
        ``0..MAX_COORD``, and a point off the center needs a code in
        ``1..n_codes``; the tests are vectorised and
        :class:`InvalidSampleError` names the first bad field.
        """
        raw, codes = codes, np.asarray(codes)
        # codes past int64 are clipped, still out of range, so that the
        # range check names their point and reports them as given
        if codes.dtype.kind not in "iu":  # Python ints past int64 read as floats or objects
            if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in raw):
                raise InvalidSampleError(f"{self._code} codes must be integers")
            codes = np.array([min(max(c, 0), n_codes + 1) for c in raw], dtype=np.int64)
        elif codes.dtype.kind == "u":
            codes = np.minimum(codes, n_codes + 1)
        codes = codes.astype(np.int64, copy=False)
        coords = {name: json_numbers(c, f"points[{{}}].{name}".format)
                  for name, c in coords.items()}
        if any(c.shape != (codes.size,) for c in (codes, *coords.values())):
            raise InvalidSampleError("codes and coordinates must be 1-D arrays of one length")
        for name, c in coords.items():
            # min/max are NaN when a NaN is present, so NaN fails too
            if c.size and not (_min(c) >= 0 and _max(c) <= MAX_COORD):
                i = int(np.argmax(~((c >= 0) & (c <= MAX_COORD))))
                raise InvalidSampleError(
                    f"points[{i}].{name} must be finite and in 0..{MAX_COORD:g}, got {c[i]}")
        name, dist = next(reversed(coords.items()))
        off = dist != 0.0
        off_codes = np.where(off, codes, 1)  # codes of the points off the center
        if codes.size and not (_min(off_codes) >= 1 and _max(off_codes) <= n_codes):
            i = int(np.argmax((off_codes < 1) | (off_codes > n_codes)))
            raise InvalidSampleError(
                f"points[{i}].{self._code} must be in 1..{n_codes} where {name} > 0, got {raw[i]}"
            )
        self._keep(np.where(off, codes, 0), weights, **coords)

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
        """Code and coordinate columns of a sample document's points.

        A missing or null code is 0 and a missing coordinate 0.0; codes are
        integers, and the coordinates are read by :meth:`_store`.
        """
        points = json_points(obj)
        codes = [o.get(cls._code) for o in points]
        if not {*map(type, codes)} <= {int, type(None)}:
            i, x = next((i, x) for i, x in enumerate(codes) if type(x) not in (int, type(None)))
            raise InvalidSampleError(f"points[{i}].{cls._code} must be an integer, got {x!r}")
        return [[x or 0 for x in codes], *([o.get(name, 0.0) for o in points] for name in coords)]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    def _rows(self):
        """Each point's code (``None`` for 0) and coordinates, as Python numbers."""
        codes = [c or None for c in self.codes.tolist()]
        return zip(codes, *(getattr(self, name).tolist() for name in self._coords))

    @cached_property
    def points(self) -> tuple:
        return tuple(self._point(*row) for row in self._rows())

    def normalized_weights(self) -> np.ndarray:
        return self._w

    def _point_dicts(self) -> list[dict]:
        """The points of a sample document, as the point classes' ``to_dict`` write them."""
        names = (self._code, *self._coords)
        return [dict(zip(names, row)) for row in self._rows()]

    def to_dict(self) -> dict:
        out = {"points": self._point_dicts()}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out


@dataclass(frozen=True)
class SpiderPoint:
    """A point of a spider: leg index (1-based) and distance to the center.

    The center is canonical: ``u == 0`` forces ``leg = None``.
    """

    leg: int | None
    u: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        if not math.isfinite(self.u) or self.u < 0:
            raise InvalidSampleError(f"u must be finite and >= 0, got {self.u}")
        if self.u == 0.0:
            object.__setattr__(self, "leg", None)
        elif self.leg is None:
            raise InvalidSampleError("leg: center points must have u == 0")
        elif not isinstance(self.leg, int) or self.leg < 1:
            raise InvalidSampleError(f"leg must be a 1-based integer, got {self.leg!r}")

    @property
    def is_center(self) -> bool:
        return self.leg is None

    def to_dict(self) -> dict:
        return {"leg": self.leg, "u": self.u}


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

    def to_dict(self) -> dict:
        return {"p": self.p, **super().to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderSample":
        codes, u = cls._json_columns(obj, *cls._coords)
        return cls.from_arrays(obj.get("p"), codes, u, obj.get("weights"))


@dataclass(frozen=True)
class SpiderMeasureSummary:
    """Per-leg masses, conditional means, and (optionally) second moments.

    ``w[a-1]`` is the mass on leg ``a``, ``nu[a-1]`` its conditional mean
    coordinate, and ``v = w * nu`` the leg moments the verdicts are built
    from.  ``m2`` holds conditional second moments when the summary comes
    from a sample; without them Frechet values are unavailable.

    Masses normally sum to 1 but the constructor does not enforce it, so
    summaries quoted from published tables can be fed in verbatim.
    """

    p: int
    w0: float
    w: tuple[float, ...]
    nu: tuple[float, ...]
    m2: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "w0", json_number(self.w0, "summary w0"))
        for name in ("w", "nu") if self.m2 is None else ("w", "nu", "m2"):
            values = json_list(getattr(self, name), f"summary {name}")
            object.__setattr__(self, name, tuple(
                json_numbers(values, f"summary {name}[{{}}]".format).tolist()))
        _check_p(self.p, "summary p")
        if any(len(x) != self.p for x in (self.w, self.nu, self.m2 or self.w)):
            raise InvalidSampleError(f"summary w, nu and m2 need one entry per leg (p={self.p})")
        for name, values in (("w0", (self.w0,)), ("w", self.w), ("nu", self.nu)):
            for i, x in enumerate(values):
                field = name if name == "w0" else f"{name}[{i}]"
                if not math.isfinite(x):
                    raise InvalidWeightsError(f"summary {name} must be finite, got {field} = {x}")
                if not 0 <= x <= MAX_COORD:
                    raise InvalidSampleError(f"summary {field} must be in 0..{MAX_COORD:g}, got {x}")
        if not all(map(math.isfinite, self.m2 or ())):
            raise InvalidWeightsError("summary m2 must be finite")

    @property
    def v(self) -> tuple[float, ...]:
        return tuple(wa * na for wa, na in zip(self.w, self.nu))

    def to_dict(self) -> dict:
        return {"p": self.p, "w0": self.w0, "w": list(self.w), "nu": list(self.nu)}


def leg_sums(w, x):
    """Mass and first moment of one leg: the pairwise sums of the leg's
    point weights ``w`` and of ``w * x``, both in point order, along the
    last axis (``x`` may hold one row per leg of equal length).

    The one per-leg reduction: spider and open-book samples and the
    replicates of the simulation all call it, so their sums agree bit for
    bit.
    """
    return _sum(w, axis=-1), _sum(w * x, axis=-1)


def leg_means(w, s):
    """Conditional means ``nu = s / w`` (0 on a leg without mass) and leg
    moments ``v = w * nu`` of per-leg masses ``w`` and first moments ``s``,
    along the last axis."""
    nu = np.divide(s, w, out=np.zeros(np.shape(s)), where=w > 0)
    return nu, w * nu


def _moments(sample: SpiderSample):
    """Center mass, per-leg masses and first moments of a sample, plus
    the point weights and coordinates of each leg for second moments."""
    if not len(sample):
        raise EmptySampleError("cannot summarize an empty sample")
    codes, u, wts = sample.codes, sample.u, sample._w
    legs = [(wts[mask], u[mask]) for mask in (codes == a for a in range(1, sample.p + 1))]
    w, s = np.array([leg_sums(*leg) for leg in legs]).T
    return float(_sum(wts[codes == 0])), w, s, legs


def summarize(sample: SpiderSample) -> SpiderMeasureSummary:
    """Decompose a sample into center mass plus per-leg masses and moments."""
    w0, w, s, legs = _moments(sample)
    m2 = (float(_sum(wa_i * ua * ua)) / wa if wa > 0 else 0.0
          for wa, (wa_i, ua) in zip(w.tolist(), legs))
    return SpiderMeasureSummary(sample.p, w0, w, leg_means(w, s)[0], tuple(m2))


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
    from ``n`` points: ``ValueError`` for a confidence outside (0, 1),
    :class:`InsufficientDataError` for ``n < 2``."""
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if n < 2:
        raise InsufficientDataError("confidence intervals need n >= 2")


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


def thetas(summary: SpiderMeasureSummary) -> tuple[float, ...]:
    """All per-leg moment gaps ``theta_a = v_a - sum(v_b, b != a)``."""
    return tuple(gaps(summary.v).tolist())


def theta(summary: SpiderMeasureSummary, leg: int) -> float:
    """Moment gap of one leg; positive means the mean lies on that leg."""
    if not 1 <= leg <= summary.p:
        raise ValueError(f"leg {leg} out of range 1..{summary.p}")
    return thetas(summary)[leg - 1]


def frechet_function(x: SpiderPoint, data) -> float:
    """Mean squared distance from ``x`` to the sample or summarized measure.

    Accepts a :class:`SpiderSample` (computed point by point) or a
    :class:`SpiderMeasureSummary` carrying second moments.
    """
    if isinstance(data, SpiderSample):
        if not len(data):
            raise EmptySampleError("empty sample")
        codes, u, wts = data.codes, data.u, data._w
        x_code = 0 if x.leg is None else x.leg
        dist = np.where(codes == x_code, np.abs(u - x.u), u + x.u)
        return float(_sum(wts * dist * dist))
    summary = data
    if summary.m2 is None:
        raise ValueError("summary carries no second moments; use a sample")
    const = sum(wa * ma for wa, ma in zip(summary.w, summary.m2))
    if x.leg is None:
        return const
    v = summary.v
    total_mass = summary.w0 + sum(summary.w)
    drift = sum(v) - 2 * v[x.leg - 1]
    return total_mass * x.u * x.u + 2 * x.u * drift + const


@dataclass(frozen=True)
class Verdict:
    """Stickiness classification: kind plus the leg it points at, if any."""

    kind: str  # "non_sticky" | "boundary" | "sticky" | "stuck_to_spine"
    leg: int | None = None

    def __str__(self):
        name = "".join(part.capitalize() for part in self.kind.split("_"))  # NonSticky
        return f"{name}(leg {self.leg})" if self.leg is not None else name

    def to_dict(self) -> dict:
        return {"kind": self.kind, "leg": self.leg}


@dataclass(frozen=True)
class StickinessReport:
    """Verdict, mean location, moment gaps, and spread of a spider sample."""

    p: int
    w0: float
    w: tuple[float, ...]
    nu: tuple[float, ...]
    theta: tuple[float, ...]
    verdict: Verdict
    mean: SpiderPoint
    intrinsic_sd: float
    n: int | None = None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "w0": self.w0,
            "w": list(self.w),
            "nu": list(self.nu),
            "theta": list(self.theta),
            "verdict": self.verdict.to_dict(),
            "mean": self.mean.to_dict(),
            # NaN (no second moments) is not JSON: written as null
            "intrinsic_sd": None if math.isnan(self.intrinsic_sd) else self.intrinsic_sd,
        }


def intrinsic_mean(data, tolerance: float = 0.0) -> StickinessReport:
    """Frechet mean of a sample (or summary) with stickiness verdict.

    With some ``theta_a > tolerance`` the mean is ``(leg a, theta_a)``;
    with all gaps below ``-tolerance`` the mean sticks to the center; in
    between the verdict is the boundary case (mean reported at the
    center).  ``intrinsic_sd`` is the square root of the minimized
    Frechet value, population convention; it is NaN for summaries
    without second moments.
    """
    is_sample = isinstance(data, SpiderSample)
    if is_sample:  # a sample skips the summary object and its second moments
        w0, w, s, _ = _moments(data)
        nu, v = leg_means(w, s)
    else:
        w0, w, nu = data.w0, np.array(data.w), np.array(data.nu)
        v = w * nu
    th = tuple(gaps(v).tolist())
    vd = verdict(th, tolerance)
    mean = SpiderPoint(vd.leg, th[vd.leg - 1]) if vd.kind == "non_sticky" else CENTER
    sd = math.sqrt(frechet_function(mean, data)) if is_sample or data.m2 is not None else math.nan
    n = len(data) if is_sample else None
    return StickinessReport(data.p, w0, tuple(w.tolist()), tuple(nu.tolist()), th, vd,
                            mean, sd, n)


@dataclass(frozen=True)
class SpiderInterval:
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

    def to_dict(self) -> dict:
        return asdict(self)


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
        raise ValueError("clt_interval expects an unweighted sample")
    report = intrinsic_mean(sample, tolerance)
    n = len(sample)
    if report.verdict.kind == "sticky":
        return SpiderInterval(
            None, 0.0, 0.0, 0.0, 0.0, confidence, report.verdict,
            note="sticky mean: the sample mean is the center a.s. for large n",
        )
    leg = report.verdict.leg
    s = np.where(sample.codes == leg, sample.u, -sample.u)  # other legs folded negative
    m = float(s.mean())
    se = float(s.std(ddof=1)) / math.sqrt(n)
    from statistics import NormalDist  # loads fractions and decimal: only here

    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    if report.verdict.kind == "non_sticky":
        lo, hi = m - z * se, m + z * se
        note = ""
        if lo < 0:
            lo = 0.0
            note = "interval truncated at the center"
        return SpiderInterval(leg, lo, hi, m, se, confidence, report.verdict, note)
    # boundary: half-normal quantile of the scaled folded mean
    hi = z * se
    return SpiderInterval(
        leg, 0.0, hi, m, se, confidence, report.verdict,
        note="boundary case: folded half-normal interval",
    )


def net_moment(sample: SpiderSample, candidate: SpiderPoint, leg: int) -> float:
    """First-moment balance toward a leg, evaluated at the center.

    ``E[d(X, center) * eps]`` with ``eps = -1`` on the target leg (distance
    shrinks as the candidate moves onto it) and ``+1`` elsewhere.  Equals
    ``-theta(leg)`` exactly; positivity for every leg certifies a sticky
    mean.  Only the center is a vertex of a spider, so only the center is
    accepted as candidate.
    """
    if not candidate.is_center:
        raise ValueError("net moments are evaluated at the spider's center")
    return -theta(summarize(sample), leg)
