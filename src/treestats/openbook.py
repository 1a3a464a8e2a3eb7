"""The three-leaf open book: reflection metric and spine stickiness.

The open book O3 is three Euclidean quadrants (leaves) glued along a
shared boundary half-line (the spine).  A point is ``(leaf, x1, x2)``
with ``x1`` the spine coordinate and ``x2`` the distance into the leaf;
``x2 == 0`` is the spine, where the leaf label is dropped.

Distances inside one leaf are Euclidean; across leaves one point is
reflected to ``(x1, -x2)`` first.  The Frechet mean therefore splits into
two one-dimensional problems: the spine coordinate of the mean is always
the plain weighted mean of ``x1``, while the leaf coordinate behaves like
a spider mean driven by the per-leaf gaps ``theta2``.  When every
``theta2`` is negative the mean sticks to the spine but keeps its spine
degree of freedom, where ordinary normal asymptotics hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptySampleError, InvalidWeightsError, WrongRegimeError
from .spider import (MAX_COORD, ArraySample, Record, Verdict, check_interval, code_sums, gaps,
                     normal_half_width, point_arrays, verdict)

__all__ = [
    "OpenBookPoint",
    "OpenBookSample",
    "SpineStickinessReport",
    "SpineInterval",
    "openbook_distance",
    "openbook_mean",
    "spine_clt",
]

N_LEAVES = 3


@dataclass(frozen=True)
class OpenBookPoint(Record):
    """Point of O3; ``x2 == 0`` is canonicalized to the spine (leaf None).

    The point is checked as a sample of one point, by
    :func:`~treestats.spider.point_arrays`.
    """

    leaf: int | None
    x1: float
    x2: float

    def __post_init__(self):
        codes, coords = point_arrays(N_LEAVES, "leaf", [0 if self.leaf is None else self.leaf],
                                     at="", given=[self.leaf], x1=[self.x1], x2=[self.x2])
        object.__setattr__(self, "leaf", int(codes[0]) or None)
        for name, c in coords.items():
            object.__setattr__(self, name, float(c[0]))


def openbook_distance(x: OpenBookPoint, y: OpenBookPoint) -> float:
    """Euclidean within a leaf or through the spine, reflecting across leaves."""
    if x.leaf == y.leaf or x.leaf is None or y.leaf is None:
        return math.hypot(x.x1 - y.x1, x.x2 - y.x2)
    return math.hypot(x.x1 - y.x1, x.x2 + y.x2)


class OpenBookSample(ArraySample):
    """Sample of O3 points with optional weights (default uniform).

    Held as read-only arrays ``codes`` (leaf, 0 for the spine), ``x1`` and
    ``x2``; see :class:`~treestats.spider.ArraySample`.
    ``OpenBookSample(points, weights)`` takes point objects,
    :meth:`from_arrays` the arrays.
    """

    _header_fields, _code, _coords = (), "leaf", ("x1", "x2")
    _point = OpenBookPoint

    def __init__(self, points=(), weights=None):
        points = tuple(points)
        codes = [0 if pt.leaf is None else pt.leaf for pt in points]
        codes, coords = point_arrays(N_LEAVES, self._code, codes, x1=[pt.x1 for pt in points],
                                     x2=[pt.x2 for pt in points])
        self._keep(codes, weights, points=points, **coords)

    @classmethod
    def from_arrays(cls, leaf_codes, x1, x2, weights=None) -> "OpenBookSample":
        """Build a sample from arrays; leaf code 0 means the spine."""
        codes, coords = point_arrays(N_LEAVES, cls._code, leaf_codes, x1=x1, x2=x2)
        return cls.__new__(cls)._keep(codes, weights, **coords)


@dataclass(frozen=True)
class SpineStickinessReport(Record):
    """Mean of an O3 sample with the spine-stickiness verdict.

    ``x1_star`` is the spine coordinate of the mean (always the weighted
    mean of ``x1``), ``theta2`` the per-leaf gaps of the transverse
    coordinate, and ``spine_sd`` the population standard deviation of the
    spine projections.
    """

    x1_star: float
    theta2: tuple[float, float, float]
    verdict: Verdict
    mean: OpenBookPoint
    spine_sd: float
    w: tuple[float, float, float]
    n: int | None = None


def openbook_mean(sample: OpenBookSample, tolerance: float = 0.0) -> SpineStickinessReport:
    """Frechet mean on O3 with stickiness classification of the leaf part.

    The spine coordinate of the mean is the weighted mean of ``x1``.  The
    transverse coordinate is ``max(theta2)`` on the winning leaf when that
    gap exceeds ``tolerance``; otherwise the mean is on the spine
    (verdict ``StuckToSpine``, or ``Boundary`` within ``tolerance`` of 0).
    """
    if not len(sample):
        raise EmptySampleError("cannot average an empty sample")
    codes, x1, x2, wts = sample.codes, sample.x1, sample.x2, sample._w
    x1_star = float((wts * x1).sum())
    w, s2 = (sums[1:] for sums in code_sums(codes, N_LEAVES, wts, x2))
    th2 = tuple(gaps(s2).tolist())
    vd = verdict(th2, tolerance)
    # off the spine only when non-sticky: x2 == 0 puts the mean on the spine;
    # a weighted mean of coordinates up to MAX_COORD may round past it
    x2_star = th2[vd.leg - 1] if vd.kind == "non_sticky" else 0.0
    mean = OpenBookPoint(vd.leg, min(x1_star, MAX_COORD), min(x2_star, MAX_COORD))
    if vd.kind == "sticky":
        vd = Verdict("stuck_to_spine")
    spine_var = float((wts * (x1 - x1_star) ** 2).sum())
    return SpineStickinessReport(
        x1_star, th2, vd, mean, math.sqrt(max(spine_var, 0.0)),
        tuple(w.tolist()), len(sample)
    )


@dataclass(frozen=True)
class SpineInterval(Record):
    """Normal confidence interval for the spine coordinate of a stuck mean."""

    lo: float
    hi: float
    x1_star: float
    se: float
    confidence: float
    n: int


def spine_clt(
    sample: OpenBookSample, confidence: float = 0.95, tolerance: float = 0.0
) -> SpineInterval:
    """CI for the spine coordinate, valid when the mean sticks to the spine.

    Uses the sample variance of the ``x1`` projections.  Raises
    :class:`WrongRegimeError` on a non-sticky sample, whose mean leaves
    the spine.  Requires uniform weights.
    """
    check_interval(confidence, len(sample))
    if sample.weights is not None:
        raise InvalidWeightsError("spine_clt expects an unweighted sample")
    report = openbook_mean(sample, tolerance)
    if report.verdict.kind == "non_sticky":
        raise WrongRegimeError("sample mean is off the spine; the spine CLT does not apply")
    n, x1_star = len(sample), report.x1_star
    half, se = normal_half_width(float(sample.x1.std(ddof=1)), n, confidence)
    return SpineInterval(max(x1_star - half, 0.0), x1_star + half, x1_star, se, confidence, n)
