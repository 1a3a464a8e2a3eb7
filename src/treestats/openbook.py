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
from functools import cached_property

import numpy as np

from .errors import EmptySampleError, InsufficientDataError, WrongRegimeError
from .spider import Verdict, validate_weights

__all__ = [
    "OpenBookPoint",
    "OpenBookSample",
    "SpineStickinessReport",
    "SpineInterval",
    "openbook_distance",
    "openbook_mean",
    "frechet_function",
    "spine_clt",
]

N_LEAVES = 3


@dataclass(frozen=True)
class OpenBookPoint:
    """Point of O3; ``x2 == 0`` is canonicalized to the spine (leaf None)."""

    leaf: int | None
    x1: float
    x2: float

    def __post_init__(self):
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError("coordinates must be finite")
        if self.x1 < 0 or self.x2 < 0:
            raise ValueError("open book coordinates are nonnegative")
        if self.x2 == 0.0:
            object.__setattr__(self, "leaf", None)
        elif self.leaf is None:
            raise ValueError("spine points must have x2 == 0")
        elif self.leaf not in (1, 2, 3):
            raise ValueError(f"leaf must be 1, 2, or 3, got {self.leaf!r}")

    @property
    def on_spine(self) -> bool:
        return self.leaf is None

    def to_dict(self) -> dict:
        return {"leaf": self.leaf, "x1": self.x1, "x2": self.x2}

    @classmethod
    def from_dict(cls, obj: dict) -> "OpenBookPoint":
        return cls(obj.get("leaf"), obj.get("x1", 0.0), obj.get("x2", 0.0))


def openbook_distance(x: OpenBookPoint, y: OpenBookPoint) -> float:
    """Euclidean within a leaf or through the spine, reflecting across leaves."""
    if x.leaf == y.leaf or x.leaf is None or y.leaf is None:
        return math.hypot(x.x1 - y.x1, x.x2 - y.x2)
    return math.hypot(x.x1 - y.x1, x.x2 + y.x2)


@dataclass(frozen=True)
class OpenBookSample:
    """Sample of O3 points with optional weights (default uniform)."""

    points: tuple[OpenBookPoint, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.weights is not None:
            w = validate_weights(self.weights, len(self.points))
            object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _leaf_codes(self) -> np.ndarray:
        return np.fromiter(
            (0 if pt.leaf is None else pt.leaf for pt in self.points),
            dtype=np.int64,
            count=len(self.points),
        )

    @cached_property
    def _x1(self) -> np.ndarray:
        return np.fromiter((pt.x1 for pt in self.points), dtype=float,
                           count=len(self.points))

    @cached_property
    def _x2(self) -> np.ndarray:
        return np.fromiter((pt.x2 for pt in self.points), dtype=float,
                           count=len(self.points))

    @cached_property
    def _w(self) -> np.ndarray:
        if self.weights is None:
            n = len(self.points)
            return np.full(n, 1.0 / n) if n else np.empty(0)
        return np.asarray(self.weights)

    @classmethod
    def from_arrays(cls, leaf_codes, x1, x2, weights=None) -> "OpenBookSample":
        leaf_codes = np.asarray(leaf_codes, dtype=np.int64)
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        pts = tuple(
            OpenBookPoint(int(c) if b else None, a, b)
            for c, a, b in zip(leaf_codes, x1, x2)
        )
        sample = cls(pts, tuple(weights) if weights is not None else None)
        sample.__dict__["_leaf_codes"] = np.where(x2 == 0.0, 0, leaf_codes)
        sample.__dict__["_x1"] = x1
        sample.__dict__["_x2"] = x2
        return sample

    def to_dict(self) -> dict:
        out = {"points": [pt.to_dict() for pt in self.points]}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "OpenBookSample":
        pts = tuple(OpenBookPoint.from_dict(o) for o in obj["points"])
        weights = obj.get("weights")
        return cls(pts, tuple(weights) if weights else None)


def frechet_function(x: OpenBookPoint, sample: OpenBookSample) -> float:
    """Weighted mean squared distance from ``x`` to the sample."""
    if not sample.points:
        raise EmptySampleError("empty sample")
    codes, x1, x2, wts = sample._leaf_codes, sample._x1, sample._x2, sample._w
    x_code = 0 if x.leaf is None else x.leaf
    same = (codes == x_code) | (codes == 0) | (x_code == 0)
    d2 = (x1 - x.x1) ** 2 + np.where(same, x2 - x.x2, x2 + x.x2) ** 2
    return float((wts * d2).sum())


@dataclass(frozen=True)
class SpineStickinessReport:
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

    def to_dict(self) -> dict:
        return {
            "x1_star": self.x1_star,
            "theta2": list(self.theta2),
            "verdict": self.verdict.to_dict(),
            "mean": self.mean.to_dict(),
            "spine_sd": self.spine_sd,
            "w": list(self.w),
            "n": self.n,
        }


def openbook_mean(sample: OpenBookSample, tolerance: float = 0.0) -> SpineStickinessReport:
    """Frechet mean on O3 with stickiness classification of the leaf part.

    The spine coordinate of the mean is the weighted mean of ``x1``.  The
    transverse coordinate is ``max(theta2)`` on the winning leaf when that
    gap exceeds ``tolerance``; otherwise the mean is on the spine
    (verdict ``StuckToSpine``, or ``Boundary`` within ``tolerance`` of 0).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if not sample.points:
        raise EmptySampleError("cannot average an empty sample")
    codes, x1, x2, wts = sample._leaf_codes, sample._x1, sample._x2, sample._w
    x1_star = float((wts * x1).sum())
    w = []
    v2 = []
    for a in (1, 2, 3):
        mask = codes == a
        w.append(float(wts[mask].sum()))
        v2.append(float((wts[mask] * x2[mask]).sum()))
    total = sum(v2)
    th2 = tuple(va - (total - va) for va in v2)
    best = max(range(N_LEAVES), key=lambda k: th2[k])
    t_max = th2[best]
    if t_max > tolerance:
        verdict = Verdict("non_sticky", best + 1)
        mean = OpenBookPoint(best + 1, x1_star, t_max)
    elif t_max >= -tolerance:
        verdict = Verdict("boundary", best + 1)
        mean = OpenBookPoint(None, x1_star, 0.0)
    else:
        verdict = Verdict("stuck_to_spine")
        mean = OpenBookPoint(None, x1_star, 0.0)
    spine_var = float((wts * (x1 - x1_star) ** 2).sum())
    return SpineStickinessReport(
        x1_star, th2, verdict, mean, math.sqrt(max(spine_var, 0.0)),
        tuple(w), len(sample)
    )


@dataclass(frozen=True)
class SpineInterval:
    """Normal confidence interval for the spine coordinate of a stuck mean."""

    lo: float
    hi: float
    x1_star: float
    se: float
    confidence: float
    n: int

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "x1_star": self.x1_star,
            "se": self.se,
            "confidence": self.confidence,
            "n": self.n,
        }


def spine_clt(
    sample: OpenBookSample, confidence: float = 0.95, tolerance: float = 0.0
) -> SpineInterval:
    """CI for the spine coordinate, valid when the mean sticks to the spine.

    Uses the sample variance of the ``x1`` projections.  Raises
    :class:`WrongRegimeError` on a non-sticky sample, whose mean leaves
    the spine.  Requires uniform weights.
    """
    from scipy.stats import norm  # deferred: a slow import few commands need

    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if len(sample) < 2:
        raise InsufficientDataError("confidence intervals need n >= 2")
    if sample.weights is not None:
        raise ValueError("spine_clt expects an unweighted sample")
    report = openbook_mean(sample, tolerance)
    if report.verdict.kind == "non_sticky":
        raise WrongRegimeError(
            "sample mean is off the spine; the spine CLT does not apply"
        )
    n = len(sample)
    se = float(sample._x1.std(ddof=1)) / math.sqrt(n)
    z = float(norm.ppf(0.5 + confidence / 2.0))
    lo = max(0.0, report.x1_star - z * se)
    hi = report.x1_star + z * se
    return SpineInterval(lo, hi, report.x1_star, se, confidence, n)
