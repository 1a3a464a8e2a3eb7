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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySampleError, InsufficientDataError, InvalidWeightsError

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
    "intrinsic_mean",
    "clt_interval",
    "net_moment",
]


def validate_weights(weights, count: int | None = None) -> tuple[float, ...]:
    """Weights as floats, checked to be finite, nonnegative and sum to 1.

    ``count``, when given, is the number of points the weights belong to.
    Shared by the spider, open-book and tree-space samples and the
    simulation laws; raises :class:`InvalidWeightsError`.
    """
    w = tuple(float(x) for x in weights)
    if count is not None and len(w) != count:
        raise InvalidWeightsError("weights length must match point count")
    if not all(math.isfinite(x) for x in w):
        raise InvalidWeightsError("weights must be finite")
    if any(x < 0 for x in w):
        raise InvalidWeightsError("weights must be nonnegative")
    if abs(sum(w) - 1.0) > 1e-9:
        raise InvalidWeightsError("weights must sum to 1")
    return w


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
            raise ValueError(f"leg coordinate must be finite and >= 0, got {self.u}")
        if self.u == 0.0:
            object.__setattr__(self, "leg", None)
        elif self.leg is None:
            raise ValueError("center points must have u == 0")
        elif not isinstance(self.leg, int) or self.leg < 1:
            raise ValueError(f"leg must be a 1-based integer, got {self.leg!r}")

    @property
    def is_center(self) -> bool:
        return self.leg is None

    def to_dict(self) -> dict:
        return {"leg": self.leg, "u": self.u}

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderPoint":
        return cls(obj.get("leg"), obj.get("u", 0.0))


CENTER = SpiderPoint(None, 0.0)


def spider_distance(x: SpiderPoint, y: SpiderPoint) -> float:
    """Geodesic distance: along a leg, or through the center across legs."""
    if x.leg == y.leg:
        return abs(x.u - y.u)
    return x.u + y.u


@dataclass(frozen=True)
class SpiderSample:
    """Sample of spider points with optional weights (default uniform)."""

    p: int
    points: tuple[SpiderPoint, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("a spider needs at least one leg")
        object.__setattr__(self, "points", tuple(self.points))
        for pt in self.points:
            if pt.leg is not None and pt.leg > self.p:
                raise ValueError(f"point on leg {pt.leg} exceeds p={self.p}")
        if self.weights is not None:
            w = validate_weights(self.weights, len(self.points))
            object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _leg_codes(self) -> np.ndarray:
        # 0 encodes the center
        return np.fromiter(
            (0 if pt.leg is None else pt.leg for pt in self.points),
            dtype=np.int64,
            count=len(self.points),
        )

    @cached_property
    def _u(self) -> np.ndarray:
        return np.fromiter(
            (pt.u for pt in self.points), dtype=float, count=len(self.points)
        )

    @cached_property
    def _w(self) -> np.ndarray:
        if self.weights is None:
            n = len(self.points)
            return np.full(n, 1.0 / n) if n else np.empty(0)
        return np.asarray(self.weights)

    @classmethod
    def from_arrays(cls, p, leg_codes, u, weights=None) -> "SpiderSample":
        """Build a sample from arrays; leg code 0 means the center."""
        leg_codes = np.asarray(leg_codes, dtype=np.int64)
        u = np.asarray(u, dtype=float)
        pts = tuple(
            SpiderPoint(int(c) if c else None, float(x))
            for c, x in zip(leg_codes, u)
        )
        sample = cls(p, pts, tuple(weights) if weights is not None else None)
        # seed the cached arrays so hot paths skip reconversion
        sample.__dict__["_leg_codes"] = np.where(u == 0.0, 0, leg_codes)
        sample.__dict__["_u"] = u
        return sample

    def to_dict(self) -> dict:
        out = {"p": self.p, "points": [pt.to_dict() for pt in self.points]}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderSample":
        pts = tuple(SpiderPoint.from_dict(o) for o in obj["points"])
        weights = obj.get("weights")
        return cls(int(obj["p"]), pts, tuple(weights) if weights else None)


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
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        object.__setattr__(self, "nu", tuple(float(x) for x in self.nu))
        if self.m2 is not None:
            object.__setattr__(self, "m2", tuple(float(x) for x in self.m2))
        for name, values in (("w0", (self.w0,)), ("w", self.w), ("nu", self.nu),
                             ("m2", self.m2 or ())):
            if not all(map(math.isfinite, values)):
                raise InvalidWeightsError(f"summary {name} must be finite")
        if len(self.w) != self.p or len(self.nu) != self.p:
            raise ValueError("w and nu must have one entry per leg")
        if self.w0 < 0 or any(x < 0 for x in self.w) or any(x < 0 for x in self.nu):
            raise ValueError("masses and conditional means must be nonnegative")
        if self.m2 is not None and len(self.m2) != self.p:
            raise ValueError("m2 must have one entry per leg")

    @property
    def v(self) -> tuple[float, ...]:
        return tuple(wa * na for wa, na in zip(self.w, self.nu))

    def to_dict(self) -> dict:
        return {"p": self.p, "w0": self.w0, "w": list(self.w), "nu": list(self.nu)}


def summarize(sample: SpiderSample) -> SpiderMeasureSummary:
    """Decompose a sample into center mass plus per-leg masses and moments."""
    if not sample.points:
        raise EmptySampleError("cannot summarize an empty sample")
    codes, u, wts = sample._leg_codes, sample._u, sample._w
    w0 = float(wts[codes == 0].sum())
    w, nu, m2 = [], [], []
    for a in range(1, sample.p + 1):
        mask = codes == a
        wa = float(wts[mask].sum())
        w.append(wa)
        if wa > 0:
            ua = u[mask]
            wa_i = wts[mask]
            nu.append(float((wa_i * ua).sum()) / wa)
            m2.append(float((wa_i * ua * ua).sum()) / wa)
        else:
            nu.append(0.0)
            m2.append(0.0)
    return SpiderMeasureSummary(sample.p, w0, tuple(w), tuple(nu), tuple(m2))


def thetas(summary: SpiderMeasureSummary) -> tuple[float, ...]:
    """All per-leg moment gaps ``theta_a = v_a - sum(v_b, b != a)``."""
    v = summary.v
    total = sum(v)
    return tuple(va - (total - va) for va in v)


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
        if not data.points:
            raise EmptySampleError("empty sample")
        codes, u, wts = data._leg_codes, data._u, data._w
        x_code = 0 if x.leg is None else x.leg
        dist = np.where(codes == x_code, np.abs(u - x.u), u + x.u)
        return float((wts * dist * dist).sum())
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
        name = {
            "non_sticky": "NonSticky",
            "boundary": "Boundary",
            "sticky": "Sticky",
            "stuck_to_spine": "StuckToSpine",
        }[self.kind]
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
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if isinstance(data, SpiderSample):
        summary = summarize(data)
        n = len(data)
    else:
        summary = data
        n = None
    th = thetas(summary)
    best = max(range(summary.p), key=lambda k: th[k])
    t_max = th[best]
    if t_max > tolerance:
        verdict = Verdict("non_sticky", best + 1)
        mean = SpiderPoint(best + 1, t_max)
    elif t_max >= -tolerance:
        verdict = Verdict("boundary", best + 1)
        mean = CENTER
    else:
        verdict = Verdict("sticky")
        mean = CENTER
    if isinstance(data, SpiderSample):
        sd = math.sqrt(frechet_function(mean, data))
    elif summary.m2 is not None:
        sd = math.sqrt(frechet_function(mean, summary))
    else:
        sd = math.nan
    return StickinessReport(
        summary.p, summary.w0, summary.w, summary.nu, th, verdict, mean, sd, n
    )


def _folded(sample: SpiderSample, leg: int) -> np.ndarray:
    """Coordinates after folding every other leg onto the negative half-line."""
    codes, u = sample._leg_codes, sample._u
    return np.where(codes == leg, u, -u)


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
        return {
            "leg": self.leg,
            "lo": self.lo,
            "hi": self.hi,
            "folded_mean": self.folded_mean,
            "folded_se": self.folded_se,
            "confidence": self.confidence,
            "verdict": self.verdict.to_dict(),
            "note": self.note,
        }


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
    from scipy.stats import norm  # deferred: a slow import few commands need

    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if len(sample) < 2:
        raise InsufficientDataError("confidence intervals need n >= 2")
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
    s = _folded(sample, leg)
    m = float(s.mean())
    se = float(s.std(ddof=1)) / math.sqrt(n)
    z = float(norm.ppf(0.5 + confidence / 2.0))
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
    summary = summarize(sample)
    if not 1 <= leg <= sample.p:
        raise ValueError(f"leg {leg} out of range 1..{sample.p}")
    v = summary.v
    total = sum(v)
    return (total - v[leg - 1]) - v[leg - 1]
