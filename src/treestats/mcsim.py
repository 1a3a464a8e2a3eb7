"""Monte Carlo verification of the limiting laws for intrinsic means.

Population laws on a spider (or an open book) are described by leg
weights plus one nonnegative distribution per leg; the population moment
gaps then predict one of three regimes for the sample mean:

* ``i``   some gap positive: the mean lives on a leg, scaled fluctuations
  are asymptotically normal;
* ``ii``  the largest gap is zero (to within a few ulps of the summed
  leg moments, see ``_regime_of``): after folding the other legs
  onto the negative half-line, the scaled folded mean is half-normal in
  magnitude;
* ``iii`` all gaps negative: the sample mean equals the center exactly
  for all large n (stickiness).

``simulate`` draws many replicate samples, classifies each intrinsic
mean, and runs a Kolmogorov-Smirnov test against the fully specified
limit (population parameters, no estimation), so textbook critical
values apply.  Replicates get independent generators seeded by (seed,
replicate index) and can therefore run in any order.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import openbook as ob
from . import spider as sp

__all__ = [
    "PointMass",
    "Uniform",
    "Exponential",
    "Regime",
    "SpiderLaw",
    "OpenBookLaw",
    "SimReport",
    "classify_law",
    "classify_openbook_law",
    "simulate",
    "simulate_openbook",
    "spine_coverage",
]


# --------------------------------------------------------------------------
# one-dimensional leg distributions with nonnegative support
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointMass:
    u: float

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("point mass must sit at a nonnegative value")

    def mean(self) -> float:
        return self.u

    def second_moment(self) -> float:
        return self.u * self.u

    def draw(self, rng, size: int) -> np.ndarray:
        return np.full(size, float(self.u))

    def to_dict(self) -> dict:
        return {"kind": "point_mass", "u": self.u}


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= self.lo < self.hi:
            raise ValueError("need 0 <= lo < hi")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def second_moment(self) -> float:
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0

    def draw(self, rng, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)

    def to_dict(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return 2.0 / (self.rate * self.rate)

    def draw(self, rng, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def to_dict(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


_DIST_KINDS = {"point_mass": PointMass, "uniform": Uniform, "exponential": Exponential}


def distribution_from_dict(obj: dict):
    kind = obj.get("kind")
    if kind not in _DIST_KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    args = {k: v for k, v in obj.items() if k != "kind"}
    return _DIST_KINDS[kind](**args)


def _atom_at_zero(dist) -> bool:
    return isinstance(dist, PointMass) and dist.u == 0.0


# --------------------------------------------------------------------------
# laws
# --------------------------------------------------------------------------

class Regime(Enum):
    NONSTICKY = "i"
    BOUNDARY = "ii"
    STICKY = "iii"


@dataclass(frozen=True)
class SpiderLaw:
    """Sampling law on a p-leg spider: leg weights plus per-leg distributions.

    No mass at the center (the limiting regimes assume it), so
    distributions may not put an atom at zero.
    """

    weights: tuple[float, ...]
    legs: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", sp.validate_weights(self.weights))
        object.__setattr__(self, "legs", tuple(self.legs))
        if len(self.weights) != len(self.legs) or not self.legs:
            raise ValueError("need one distribution per leg")
        if any(_atom_at_zero(d) for d in self.legs):
            raise ValueError("leg distributions may not put mass at the center")

    @property
    def p(self) -> int:
        return len(self.legs)

    def to_dict(self) -> dict:
        return {
            "space": "spider",
            "weights": list(self.weights),
            "legs": [d.to_dict() for d in self.legs],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderLaw":
        return cls(
            tuple(obj["weights"]),
            tuple(distribution_from_dict(d) for d in obj["legs"]),
        )


@dataclass(frozen=True)
class OpenBookLaw:
    """Sampling law on O3: leaf weights plus (x1, x2) distributions per leaf."""

    weights: tuple[float, float, float]
    leaves: tuple  # three (x1 distribution, x2 distribution) pairs

    def __post_init__(self):
        object.__setattr__(self, "weights", sp.validate_weights(self.weights))
        object.__setattr__(self, "leaves", tuple(tuple(l) for l in self.leaves))
        if len(self.weights) != 3 or len(self.leaves) != 3:
            raise ValueError("an open-book law has exactly three leaves")
        if any(_atom_at_zero(x2) for _, x2 in self.leaves):
            raise ValueError("x2 distributions may not put mass on the spine")

    def to_dict(self) -> dict:
        return {
            "space": "openbook",
            "weights": list(self.weights),
            "leaves": [
                {"x1": a.to_dict(), "x2": b.to_dict()} for a, b in self.leaves
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "OpenBookLaw":
        leaves = tuple(
            (distribution_from_dict(l["x1"]), distribution_from_dict(l["x2"]))
            for l in obj["leaves"]
        )
        return cls(tuple(obj["weights"]), leaves)


def law_from_dict(obj: dict):
    space = obj.get("space", "spider" if "legs" in obj else "openbook")
    if space == "spider":
        return SpiderLaw.from_dict(obj)
    if space == "openbook":
        return OpenBookLaw.from_dict(obj)
    raise ValueError(f"unknown law space {space!r}")


# Moment gaps of a law are computed in floating point, so a law that is
# exactly on the boundary can come out a few ulps of sum(v) off zero (at
# most 0.75 * epsilon * sum(v) over 4000 laws with weights (0.5, x, 0.5 - x)).
# A largest gap within this relative tolerance is the boundary regime.
_BOUNDARY_RTOL = 8 * sys.float_info.epsilon


def _regime_of(v: tuple[float, ...]) -> tuple[Regime, tuple[float, ...]]:
    """Regime and moment gaps ``v_a - sum(v_b, b != a)`` of leg moments ``v``."""
    total = sum(v)
    th = tuple(va - (total - va) for va in v)
    t_max = max(th)
    tol = _BOUNDARY_RTOL * total
    if t_max > tol:
        return Regime.NONSTICKY, th
    if t_max >= -tol:
        return Regime.BOUNDARY, th
    return Regime.STICKY, th


def classify_law(law: SpiderLaw) -> tuple[Regime, tuple[float, ...]]:
    """Population regime and moment gaps, in closed form from the law."""
    return _regime_of(tuple(w * d.mean() for w, d in zip(law.weights, law.legs)))


def classify_openbook_law(law: OpenBookLaw) -> tuple[Regime, tuple[float, ...]]:
    """Population regime of the transverse coordinate on the open book."""
    return _regime_of(
        tuple(w * x2.mean() for w, (_, x2) in zip(law.weights, law.leaves))
    )


# --------------------------------------------------------------------------
# simulation reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    """Outcome of a replicated sampling experiment.

    ``stick_fraction`` is the share of replicates whose sample mean is
    exactly the center (or spine).  KS fields are ``None`` where the
    regime predicts a point mass or the law is degenerate.  ``runtime``
    is excluded from equality so seeded reruns compare equal.
    """

    space: str
    regime: Regime
    n: int
    replications: int
    stick_fraction: float
    theta: tuple[float, ...]
    ks_statistic: float | None
    ks_pvalue: float | None
    ks_statistic_secondary: float | None = None
    ks_pvalue_secondary: float | None = None
    degenerate: bool = False
    runtime_seconds: float = field(default=0.0, compare=False)

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "space": self.space,
            "regime": self.regime.value,
            "n": self.n,
            "replications": self.replications,
            "stick_fraction": self.stick_fraction,
            "theta": list(self.theta),
            "ks_statistic": self.ks_statistic,
            "ks_pvalue": self.ks_pvalue,
            "ks_statistic_secondary": self.ks_statistic_secondary,
            "ks_pvalue_secondary": self.ks_pvalue_secondary,
            "degenerate": self.degenerate,
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def kstest(sample, law: str):
    """``scipy.stats.kstest``; scipy is imported on first use, not at start-up."""
    from scipy import stats

    return stats.kstest(sample, law)


def _replicate_rng(seed: int, rep: int) -> np.random.Generator:
    # replicate index mixed into the seed: replicates are independent
    # streams and may be evaluated in any order
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(rep)]))


def draw_spider_sample(law: SpiderLaw, n: int, rng) -> sp.SpiderSample:
    """One i.i.d. sample of size n from a spider law."""
    legs = rng.choice(law.p, size=n, p=np.asarray(law.weights))
    u = np.empty(n)
    for a, dist in enumerate(law.legs):
        mask = legs == a
        k = int(mask.sum())
        if k:
            u[mask] = dist.draw(rng, k)
    return sp.SpiderSample.from_arrays(law.p, legs + 1, u)


def simulate(law: SpiderLaw, n: int, replications: int, seed: int = 0) -> SimReport:
    """Replicate spider samples and test the predicted limit law.

    Regime ``i``: KS of the standardized folded coordinate of the
    intrinsic sample mean against N(0,1).  Regime ``ii``: KS of the
    scaled magnitude of the folded sample mean against the half-normal.
    Regime ``iii``: stickiness frequency only.
    """
    if n < 1 or replications < 1:
        raise ValueError("n and replications must be >= 1")
    t0 = time.perf_counter()
    regime, th = classify_law(law)
    a_star = int(np.argmax(th))
    theta_star = th[a_star]
    second = sum(w * d.second_moment() for w, d in zip(law.weights, law.legs))
    sigma2 = second - theta_star * theta_star
    degenerate = sigma2 <= 1e-15
    sigma = math.sqrt(max(sigma2, 0.0))

    stats = np.empty(replications)
    stuck = 0
    for rep in range(replications):
        rng = _replicate_rng(seed, rep)
        sample = draw_spider_sample(law, n, rng)
        report = sp.intrinsic_mean(sample)
        mean_pt = report.mean
        if mean_pt.is_center:
            stuck += 1
        if regime is Regime.NONSTICKY:
            if mean_pt.leg == a_star + 1:
                folded = mean_pt.u
            elif mean_pt.is_center:
                folded = 0.0
            else:
                folded = -mean_pt.u
            stats[rep] = folded - theta_star
        else:
            # folded sample mean equals the winning moment gap
            stats[rep] = report.theta[a_star]

    ks_stat = ks_p = None
    if not degenerate and regime is Regime.NONSTICKY:
        z = math.sqrt(n) * stats / sigma
        ks_stat, ks_p = kstest(z, "norm")
    elif not degenerate and regime is Regime.BOUNDARY:
        t = math.sqrt(n) * np.abs(stats) / sigma
        ks_stat, ks_p = kstest(t, "halfnorm")
    return SimReport(
        "spider",
        regime,
        n,
        replications,
        stuck / replications,
        th,
        float(ks_stat) if ks_stat is not None else None,
        float(ks_p) if ks_p is not None else None,
        degenerate=degenerate,
        runtime_seconds=time.perf_counter() - t0,
    )


def draw_openbook_sample(law: OpenBookLaw, n: int, rng) -> ob.OpenBookSample:
    """One i.i.d. sample of size n from an open-book law."""
    leaves = rng.choice(3, size=n, p=np.asarray(law.weights))
    x1 = np.empty(n)
    x2 = np.empty(n)
    for a, (d1, d2) in enumerate(law.leaves):
        mask = leaves == a
        k = int(mask.sum())
        if k:
            x1[mask] = d1.draw(rng, k)
            x2[mask] = d2.draw(rng, k)
    return ob.OpenBookSample.from_arrays(leaves + 1, x1, x2)


def simulate_openbook(
    law: OpenBookLaw, n: int, replications: int, seed: int = 0
) -> SimReport:
    """Replicate O3 samples; KS the spine coordinate, and the leaf
    coordinate where the regime keeps the mean off the spine.

    ``stick_fraction`` counts replicates whose mean lands on the spine.
    The spine coordinate of the mean is an ordinary Euclidean mean, so
    its standardized fluctuations are tested against N(0,1) in every
    regime; the transverse coordinate is tested against N(0,1) in regime
    ``i`` and the half-normal in regime ``ii``.
    """
    if n < 1 or replications < 1:
        raise ValueError("n and replications must be >= 1")
    t0 = time.perf_counter()
    regime, th2 = classify_openbook_law(law)
    a_star = int(np.argmax(th2))
    theta_star = th2[a_star]
    mu1 = sum(w * d1.mean() for w, (d1, _) in zip(law.weights, law.leaves))
    second1 = sum(w * d1.second_moment() for w, (d1, _) in zip(law.weights, law.leaves))
    sigma1 = math.sqrt(max(second1 - mu1 * mu1, 0.0))
    second2 = sum(w * d2.second_moment() for w, (_, d2) in zip(law.weights, law.leaves))
    sigma2 = math.sqrt(max(second2 - theta_star * theta_star, 0.0))
    degenerate = sigma1 * sigma1 <= 1e-15

    spine_stats = np.empty(replications)
    leaf_stats = np.empty(replications)
    stuck = 0
    for rep in range(replications):
        rng = _replicate_rng(seed, rep)
        sample = draw_openbook_sample(law, n, rng)
        report = ob.openbook_mean(sample)
        if report.mean.on_spine:
            stuck += 1
        spine_stats[rep] = report.x1_star - mu1
        if regime is Regime.NONSTICKY:
            mean_pt = report.mean
            if mean_pt.leaf == a_star + 1:
                folded = mean_pt.x2
            elif mean_pt.on_spine:
                folded = 0.0
            else:
                folded = -mean_pt.x2
            leaf_stats[rep] = folded - theta_star
        else:
            leaf_stats[rep] = report.theta2[a_star]

    ks_stat = ks_p = None
    if not degenerate:
        z = math.sqrt(n) * spine_stats / sigma1
        ks_stat, ks_p = kstest(z, "norm")
    ks2_stat = ks2_p = None
    if sigma2 * sigma2 > 1e-15:
        if regime is Regime.NONSTICKY:
            z2 = math.sqrt(n) * leaf_stats / sigma2
            ks2_stat, ks2_p = kstest(z2, "norm")
        elif regime is Regime.BOUNDARY:
            t = math.sqrt(n) * np.abs(leaf_stats) / sigma2
            ks2_stat, ks2_p = kstest(t, "halfnorm")
    return SimReport(
        "openbook",
        regime,
        n,
        replications,
        stuck / replications,
        th2,
        float(ks_stat) if ks_stat is not None else None,
        float(ks_p) if ks_p is not None else None,
        float(ks2_stat) if ks2_stat is not None else None,
        float(ks2_p) if ks2_p is not None else None,
        degenerate=degenerate,
        runtime_seconds=time.perf_counter() - t0,
    )


def spine_coverage(
    law: OpenBookLaw,
    n: int,
    replications: int,
    confidence: float = 0.95,
    seed: int = 0,
) -> float:
    """Empirical coverage of the spine confidence interval.

    For each replicate sample the spine CI is computed (replicates whose
    mean escapes the spine count as misses) and checked against the
    population spine coordinate.
    """
    from .errors import WrongRegimeError

    mu1 = sum(w * d1.mean() for w, (d1, _) in zip(law.weights, law.leaves))
    hits = 0
    for rep in range(replications):
        rng = _replicate_rng(seed, rep)
        sample = draw_openbook_sample(law, n, rng)
        try:
            interval = ob.spine_clt(sample, confidence)
        except WrongRegimeError:
            continue
        if interval.lo <= mu1 <= interval.hi:
            hits += 1
    return hits / replications
