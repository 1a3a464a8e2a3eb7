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

The KS statistic is taken over the sorted values, with the normal CDF
from ``math.erfc`` and the half-normal from ``math.erf``; its p-value is
the exact two-sided tail of :mod:`treestats.kolmogorov`, whose method
selection is that of Simard & L'Ecuyer (2011), "Computing the two-sided
Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11).
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import kolmogorov
from . import openbook as ob
from . import spider as sp
from .errors import InvalidParameterError, WrongRegimeError

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

def _check(name: str, value, rule: str, ok) -> None:
    """Raise :class:`InvalidParameterError` naming ``name`` unless ``value``
    is a finite real number that passes ``ok``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and ok(value))):
        raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class PointMass:
    u: float

    def __post_init__(self):
        _check("u", self.u, "finite and >= 0", lambda v: v >= 0)

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
        _check("lo", self.lo, "finite and >= 0", lambda v: v >= 0)
        _check("hi", self.hi, f"finite and > lo = {self.lo!r}", lambda v: v > self.lo)

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
        _check("rate", self.rate, "finite and > 0", lambda v: v > 0)

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return 2.0 / (self.rate * self.rate)

    def draw(self, rng, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def to_dict(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


_DIST_KINDS = {"point_mass": PointMass, "uniform": Uniform, "exponential": Exponential}


def distribution_from_dict(obj: dict, where: str = "distribution"):
    """A leg distribution from its JSON object.

    Errors are :class:`InvalidParameterError` naming the field as
    ``where.<parameter>``, e.g. ``legs[0].rate``.
    """
    if obj is None:
        raise InvalidParameterError(f"{where} is missing")
    if not isinstance(obj, dict):
        raise InvalidParameterError(f"{where} must be a distribution object, got {obj!r}")
    kind = obj.get("kind")
    cls = _DIST_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidParameterError(
            f"{where}.kind must be one of {', '.join(_DIST_KINDS)}, got {kind!r}")
    args = {k: v for k, v in obj.items() if k != "kind"}
    params = [f.name for f in fields(cls)]
    for key in args:
        if key not in params:
            raise InvalidParameterError(f"{where}.{key} is not a parameter of {kind}")
    for key in params:
        if key not in args:
            raise InvalidParameterError(f"{where}.{key} is missing")
    try:
        return cls(**args)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{where}.{exc}") from None


def _list_field(obj: dict, key: str) -> list:
    if key not in obj:
        raise InvalidParameterError(f"{key} is missing")
    if not isinstance(obj[key], list):
        raise InvalidParameterError(f"{key} must be a list, got {obj[key]!r}")
    return obj[key]


def _one_weight_each(weights, dists, items: str, where: str, place: str) -> tuple[float, ...]:
    """Checked law weights, one per distribution in ``dists`` (``items``),
    none of which may put an atom at 0, the center or spine (``place``).
    ``where`` formats the field of distribution ``a``."""
    w = sp.validate_weights(weights)
    if not dists or len(w) != len(dists):
        raise InvalidParameterError(f"weights has {len(w)} entries for {len(dists)} {items}")
    for a, d in enumerate(dists):
        if isinstance(d, PointMass) and d.u == 0:
            raise InvalidParameterError(
                f"{where.format(a)}.u must be > 0 (a law puts no mass {place}), got {d.u!r}")
    return w


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
        object.__setattr__(self, "legs", tuple(self.legs))
        object.__setattr__(self, "weights", _one_weight_each(
            self.weights, self.legs, "legs", "legs[{}]", "at the center"))

    @property
    def p(self) -> int:
        return len(self.legs)

    @property
    def transverse(self) -> tuple:
        """Per-leg distributions of the coordinate whose mean can stick."""
        return self.legs

    def to_dict(self) -> dict:
        return {
            "space": "spider",
            "weights": list(self.weights),
            "legs": [d.to_dict() for d in self.legs],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderLaw":
        legs = _list_field(obj, "legs")
        return cls(
            tuple(_list_field(obj, "weights")),
            tuple(distribution_from_dict(d, f"legs[{a}]") for a, d in enumerate(legs)),
        )


@dataclass(frozen=True)
class OpenBookLaw:
    """Sampling law on O3: leaf weights plus (x1, x2) distributions per leaf."""

    weights: tuple[float, float, float]
    leaves: tuple  # three (x1 distribution, x2 distribution) pairs

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(tuple(l) for l in self.leaves))
        if len(self.leaves) != 3:
            raise InvalidParameterError(
                f"leaves: an open-book law has exactly three, got {len(self.leaves)}")
        object.__setattr__(self, "weights", _one_weight_each(
            self.weights, self.transverse, "leaves", "leaves[{}].x2", "on the spine"))

    @property
    def transverse(self) -> tuple:
        """Per-leaf ``x2`` distributions: the coordinate whose mean can stick."""
        return tuple(x2 for _, x2 in self.leaves)

    @property
    def spine(self) -> tuple:
        """Per-leaf ``x1`` distributions."""
        return tuple(x1 for x1, _ in self.leaves)

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
        leaves = []
        for i, leaf in enumerate(_list_field(obj, "leaves")):
            if not isinstance(leaf, dict):
                raise InvalidParameterError(f"leaves[{i}] must be an object with x1 and x2")
            leaves.append(tuple(
                distribution_from_dict(leaf.get(x), f"leaves[{i}].{x}") for x in ("x1", "x2")))
        return cls(tuple(_list_field(obj, "weights")), tuple(leaves))


_LAWS = {"spider": SpiderLaw, "openbook": OpenBookLaw}


def law_from_dict(obj: dict):
    """A spider or open-book law from its JSON object.

    Without ``space``, a document with ``legs`` is a spider law and any
    other an open-book law.  Bad fields raise
    :class:`InvalidParameterError` naming them.
    """
    space = obj.get("space", "spider" if "legs" in obj else "openbook")
    law = _LAWS.get(space) if isinstance(space, str) else None
    if law is None:
        raise InvalidParameterError(f"space must be 'spider' or 'openbook', got {space!r}")
    return law.from_dict(obj)


# Moment gaps of a law are computed in floating point, so a law that is
# exactly on the boundary can come out a few ulps of sum(v) off zero (at
# most 0.75 * epsilon * sum(v) over 4000 laws with weights (0.5, x, 0.5 - x)).
# A largest gap within this relative tolerance is the boundary regime.
_BOUNDARY_RTOL = 8 * sys.float_info.epsilon


def _regime_of(v: tuple[float, ...]) -> tuple[Regime, tuple[float, ...]]:
    """Regime and moment gaps ``v_a - sum(v_b, b != a)`` of leg moments ``v``."""
    th = sp.gaps(v)
    kind = sp.verdict(th, _BOUNDARY_RTOL * sum(v)).kind  # e.g. "non_sticky" -> NONSTICKY
    return Regime[kind.replace("_", "").upper()], th


def classify_law(law) -> tuple[Regime, tuple[float, ...]]:
    """Population regime and moment gaps, in closed form from the law.

    On an open book these are the regime and gaps of the transverse
    coordinate ``x2``.
    """
    return _regime_of(tuple(w * d.mean() for w, d in zip(law.weights, law.transverse)))


classify_openbook_law = classify_law


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


_SQRT2, _SQRT_HALF = math.sqrt(2.0), math.sqrt(0.5)
_CDFS = {
    "norm": lambda x: 0.5 * math.erfc(-x * _SQRT_HALF),
    "halfnorm": lambda x: math.erf(x / _SQRT2) if x > 0 else 0.0,
}


def kstest(values, law: str) -> tuple[float, float]:
    """Two-sided KS test of ``values`` against ``law`` (``"norm"`` or
    ``"halfnorm"``, both standard): ``(statistic, p-value)``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = np.array([_CDFS[law](v) for v in x.tolist()])
    d = max(float((np.arange(1.0, n + 1) / n - cdf).max()),
            float((cdf - np.arange(0.0, n) / n).max()))
    return d, kolmogorov.sf(n, d)


def _replicate_rng(seed: int, rep: int) -> np.random.Generator:
    # replicate index mixed into the seed: replicates are independent
    # streams and may be evaluated in any order
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(rep)]))


def _draw(weights, leg_dists, n: int, rng):
    """Leg codes (1-based) of an i.i.d. sample and one coordinate array per
    entry of each leg's tuple of distributions, drawn leg by leg."""
    legs = rng.choice(len(weights), size=n, p=np.asarray(weights))
    coords = [np.empty(n) for _ in leg_dists[0]]
    for a, dists in enumerate(leg_dists):
        mask = legs == a
        k = int(mask.sum())
        if k:
            for x, dist in zip(coords, dists):
                x[mask] = dist.draw(rng, k)
    return legs + 1, coords


def draw_spider_sample(law: SpiderLaw, n: int, rng) -> sp.SpiderSample:
    """One i.i.d. sample of size n from a spider law."""
    codes, (u,) = _draw(law.weights, [(d,) for d in law.legs], n, rng)
    return sp.SpiderSample.from_arrays(law.p, codes, u)


def draw_openbook_sample(law: OpenBookLaw, n: int, rng) -> ob.OpenBookSample:
    """One i.i.d. sample of size n from an open-book law."""
    codes, (x1, x2) = _draw(law.weights, law.leaves, n, rng)
    return ob.OpenBookSample.from_arrays(codes, x1, x2)


def _replicate_samples(law, n: int, replications: int, seed: int):
    """The replicate samples of a law, in replicate order: the one replicate
    loop of ``simulate``, ``simulate_openbook`` and ``spine_coverage``.

    Replicate ``rep`` is drawn from its own generator (see
    ``_replicate_rng``).
    """
    for name, value in (("n", n), ("replications", replications)):
        if value < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {value}")
    draw = draw_openbook_sample if isinstance(law, OpenBookLaw) else draw_spider_sample
    return (draw(law, n, _replicate_rng(seed, rep)) for rep in range(replications))


def _moment(weights, dists, moment: str) -> float:
    """Population moment (``"mean"`` or ``"second_moment"``) of a mixture."""
    return sum(w * getattr(d, moment)() for w, d in zip(weights, dists))


def _ks(values, law: str, n: int, sigma: float):
    """KS statistic and p-value of ``sqrt(n) * values / sigma`` against ``law``."""
    return kstest(math.sqrt(n) * values / sigma, law)


def _simulate(law, n: int, replications: int, seed: int) -> SimReport:
    """Replicate loop behind ``simulate`` and ``simulate_openbook``.

    Per replicate, the intrinsic mean's verdict and moment gaps give the
    folded transverse statistic; the open book also records its spine
    coordinate ``x1_star``.
    """
    t0 = time.perf_counter()
    samples = _replicate_samples(law, n, replications, seed)
    book = isinstance(law, OpenBookLaw)
    regime, th = classify_law(law)
    a_star = int(np.argmax(th))
    theta_star = th[a_star]
    var = _moment(law.weights, law.transverse, "second_moment") - theta_star * theta_star
    mean = ob.openbook_mean if book else sp.intrinsic_mean

    stats = np.empty(replications)
    spine = np.empty(replications)
    stuck = 0
    for rep, sample in enumerate(samples):
        report = mean(sample)
        gaps = report.theta2 if book else report.theta
        leg = report.verdict.leg
        off = report.verdict.kind == "non_sticky"
        stuck += not off
        if book:
            spine[rep] = report.x1_star
        if regime is Regime.NONSTICKY:
            # signed coordinate of the mean on the line through leg a_star
            folded = (gaps[leg - 1] if leg == a_star + 1 else -gaps[leg - 1]) if off else 0.0
            stats[rep] = folded - theta_star
        else:
            # the folded sample mean equals the winning moment gap
            stats[rep] = gaps[a_star]

    ks = ks2 = (None, None)
    if var > 1e-15 and regime is Regime.NONSTICKY:
        ks = _ks(stats, "norm", n, math.sqrt(var))
    elif var > 1e-15 and regime is Regime.BOUNDARY:
        ks = _ks(np.abs(stats), "halfnorm", n, math.sqrt(var))
    degenerate = var <= 1e-15
    if book:
        # the spine coordinate is a Euclidean mean: N(0,1) in every regime
        mu1 = _moment(law.weights, law.spine, "mean")
        var1 = _moment(law.weights, law.spine, "second_moment") - mu1 * mu1
        degenerate = var1 <= 1e-15
        spine_ks = (None, None) if degenerate else _ks(spine - mu1, "norm", n, math.sqrt(var1))
        ks, ks2 = spine_ks, ks
    return SimReport(
        "openbook" if book else "spider", regime, n, replications,
        stuck / replications, th, *ks, *ks2,
        degenerate=degenerate, runtime_seconds=time.perf_counter() - t0,
    )


def simulate(law: SpiderLaw, n: int, replications: int, seed: int = 0) -> SimReport:
    """Replicate spider samples and test the predicted limit law.

    Regime ``i``: KS of the standardized folded coordinate of the
    intrinsic sample mean against N(0,1).  Regime ``ii``: KS of the
    scaled magnitude of the folded sample mean against the half-normal.
    Regime ``iii``: stickiness frequency only.
    """
    return _simulate(law, n, replications, seed)


def simulate_openbook(
    law: OpenBookLaw, n: int, replications: int, seed: int = 0
) -> SimReport:
    """Replicate O3 samples; KS the spine coordinate, and the leaf
    coordinate where the regime keeps the mean off the spine.

    ``stick_fraction`` counts replicates whose mean lands on the spine.
    The spine coordinate of the mean is an ordinary Euclidean mean, so
    its standardized fluctuations are tested against N(0,1) in every
    regime; the transverse coordinate is tested against N(0,1) in regime
    ``i`` and the half-normal in regime ``ii`` (the secondary KS fields).
    """
    return _simulate(law, n, replications, seed)


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
    mu1 = _moment(law.weights, law.spine, "mean")
    hits = 0
    for sample in _replicate_samples(law, n, replications, seed):
        try:
            interval = ob.spine_clt(sample, confidence)
        except WrongRegimeError:
            continue
        hits += interval.lo <= mu1 <= interval.hi
    return hits / replications
