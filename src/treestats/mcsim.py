"""Monte Carlo verification of the limiting laws for intrinsic means.

Population laws on a spider (or an open book) are described by leg
weights plus one nonnegative distribution per leg; the population moment
gaps then predict one of three regimes for the sample mean:

* ``i``   some gap positive: the mean lives on a leg, scaled fluctuations
  are asymptotically normal;
* ``ii``  the largest gap is zero (to within a few ulps of the summed
  leg moments, see ``classify_law``): after folding the other legs
  onto the negative half-line, the scaled folded mean is half-normal in
  magnitude;
* ``iii`` all gaps negative: the sample mean equals the center exactly
  for all large n (stickiness).

``simulate`` draws many replicate samples, classifies each intrinsic
mean, and runs a Kolmogorov-Smirnov test against the fully specified
limit (population parameters, no estimation), so textbook critical
values apply.  Replicate ``rep`` draws from PCG64 seeded by
``SeedSequence([seed, rep])``, an independent stream, so replicates can
run in any order.  That seeding is computed in arrays, numpy's mixing on
uint32 words for all replicates of a draw block at once, and gives
numpy's own streams.
The seed must be an integer >= 0 and there are at most 2**32 replicates
(``MAX_REPLICATIONS``): the replicate index is one 32-bit word.

It does so in two stages.  Replicates are drawn in blocks of at most
``_BLOCK`` draws per coordinate, and each block is reduced to the
per-leg sums of its replicates: the mass and weighted transverse sum of
every leg (``spider.segment_sums``, the sample means' reduction) and,
on the open book, the weighted ``x1`` sum.  No sample object is built,
and a law whose coordinates are all uniform is drawn for the whole block
at once from one stream read per replicate.  The moment gaps, verdicts
and folded statistics of all replicates are then computed in one array
pass through ``spider.gaps`` and ``spider.verdict``.  The output is bit
for bit that of one ``intrinsic_mean`` / ``openbook_mean`` per replicate
sample.

The KS statistic is taken over the sorted values, with the normal CDF
from ``math.erfc`` and the half-normal from ``math.erf``; its p-value is
the exact two-sided tail of :mod:`treestats.kolmogorov`, whose method
selection is that of Simard & L'Ecuyer (2011), "Computing the two-sided
Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import kolmogorov
from . import spider as sp
from .errors import InvalidParameterError

__all__ = [
    "PointMass",
    "Uniform",
    "Exponential",
    "Regime",
    "SpiderLaw",
    "OpenBookLaw",
    "SimReport",
    "classify_law",
    "simulate",
    "simulate_openbook",
    "spine_coverage",
]


# --------------------------------------------------------------------------
# one-dimensional leg distributions with nonnegative support
# --------------------------------------------------------------------------

def _finite(evaluate) -> bool:
    """Whether ``evaluate()`` gives a finite number; an overflow on the way
    (an int too large for a float, ``float ** 2``) or a division by an
    underflowed zero counts as not finite."""
    try:
        return math.isfinite(evaluate())
    except (OverflowError, ZeroDivisionError):
        return False


def _check(name: str, value, rule: str, ok) -> None:
    """Raise :class:`InvalidParameterError` naming ``name`` unless ``value``
    is finite and passes ``ok``; a document's values are numbers already
    (``spider.json_number``)."""
    if not (_finite(lambda: value) and ok(value)):
        raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")


class _Distribution:
    """Base of the leg distributions.

    A subclass checks its parameters in ``_check_params``; its mean and
    second moment must then be finite, and an overflow names the last
    parameter, the one that sets the scale (``u``, ``hi``, ``rate``).
    """

    def __post_init__(self):
        self._check_params()
        name = fields(self)[-1].name
        for moment in (self.mean, self.second_moment):
            if not _finite(moment):
                raise InvalidParameterError(
                    f"{name} = {getattr(self, name)!r} gives a "
                    f"{moment.__name__.replace('_', ' ')} that is not finite")


@dataclass(frozen=True)
class PointMass(_Distribution):
    u: float

    def _check_params(self):
        _check("u", self.u, "finite and >= 0", lambda v: v >= 0)

    def mean(self) -> float:
        return self.u

    def second_moment(self) -> float:
        return self.u * self.u

    def draw(self, rng, size: int) -> np.ndarray:
        return np.full(size, float(self.u))


@dataclass(frozen=True)
class Uniform(_Distribution):
    lo: float
    hi: float

    def _check_params(self):
        _check("lo", self.lo, "finite and >= 0", lambda v: v >= 0)
        _check("hi", self.hi, f"finite and > lo = {self.lo!r}", lambda v: v > self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def second_moment(self) -> float:
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0

    def draw(self, rng, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Exponential(_Distribution):
    rate: float

    def _check_params(self):
        _check("rate", self.rate, "finite and > 0", lambda v: v > 0)

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return 2.0 / (self.rate * self.rate)

    def draw(self, rng, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)


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
    args = {k: sp.json_number(v, f"{where}.{k}", InvalidParameterError) for k, v in args.items()}
    try:
        return cls(**args)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{where}.{exc}") from None


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
    _check_mixture(w, dists, items)
    return w


def _moment(weights, dists, moment: str) -> float:
    """Population moment (``"mean"`` or ``"second_moment"``) of a mixture."""
    return sum(w * getattr(d, moment)() for w, d in zip(weights, dists))


def _check_mixture(weights, dists, items: str) -> None:
    """Raise :class:`InvalidParameterError` naming ``items`` unless the
    mixture's second moment, which bounds its mean, gaps and variance, is
    finite."""
    if not _finite(lambda: _moment(weights, dists, "second_moment")):
        raise InvalidParameterError(f"{items}: the law's second moment is not finite")


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

    @property
    def coordinates(self) -> tuple:
        """Per leg, the distributions of its coordinates: here only ``u``."""
        return tuple((d,) for d in self.legs)

    @classmethod
    def from_dict(cls, obj: dict) -> "SpiderLaw":
        legs = sp.json_list(obj.get("legs"), "legs", InvalidParameterError)
        return cls(
            obj.get("weights"),
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
        _check_mixture(self.weights, self.spine, "leaves")

    @property
    def transverse(self) -> tuple:
        """Per-leaf ``x2`` distributions: the coordinate whose mean can stick."""
        return tuple(x2 for _, x2 in self.leaves)

    @property
    def spine(self) -> tuple:
        """Per-leaf ``x1`` distributions."""
        return tuple(x1 for x1, _ in self.leaves)

    @property
    def coordinates(self) -> tuple:
        """Per leaf, the distributions of its coordinates ``(x1, x2)``."""
        return self.leaves

    @classmethod
    def from_dict(cls, obj: dict) -> "OpenBookLaw":
        leaves = []
        for i, leaf in enumerate(sp.json_list(obj.get("leaves"), "leaves", InvalidParameterError)):
            if not isinstance(leaf, dict):
                raise InvalidParameterError(f"leaves[{i}] must be an object with x1 and x2")
            leaves.append(tuple(
                distribution_from_dict(leaf.get(x), f"leaves[{i}].{x}") for x in ("x1", "x2")))
        return cls(obj.get("weights"), tuple(leaves))


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


def classify_law(law) -> tuple[Regime, tuple[float, ...]]:
    """Population regime and moment gaps ``v_a - sum(v_b, b != a)``, in
    closed form from the law's leg moments ``v``.

    On an open book these are the regime and gaps of the transverse
    coordinate ``x2``.
    """
    v = tuple(w * d.mean() for w, d in zip(law.weights, law.transverse))
    th = tuple(sp.gaps(v).tolist())
    kind = sp.verdict(th, sp.ROUNDING_RTOL * sum(v)).kind  # e.g. "non_sticky" -> NONSTICKY
    return Regime[kind.replace("_", "").upper()], th


# --------------------------------------------------------------------------
# simulation reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport(sp.Record):
    """Outcome of a replicated sampling experiment.

    ``stick_fraction`` is the share of replicates whose sample mean is
    exactly the center (or spine).  KS fields are ``None`` where the
    regime predicts a point mass or the law is ``degenerate``: the limit
    variance of the tested coordinate (on an open book, the spine's) is 0
    to within ``spider.ROUNDING_RTOL`` of its second moment, so a law and its
    rescalings agree.  ``runtime_seconds`` has ``compare=False``, so
    equality and :meth:`~treestats.spider.Record.to_dict` leave it out:
    seeded reruns compare equal and write the same bytes.
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


# --------------------------------------------------------------------------
# replicate seeding: numpy's SeedSequence([seed, rep]) and PCG64 seeding,
# computed for many replicates at once
# --------------------------------------------------------------------------

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
# the constants of numpy's SeedSequence (bit_generator.pyx) and of PCG64
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed) -> list[int]:
    """``seed`` split into 32-bit words, low first, as ``SeedSequence`` splits
    an int; a negative seed raises :class:`InvalidParameterError`."""
    seed = int(seed)
    if seed < 0:
        raise InvalidParameterError(f"seed must be an integer >= 0, got {seed}")
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    return words


def _hashmix(const: int, mult: int):
    """numpy's ``hashmix`` on uint32 arrays, with its running hash constant
    (first ``const``): xor with the constant, step it by ``mult``, multiply
    by the new one and xor-shift."""
    shift = np.uint32(16)

    def hashmix(v):
        nonlocal const
        xor, const = np.uint32(const), const * mult & _M32
        v = (v ^ xor) * np.uint32(const)
        return v ^ (v >> shift)
    return hashmix


def _generate_state(words: list[int], reps: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, rep]).generate_state(4, np.uint64)`` for every
    ``rep`` in ``reps`` (each < 2**32), as a ``(4, reps.size)`` array;
    ``words`` is ``_seed_words(seed)``.

    The entropy of replicate ``rep`` is the words of ``seed`` followed by
    ``rep``.  As in numpy it is mixed into a pool of four words, and the
    state is hashed out of the pool; each step is one uint32 array
    operation over all replicates.
    """
    entropy = [np.full(reps.size, w, np.uint32) for w in words] + [reps.astype(np.uint32)]
    entropy += [np.zeros(reps.size, np.uint32)] * (4 - len(entropy))
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        v = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return v ^ (v >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashout = _hashmix(_INIT_B, _MULT_B)
    out = [hashout(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.array([lo | (hi << np.uint64(32)) for lo, hi in zip(out[::2], out[1::2])])


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """The ``PCG64.state`` that seeding with the four words gives (``pcg64_set_seed``)."""
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _leg_cdf(weights) -> np.ndarray:
    """Cumulative leg weights, built as ``Generator.choice`` builds them:
    searching them with ``rng.random(n)`` draws the legs ``choice`` would."""
    cdf = np.cumsum(weights, dtype=float)
    cdf /= cdf[-1]
    return cdf


def _draw(cdf, coordinates, n: int, rng, out) -> tuple[np.ndarray, np.ndarray]:
    """The one draw primitive: an i.i.d. sample of size n, drawn leg by leg.

    Writes coordinate ``j`` of the points into ``out[j]`` (n values), sorted
    by leg and in draw order within a leg, and returns the leg index
    (0-based) of each point and the number of points per leg.
    """
    legs = cdf.searchsorted(rng.random(n), side="right")
    counts = np.bincount(legs, minlength=cdf.size)
    end = 0
    for dists, k in zip(coordinates, counts.tolist()):
        if k:
            for j, d in enumerate(dists):
                out[j, end:end + k] = d.draw(rng, k)
            end += k
    return legs, counts


def _uniform_bounds(law):
    """``(lo, hi - lo)`` of every coordinate distribution, ``(p, dims)``
    arrays, when each is exactly :class:`Uniform` (a subclass may draw
    differently); otherwise ``None``."""
    if not all(type(d) is Uniform for dists in law.coordinates for d in dists):
        return None
    lo = np.array([[d.lo for d in dists] for dists in law.coordinates], dtype=float)
    hi = np.array([[d.hi for d in dists] for dists in law.coordinates], dtype=float)
    return lo, hi - lo


def _draw_uniform(u, cdf, lo, width, counts, x, legs) -> None:
    """``_draw`` for a block of replicates of a law whose coordinates are all
    exactly uniform, from the doubles of their streams.

    Row ``i`` of ``u`` holds the n * (1 + dims) doubles that ``_draw``
    reads for replicate ``i``: the n leg draws, then leg by leg a run of k
    doubles per coordinate, each mapped to ``lo + (hi - lo) * u`` as
    ``Generator.uniform`` maps it.  Writes what ``_draw`` gives: the
    per-leg ``counts``, the leg-sorted coordinates into ``x`` and, unless
    ``legs`` is ``None``, the leg of each point.
    """
    rows, n, dims = u.shape[0], x.shape[-1], lo.shape[1]
    v = u[:, :n]
    # the points on legs 0..a are the leg draws below cut a (searchsorted, side="right")
    ends = np.full((rows, cdf.size), n)
    for a, cut in enumerate(cdf[:-1].tolist()):
        ends[:, a] = np.count_nonzero(v < cut, axis=1)
    counts[:] = np.diff(ends, axis=1, prepend=0)
    if legs is not None:
        legs[:] = 0
        for cut in cdf[:-1].tolist():
            legs += v >= cut
    place = np.repeat(np.tile(np.arange(cdf.size), rows), counts.reshape(-1)).reshape(rows, n)
    if dims == 1:  # a spider's coordinate runs follow the leg draws in leg order
        runs = [u[:, n:]]
    else:  # leg a's run of coordinate j starts at n + dims * start_a + j * k_a
        k = np.take_along_axis(counts, place, 1)
        start = np.take_along_axis(ends, place, 1) - k
        first = n + np.arange(n) + (dims - 1) * start
        runs = [np.take_along_axis(u, first + j * k, 1) for j in range(dims)]
    for j, run in enumerate(runs):
        x[j] = lo[:, j].take(place) + width[:, j].take(place) * run


def draw_sample(law, n: int, rng):
    """One i.i.d. sample of size n from a spider or open-book law, drawn
    from ``rng`` (checked by ``from_arrays``).

    A stable sort of the legs gives the point of each leg-sorted place, so
    the columns come back in point order.
    """
    out = np.empty((len(law.coordinates[0]), n))
    legs, _ = _draw(_leg_cdf(law.weights), law.coordinates, n, rng, out)
    columns = np.empty_like(out)
    columns[:, np.argsort(legs, kind="stable")] = out
    if isinstance(law, OpenBookLaw):
        from .openbook import OpenBookSample

        return OpenBookSample.from_arrays(legs + 1, *columns)
    return sp.SpiderSample.from_arrays(law.p, legs + 1, *columns)


draw_spider_sample = draw_openbook_sample = draw_sample  # kept for existing callers


# Replicate index ``rep`` is one uint32 word of the seed entropy.
MAX_REPLICATIONS = 2**32


def _check_sizes(n: int, replications: int) -> None:
    for name, value in (("n", n), ("replications", replications)):
        if value < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {value}")
    if replications > MAX_REPLICATIONS:
        raise InvalidParameterError(
            f"replications must be <= 2**32, got {replications}")


# Replicates are drawn and reduced in blocks of at most this many draws per
# coordinate (one replicate when n is larger), so memory is O(block).
_BLOCK = 1 << 16


def _check_draws(book: bool, drawn, counts, r0: int) -> None:
    """Raise :class:`InvalidParameterError` unless every coordinate of the
    block ``drawn`` (leg-sorted, ``counts`` points per leg and row) is in
    ``0..MAX_COORD``, as ``from_arrays`` would hold a sample's; NaN fails
    too.  The error names the law field that drew the first bad value
    (``legs[a]`` or ``leaves[a].x1``), the value and its replicate."""
    if drawn.min() >= 0 and drawn.max() <= sp.MAX_COORD:
        return
    bad = ~((drawn >= 0) & (drawn <= sp.MAX_COORD))
    row = int(np.argmax(bad.any(axis=(0, 2))))
    place, j = divmod(int(np.argmax(bad[:, row].T)), drawn.shape[0])
    leg = int(np.searchsorted(np.cumsum(counts[row]), place, side="right"))
    field = f"leaves[{leg}].{('x1', 'x2')[j]}" if book else f"legs[{leg}]"
    raise InvalidParameterError(
        f"{field} draws must be finite and in 0..{sp.MAX_COORD:g}, "
        f"got {float(drawn[j, row, place])!r} in replicate {r0 + row}")


def _replicate_sums(law, n: int, replications: int, seed: int, spread: bool = False):
    """Stage 1, the one replicate loop of ``simulate`` and ``spine_coverage``:
    draw each replicate and reduce it to the numbers its mean and verdict
    need.

    Returns ``(mass, moment, spine, sd)``: the per-leg masses and
    transverse first moments (``(replications, p)`` arrays, by
    ``spider.segment_sums`` as a sample's); for an open book the spine
    coordinate ``x1_star`` of each mean and, with ``spread``, the sample
    standard deviation of ``x1`` (``(replications,)`` arrays).

    Replicate ``rep`` draws from PCG64 seeded by ``SeedSequence([seed,
    rep])``, seeded per draw block by one ``_generate_state`` call.  The
    loop only draws the leg-sorted coordinates of each replicate into the
    rows of a block; each block is then checked (``_check_draws``) and its
    legs' runs, points on no leg left out, reduced by one
    ``spider.segment_sums`` call.

    A law whose coordinates are all exactly :class:`Uniform` reads each
    replicate's stream with one ``rng.random`` call, the n * (1 + dims)
    doubles that the leg draw and the per-leg ``uniform`` calls of
    ``_draw`` would read, and ``_draw_uniform`` finds the legs and
    coordinates of the whole block from them.  Any other law is drawn
    replicate by replicate with ``_draw``: a point mass reads no double,
    and the ziggurat behind ``Generator.exponential`` reads a variable
    number of words, so where a coordinate's run lies in the stream is
    known only by drawing it.
    """
    _check_sizes(n, replications)
    words = _seed_words(seed)
    book = isinstance(law, OpenBookLaw)
    cdf, coordinates = _leg_cdf(law.weights), law.coordinates
    p, dims = cdf.size, len(coordinates[0])
    uniform = _uniform_bounds(law)
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    mass, moment = np.empty((replications, p)), np.empty((replications, p))
    spine, sd = np.empty(replications), np.empty(replications)
    m = max(1, min(replications, _BLOCK // n))
    legs = np.empty((m, n) if book else 0, np.uint8)  # the open book's, to sort x1 by
    counts = np.empty((m, p), np.int64)
    x = np.empty((dims, m, n))  # per coordinate, leg-sorted rows
    streams = np.empty((m, n * (1 + dims)) if uniform else 0)
    wts = np.full(m * n, 1.0 / n)  # the block's point weights
    for r0 in range(0, replications, m):
        rows = min(m, replications - r0)
        states = _generate_state(words, np.arange(r0, r0 + rows)).tolist()
        for i, state in enumerate(zip(*states)):
            bitgen.state = _pcg64_state(*state)
            if uniform:
                rng.random(out=streams[i])
            else:
                row_legs, counts[i] = _draw(cdf, coordinates, n, rng, x[:, i])
                if book:
                    legs[i] = row_legs
        if uniform:
            _draw_uniform(streams[:rows], cdf, *uniform, counts[:rows], x[:, :rows],
                          legs[:rows] if book else None)
        drawn = x[:, :rows]
        _check_draws(book, drawn, counts[:rows], r0)
        t, lengths = drawn[-1].reshape(-1), counts[:rows].reshape(-1)
        if t.min() == 0:  # transverse coordinate 0: the point is on no leg
            nonzero = t != 0
            lengths = np.bincount(np.repeat(np.arange(lengths.size), lengths)[nonzero],
                                  minlength=lengths.size)
            t = t[nonzero]
        out = slice(r0, r0 + rows)
        sums = sp.segment_sums(wts[:t.size], t, lengths)
        mass[out], moment[out] = (s.reshape(rows, p) for s in sums)
        if book:
            # back to point order: a stable sort of the legs (small ints, a
            # radix sort) gives the point of each leg-sorted place
            x1 = np.empty((rows, n))
            np.put_along_axis(x1, np.argsort(legs[:rows], axis=1, kind="stable"),
                              drawn[0], axis=1)
            spine[out] = (wts[:n] * x1).sum(axis=1)
            if spread:
                sd[out] = x1.std(ddof=1, axis=1)
    return mass, moment, spine, sd


def _ks(values, law: str, n: int, sigma: float):
    """KS statistic and p-value of ``sqrt(n) * values / sigma`` against ``law``."""
    return kstest(math.sqrt(n) * values / sigma, law)


def simulate(law: SpiderLaw | OpenBookLaw, n: int, replications: int, seed: int = 0) -> SimReport:
    """Replicate samples of a spider or open-book law and test the predicted
    limit law of the transverse coordinate: in regime ``i`` the folded
    coordinate of the mean against N(0,1), in regime ``ii`` its magnitude
    against the half-normal, in regime ``iii`` the stick fraction only (the
    share of means on the center or spine).  On an open book these become
    the secondary KS fields, and the primary test is of the spine coordinate
    ``x1_star``, a Euclidean mean: against N(0,1) in every regime.

    Stage 1 reduces the replicates to per-leg sums; stage 2 turns all of
    them at once into moment gaps, verdicts and the folded statistic.
    """
    t0 = time.perf_counter()
    mass, moment, spine, _ = _replicate_sums(law, n, replications, seed)
    book = isinstance(law, OpenBookLaw)
    regime, th = classify_law(law)
    a_star = int(np.argmax(th))
    theta_star = th[a_star]
    second = _moment(law.weights, law.transverse, "second_moment")
    var = second - theta_star * theta_star

    # the open book's leaf moments are the sums themselves (openbook_mean)
    gaps = sp.gaps(moment if book else sp.leg_means(mass, moment)[1])
    kind, leg = sp.verdict(gaps)
    off = kind == 0  # VERDICT_KINDS[0], non-sticky: the mean is on leg `leg`
    stuck = replications - int(np.count_nonzero(off))
    if regime is Regime.NONSTICKY:
        # signed coordinate of the mean on the line through leg a_star
        g = np.take_along_axis(gaps, leg[:, None] - 1, 1)[:, 0]
        stats = np.where(off, np.where(leg == a_star + 1, g, -g), 0.0) - theta_star
    else:
        # the folded sample mean equals the winning moment gap
        stats = gaps[:, a_star]

    ks = ks2 = (None, None)
    degenerate = var <= sp.ROUNDING_RTOL * second
    if not degenerate and regime is Regime.NONSTICKY:
        ks = _ks(stats, "norm", n, math.sqrt(var))
    elif not degenerate and regime is Regime.BOUNDARY:
        ks = _ks(np.abs(stats), "halfnorm", n, math.sqrt(var))
    if book:
        # the spine coordinate is a Euclidean mean: N(0,1) in every regime
        mu1 = _moment(law.weights, law.spine, "mean")
        second1 = _moment(law.weights, law.spine, "second_moment")
        var1 = second1 - mu1 * mu1
        degenerate = var1 <= sp.ROUNDING_RTOL * second1
        spine_ks = (None, None) if degenerate else _ks(spine - mu1, "norm", n, math.sqrt(var1))
        ks, ks2 = spine_ks, ks
    return SimReport(
        "openbook" if book else "spider", regime, n, replications,
        stuck / replications, th, *ks, *ks2,
        degenerate=degenerate, runtime_seconds=time.perf_counter() - t0,
    )


simulate_openbook = simulate  # the same function, kept for existing callers


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
    _check_sizes(n, replications)
    sp.check_interval(confidence, n)
    mu1 = _moment(law.weights, law.spine, "mean")
    _, moment, x1_star, sd = _replicate_sums(law, n, replications, seed, spread=True)
    kind, _ = sp.verdict(sp.gaps(moment))
    half, _ = sp.normal_half_width(sd, n, confidence)
    lo, hi = np.maximum(0.0, x1_star - half), x1_star + half
    hits = (kind != 0) & (lo <= mu1) & (mu1 <= hi)  # a mean off the spine is a miss
    return int(np.count_nonzero(hits)) / replications
