import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import leg_sums_by_mask, spider_grid_minimum
from treestats.errors import (
    EmptySampleError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSampleError,
    InvalidWeightsError,
    TreeStatsError,
)
from treestats.kolmogorov import sf
from treestats.mcsim import OpenBookLaw, PointMass, SpiderLaw, Uniform
from treestats.njtree import restrict_to_triplet, tree_index
from treestats.openbook import OpenBookPoint, OpenBookSample, spine_clt
from treestats.seqio import parse_newick
from treestats.t4space import T4Point, T4Sample, t4_distance
from treestats.spider import (
    CENTER,
    SpiderMeasureSummary,
    SpiderPoint,
    SpiderSample,
    clt_interval,
    code_sums,
    frechet_function,
    intrinsic_mean,
    spider_distance,
)

# summaries quoted from the four published stickiness tables
TABLE_1 = SpiderMeasureSummary(3, 0.0, (25 / 59, 16 / 59, 18 / 59),
                               (2.3938, 2.1342, 2.8401))
TABLE_2 = SpiderMeasureSummary(3, 0.0, (16 / 30, 7 / 30, 7 / 30),
                               (1.2474, 0.9424, 0.9395))
TABLE_3 = SpiderMeasureSummary(3, 0.0, (12 / 30, 7 / 30, 21 / 30),
                               (0.4853, 1.0976, 1.5386))
TABLE_4 = SpiderMeasureSummary(3, 0.0, (10 / 30, 6 / 30, 14 / 30),
                               (1.7743, 0.2151, 2.5628))


def uniform_sample(*pts, p=3):
    return SpiderSample(p, tuple(pts))


def random_sample(rng, p=None, n=None, u_hi=2.0):
    p = p or int(rng.integers(3, 7))
    n = n or int(rng.integers(1, 30))
    legs = rng.integers(1, p + 1, size=n)
    u = rng.uniform(0.01, u_hi, size=n)
    return SpiderSample(p, tuple(SpiderPoint(int(a), float(x)) for a, x in zip(legs, u)))


class TestDistance:
    def test_same_leg(self):
        assert spider_distance(SpiderPoint(1, 2.0), SpiderPoint(1, 0.5)) == 1.5

    def test_cross_leg(self):
        assert spider_distance(SpiderPoint(1, 2.0), SpiderPoint(3, 0.5)) == 2.5

    def test_center(self):
        assert spider_distance(CENTER, SpiderPoint(2, 0.7)) == 0.7

    def test_center_canonical(self):
        assert SpiderPoint(2, 0.0) == CENTER

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = int(rng.integers(2, 7))
            pts = []
            for _ in range(3):
                leg = int(rng.integers(0, p + 1))
                u = float(rng.uniform(0, 3)) if leg else 0.0
                pts.append(SpiderPoint(leg if leg else None, u))
            x, y, z = pts
            assert spider_distance(x, y) == spider_distance(y, x)
            assert spider_distance(x, x) == 0.0
            assert spider_distance(x, z) <= spider_distance(x, y) + spider_distance(y, z) + 1e-12


def leg_moments(rep):
    """The leg moments ``v = w * nu`` of a report."""
    return tuple(w * nu for w, nu in zip(rep.w, rep.nu))


class TestSummarize:
    """The per-leg masses and means that ``intrinsic_mean`` reports."""

    def test_uniform_three_points(self):
        s = uniform_sample(SpiderPoint(1, 3), SpiderPoint(2, 1), SpiderPoint(3, 1))
        rep = intrinsic_mean(s)
        assert rep.w == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert rep.nu == pytest.approx((3.0, 1.0, 1.0))
        assert leg_moments(rep) == pytest.approx((1.0, 1 / 3, 1 / 3))

    def test_all_center(self):
        s = uniform_sample(CENTER, CENTER)
        rep = intrinsic_mean(s)
        assert rep.w0 == 1.0
        assert leg_moments(rep) == (0.0, 0.0, 0.0)

    def test_table_values_pass_through(self):
        rep = intrinsic_mean(TABLE_1)
        assert rep.w == pytest.approx((25 / 59, 16 / 59, 18 / 59))
        assert rep.nu == pytest.approx((2.3938, 2.1342, 2.8401))

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            intrinsic_mean(SpiderSample(3, ()))

    def test_weighted(self):
        s = SpiderSample(3, (SpiderPoint(1, 2.0), SpiderPoint(2, 1.0)), (0.75, 0.25))
        rep = intrinsic_mean(s)
        assert rep.w == pytest.approx((0.75, 0.25, 0.0))
        assert leg_moments(rep) == pytest.approx((1.5, 0.25, 0.0))


class TestSegmentSums:
    """The one per-leg reduction, against a boolean mask per leg."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 64), n=st.integers(0, 400), weighted=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_mask_oracle_bit_for_bit(self, p, n, weighted, seed):
        # some codes present (the center among them or not), the rest empty,
        # with skewed shares so that some legs hold long runs
        rng = np.random.default_rng(seed)
        present = rng.choice(p + 1, size=int(rng.integers(1, p + 2)), replace=False)
        codes = rng.choice(present, size=n, p=rng.dirichlet(np.full(present.size, 0.3)))
        x = rng.exponential(size=n) * 10.0 ** rng.integers(-3, 4)
        w = rng.uniform(0.1, 2.0, n) if weighted else np.full(n, 1.0 / max(n, 1))
        got, expected = code_sums(codes, p, w, x), leg_sums_by_mask(codes, p, w, x)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_empty_sample_message(self):
        with pytest.raises(EmptySampleError, match="^cannot summarize an empty sample$"):
            intrinsic_mean(SpiderSample(4, ()))


class TestFrechetFunction:
    def test_center_symmetric(self):
        s = uniform_sample(SpiderPoint(1, 1), SpiderPoint(2, 1), SpiderPoint(3, 1))
        assert frechet_function(CENTER, s) == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(EmptySampleError, match="^empty sample$"):
            frechet_function(CENTER, SpiderSample(3, ()))

    def test_on_leg(self):
        s = uniform_sample(SpiderPoint(1, 1), SpiderPoint(2, 1), SpiderPoint(3, 1))
        assert frechet_function(SpiderPoint(1, 1.0), s) == pytest.approx(8 / 3)

    def test_hand_computed(self):
        s = uniform_sample(SpiderPoint(1, 3), SpiderPoint(2, 1), SpiderPoint(3, 1))
        assert frechet_function(SpiderPoint(1, 1 / 3), s) == pytest.approx(32 / 9)

    def test_summary_matches_sample(self):
        # the summary of a sample's masses and means has the sample's gaps,
        # verdict and mean, and so its Frechet value
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = random_sample(rng)
            rep = intrinsic_mean(s)
            summ = intrinsic_mean(SpiderMeasureSummary(s.p, rep.w0, rep.w, rep.nu))
            assert (summ.theta, summ.verdict, summ.mean) == (rep.theta, rep.verdict, rep.mean)
            assert math.sqrt(frechet_function(summ.mean, s)) == rep.intrinsic_sd


class TestIntrinsicMean:
    def test_dominant_leg(self):
        s = uniform_sample(SpiderPoint(1, 3), SpiderPoint(2, 1), SpiderPoint(3, 1))
        rep = intrinsic_mean(s)
        assert rep.theta == pytest.approx((1 / 3, -1.0, -1.0))
        assert rep.verdict.kind == "non_sticky" and rep.verdict.leg == 1
        assert rep.mean.leg == 1 and rep.mean.u == pytest.approx(1 / 3)
        assert rep.intrinsic_sd == pytest.approx(math.sqrt(32 / 9))

    def test_symmetric_sticks(self):
        s = uniform_sample(SpiderPoint(1, 1), SpiderPoint(2, 1), SpiderPoint(3, 1))
        rep = intrinsic_mean(s)
        assert rep.theta == pytest.approx((-1 / 3, -1 / 3, -1 / 3))
        assert rep.verdict.kind == "sticky"
        assert rep.mean == CENTER

    def test_table_1_sticky(self):
        rep = intrinsic_mean(TABLE_1)
        assert rep.verdict.kind == "sticky"
        assert rep.theta == pytest.approx((-0.43, -1.30, -0.73), abs=0.05)
        assert rep.intrinsic_sd is None

    def test_table_2_nonsticky_leg_1(self):
        rep = intrinsic_mean(TABLE_2)
        assert rep.verdict.kind == "non_sticky" and rep.verdict.leg == 1
        assert rep.theta[0] == pytest.approx(0.23, abs=0.05)

    def test_boundary_verdict(self):
        summ = SpiderMeasureSummary(3, 0.0, (0.5, 0.25, 0.25), (1.0, 1.0, 1.0))
        rep = intrinsic_mean(summ)
        assert rep.verdict.kind == "boundary" and rep.verdict.leg == 1
        assert rep.mean == CENTER

    def test_tolerance_widens_boundary(self):
        s = uniform_sample(SpiderPoint(1, 3), SpiderPoint(2, 1), SpiderPoint(3, 1))
        rep = intrinsic_mean(s, tolerance=0.5)
        assert rep.verdict.kind == "boundary"

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        s = uniform_sample(SpiderPoint(1, 3), SpiderPoint(2, 1), SpiderPoint(3, 1))
        with pytest.raises(InvalidParameterError, match="tolerance") as err:
            intrinsic_mean(s, tolerance)
        assert isinstance(err.value, TreeStatsError) and isinstance(err.value, ValueError)

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            s = random_sample(rng)
            rep = intrinsic_mean(s)
            (leg, coord), val = spider_grid_minimum(s, step=1e-4)
            assert spider_distance(rep.mean, SpiderPoint(leg, coord)) < 1e-3
            assert frechet_function(rep.mean, s) <= val + 1e-9
            # at most one positive gap
            assert sum(1 for t in rep.theta if t > 0) <= 1


class TestTheta:
    """The per-leg moment gaps that ``intrinsic_mean`` reports."""

    def test_table_3_leg_3(self):
        assert intrinsic_mean(TABLE_3).theta[2] == pytest.approx(0.63, abs=0.05)

    def test_table_4_leg_2(self):
        assert intrinsic_mean(TABLE_4).theta[1] == pytest.approx(-1.74, abs=0.05)

    def test_balance_is_zero(self):
        summ = SpiderMeasureSummary(3, 0.0, (0.5, 0.25, 0.25), (2.0, 2.0, 2.0))
        assert intrinsic_mean(summ).theta[0] == 0.0

    def test_leg_out_of_range(self):
        # a summary lists each of its p legs once, no more
        with pytest.raises(InvalidSampleError,
                           match=r"summary w and nu need one entry per leg \(p=3\)"):
            SpiderMeasureSummary(3, 0.0, (0.25,) * 4, (1.0,) * 4)


class TestCltInterval:
    def test_single_leg_classical(self):
        rng = np.random.default_rng(8)
        u = rng.normal(2.0, 1.0, size=100).clip(0.05)
        s = SpiderSample(3, tuple(SpiderPoint(1, float(x)) for x in u))
        ci = clt_interval(s, 0.95)
        m, sd = u.mean(), u.std(ddof=1)
        assert ci.leg == 1
        assert ci.lo == pytest.approx(m - 1.959963984540054 * sd / 10, rel=1e-9)
        assert ci.hi == pytest.approx(m + 1.959963984540054 * sd / 10, rel=1e-9)

    def test_symmetric_degenerate(self):
        s = uniform_sample(SpiderPoint(1, 1), SpiderPoint(2, 1), SpiderPoint(3, 1))
        ci = clt_interval(s)
        assert ci.leg is None and ci.lo == ci.hi == 0.0
        assert "sticky" in ci.note

    def test_boundary_half_normal(self):
        # leg 1 holds half the mass: theta_1 = 0.5 - 0.5 = 0 exactly
        s = uniform_sample(*(SpiderPoint(leg, 1.0) for leg in (1, 1, 2, 3)))
        ci = clt_interval(s, 0.95)
        z = NormalDist().inv_cdf(0.975)
        assert ci.verdict.kind == "boundary" and ci.leg == 1
        assert ci.folded_mean == 0.0
        assert ci.folded_se == pytest.approx(math.sqrt(1 / 3), rel=1e-12)
        assert ci.lo == 0.0 and ci.hi == z * ci.folded_se
        assert ci.note == "boundary case: folded half-normal interval"

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            clt_interval(uniform_sample(SpiderPoint(1, 1)))

    def test_weighted_sample_rejected(self):
        s = SpiderSample(3, (SpiderPoint(1, 1.0), SpiderPoint(2, 2.0)), (0.7, 0.3))
        with pytest.raises(ValueError):
            clt_interval(s)

    def test_table_2_reconstruction_vs_bootstrap(self):
        # a concrete n=30 sample matching the North-America table moments
        rng = np.random.default_rng(123)
        leg1 = 1.2474 + np.linspace(-0.45, 0.45, 16)
        leg2 = 0.9424 + np.linspace(-0.3, 0.3, 7)
        leg3 = 0.9395 + np.linspace(-0.3, 0.3, 7)
        pts = (
            [SpiderPoint(1, float(x)) for x in leg1]
            + [SpiderPoint(2, float(x)) for x in leg2]
            + [SpiderPoint(3, float(x)) for x in leg3]
        )
        s = SpiderSample(3, tuple(pts))
        rep = intrinsic_mean(s)
        assert rep.verdict.kind == "non_sticky" and rep.verdict.leg == 1
        assert rep.theta[0] == pytest.approx(0.2262, abs=1e-3)
        ci = clt_interval(s, 0.95)
        # oracle: nonparametric bootstrap of the folded coordinate
        folded = np.array([pt.u if pt.leg == 1 else -pt.u for pt in pts])
        idx = rng.integers(0, 30, size=(10_000, 30))
        boot = folded[idx].mean(axis=1)
        lo, hi = np.quantile(boot, [0.025, 0.975])
        width = ci.hi - max(ci.lo, 0.0)
        boot_width = hi - max(lo, 0.0)
        assert width == pytest.approx(boot_width, rel=0.20)


class TestNetMoment:
    """The net moment toward a leg at the center, ``E[d(X, center) eps]``
    with ``eps = -1`` on the leg and ``+1`` elsewhere, is ``-theta`` of
    that leg: positive toward every leg exactly when the mean sticks."""

    def test_symmetric(self):
        s = uniform_sample(SpiderPoint(1, 1), SpiderPoint(2, 1), SpiderPoint(3, 1))
        assert [-t for t in intrinsic_mean(s).theta] == pytest.approx([1 / 3] * 3)

    def test_equals_minus_theta_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_sample(rng)
            rep = intrinsic_mean(s)
            for leg in range(1, s.p + 1):
                eps = np.where(s.codes == leg, -1.0, 1.0)
                net = float(np.sum(s.normalized_weights() * s.u * eps))
                assert net == pytest.approx(-rep.theta[leg - 1], rel=1e-12, abs=1e-15)

    def test_single_leg_sample(self):
        s = uniform_sample(SpiderPoint(2, 1.5), SpiderPoint(2, 0.5))
        assert -intrinsic_mean(s).theta[1] == pytest.approx(-1.0)

    def test_table_1_leg_1(self):
        # a synthetic sample realizing the table moments
        pts, weights = [], []
        for leg, (w, nu) in enumerate(zip(TABLE_1.w, TABLE_1.nu), start=1):
            pts.append(SpiderPoint(leg, nu))
            weights.append(w)
        s = SpiderSample(3, tuple(pts), tuple(weights))
        assert -intrinsic_mean(s).theta[0] == pytest.approx(0.43, abs=0.05)


class TestThetasInvariant:
    def test_at_most_one_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = int(rng.integers(2, 6))
            w = rng.dirichlet(np.ones(p))
            nu = rng.uniform(0, 3, size=p)
            summ = SpiderMeasureSummary(p, 0.0, tuple(w), tuple(nu))
            assert sum(1 for t in intrinsic_mean(summ).theta if t > 0) <= 1


# every weighted container, as a function of a weight tuple of its own size
WEIGHTED = {
    "SpiderSample": (2, lambda w: SpiderSample(
        3, (SpiderPoint(1, 1.0), SpiderPoint(2, 2.0)), w)),
    "OpenBookSample": (2, lambda w: OpenBookSample(
        (OpenBookPoint(1, 1.0, 1.0), OpenBookPoint(2, 1.0, 2.0)), w)),
    "T4Sample": (2, lambda w: T4Sample(
        (1, 2, 3, 4), (T4Point((1, 2, 3, 4)), T4Point((1, 2, 3, 4))), w)),
    "SpiderLaw": (2, lambda w: SpiderLaw(w, (PointMass(1.0),) * 2)),
    "OpenBookLaw": (3, lambda w: OpenBookLaw(
        w, ((Uniform(0.0, 1.0), PointMass(1.0)),) * 3)),
}


class TestWeightValidation:
    @pytest.mark.parametrize("name", WEIGHTED)
    @pytest.mark.parametrize("head, message", [
        ((math.nan, math.nan), "weights must be finite"),
        ((math.inf, 0.0), "weights must be finite"),
        ((2.0, -1.0), "weights must be nonnegative"),
        ((0.9, 0.0), "weights must sum to 1"),
    ])
    def test_rejected_everywhere(self, name, head, message):
        k, make = WEIGHTED[name]
        make((1.0,) + (0.0,) * (k - 1))  # valid weights pass
        with pytest.raises(InvalidWeightsError, match=message) as caught:
            make(head + (0.0,) * (k - 2))
        assert isinstance(caught.value, ValueError)

    def test_sample_length_mismatch(self):
        with pytest.raises(InvalidWeightsError, match="length must match"):
            SpiderSample(3, (SpiderPoint(1, 1.0),), (0.5, 0.5))


_WEIGHTED_BOOK = OpenBookSample((OpenBookPoint(None, 1.0, 0.0), OpenBookPoint(None, 2.0, 0.0)),
                                (0.7, 0.3))
_QUARTET_PICKS = np.zeros((2, 4), dtype=int)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sf(0, 0.1), InvalidParameterError, r"need n >= 1 and a statistic d, got n=0, d=0.1"),
    (lambda: sf(5, math.nan), InvalidParameterError, r"need n >= 1 and a statistic d"),
    (lambda: restrict_to_triplet(tree_index(parse_newick("((a:1,b:1):1,c:1,d:1);")),
                                 _QUARTET_PICKS),
     InvalidParameterError, r"restriction needs 3 leaves per row, got shape \(2, 4\)"),
    (lambda: clt_interval(uniform_sample(SpiderPoint(1, 1.0), SpiderPoint(2, 1.0)), 1.5),
     InvalidParameterError, r"confidence must be in \(0, 1\)"),
    (lambda: clt_interval(SpiderSample(3, (SpiderPoint(1, 1.0), SpiderPoint(2, 2.0)), (0.7, 0.3))),
     InvalidWeightsError, "clt_interval expects an unweighted sample"),
    (lambda: spine_clt(_WEIGHTED_BOOK), InvalidWeightsError, "spine_clt expects an unweighted sample"),
    (lambda: t4_distance(T4Point(tuple("abcd"), {}), T4Point(tuple("abce"), {})),
     InvalidSampleError, "points live over different label universes"),
], ids=["sf_n", "sf_nan", "restrict_shape", "confidence", "clt_weighted", "spine_weighted",
        "label_universes"])
def test_deliberate_raises_are_treestats_errors(call, error, message):
    """What the library raises on purpose is a :class:`TreeStatsError`, which
    ``cli.main`` reports as bad input, and still the ``ValueError`` it was."""
    with pytest.raises(error, match=f"^{message}") as caught:
        call()
    assert isinstance(caught.value, TreeStatsError) and isinstance(caught.value, ValueError)
