import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_stick_probability, replicate_rng
from treestats import mcsim
from treestats.errors import InvalidParameterError, TreeStatsError, WrongRegimeError
from treestats.mcsim import (
    Exponential,
    OpenBookLaw,
    PointMass,
    Regime,
    SimReport,
    SpiderLaw,
    Uniform,
    classify_law,
    distribution_from_dict,
    draw_openbook_sample,
    draw_spider_sample,
    kstest,
    law_from_dict,
    simulate,
    simulate_openbook,
    spine_coverage,
)
from treestats.openbook import openbook_mean, spine_clt
from treestats.pipeline import canonical_json
from treestats.spider import intrinsic_mean

SYMMETRIC = SpiderLaw((1 / 3, 1 / 3, 1 / 3), (PointMass(1.0),) * 3)


def symmetric_book(x2=None):
    x2 = x2 or Exponential(1.0)
    leaf = (Uniform(0.0, 2.0), x2)
    return OpenBookLaw((1 / 3, 1 / 3, 1 / 3), (leaf, leaf, leaf))


class TestClassifyLaw:
    def test_symmetric_sticky(self):
        regime, th = classify_law(SYMMETRIC)
        assert regime is Regime.STICKY
        assert th == pytest.approx((-1 / 3, -1 / 3, -1 / 3))

    def test_dominant_leg(self):
        law = SpiderLaw((0.6, 0.2, 0.2), (PointMass(1.0),) * 3)
        regime, th = classify_law(law)
        assert regime is Regime.NONSTICKY
        assert th[0] == pytest.approx(0.2)

    def test_boundary(self):
        law = SpiderLaw((0.5, 0.25, 0.25), (PointMass(1.0),) * 3)
        regime, th = classify_law(law)
        assert regime is Regime.BOUNDARY
        assert th[0] == 0.0

    @pytest.mark.parametrize("dist", [Uniform(0.1, 0.7), Exponential(3.0)])
    def test_rounded_boundary_laws(self, dist):
        # weights (0.5, x, 0.5 - x) with one distribution on every leg put
        # the first gap exactly at 0; rounding must not move the regime
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.0, 0.5, 2000):
            weights = (0.5, x, 0.5 - x)
            law = SpiderLaw(weights, (dist,) * 3)
            assert classify_law(law)[0] is Regime.BOUNDARY
            book = OpenBookLaw(weights, ((dist, dist),) * 3)
            assert classify_law(book)[0] is Regime.BOUNDARY

    def test_rejects_center_atom(self):
        with pytest.raises(ValueError):
            SpiderLaw((1.0,), (PointMass(0.0),))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            SpiderLaw((0.5, 0.4), (PointMass(1.0),) * 2)


class TestDistributions:
    def test_moments(self):
        assert Uniform(0, 2).mean() == 1.0
        assert Uniform(0, 2).second_moment() == pytest.approx(4 / 3)
        assert Exponential(2.0).mean() == 0.5
        assert Exponential(2.0).second_moment() == 0.5
        assert PointMass(3.0).second_moment() == 9.0

    def test_round_trip_dicts(self):
        # read from hand-written documents: no command writes a law
        for doc, d in (({"kind": "point_mass", "u": 1.5}, PointMass(1.5)),
                       ({"kind": "uniform", "lo": 0.5, "hi": 2.0}, Uniform(0.5, 2.0)),
                       ({"kind": "exponential", "rate": 0.7}, Exponential(0.7))):
            assert distribution_from_dict(doc) == d

    def test_law_round_trip(self):
        law = {"space": "spider", "weights": [0.6, 0.4],
               "legs": [{"kind": "uniform", "lo": 0, "hi": 1},
                        {"kind": "exponential", "rate": 2.0}]}
        assert law_from_dict(law) == SpiderLaw((0.6, 0.4), (Uniform(0, 1), Exponential(2.0)))
        leaf = {"x1": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
                "x2": {"kind": "exponential", "rate": 1.0}}
        book = {"space": "openbook", "weights": [1 / 3, 1 / 3, 1 / 3], "leaves": [leaf] * 3}
        assert law_from_dict(book) == symmetric_book()


class TestSimulateSpider:
    def test_sticky_regime_sticks(self):
        report = simulate(SYMMETRIC, n=100, replications=500, seed=7)
        assert report.regime is Regime.STICKY
        assert report.stick_fraction >= 0.99
        assert report.ks_statistic is None
        # exact multinomial oracle: leaving the center needs a leg majority
        assert exact_stick_probability(100, 3) > 0.999

    def test_n_equals_one_never_sticks(self):
        report = simulate(SYMMETRIC, n=1, replications=200, seed=8)
        assert report.stick_fraction == 0.0

    def test_nonsticky_normal_limit(self):
        law = SpiderLaw((1.0,), (Uniform(0.0, 2.0),))
        report = simulate(law, n=200, replications=500, seed=9)
        assert report.regime is Regime.NONSTICKY
        assert report.ks_pvalue > 0.01

    def test_boundary_half_normal_limit(self):
        law = SpiderLaw((0.5, 0.25, 0.25), (Uniform(0.0, 2.0),) * 3)
        report = simulate(law, n=400, replications=500, seed=10)
        assert report.regime is Regime.BOUNDARY
        assert report.ks_pvalue > 0.01

    def test_seeded_determinism(self):
        a = simulate(SYMMETRIC, n=50, replications=100, seed=11)
        b = simulate(SYMMETRIC, n=50, replications=100, seed=11)
        assert a == b  # runtime excluded from comparison
        c = simulate(SYMMETRIC, n=50, replications=100, seed=12)
        assert a != c

    def test_degenerate_point_mass(self):
        law = SpiderLaw((1.0,), (PointMass(2.0),))
        report = simulate(law, n=20, replications=50, seed=13)
        assert report.degenerate
        assert report.ks_statistic is None

    def test_stick_fraction_monotone_in_n(self):
        # modest boundary-ish sticky law so the small-n fractions move
        law = SpiderLaw(
            (0.45, 0.3, 0.25),
            (Exponential(1.0), Exponential(0.8), Exponential(0.9)),
        )
        assert classify_law(law)[0] is Regime.STICKY
        fractions = [
            simulate(law, n=n, replications=10_000, seed=14).stick_fraction
            for n in (10, 30, 100, 300)
        ]
        for lo, hi in zip(fractions, fractions[1:]):
            assert hi >= lo - 0.01  # 1% Monte Carlo slack

    def test_simulated_regime_matches_classification(self):
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            legs = tuple(Exponential(float(rng.uniform(0.5, 2.0))) for _ in range(3))
            law = SpiderLaw(tuple(w), legs)
            regime, th = classify_law(law)
            if abs(max(th)) < 0.05:  # skip near-boundary laws
                continue
            checked += 1
            verdicts = []
            for rep in range(5):
                from treestats.mcsim import draw_spider_sample
                from treestats.spider import intrinsic_mean

                sample = draw_spider_sample(law, 10_000, replicate_rng(16, rep))
                verdicts.append(intrinsic_mean(sample).verdict.kind)
            majority = max(set(verdicts), key=verdicts.count)
            expected = "non_sticky" if regime is Regime.NONSTICKY else "sticky"
            assert majority == expected
        assert checked >= 30


class TestSimulateOpenBook:
    def test_symmetric_sticks_and_spine_normal(self):
        report = simulate_openbook(symmetric_book(Uniform(0.0, 2.0)),
                                   n=100, replications=400, seed=17)
        assert report.regime is Regime.STICKY
        assert report.stick_fraction >= 0.99
        assert report.ks_pvalue > 0.01

    def test_single_leaf_never_sticks_two_normal_coordinates(self):
        law = OpenBookLaw(
            (1.0, 0.0, 0.0),
            ((Uniform(0.0, 2.0), Exponential(1.0)),
             (Uniform(0.0, 2.0), Exponential(1.0)),
             (Uniform(0.0, 2.0), Exponential(1.0))),
        )
        report = simulate_openbook(law, n=150, replications=400, seed=18)
        assert report.regime is Regime.NONSTICKY
        assert report.stick_fraction == 0.0
        assert report.ks_pvalue > 0.01
        assert report.ks_pvalue_secondary > 0.01

    def test_zero_variance_degenerate(self):
        leaf = (PointMass(1.0), PointMass(0.5))
        law = OpenBookLaw((1 / 3, 1 / 3, 1 / 3), (leaf, leaf, leaf))
        report = simulate_openbook(law, n=20, replications=50, seed=19)
        assert report.degenerate
        assert report.ks_statistic is None

    def test_classify_openbook(self):
        regime, th2 = classify_law(symmetric_book())
        assert regime is Regime.STICKY
        assert th2 == pytest.approx((-1 / 3, -1 / 3, -1 / 3))


# laws as functions of a power of two c, by which every coordinate scales
SCALED_LAWS = {
    "dominant": lambda c: SpiderLaw((0.6, 0.2, 0.2), (Uniform(0.0, 2.0 * c),) * 3),
    "symmetric_exponential": lambda c: SpiderLaw((1 / 3,) * 3, (Exponential(1.0 / c),) * 3),
    "boundary": lambda c: SpiderLaw((0.5, 0.25, 0.25), (Uniform(0.0, 2.0 * c),) * 3),
    "openbook": lambda c: OpenBookLaw(
        (1 / 3,) * 3, ((Uniform(0.0, 2.0 * c), Exponential(1.0 / c)),) * 3),
}


class TestScale:
    """A law scaled by a power of two gives the same report, with its gaps
    scaled exactly: the regime and degeneracy rules are relative."""

    @pytest.mark.parametrize("name", sorted(SCALED_LAWS))
    def test_scaled_law_same_report(self, name):
        law = SCALED_LAWS[name]
        base = simulate(law(1.0), n=60, replications=150, seed=3).to_dict()
        small = simulate(law(2.0**-30), n=60, replications=150, seed=3).to_dict()
        assert small == {**base, "theta": [math.ldexp(t, -30) for t in base["theta"]]}
        assert not base["degenerate"]


class TestSpineCoverage:
    def test_coverage_near_nominal(self):
        frac = spine_coverage(symmetric_book(), n=100, replications=500,
                              confidence=0.95, seed=20)
        assert 0.90 <= frac <= 0.99


class TestLegDraw:
    """The legs of a sample are drawn as ``Generator.choice`` draws them."""

    @pytest.mark.parametrize("weights", [
        (1.0,), (0.5, 0.5), (0.6, 0.2, 0.2), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.7, 0.3),
        (0.1, 0.2, 0.3, 0.4, 0.0), (1 - 1e-9, 1e-9), (0.25, 0.0, 0.0, 0.75),
    ])
    def test_searchsorted_is_choice(self, weights):
        for seed in range(25):
            by_choice = np.random.default_rng(seed)
            by_search = np.random.default_rng(seed)
            legs = by_choice.choice(len(weights), size=300, p=np.asarray(weights))
            searched = mcsim._leg_cdf(weights).searchsorted(by_search.random(300), side="right")
            assert np.array_equal(legs, searched)
            assert by_choice.bit_generator.state == by_search.bit_generator.state


# --------------------------------------------------------------------------
# the two-stage replicate loop against one sample and one mean per replicate
# --------------------------------------------------------------------------

def oracle_simulate(law, n, reps, seed) -> str:
    """``simulate`` / ``simulate_openbook`` as a loop over replicate samples,
    each through ``intrinsic_mean`` / ``openbook_mean``: canonical JSON."""
    book = isinstance(law, OpenBookLaw)
    draw, mean = (draw_openbook_sample, openbook_mean) if book else (draw_spider_sample,
                                                                     intrinsic_mean)
    regime, th = classify_law(law)
    a_star = int(np.argmax(th))
    theta_star = th[a_star]
    second = sum(w * d.second_moment() for w, d in zip(law.weights, law.transverse))
    var = second - theta_star * theta_star
    stats, spine, stuck = np.empty(reps), np.empty(reps), 0
    for rep in range(reps):
        report = mean(draw(law, n, replicate_rng(seed, rep)))
        gaps = report.theta2 if book else report.theta
        leg, off = report.verdict.leg, report.verdict.kind == "non_sticky"
        stuck += not off
        if book:
            spine[rep] = report.x1_star
        if regime is Regime.NONSTICKY:
            folded = (gaps[leg - 1] if leg == a_star + 1 else -gaps[leg - 1]) if off else 0.0
            stats[rep] = folded - theta_star
        else:
            stats[rep] = gaps[a_star]

    def ks(values, name, variance):
        return kstest(math.sqrt(n) * values / math.sqrt(variance), name)

    # a variance within 8 ulps of the second moment it comes from is 0
    ks1 = ks2 = (None, None)
    degenerate = var <= 8 * sys.float_info.epsilon * second
    if not degenerate and regime is Regime.NONSTICKY:
        ks1 = ks(stats, "norm", var)
    elif not degenerate and regime is Regime.BOUNDARY:
        ks1 = ks(np.abs(stats), "halfnorm", var)
    if book:
        mu1 = sum(w * d.mean() for w, d in zip(law.weights, law.spine))
        second1 = sum(w * d.second_moment() for w, d in zip(law.weights, law.spine))
        var1 = second1 - mu1 * mu1
        degenerate = var1 <= 8 * sys.float_info.epsilon * second1
        ks1, ks2 = (None, None) if degenerate else ks(spine - mu1, "norm", var1), ks1
    report = SimReport("openbook" if book else "spider", regime, n, reps, stuck / reps, th,
                       *ks1, *ks2, degenerate=degenerate)
    return canonical_json(report.to_dict())


def oracle_coverage(law, n, reps, confidence, seed) -> float:
    """``spine_coverage`` as a loop of ``spine_clt`` over replicate samples."""
    mu1 = sum(w * d.mean() for w, d in zip(law.weights, law.spine))
    hits = 0
    for rep in range(reps):
        try:
            interval = spine_clt(draw_openbook_sample(law, n, replicate_rng(seed, rep)),
                                 confidence)
        except WrongRegimeError:
            continue
        hits += interval.lo <= mu1 <= interval.hi
    return hits / reps


def outcome(f, *args):
    try:
        return f(*args)
    except (TreeStatsError, ValueError) as exc:
        return type(exc), str(exc)


@dataclass(frozen=True)
class HoledUniform(Uniform):
    """Uniform draws with the given share of them set to 0 (points at the
    center or spine), against the laws' rule, so that zeros sit among
    ordinary values."""

    share: float = 0.3

    def draw(self, rng, size):
        x = super().draw(rng, size)
        x[rng.random(size) < self.share] = 0.0
        return x


@dataclass(frozen=True)
class BadDraws(Uniform):
    """Uniform draws with one value replaced by ``bad``."""

    bad: float = math.nan

    def draw(self, rng, size):
        x = super().draw(rng, size)
        x[size // 2] = self.bad
        return x


# uniform laws on [0, tiny] draw exact zeros too
_tiny = st.builds(Uniform, st.just(0.0), st.sampled_from([5e-324, 1e-321, 1e-300]))
_uniform = st.builds(lambda lo, width: Uniform(lo, lo + width),
                     st.one_of(st.just(0.0), st.floats(0.0, 3.0)), st.floats(0.01, 3.0))
leg_dists = st.one_of(st.builds(PointMass, st.floats(0.001, 3.0)), _uniform, _tiny,
                      st.builds(HoledUniform, st.just(0.0), st.floats(0.01, 3.0),
                                st.floats(0.0, 0.5)),
                      st.builds(Exponential, st.floats(0.2, 5.0)))
x1_dists = st.one_of(leg_dists, st.just(PointMass(0.0)))


def weights(p):
    raw = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=p, max_size=p)
    return raw.filter(lambda w: sum(w) > 0).map(lambda w: tuple(x / sum(w) for x in w))


# weights (0.5, x, 0.5 - x) with one distribution on every leg: a boundary law
boundary_weights = st.floats(0.0, 0.5).map(lambda x: (0.5, x, 0.5 - x))


@st.composite
def spider_laws(draw):
    if draw(st.booleans()):
        return SpiderLaw(draw(boundary_weights), (draw(leg_dists),) * 3)
    p = draw(st.integers(1, 5))
    return SpiderLaw(draw(weights(p)), tuple(draw(leg_dists) for _ in range(p)))


@st.composite
def book_laws(draw):
    if draw(st.booleans()):
        leaf = (draw(x1_dists), draw(leg_dists))
        return OpenBookLaw(draw(boundary_weights), (leaf,) * 3)
    return OpenBookLaw(draw(weights(3)),
                       tuple((draw(x1_dists), draw(leg_dists)) for _ in range(3)))


sizes = st.tuples(st.one_of(st.just(1), st.integers(1, 40)), st.integers(1, 12),
                  st.integers(0, 2**32 - 1))


class TestStagesMatchOracle:
    """Per-leg sums per replicate, then one array pass over all replicates,
    give byte for byte what one sample and one mean per replicate give."""

    @settings(max_examples=120, deadline=None)
    @given(spider_laws(), sizes)
    def test_simulate(self, law, size):
        assert canonical_json(simulate(law, *size).to_dict()) \
            == oracle_simulate(law, *size)

    @settings(max_examples=120, deadline=None)
    @given(book_laws(), sizes)
    def test_simulate_openbook(self, law, size):
        report = simulate_openbook(law, *size)
        assert canonical_json(report.to_dict()) \
            == oracle_simulate(law, *size)

    @settings(max_examples=120, deadline=None)
    @given(book_laws(), sizes, st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    def test_spine_coverage(self, law, size, confidence):
        n, reps, seed = size
        assert outcome(spine_coverage, law, n, reps, confidence, seed) \
            == outcome(oracle_coverage, law, n, reps, confidence, seed)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(spider_laws(), book_laws()), sizes)
    def test_replicate_sums_are_the_sample_sums(self, law, size):
        # points drawn at 0 sit at the center or spine and add to no leg's mass
        n, reps, seed = size
        mass, moment, spine, _ = mcsim._replicate_sums(law, n, reps, seed)
        for rep in range(reps):
            if isinstance(law, OpenBookLaw):
                report = openbook_mean(draw_openbook_sample(law, n, replicate_rng(seed, rep)))
                assert spine[rep] == report.x1_star
            else:
                report = intrinsic_mean(draw_spider_sample(law, n, replicate_rng(seed, rep)))
            assert tuple(mass[rep].tolist()) == report.w

    def test_boundary_law_is_reached(self):
        law = SpiderLaw((0.5, 0.3, 0.2), (Uniform(0.0, 2.0),) * 3)
        assert classify_law(law)[0] is Regime.BOUNDARY
        assert canonical_json(simulate(law, 30, 20, 4).to_dict()) \
            == oracle_simulate(law, 30, 20, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("where", ["u", "x1", "x2"])
    def test_drawn_coordinates_are_checked(self, bad, where):
        ok, broken = Uniform(0.0, 2.0), BadDraws(0.0, 2.0, bad)
        if where == "u":
            law, run = SpiderLaw((0.5, 0.5), (ok, broken)), simulate
        else:
            leaf = (broken, ok) if where == "x1" else (ok, broken)
            law, run = OpenBookLaw((0.2, 0.3, 0.5), ((ok, ok), (ok, ok), leaf)), simulate_openbook
        # a sample drawn from the law names the point; the replicate loop,
        # which builds no sample, names the law field that drew the value
        sampled = outcome(oracle_simulate, law, 20, 3, 1)
        assert sampled[0].__name__ == "InvalidSampleError"
        assert f".{where} must be finite" in sampled[1]
        field = "legs[1]" if where == "u" else f"leaves[2].{where}"
        got = outcome(run, law, 20, 3, 1)
        assert got == (InvalidParameterError, f"{field} draws must be finite and in "
                       f"0..1e+150, got {bad!r} in replicate 0")
        if where != "u":
            assert got == outcome(spine_coverage, law, 20, 3, 0.9, 1)


# --------------------------------------------------------------------------
# replicate seeding in arrays, and replicates reduced in blocks
# --------------------------------------------------------------------------

# one-word seeds at both ends, two- and three-word seeds, and seeds whose
# entropy (seed words plus the replicate word) is longer than the pool of 4
seeds = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96,
                                   2**96 + 12345, 2**160 - 1, 2**200 + 7]),
                  st.integers(0, 2**32 - 1), st.integers(0, 2**256))
rep_lists = st.lists(st.one_of(st.integers(0, 2**32 - 1),
                               st.sampled_from([0, 1, 2**31, 2**32 - 1])), min_size=1, max_size=6)


class TestReplicateSeeding:
    """The seeding kernel gives the words and PCG64 state numpy's own
    ``SeedSequence([seed, rep])`` gives."""

    @settings(max_examples=200, deadline=None)
    @given(seeds, rep_lists)
    def test_kernel_is_seed_sequence(self, seed, rep_list):
        words = mcsim._generate_state(mcsim._seed_words(seed), np.array(rep_list))
        for column, rep in zip(words.T.tolist(), rep_list):
            sequence = np.random.SeedSequence([seed, rep])
            assert column == sequence.generate_state(4, np.uint64).tolist()
            assert mcsim._pcg64_state(*column) == np.random.PCG64(sequence).state

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**96 + 5])
    def test_states_across_block_and_chunk_edges(self, monkeypatch, seed):
        # draw blocks of 3 replicates of 10 draws; each block is seeded by
        # one kernel call, so its edges are the seeding edges too; the
        # uniform book is drawn through the block route
        monkeypatch.setattr(mcsim, "_BLOCK", 30)
        uniform_book = symmetric_book(Uniform(0.5, 1.5))
        for law in (SYMMETRIC, symmetric_book(), uniform_book):
            assert canonical_json(simulate(law, 10, 11, seed).to_dict()) \
                == oracle_simulate(law, 10, 11, seed)
        for law in (symmetric_book(), uniform_book):
            assert spine_coverage(law, 10, 11, 0.9, seed) \
                == oracle_coverage(law, 10, 11, 0.9, seed)

    @pytest.mark.parametrize("run", [
        lambda seed: simulate(SYMMETRIC, 10, 5, seed),
        lambda seed: simulate_openbook(symmetric_book(), 10, 5, seed),
        lambda seed: spine_coverage(symmetric_book(), 10, 5, 0.9, seed),
    ], ids=["simulate", "simulate_openbook", "spine_coverage"])
    def test_negative_seed_is_named(self, run):
        with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0"):
            run(-1)
        with pytest.raises(InvalidParameterError, match="seed"):
            run(-2**70)

    def test_replication_bound(self):
        with pytest.raises(InvalidParameterError, match="replications must be <= 2\\*\\*32"):
            simulate(SYMMETRIC, 10, mcsim.MAX_REPLICATIONS + 1, 0)


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(spider_laws(), book_laws()),
           st.tuples(st.integers(2, 12), st.integers(1, 15), seeds),
           st.integers(1, 30))
    def test_blocked_sums_are_one_block_sums(self, law, size, block):
        # blocks of a few draws, down to one replicate per block
        whole = mcsim._replicate_sums(law, *size, spread=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_BLOCK", block)
            blocked = mcsim._replicate_sums(law, *size, spread=True)
        kept = 4 if isinstance(law, OpenBookLaw) else 2  # a spider has no spine
        for a, b in zip(whole[:kept], blocked[:kept]):
            assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# laws of exactly uniform coordinates: one stream read per replicate
# --------------------------------------------------------------------------

_exact_uniform = st.one_of(_uniform, _tiny)


@st.composite
def uniform_laws(draw):
    if draw(st.booleans()):
        return OpenBookLaw(draw(weights(3)),
                           tuple((draw(_exact_uniform), draw(_exact_uniform)) for _ in range(3)))
    p = draw(st.integers(1, 5))
    return SpiderLaw(draw(weights(p)), tuple(draw(_exact_uniform) for _ in range(p)))


class TestUniformRoute:
    """A law of exactly uniform coordinates is read one stream per
    replicate and drawn for the whole block at once; that gives bit for
    bit what ``_draw`` gives replicate by replicate."""

    @settings(max_examples=150, deadline=None)
    @given(uniform_laws(),
           st.tuples(st.integers(1, 40), st.integers(1, 12),
                     st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))),
           st.integers(1, 60))
    def test_block_route_is_draw_per_replicate(self, law, size, block):
        assert mcsim._uniform_bounds(law) is not None
        spread = size[0] > 1  # one point has no standard deviation
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_BLOCK", block)  # replicates split across blocks
            fast = mcsim._replicate_sums(law, *size, spread=spread)
            patch.setattr(mcsim, "_uniform_bounds", lambda law: None)
            per_replicate = mcsim._replicate_sums(law, *size, spread=spread)
        kept = (4 if spread else 3) if isinstance(law, OpenBookLaw) else 2  # a spider has no spine
        for a, b in zip(fast[:kept], per_replicate[:kept]):
            assert np.array_equal(a, b)

    def test_only_exact_uniforms_take_it(self):
        assert mcsim._uniform_bounds(SpiderLaw((0.5, 0.5), (Uniform(0, 1), Uniform(1, 3)))) \
            is not None
        for odd in (HoledUniform(0.0, 1.0), Exponential(1.0), PointMass(1.0)):
            assert mcsim._uniform_bounds(SpiderLaw((0.5, 0.5), (Uniform(0, 1), odd))) is None
        assert mcsim._uniform_bounds(symmetric_book()) is None

    @pytest.mark.parametrize("block", [10, 1 << 16])
    def test_first_bad_draw_names_its_replicate(self, monkeypatch, block):
        # leg 1 is drawn rarely, and half its draws leave the bound
        monkeypatch.setattr(mcsim, "_BLOCK", block)
        law = SpiderLaw((0.99, 0.01), (Uniform(0.0, 1.0), Uniform(0.0, 2e150)))
        n, seed = 5, 2**40 + 1
        for rep in range(100_000):
            sampled = outcome(draw_spider_sample, law, n, replicate_rng(seed, rep))
            if isinstance(sampled, tuple):
                break
        value = sampled[1].rsplit("got ", 1)[1]
        assert rep > 10
        assert outcome(simulate, law, n, rep + 5, seed) == (
            InvalidParameterError,
            f"legs[1] draws must be finite and in 0..1e+150, got {value} in replicate {rep}")
