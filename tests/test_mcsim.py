import numpy as np
import pytest

from oracles import exact_stick_probability
from treestats.mcsim import (
    Exponential,
    OpenBookLaw,
    PointMass,
    Regime,
    SpiderLaw,
    Uniform,
    classify_law,
    classify_openbook_law,
    distribution_from_dict,
    law_from_dict,
    simulate,
    simulate_openbook,
    spine_coverage,
)

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
            assert classify_openbook_law(book)[0] is Regime.BOUNDARY

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
        for d in (PointMass(1.5), Uniform(0.5, 2.0), Exponential(0.7)):
            assert distribution_from_dict(d.to_dict()) == d

    def test_law_round_trip(self):
        law = SpiderLaw((0.6, 0.4), (Uniform(0, 1), Exponential(2.0)))
        assert law_from_dict(law.to_dict()) == law
        book = symmetric_book()
        assert law_from_dict(book.to_dict()) == book


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
                from treestats.mcsim import draw_spider_sample, _replicate_rng
                from treestats.spider import intrinsic_mean

                sample = draw_spider_sample(law, 10_000, _replicate_rng(16, rep))
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
        regime, th2 = classify_openbook_law(symmetric_book())
        assert regime is Regime.STICKY
        assert th2 == pytest.approx((-1 / 3, -1 / 3, -1 / 3))


class TestSpineCoverage:
    def test_coverage_near_nominal(self):
        frac = spine_coverage(symmetric_book(), n=100, replications=500,
                              confidence=0.95, seed=20)
        assert 0.90 <= frac <= 0.99
