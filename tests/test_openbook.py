import numpy as np
import pytest

from oracles import openbook_frechet_function, openbook_grid_minimum
from treestats.errors import EmptySampleError, InsufficientDataError, WrongRegimeError
from treestats.openbook import (
    OpenBookPoint,
    OpenBookSample,
    openbook_distance,
    openbook_mean,
    spine_clt,
)


def pt(leaf, x1, x2):
    return OpenBookPoint(leaf, x1, x2)


def sample(*points, weights=None):
    return OpenBookSample(tuple(points), weights)


def random_sample(rng, n=None, hi=1.5):
    n = n or int(rng.integers(2, 30))
    leaves = rng.integers(1, 4, size=n)
    x1 = rng.uniform(0, hi, size=n)
    x2 = rng.uniform(0.01, hi, size=n)
    return sample(*(pt(int(a), float(b), float(c)) for a, b, c in zip(leaves, x1, x2)))


class TestDistance:
    def test_cross_leaf_reflection(self):
        assert openbook_distance(pt(1, 0.5, 1), pt(2, 0.5, 2)) == pytest.approx(3.0)

    def test_same_leaf_euclidean(self):
        assert openbook_distance(pt(1, 1, 1), pt(1, 4, 5)) == pytest.approx(5.0)

    def test_spine_to_leaf(self):
        assert openbook_distance(pt(None, 2, 0), pt(3, 2, 7)) == pytest.approx(7.0)

    def test_spine_canonical(self):
        assert pt(2, 1.5, 0.0) == pt(None, 1.5, 0.0)

    def test_metric_axioms_cross_leaf_triples(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            pts = []
            for _ in range(3):
                leaf = int(rng.integers(0, 4))
                x2 = float(rng.uniform(0, 2)) if leaf else 0.0
                pts.append(pt(leaf if leaf else None, float(rng.uniform(0, 2)), x2))
            x, y, z = pts
            assert openbook_distance(x, y) == openbook_distance(y, x)
            assert openbook_distance(x, x) == 0.0
            assert openbook_distance(x, z) <= (
                openbook_distance(x, y) + openbook_distance(y, z) + 1e-12
            )


class TestOpenbookMean:
    def test_symmetric_sticks_to_spine(self):
        s = sample(pt(1, 1, 1), pt(2, 1, 1), pt(3, 1, 1))
        rep = openbook_mean(s)
        assert rep.x1_star == pytest.approx(1.0)
        assert rep.theta2 == pytest.approx((-1 / 3, -1 / 3, -1 / 3))
        assert rep.verdict.kind == "stuck_to_spine"
        assert rep.mean == pt(None, 1.0, 0.0)

    def test_dominant_leaf(self):
        s = sample(pt(1, 0, 3), pt(2, 0, 1), pt(3, 0, 1))
        rep = openbook_mean(s)
        assert rep.theta2 == pytest.approx((1 / 3, -1.0, -1.0))
        assert rep.verdict.kind == "non_sticky" and rep.verdict.leg == 1
        assert rep.mean.leaf == 1
        assert rep.mean.x1 == pytest.approx(0.0)
        assert rep.mean.x2 == pytest.approx(1 / 3)

    def test_all_on_spine(self):
        s = sample(pt(None, 1, 0), pt(None, 3, 0))
        rep = openbook_mean(s)
        assert rep.mean == pt(None, 2.0, 0.0)

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            openbook_mean(sample())

    def test_x1_is_plain_weighted_mean(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            s = random_sample(rng)
            x1 = np.array([q.x1 for q in s.points])
            assert openbook_mean(s).x1_star == pytest.approx(float(x1.mean()), rel=1e-12)

    def test_leaf_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        s = random_sample(rng, n=12)
        rep = openbook_mean(s)
        for perm in ((2, 3, 1), (3, 1, 2), (2, 1, 3)):
            mapped = sample(*(
                pt(perm[q.leaf - 1] if q.leaf else None, q.x1, q.x2)
                for q in s.points
            ))
            rep2 = openbook_mean(mapped)
            assert rep2.x1_star == rep.x1_star
            for leaf in (1, 2, 3):
                assert rep2.theta2[perm[leaf - 1] - 1] == pytest.approx(
                    rep.theta2[leaf - 1]
                )

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            s = random_sample(rng, n=int(rng.integers(3, 15)))
            rep = openbook_mean(s)
            (leaf, x1, x2), val = openbook_grid_minimum(s, step=1e-3)
            if abs(max(rep.theta2)) > 1e-3:  # resolvable at grid step
                assert (rep.mean.leaf is None) == (leaf is None)
            assert openbook_distance(rep.mean, pt(leaf, x1, x2)) < 2e-3
            assert openbook_frechet_function(rep.mean, s) <= val + 1e-9


class TestSpineClt:
    def test_classical_interval(self):
        rng = np.random.default_rng(25)
        pts = []
        for _ in range(100):
            leaf = int(rng.integers(1, 4))
            pts.append(pt(leaf, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.1, 1))))
        s = sample(*pts)
        rep = openbook_mean(s)
        assert rep.verdict.kind == "stuck_to_spine"
        ci = spine_clt(s, 0.95)
        x1 = np.array([q.x1 for q in pts])
        half = 1.959963984540054 * x1.std(ddof=1) / 10
        assert ci.lo == pytest.approx(x1.mean() - half, rel=1e-9)
        assert ci.hi == pytest.approx(x1.mean() + half, rel=1e-9)

    def test_degenerate_zero_width(self):
        s = sample(*(pt(None, 1.0, 0.0) for _ in range(5)))
        ci = spine_clt(s)
        assert ci.lo == ci.hi == 1.0

    def test_wrong_regime(self):
        s = sample(pt(1, 0, 3), pt(2, 0, 1), pt(3, 0, 1))
        with pytest.raises(WrongRegimeError):
            spine_clt(s)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            spine_clt(sample(pt(None, 1, 0)))
