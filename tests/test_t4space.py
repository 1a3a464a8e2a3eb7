import copy
import math
import os
import pickle
import random
import subprocess
import sys
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import treestats
from oracles import (
    compatible_pairs,
    petersen_paths,
    route_distance,
    route_frechet_function,
    route_geodesic_point,
    t4_coordinate_mean,
    t4_descent,
    t4_grid_frechet_minimum,
    t4_mean_inductive_polish,
    t4_shortest_path,
    t4_star_descent,
)
from treestats.errors import (
    EmptySampleError,
    InvalidParameterError,
    InvalidSampleError,
    NotInBookError,
)
from treestats.plots import petersen_csv
from treestats.t4space import (
    Stratum,
    T4Point,
    T4Sample,
    _QuadrantImages,
    _best_ray,
    _geometry,
    _split_coords,
    all_splits,
    book_partners,
    compatible,
    frechet_function,
    spine_stickiness_t4,
    stratum_of,
    t4_distance,
    t4_mean,
    tree_type_newick,
)

L = (1, 2, 3, 4)


def P(coords):
    return T4Point(L, {frozenset(c): v for c, v in coords.items()})


def sample_of(*points):
    labels = tuple("abcd")
    return T4Sample(labels, tuple(
        T4Point(labels, {frozenset(c): v for c, v in pt.items()}) for pt in points))


def random_point(rng, quadrants, scale=2.0, axis_prob=0.25):
    e, f = quadrants[int(rng.integers(0, len(quadrants)))]
    a = float(rng.uniform(0.05, scale))
    b = float(rng.uniform(0.05, scale))
    r = rng.random()
    if r < axis_prob / 2:
        return T4Point(L, {e: a})
    if r < axis_prob:
        return T4Point(L, {f: b})
    return T4Point(L, {e: a, f: b})


@pytest.fixture(scope="module")
def quadrants():
    return compatible_pairs(L)


class TestCombinatorics:
    def test_fifteen_quadrants_ten_axes(self, quadrants):
        assert len(quadrants) == 15
        assert len(all_splits(L)) == 10

    def test_three_regular(self, quadrants):
        for s in all_splits(L):
            assert sum(1 for q in quadrants if s in q) == 3

    def test_incidences_of_a_pair(self, quadrants):
        touching = [q for q in quadrants if frozenset({1, 2}) in q]
        partners = {q[0] if q[1] == frozenset({1, 2}) else q[1] for q in touching}
        assert partners == {
            frozenset({3, 4}), frozenset({1, 2, 3}), frozenset({1, 2, 4})
        }

    def test_girth_five(self, quadrants):
        # Petersen graph: shortest cycle through any vertex has length 5
        adj = {s: set() for s in all_splits(L)}
        for a, b in quadrants:
            adj[a].add(b)
            adj[b].add(a)

        def shortest_cycle_through(v):
            best = math.inf
            for start in adj[v]:
                dist = {v: 0, start: 1}
                queue = deque([start])
                while queue:
                    node = queue.popleft()
                    for nxt in adj[node]:
                        if nxt == v and node != start:
                            best = min(best, dist[node] + 1)
                        if nxt not in dist:
                            dist[nxt] = dist[node] + 1
                            queue.append(nxt)
            return best

        girths = {shortest_cycle_through(v) for v in adj}
        assert girths == {5}

    def test_compatibility_rules(self):
        assert compatible(frozenset({1, 2}), frozenset({3, 4}))
        assert compatible(frozenset({1, 2}), frozenset({1, 2, 3}))
        assert not compatible(frozenset({1, 2}), frozenset({2, 3}))
        assert not compatible(frozenset({1, 2, 3}), frozenset({1, 2, 4}))


class TestPointValidation:
    def test_zero_lengths_dropped(self):
        assert P({(1, 2): 0.0}).is_origin

    def test_incompatible_rejected(self):
        with pytest.raises(ValueError):
            P({(1, 2): 1.0, (2, 3): 1.0})

    def test_bad_support_text_is_the_same_under_every_hash_seed(self):
        # the clusters print as sorted lists, not in a set's hash order
        script = ("from treestats.t4space import T4Point\n"
                  "try:\n"
                  "    T4Point('abcd', {frozenset('ab'): 1.0, frozenset('ac'): 2.0})\n"
                  "except ValueError as e:\n"
                  "    print(e)\n")
        src = str(Path(treestats.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        for seed in ("1", "2", "3"):
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                                  timeout=120)
            assert done.stdout == (
                "splits: a four-leaf tree has at most two distinct compatible splits of 2 or 3 "
                "leaves, got clusters [['a', 'b'], ['a', 'c']]\n"), done.stderr

    def test_three_splits_rejected(self):
        with pytest.raises(ValueError):
            P({(1, 2): 1.0, (1, 2, 3): 1.0, (3, 4): 1.0})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            P({(1, 2): -0.5})


class TestPointImmutable:
    """A point keeps the row it was checked as: it can be neither changed nor
    emptied, and copies and pickles are equal points."""

    POINT = T4Point("abcd", {frozenset("ab"): 1.0, frozenset("abc"): 0.5})

    @pytest.mark.parametrize("change", [
        lambda p: setattr(p, "code", 7),
        lambda p: setattr(p, "lengths", (2.0, 1.0)),
        lambda p: setattr(p, "labels", ("a", "b", "c", "e")),
        lambda p: delattr(p, "lengths"),
        lambda p: delattr(p, "code"),
    ], ids=["set_code", "set_lengths", "set_labels", "del_lengths", "del_code"])
    def test_guarded(self, change):
        p = T4Point("abcd", {frozenset("ab"): 1.0})
        with pytest.raises(AttributeError, match="T4Point is immutable"):
            change(p)
        assert (p.code, p.lengths, repr(p)) == (1, (1.0,), "T4Point({a|b}:1)")

    @pytest.mark.parametrize("copy_of", [
        copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("point", [POINT, T4Point("abcd"),
                                       T4Point("wxyz", {frozenset("yz"): 1e-300})],
                             ids=["quadrant", "origin", "axis"])
    def test_round_trip(self, copy_of, point):
        q = copy_of(point)
        assert type(q) is T4Point and q == point and hash(q) == hash(point)
        assert (q.labels, q.code, q.lengths) == (point.labels, point.code, point.lengths)


class TestDistance:
    def test_identical(self):
        x = P({(1, 2): 1.0, (1, 2, 3): 1.0})
        assert t4_distance(x, x) == 0.0

    def test_adjacent_quadrants_unfold(self):
        x = P({(1, 2): 1.0, (1, 2, 3): 1.0})
        y = P({(1, 2): 1.0, (1, 2, 4): 1.0})
        assert t4_distance(x, y) == pytest.approx(2.0)
        assert x.norm() + y.norm() == pytest.approx(2 * math.sqrt(2))

    def test_compatible_axes_share_a_quadrant(self):
        x = P({(1, 2): 1.0})
        y = P({(3, 4): 1.0})
        assert t4_distance(x, y) == pytest.approx(math.sqrt(2))

    def test_incompatible_axes_cone(self):
        # no short unfolding: the Petersen path spans a straight angle
        x = P({(1, 2): 1.0})
        y = P({(1, 3): 1.0})
        assert t4_distance(x, y) == pytest.approx(2.0)

    def test_origin(self):
        x = P({(1, 2): 0.7, (3, 4): 0.2})
        assert t4_distance(P({}), x) == pytest.approx(x.norm())

    def test_cone_bound(self, quadrants):
        rng = np.random.default_rng(31)
        for _ in range(300):
            x = random_point(rng, quadrants)
            y = random_point(rng, quadrants)
            assert t4_distance(x, y) <= x.norm() + y.norm() + 1e-12

    def test_symmetry_and_triangle(self, quadrants):
        rng = np.random.default_rng(32)
        for _ in range(200):
            x = random_point(rng, quadrants)
            y = random_point(rng, quadrants)
            z = random_point(rng, quadrants)
            assert t4_distance(x, y) == pytest.approx(t4_distance(y, x), rel=1e-12)
            assert t4_distance(x, z) <= (
                t4_distance(x, y) + t4_distance(y, z) + 1e-9
            )

    def test_against_shortest_path_oracle(self, quadrants):
        rng = np.random.default_rng(33)
        h = 0.02
        for _ in range(25):
            x = random_point(rng, quadrants)
            y = random_point(rng, quadrants)
            oracle = t4_shortest_path(x, y, h=h)
            d = t4_distance(x, y)
            assert d <= oracle + 1e-9  # oracle paths are realizable
            assert abs(d - oracle) <= 2 * h

    def test_unfolding_example_vs_oracle(self):
        x = P({(1, 2): 1.0, (1, 2, 3): 1.0})
        y = P({(1, 2): 1.0, (1, 2, 4): 1.0})
        assert t4_shortest_path(x, y, h=0.005) == pytest.approx(2.0, abs=5e-3)


class TestGeodesicPoint:
    """Points along geodesics, named or from the route oracle, lie at the
    fraction of ``t4_distance`` that their arclength gives."""

    def test_adjacent_quadrant_midpoint_on_shared_axis(self):
        x = P({(1, 2): 1.0, (1, 2, 3): 1.0})
        y = P({(1, 2): 1.0, (1, 2, 4): 1.0})
        mid = P({(1, 2): 1.0})
        half = 0.5 * t4_distance(x, y)
        assert t4_distance(x, mid) == pytest.approx(half)
        assert t4_distance(mid, y) == pytest.approx(half)

    def test_cone_midpoint_at_origin(self):
        x = P({(1, 2): 1.0})
        y = P({(1, 3): 1.0})
        half = 0.5 * t4_distance(x, y)
        assert t4_distance(x, P({})) == pytest.approx(half)
        assert t4_distance(P({}), y) == pytest.approx(half)

    @pytest.mark.parametrize("s", [1e-150, 1e-50, 1e100])
    @pytest.mark.parametrize("x, y", [
        ({(1, 2): 1.0, (1, 2, 3): 2.0}, {(1, 2): 2.0, (1, 2, 3): 0.5}),  # one quadrant
        ({(1, 2): 1.0}, {(1, 2): 2.0, (1, 2, 4): 1.0}),  # an axis and a quadrant on it
        ({(1, 2): 1.0, (1, 2, 3): 0.5}, {(1, 2): 0.5, (1, 2, 4): 1.0}),  # across an axis
        ({(1, 2): 1.0}, {(1, 3): 1.0}),  # the cone path
    ])
    def test_scale_invariance(self, x, y, s):
        # scales that are no power of two, unlike TestPowerOfTwoScale's
        def scaled(coords, by):
            return P({c: by * v for c, v in coords.items()})

        expected = t4_distance(scaled(x, 1.0), scaled(y, 1.0))
        assert t4_distance(scaled(x, s), scaled(y, s)) == pytest.approx(s * expected, rel=1e-12)

    def test_arclength_consistency(self, quadrants):
        rng = np.random.default_rng(34)
        for _ in range(150):
            x = random_point(rng, quadrants)
            y = random_point(rng, quadrants)
            t = float(rng.uniform(0, 1))
            g = route_geodesic_point(x, y, t)
            d = t4_distance(x, y)
            assert t4_distance(x, g) == pytest.approx(t * d, abs=1e-9)
            assert t4_distance(g, y) == pytest.approx((1 - t) * d, abs=1e-9)

    def test_cat0_midpoint_inequality(self, quadrants):
        rng = np.random.default_rng(35)
        for _ in range(300):
            x = random_point(rng, quadrants)
            y = random_point(rng, quadrants)
            z = random_point(rng, quadrants)
            m = route_geodesic_point(x, y, 0.5)
            lhs = t4_distance(z, m) ** 2
            rhs = (
                0.5 * t4_distance(z, x) ** 2
                + 0.5 * t4_distance(z, y) ** 2
                - 0.25 * t4_distance(x, y) ** 2
            )
            assert lhs <= rhs + 1e-9


class TestPowerOfTwoScale:
    """The metric functions solve at a power-of-two scale, so lengths whose
    squares underflow still give exact results: scaling by 2**k is exact."""

    @pytest.mark.parametrize("k", [-530, -700, -1000])
    @pytest.mark.parametrize("x, y", [
        ({(1, 2): 1.0}, {(1, 2): 2.0, (1, 2, 3): 1.0}),  # an axis and a quadrant on it
        ({(1, 2): 1.0}, {(1, 3): 2.0}),  # the cone path
        ({(1, 2): 1.0, (1, 2, 3): 0.5}, {(1, 2): 0.5, (1, 2, 4): 1.0}),  # across an axis
        ({(1, 2): 1.0, (1, 2, 3): 2.0}, {(1, 2): 2.0, (1, 2, 3): 0.5}),  # one quadrant
    ])
    def test_scaling_is_exact(self, x, y, k):
        def scaled(coords, by):
            return P({c: math.ldexp(v, by) for c, v in coords.items()})

        (x1, y1), (xk, yk) = (scaled(x, 0), scaled(y, 0)), (scaled(x, k), scaled(y, k))
        assert t4_distance(xk, yk) == math.ldexp(t4_distance(x1, y1), k)
        assert frechet_function(xk, T4Sample(L, (xk, yk))) == math.ldexp(
            frechet_function(x1, T4Sample(L, (x1, y1))), 2 * k)


class TestMean:
    def test_single_quadrant_euclidean(self):
        pts = (P({(1, 2): 1.0, (1, 2, 3): 1.0}), P({(1, 2): 3.0, (1, 2, 3): 3.0}))
        est = t4_mean(T4Sample(L, pts))
        assert est.mean == P({(1, 2): 2.0, (1, 2, 3): 2.0})

    def test_single_axis_exact(self):
        pts = (P({(1, 2): 1.0}), P({(1, 2): 2.0}), P({(1, 2): 6.0}))
        est = t4_mean(T4Sample(L, pts))
        assert est.mean == P({(1, 2): 3.0})

    def test_symmetric_incompatible_axes_origin(self):
        pts = (P({(1, 2): 1.0}), P({(1, 3): 1.0}), P({(2, 3): 1.0}))
        sample = T4Sample(L, pts)
        est = t4_mean(sample)
        assert est.mean.is_origin
        oracle_pt, oracle_val = t4_grid_frechet_minimum(sample, step=0.05)
        assert oracle_pt.is_origin
        assert est.frechet_value <= oracle_val + 1e-9

    def test_mixed_sample_matches_grid_oracle(self, quadrants):
        rng = np.random.default_rng(36)
        pts = tuple(random_point(rng, quadrants, scale=1.0) for _ in range(8))
        sample = T4Sample(L, pts)
        est = t4_mean(sample)
        _, oracle_val = t4_grid_frechet_minimum(sample, step=0.02)
        assert est.frechet_value <= oracle_val + 1e-9

    def test_permutation_invariance_of_frechet_value(self, quadrants):
        rng = np.random.default_rng(37)
        pts = tuple(random_point(rng, quadrants, scale=1.5) for _ in range(12))
        value = t4_mean(T4Sample(L, pts)).frechet_value
        for _ in range(10):
            order = rng.permutation(len(pts))
            shuffled = T4Sample(L, tuple(pts[i] for i in order))
            assert t4_mean(shuffled).frechet_value == pytest.approx(value, rel=1e-12)

    def test_diagnostics_of_an_interior_mean(self):
        # most mass in one quadrant, pulled by both of its neighbours
        pts = (P({(1, 2): 1.0, (1, 2, 3): 1.0}), P({(1, 2): 2.0, (1, 2, 3): 1.0}),
               P({(1, 2): 1.0, (1, 2, 3): 2.0}), P({(1, 2): 1.0, (1, 2, 4): 0.5}),
               P({(1, 2, 3): 1.0, (1, 3): 0.5}))
        sample = T4Sample(L, pts)
        est = t4_mean(sample)
        assert est.mean.support == (frozenset({1, 2}), frozenset({1, 2, 3}))
        assert t4_descent(sample, est.mean, est.frechet_value, step=1e-3) <= (
            1e-12 * est.frechet_value)
        assert set(est.to_dict()) == {"mean", "frechet_value"}

    def test_star_tree_wins_with_empty_quadrant(self):
        pts = (P({(1, 2): 1.0}), P({(1, 3): 1.0}), P({(2, 3): 1.0}))
        est = t4_mean(T4Sample(L, pts))
        assert est.mean.is_origin
        assert est.frechet_value == pytest.approx(1.0)

    @pytest.mark.parametrize("points, value", [
        # the iterative solver exited 1 on this one; pinned under golden/
        (({"ac": 2, "abc": 3}, {"ad": 2, "acd": 3}), 13.0),
        # a best ray gains about 1e-16 by rounding, below the floor 8 eps
        # sum w |p|: without it the mean is a point about 1e-16 from the
        # star tree, at a value a few ulps below the star tree's
        (({"ab": 2, "abc": 1}, {"ac": 2, "bd": 3}, {"bc": 1, "bcd": 1}), 6.666666666666667),
        (({"bc": 4, "bcd": 3}, {"bd": 3, "abd": 1}, {"ab": 2, "cd": 3}), 16.0),
        (({"cd": 3, "acd": 3}, {"bcd": 3}, {"ab": 3, "abd": 3}), 15.0),
    ])
    def test_gain_below_the_floor_keeps_the_star_tree(self, points, value):
        est = t4_mean(sample_of(*points))
        assert est.mean.is_origin
        assert est.frechet_value == value

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            t4_mean(T4Sample(L, ()))
        with pytest.raises(EmptySampleError, match="^empty sample$"):
            frechet_function(T4Point(L, {}), T4Sample(L, ()))

    @pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
    def test_tiny_lengths_scale_the_mean(self, s):
        # squared lengths this small underflow: the mean is s times the mean at 1
        def sample(scale):
            return T4Sample.from_dict({"labels": list("abcd"), "points": [
                {"splits": [{"cluster": list(c), "length": x * scale}]}
                for c, x in (("abc", 1.896), ("cd", 0.7), ("ab", 0.7))]})

        expected = t4_mean(sample(1.0)).mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = t4_mean(sample(s)).mean
        assert mean.support == expected.support and len(mean.support) == 2
        for c in expected.support:
            assert mean.get(c) == pytest.approx(s * expected.get(c), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 10, 300])
    def test_euclidean_mean_builds_one_point(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        masks = np.tile([0b11, 0b111], (n, 1))  # {1, 2} and {1, 2, 3}
        sample = T4Sample.from_splits(L, masks, rng.uniform(0.1, 1.0, (n, 2)))
        built, init = [], T4Point.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(T4Point, "__init__", counting)
        est = t4_mean(sample)
        assert built == [est.mean]


QUADRANTS = compatible_pairs(L)
lengths = st.floats(0.05, 2.0)


@st.composite
def t4_points(draw, home):
    """A point of the home quadrant or of any quadrant: inside, on either
    axis, or the origin."""
    q = draw(st.one_of(st.just(home), st.integers(0, 14)))
    e, f = QUADRANTS[q]
    where = draw(st.sampled_from(["inside", "axis_e", "axis_f", "origin"]))
    a, b = draw(lengths), draw(lengths)
    coords = {"inside": {e: a, f: b}, "axis_e": {e: a}, "axis_f": {f: b},
              "origin": {}}[where]
    return T4Point(L, coords)


@st.composite
def t4_samples(draw, max_size=10):
    """Mixed samples, optionally weighted, biased toward one home quadrant
    so that means land inside quadrants, on axes and at the origin."""
    home = draw(st.integers(0, 14))
    pts = draw(st.lists(t4_points(home), min_size=1, max_size=max_size))
    weights = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(pts),
                                     max_size=len(pts))))
        weights = tuple(raw / raw.sum())
    return T4Sample(L, tuple(pts), weights)


class TestMeanProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t4_samples())
    # equal points: the Euclidean path must return the point itself
    @example(T4Sample(L, (P({(1, 3): 1.0, (1, 3, 4): 1.625}),) * 2,
                      (0.5714285714285714, 0.42857142857142855)))
    # a ray whose descent is below rounding: the mean must not step onto the origin
    @example(T4Sample(L, (P({}), P({(1, 3): 0.12282768208439435, (2, 4): 1.5}),
                          P({(1, 2): 0.0, (1, 2, 3): 1.5}))))
    # the bisection start and projected Newton ended in LinAlgError('Singular matrix')
    @example(sample_of({"ac": 3, "acd": 2}, {"bd": 2, "bcd": 3}))
    @example(sample_of({"ad": 2, "abd": 3}, {"cd": 3, "bcd": 2}))
    # ... reported the star tree, though the mean lies in a quadrant near it
    @example(sample_of({"bd": 1, "bcd": 4}, {"ac": 3}, {"ad": 4, "bc": 3}, {"ad": 1, "bc": 1}))
    @example(sample_of({"ac": 3}, {"cd": 4}, {"bd": 4, "bcd": 2}))
    @example(sample_of({"bc": 2}, {"ad": 2, "acd": 4}, {"bc": 3}, {"ab": 2}))
    @example(sample_of({"cd": 4}, {"bd": 1}, {"bc": 2, "bcd": 4}, {"abd": 4}))
    # ... and an axis point, though the mean lies inside a quadrant
    @example(sample_of({"cd": 3}, {"ab": 2, "abc": 3}, {"bc": 4, "bcd": 4}))
    # the mean lies 0.03 from the star tree, between the compass directions
    # of t4_descent; the polish oracle gives the star tree, so only the star
    # probe would catch a star-tree answer
    @example(sample_of({"bd": 3}, {"bcd": 3}, {"ad": 4, "bc": 4}, {"ac": 1}))
    def test_no_worse_than_inductive_polish_and_no_descent(self, sample):
        est = t4_mean(sample)
        _, oracle_value = t4_mean_inductive_polish(sample, epochs=5)
        assert est.frechet_value <= oracle_value * (1 + 1e-9)
        assert est.frechet_value == pytest.approx(
            frechet_function(est.mean, sample), rel=1e-12, abs=1e-300)
        assert_no_descent(sample, est)


def assert_no_descent(sample, est):
    """No short step from the mean descends beyond rounding: along the
    compass directions of its quadrants, and out of the star tree along
    rays every 15 degrees when the mean is the star tree."""
    value = est.frechet_value
    if value > 0:
        assert t4_descent(sample, est.mean, value, step=1e-3) <= 1e-12 * value
        if est.mean.is_origin:
            assert t4_star_descent(sample, value) <= 1e-12 * value


def small_integer_samples(count, seed=5):
    """Samples of 2 to 4 points, each point of a random non-origin support
    class (in ``_Geometry.supports`` order) with an integer length 1 to 4
    per split, drawn from ``random.Random(seed)``."""
    labels, rng = tuple("abcd"), random.Random(seed)
    classes = _geometry(labels).supports[1:]
    for _ in range(count):
        points = []
        for _ in range(rng.randint(2, 4)):
            support = rng.choice(classes)
            points.append(T4Point(labels, {e: rng.randint(1, 4) for e in support}))
        yield T4Sample(labels, tuple(points))


class TestMeanSweep:
    def test_no_descent_on_small_integer_samples(self):
        # the start of a sweep whose later samples (4000 in all) held means
        # near the star tree that the iterative solver missed or crashed on
        for sample in small_integer_samples(200):
            est = t4_mean(sample)
            assert est.frechet_value == pytest.approx(
                frechet_function(est.mean, sample), rel=1e-12)
            assert_no_descent(sample, est)


def optional_weights(n):
    """No weights, or ``n`` positive weights summing to 1."""
    raw = st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
    return st.one_of(st.none(), raw.map(lambda w: tuple(np.array(w) / sum(w))))


@st.composite
def one_quadrant_samples(draw):
    """Samples inside one closed quadrant or on one axis, optionally
    weighted, with lengths of order 1 or of order 1e-172 (whose squares
    underflow)."""
    e, f = QUADRANTS[draw(st.integers(0, 14))]
    axes = draw(st.sampled_from([(e, f), (e,), (f,)]))
    scale = draw(st.sampled_from([1.0, 1e-172]))
    coords = st.fixed_dictionaries({}, optional={a: lengths for a in axes})
    pts = draw(st.lists(coords, min_size=1, max_size=8))
    return T4Sample(L, tuple(T4Point(L, {a: x * scale for a, x in pt.items()}) for pt in pts),
                    draw(optional_weights(len(pts))))


class TestOneQuadrantMean:
    """Inside one closed quadrant the space is Euclidean: the cone solve
    gives the coordinate mean of ``oracles.t4_coordinate_mean``."""

    @settings(max_examples=200, deadline=None)
    @given(one_quadrant_samples())
    def test_matches_the_coordinate_mean(self, sample):
        est = t4_mean(sample)
        mean, value = t4_coordinate_mean(sample)
        assert est.frechet_value <= value * (1 + 1e-9)
        assert max(abs(est.mean.get(e) - mean.get(e)) for e in all_splits(L)) <= (
            1e-12 * mean.norm())

    @pytest.mark.parametrize("support", _geometry(L).supports[1:],
                             ids=lambda s: "|".join("".join(map(str, sorted(c))) for c in s))
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_equal_points_average_to_themselves(self, support, data):
        point = T4Point(L, {e: data.draw(lengths) for e in support})
        n = data.draw(st.integers(1, 6))
        est = t4_mean(T4Sample(L, (point,) * n, data.draw(optional_weights(n))))
        assert est.mean == point
        assert est.frechet_value == 0.0


@st.composite
def frames_and_points(draw):
    """A quadrant, x in it (inside, on an axis or at the origin), and a
    sample holding points whose unfolded span from x is within 1e-9 of pi
    (on either side, for both unfolding directions) besides random ones."""
    geom = _geometry(L)
    qi = draw(st.integers(0, 14))
    e, f = geom.quadrants[qi]
    r = draw(st.one_of(st.just(0.0), lengths))
    alpha = draw(st.one_of(st.sampled_from([0.0, math.pi / 2]),
                           st.floats(0.0, math.pi / 2)))
    a, b = r * math.cos(alpha), r * math.sin(alpha)
    a, b = (a if a > 1e-12 else 0.0), (b if b > 1e-12 else 0.0)
    pts = draw(st.lists(t4_points(qi), min_size=0, max_size=6))
    for clockwise in draw(st.lists(st.booleans(), max_size=4)):
        first = (f, e) if clockwise else (e, f)
        paths = [p for p in geom.paths_by_first[first] if len(p) == 4]
        path = draw(st.sampled_from(paths))
        angle = math.atan2(a, b) if clockwise else math.atan2(b, a)
        psi = min(max(angle + draw(st.sampled_from([-1e-9, 0.0, 1e-9])), 0.0),
                  math.pi / 2)
        rho = draw(lengths)
        pts.append(T4Point(L, {path[-2]: rho * math.cos(psi),
                               path[-1]: rho * math.sin(psi)}))
    if not pts:
        pts.append(T4Point(L, {}))
    return qi, (a, b), T4Sample(L, tuple(pts))


class TestStartBisection:
    """Samples on which the bisection start that preceded the closed-form
    solve had to bisect a quadrant's chord; both are pinned under
    ``golden/``."""

    def test_bisection_ends_at_the_star_tree(self):
        sample = sample_of({"ac": 4, "abc": 3}, {"cd": 4, "bcd": 1}, {"acd": 2})
        est = t4_mean(sample)
        assert est.mean.support == ()
        assert est.frechet_value == 15.333333333333332
        assert t4_grid_frechet_minimum(sample, step=0.25)[1] == est.frechet_value

    def test_bisection_finds_a_descending_ray(self):
        sample = sample_of({"ab": 3}, {"ad": 3}, {"cd": 3, "bcd": 2})
        quadrant = (frozenset("ab"), frozenset("cd"))
        est = t4_mean(sample)
        assert est.mean.support == quadrant
        assert est.frechet_value < frechet_function(T4Point(sample.labels, {}), sample)
        _, oracle_value = t4_mean_inductive_polish(sample, epochs=5)
        assert est.frechet_value <= oracle_value * (1 + 1e-9)
        assert t4_descent(sample, est.mean, est.frechet_value, step=1e-3) == 0.0


class TestBestRay:
    """``_best_ray`` against the gain read off the route oracle by the cone
    identity ``F(u) = F(0) - 2 G(u) + 1`` on unit vectors ``u``."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t4_samples(max_size=6), st.integers(0, 14))
    @example(sample_of({"ac": 2, "abc": 3}, {"ad": 2, "acd": 3}), 1)
    def test_gain_is_the_largest_on_the_arc(self, sample, q):
        geom = _geometry(sample.labels)
        (e, f), wts = geom.quadrants[q], sample.normalized_weights()
        images = _QuadrantImages(geom.image_tables[q], sample.codes,
                                 _split_coords(sample, geom), wts)
        gain, theta = _best_ray(images)
        star = route_frechet_function(T4Point(sample.labels, {}), sample)

        def oracle_gain(angle):
            on_f = angle == math.pi / 2
            u = T4Point(sample.labels, {e: 0.0 if on_f else math.cos(angle),
                                        f: math.sin(angle)})
            return (star + 1.0 - route_frechet_function(u, sample)) / 2.0

        tol = 1e-12 * (1.0 + star)  # the oracle's rounding
        assert 0.0 <= theta <= math.pi / 2
        assert gain == pytest.approx(oracle_gain(theta), abs=tol)
        for angle in np.linspace(0.0, math.pi / 2, 41):
            assert oracle_gain(angle) <= gain + tol


class TestQuadrantImages:
    def test_images_of_a_point_lie_five_quarter_turns_apart(self):
        # so at most one is valid from any angle, as _best_ray counts them
        geom = _geometry(L)
        codes = np.repeat(np.arange(1, len(geom.supports)), 40)
        coords = np.zeros((len(codes), len(geom.splits) + 1))
        np.put_along_axis(coords, geom.pairs[codes],
                          np.random.default_rng(5).uniform(0.0, 1.0, (len(codes), 2)), axis=1)
        for table in geom.image_tables:
            images = _QuadrantImages(table, codes, coords[:, :-1], np.ones(len(codes)))
            phi = np.where(images.clockwise, math.pi / 2 - images.beta, images.beta)
            real = table[codes][..., 2] < 4  # not padding
            pairs = real[:, :, None] & real[:, None, :] & ~np.eye(phi.shape[1], dtype=bool)
            gaps = np.abs(phi[:, :, None] - phi[:, None, :])[pairs]
            assert gaps.min() >= 5 * math.pi / 2 - 1e-12

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frames_and_points())
    # a point on the frame's own axis: its image there must be exact
    @example((0, (0.0, 1.0), T4Sample(L, (P({(3, 4): 1.0}),))))
    def test_array_evaluation_equals_route(self, case):
        qi, (a, b), sample = case
        geom = _geometry(L)
        e, f = geom.quadrants[qi]
        classes, coords = sample.codes, _split_coords(sample, geom)
        images = _QuadrantImages(
            geom.image_tables[qi], classes, coords, sample.normalized_weights())
        expected = route_frechet_function(T4Point(L, {e: a, f: b}), sample)
        assert images.value(np.array([a, b])) == pytest.approx(
            expected, rel=1e-12, abs=1e-300)


# two or three points, each of one shared home quadrant or of any quadrant
t4_pairs = st.integers(0, 14).flatmap(lambda home: st.tuples(t4_points(home), t4_points(home)))
t4_triples = st.integers(0, 14).flatmap(
    lambda home: st.tuples(t4_points(home), t4_points(home), t4_points(home)))
fractions = st.floats(0.0, 1.0)


class TestDistanceProperties:
    """The metric and its geodesics against the per-pair route oracle and
    the shortest paths of the discretized complex."""

    @settings(max_examples=200, deadline=None)
    @given(t4_triples)
    def test_symmetry_and_triangle(self, xyz):
        x, y, z = xyz
        assert t4_distance(x, y) == pytest.approx(t4_distance(y, x), rel=1e-12)
        assert t4_distance(x, z) <= t4_distance(x, y) + t4_distance(y, z) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(t4_triples)
    def test_cat0_midpoint_inequality(self, xyz):
        x, y, z = xyz
        m = route_geodesic_point(x, y, 0.5)
        assert t4_distance(z, m) ** 2 <= (
            0.5 * t4_distance(z, x) ** 2 + 0.5 * t4_distance(z, y) ** 2
            - 0.25 * t4_distance(x, y) ** 2 + 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(frames_and_points())
    def test_distance_equals_route(self, case):
        qi, (a, b), sample = case
        e, f = _geometry(L).quadrants[qi]
        x = T4Point(L, {e: a, f: b})
        for y in sample.points:
            assert t4_distance(x, y) == pytest.approx(route_distance(x, y), rel=1e-12)
            assert t4_distance(y, x) == pytest.approx(route_distance(y, x), rel=1e-12)

    @pytest.mark.parametrize("labels", [L, tuple("abcd")])
    def test_every_unfolding_is_a_geodesic(self, labels):
        """Each Petersen path of two or three edges, from the oracle's own
        enumeration, carries the geodesic from a point of its first quadrant
        at angle 1.4 to one of its last at angle 0.1: no other path joins
        the two quadrants (the Petersen graph has girth 5), and its
        unfolding spans less than pi, so the distance is the chord."""
        for paths in petersen_paths(labels)[1].values():
            for path in paths[1:]:  # the first is the one-edge path
                x = T4Point(labels, {path[0]: math.cos(1.4), path[1]: math.sin(1.4)})
                y = T4Point(labels, {path[-2]: math.cos(0.1), path[-1]: math.sin(0.1)})
                chord = 2.0 * math.sin(((len(path) - 2) * math.pi / 2 + 0.1 - 1.4) / 2)
                assert route_distance(x, y) == pytest.approx(chord, rel=1e-12)
                assert t4_distance(x, y) == pytest.approx(chord, rel=1e-12), path

    @settings(max_examples=20, deadline=None)
    @given(t4_pairs, fractions)
    def test_against_shortest_path_oracle(self, xy, t):
        x, y = xy
        h = 0.02
        for d in (t4_distance(x, y), route_distance(x, y)):
            oracle = t4_shortest_path(x, y, h=h)
            assert d <= oracle + 1e-9  # oracle paths are realizable
            assert abs(d - oracle) <= 2 * h
        g = route_geodesic_point(x, y, t)
        assert abs(t4_shortest_path(x, g, h=h) - t * d) <= 2 * h


def point_doc_rows(sample):
    """The split bitmasks (bit i = sample.labels[i]) and lengths of each point."""
    width = max([2, *(len(pt.support) for pt in sample.points)])
    rows = [[(sum(1 << sample.labels.index(x) for x in c), length) for c, length in pt.coords.items()]
            + [(0, 0.0)] * (width - len(pt.lengths)) for pt in sample.points]
    return np.array([[m for m, _ in r] for r in rows]), np.array([[x for _, x in r] for r in rows])


# clusters over the labels and two foreign ones, and lengths good and bad
doc_splits = st.lists(st.fixed_dictionaries({
    "cluster": st.lists(st.sampled_from(["a", "b", "c", "d", "y", "z"]), max_size=4),
    "length": st.sampled_from([0, 0.0, -0.0, 0.5, 1, 2.5, -1.0, 10**400, 1e308]),
}), max_size=3)


def as_point(labels, splits):
    """A document point as T4Point reads it: a mapping, the last length
    of a repeated cluster wins."""
    return T4Point(labels, {frozenset(s["cluster"]): s["length"] for s in splits})


class TestSampleArrays:
    """T4Sample holds support classes and (n, 2) coordinates: built from
    points, documents or split bitmasks it is the same sample, and its
    document is the one its points write."""

    @settings(max_examples=150, deadline=None)
    @given(t4_samples())
    def test_points_documents_and_splits_agree(self, sample):
        doc = sample.to_dict()
        expected = {"labels": list(L), "points": [pt.to_dict() for pt in sample.points]}
        if sample.weights is not None:
            expected["weights"] = list(sample.weights)
        assert doc == expected
        assert T4Sample.from_splits(L, *point_doc_rows(sample), sample.weights) == sample
        # documents name the leaves by strings
        named = {**doc, "labels": list("abcd"), "points": [{"splits": [
            {"cluster": ["abcd"[x - 1] for x in s["cluster"]], "length": s["length"]}
            for s in pt["splits"]]} for pt in doc["points"]]}
        parsed = T4Sample.from_dict(named)
        assert parsed.to_dict() == named
        assert T4Sample.from_dict(parsed.to_dict()) == parsed

    @settings(max_examples=300, deadline=None)
    @given(st.lists(doc_splits, min_size=1, max_size=5))
    @example([[{"cluster": ["a", "y"], "length": -1}, {"cluster": ["a", "z"], "length": 0}]])
    def test_checks_agree_with_points(self, points):
        labels = ["d", "b", "a", "c"]
        first_bad = None
        for i, splits in enumerate(points):
            try:
                as_point(labels, splits)
            except InvalidSampleError:
                first_bad = i
                break
        doc = {"labels": labels, "points": [{"splits": splits} for splits in points]}
        if first_bad is None:
            sample = T4Sample.from_dict(doc)
            assert sample.points == tuple(as_point(labels, splits) for splits in points)
        else:
            with pytest.raises(InvalidSampleError, match=rf"^points\[{first_bad}\]\.splits"):
                T4Sample.from_dict(doc)

    def test_split_order_follows_the_labels(self):
        # bit i stands for labels[i]: {b, a} and {b, a, c} in this order
        sample = T4Sample.from_splits(("b", "a", "c", "d"), [[0b11, 0b111, 0]], [[1.0, 2.0, 0.0]])
        assert sample.points == (T4Point(("a", "b", "c", "d"), {
            frozenset("ab"): 1.0, frozenset("abc"): 2.0}),)


class TestStratum:
    def test_all_three(self):
        assert stratum_of(P({(1, 2): 0.3, (1, 2, 3): 0.2})) is Stratum.TOP2D
        assert stratum_of(P({(1, 2): 0.3})) is Stratum.ONE_D
        assert stratum_of(P({})) is Stratum.ORIGIN


class TestSpineStickiness:
    def test_symmetric_sticks(self):
        axis = frozenset({1, 2})
        partners = book_partners(axis, L)
        pts = tuple(P({tuple(axis): 1.0, tuple(p): 1.0}) for p in partners)
        rep = spine_stickiness_t4(T4Sample(L, pts), axis)
        assert rep.verdict.kind == "stuck_to_spine"
        assert rep.x1_star == pytest.approx(1.0)

    def test_one_dominant_quadrant(self):
        axis = frozenset({1, 2})
        partner = book_partners(axis, L)[0]
        pts = tuple(P({tuple(axis): 1.0, tuple(partner): v}) for v in (1.0, 2.0, 3.0))
        rep = spine_stickiness_t4(T4Sample(L, pts), axis)
        assert rep.verdict.kind == "non_sticky" and rep.verdict.leg == 1
        assert rep.mean.x2 == pytest.approx(2.0)

    @pytest.mark.parametrize("axis", [{1, 9}, {1, 2, 3, 4}, {1}])
    def test_axis_not_a_split(self, axis):
        with pytest.raises(InvalidParameterError, match="axis"):
            book_partners(axis, L)

    def test_point_outside_book(self):
        axis = frozenset({1, 2})
        pts = (P({(1, 3): 1.0, (1, 2, 3): 1.0}),)
        with pytest.raises(NotInBookError):
            spine_stickiness_t4(T4Sample(L, pts), axis)

    @pytest.mark.parametrize("labels, point, axis, where", [
        ("abcd", {"ac": 1}, "ab", "T4Point({a|c}:1) lies outside the open book around ['a', 'b']"),
        ((1, 2, 3, 8), {(1, 2): 1, (1, 2, 3): 2}, (1, 8),
         "T4Point({1|2}:1, {1|2|3}:2) lies outside the open book around [1, 8]"),
    ])
    def test_point_outside_book_message(self, labels, point, axis, where):
        pt = T4Point(labels, {frozenset(c): x for c, x in point.items()})
        with pytest.raises(NotInBookError) as info:
            spine_stickiness_t4(T4Sample(labels, (pt,)), frozenset(axis))
        assert str(info.value) == where

    def test_matches_grid_oracle(self, quadrants):
        rng = np.random.default_rng(38)
        axis = frozenset({1, 4})
        partners = book_partners(axis, L)
        pts = []
        for _ in range(9):
            p = partners[int(rng.integers(0, 3))]
            pts.append(P({tuple(axis): float(rng.uniform(0, 2)),
                          tuple(p): float(rng.uniform(0.05, 2))}))
        sample = T4Sample(L, tuple(pts))
        rep = spine_stickiness_t4(sample, axis)
        pt_or, val_or = t4_grid_frechet_minimum(sample, step=0.02)
        # verdict agrees with where the grid argmin sits
        if rep.verdict.kind == "non_sticky":
            assert len(pt_or.support) == 2 and axis in pt_or.support
        else:
            assert pt_or.support in ((), (axis,))


class TestPetersenProjection:
    """The central projection, as the rows of ``plot --format csv``."""

    @staticmethod
    def row(point):
        row = petersen_csv(T4Sample(L, (point,))).splitlines()[1]
        kind, split1, split2, s, radius = row.split(",")
        return kind, (split1, split2), float(s), float(radius)

    def test_axis_point_is_vertex(self):
        assert self.row(P({(1, 2): 2.0})) == ("vertex", ("{1;2}", ""), 0.0, 2.0)

    def test_diagonal_of_pair_pair_quadrant(self):
        kind, _, s, radius = self.row(P({(1, 2): 1.0, (3, 4): 1.0}))
        assert (kind, s) == ("edge", 0.5)
        assert radius == pytest.approx(math.sqrt(2), rel=1e-8)

    def test_angular_fraction(self):
        _, splits, s, radius = self.row(P({(1, 2): 1.0, (1, 2, 3): math.sqrt(3)}))
        assert splits == ("{1;2}", "{1;2;3}")
        assert s == pytest.approx(2 / 3, rel=1e-8)
        assert radius == 2.0


class TestTreeType:
    def test_nested(self):
        assert tree_type_newick(L, P({(1, 2): 0.3, (1, 2, 3): 0.2})) == "(((1,2),3),4)"

    def test_single_pair(self):
        assert tree_type_newick(L, P({(1, 3): 0.4})) == "((1,3),2,4)"

    def test_star(self):
        assert tree_type_newick(L, P({})) == "(1,2,3,4)"

    def test_complementary_quadrant(self):
        assert tree_type_newick(L, P({(1, 3): 0.4, (2, 4): 0.1})) == "((1,3),(2,4))"
