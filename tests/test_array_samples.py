"""Array-backed spider, open-book and tree-space samples.

``from_arrays`` and the point constructors must build the same sample,
with the same checks.  The simulation hot path must build no sample and
no point object at all, and the four-leaf sample-trees and mean and the
plots build no point object per sample point.
"""

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import replicate_rng
from test_golden import PLOT_SAMPLES, plot_outputs
from treestats import mcsim, openbook, spider
from treestats.cli import main
from treestats.errors import InvalidSampleError
from treestats.openbook import OpenBookPoint, OpenBookSample, openbook_mean
from treestats.spider import (ArraySample, SpiderPoint, SpiderSample, canonical_json,
                              intrinsic_mean)
from treestats.t4space import T4Point, T4Sample, _geometry, t4_mean

# 0 is listed on its own so that nonzero codes on the center or spine occur
coordinate = st.one_of(st.just(0.0), st.floats(0.001, 10.0))
bad_coordinate = st.one_of(
    coordinate, st.sampled_from([-1.0, math.nan, math.inf, 1e200, "1.5", True, False]))


def any_code(ints):
    """Integer codes, also as numpy integers, and booleans, which are no codes."""
    return st.one_of(ints, ints.map(np.int64), st.booleans())


# four distinct labels in two orders, and label lists that are not four distinct
four_leaf_labels = st.sampled_from(["abcd", "dbca", "abca", "abc", "abcde"])


def weights_for(n):
    raw = st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    return st.one_of(st.none(), raw.map(lambda x: tuple(v / sum(x) for v in x)))


@st.composite
def spider_data(draw, codes=None, coords=coordinate):
    p = draw(st.integers(1, 5))
    n = draw(st.integers(1, 20))
    code = codes(p) if codes else st.integers(1, p)
    legs = draw(st.lists(code, min_size=n, max_size=n))
    u = draw(st.lists(coords, min_size=n, max_size=n))
    return p, legs, u, draw(weights_for(n))


@st.composite
def book_data(draw, codes=st.integers(1, 3), coords=coordinate):
    n = draw(st.integers(1, 20))
    leaves = draw(st.lists(codes, min_size=n, max_size=n))
    x1 = draw(st.lists(coords, min_size=n, max_size=n))
    x2 = draw(st.lists(coords, min_size=n, max_size=n))
    return leaves, x1, x2, draw(weights_for(n))


def spider_from_points(p, legs, u, weights):
    pts = [SpiderPoint(leg, x) for leg, x in zip(legs, u)]
    if any(pt.leg is not None and pt.leg > p for pt in pts):
        raise InvalidSampleError("leg exceeds p")  # stated here, not taken from the sample
    return SpiderSample(p, pts, weights)


def book_from_points(leaves, x1, x2, weights):
    pts = [OpenBookPoint(leaf, a, b) for leaf, a, b in zip(leaves, x1, x2)]
    return OpenBookSample(pts, weights)


def outcome(build, *args):
    try:
        return build(*args)
    except InvalidSampleError:
        return "rejected"


# per sample class: a constructor, its arguments, and a change of each
# argument: the header (p, labels), one code, one coordinate, the weights
ONE_FIELD_CHANGED = {
    "spider": (SpiderSample.from_arrays,
               dict(p=3, leg_codes=[1, 2], u=[0.5, 1.0], weights=None),
               dict(p=4, leg_codes=[3, 2], u=[0.5, 1.5], weights=(0.25, 0.75))),
    "openbook": (OpenBookSample.from_arrays,
                 dict(leaf_codes=[1, 2], x1=[0.5, 1.0], x2=[1.0, 2.0], weights=None),
                 dict(leaf_codes=[3, 2], x1=[0.5, 1.5], x2=[1.0, 2.5], weights=(0.25, 0.75))),
    "t4": (T4Sample.from_splits,
           dict(labels="abcd", masks=[[0b11, 0b111], [0b11, 0]], lengths=[[1.0, 2.0], [1.0, 0.0]],
                weights=None),
           dict(labels="abce", masks=[[0b11, 0b111], [0b1100, 0]],
                lengths=[[1.0, 2.5], [1.0, 0.0]], weights=(0.25, 0.75))),
}


class TestArraysEqualPoints:
    @settings(max_examples=150, deadline=None)
    @given(spider_data())
    def test_spider(self, data):
        p, legs, u, weights = data
        arrays = SpiderSample.from_arrays(p, legs, u, weights)
        points = spider_from_points(p, legs, u, weights)
        assert arrays == points
        assert arrays.points == points.points
        assert arrays.to_dict() == points.to_dict()
        assert SpiderSample.from_dict(arrays.to_dict()) == arrays
        assert intrinsic_mean(arrays) == intrinsic_mean(points)

    @settings(max_examples=150, deadline=None)
    @given(book_data())
    def test_openbook(self, data):
        arrays = OpenBookSample.from_arrays(*data)
        points = book_from_points(*data)
        assert arrays == points
        assert arrays.points == points.points
        assert arrays.to_dict() == points.to_dict()
        assert OpenBookSample.from_dict(arrays.to_dict()) == arrays
        assert openbook_mean(arrays) == openbook_mean(points)

    @settings(max_examples=300, deadline=None)
    @given(spider_data(codes=lambda p: any_code(st.integers(-1, p + 2)), coords=bad_coordinate))
    def test_spider_checks_agree(self, data):
        by_arrays = outcome(SpiderSample.from_arrays, *data)
        by_points = outcome(spider_from_points, *data)
        assert (by_arrays == "rejected") == (by_points == "rejected")

    @settings(max_examples=300, deadline=None)
    @given(book_data(codes=any_code(st.integers(-1, 5)), coords=bad_coordinate))
    def test_openbook_checks_agree(self, data):
        by_arrays = outcome(OpenBookSample.from_arrays, *data)
        by_points = outcome(book_from_points, *data)
        assert (by_arrays == "rejected") == (by_points == "rejected")

    @settings(max_examples=300, deadline=None)
    @given(any_code(st.integers(-1, 5)), bad_coordinate, bad_coordinate)
    def test_point_checks_agree(self, code, a, b):
        # a point alone keeps the bounds of a sample of that one point
        for point, sample in (
            ((SpiderPoint, code, a), (SpiderSample.from_arrays, 5, [code], [a])),
            ((OpenBookPoint, code, a, b), (OpenBookSample.from_arrays, [code], [a], [b])),
        ):
            assert (outcome(*point) == "rejected") == (outcome(*sample) == "rejected")

    @settings(max_examples=300, deadline=None)
    @given(four_leaf_labels, four_leaf_labels,
           st.lists(st.tuples(st.integers(0, 15), bad_coordinate), max_size=5))
    def test_t4_point_checks_agree(self, labels, other, splits):
        # a four-leaf point alone is refused where a sample of it is
        clusters = [frozenset(lb for i, lb in enumerate(labels) if m >> i & 1) for m, _ in splits]
        point = outcome(T4Point, labels, [(c, x) for c, (_, x) in zip(clusters, splits)])
        sample = outcome(T4Sample.from_splits, labels, [[m for m, _ in splits]],
                         [[x for _, x in splits]])
        assert (point == "rejected") == (sample == "rejected")
        if point != "rejected":
            assert sample.points == (point,)
            # and joins a sample only over its own labels
            joined = outcome(T4Sample, other, [point])
            assert (joined == "rejected") == (sorted(other) != sorted(labels))

    @pytest.mark.parametrize("build, args", [
        (SpiderSample.from_arrays, (3, [1, 2], [1.0])),
        (SpiderSample.from_arrays, (3, [1], np.ones((1, 1)))),
        (OpenBookSample.from_arrays, ([1], [1.0, 2.0], [1.0])),
    ], ids=["spider_lengths", "spider_2d", "openbook_lengths"])
    def test_codes_and_coordinates_of_other_lengths(self, build, args):
        with pytest.raises(InvalidSampleError,
                           match="^codes and coordinates must be 1-D arrays of one length$"):
            build(*args)

    @pytest.mark.parametrize("code", [7, 2**63, 2**64 - 1])
    def test_uint64_codes_past_the_legs(self, code):
        # clipped to p + 1 before the int64 cast, and shown as given
        with pytest.raises(InvalidSampleError) as exc:
            SpiderSample.from_arrays(3, np.array([code], np.uint64), [1.0])
        assert str(exc.value) == f"points[0].leg must be in 1..3 where u > 0, got {code}"

    def test_t4_points_of_other_labels(self):
        with pytest.raises(InvalidSampleError, match="^all points must share the sample's labels$"):
            T4Sample("abcd", [T4Point("abce", {})])

    def test_point_code_shown_as_given(self):
        for build, *args in ((SpiderPoint, None, 1.0), (OpenBookPoint, None, 1.0, 1.0)):
            with pytest.raises(InvalidSampleError, match="> 0, got None$"):
                build(*args)

    @pytest.mark.parametrize("masks, lengths", [
        ([15, 0, 0, 0], [1.0, 0.0, 0.0, 0.0]),  # all four leaves: no split
        ([3, 15, 5, 9], [1.0, 1.0, 0.0, 0.0]),
        ([3, 17, 5, 9], [1.0, 2.0, 0.0, 0.0]),  # a leaf outside the four
    ])
    def test_t4_cluster_that_is_no_split_is_refused(self, masks, lengths):
        # however many zero-length clusters come with it
        clusters = [frozenset(lb for i, lb in enumerate("abcde") if m >> i & 1) for m in masks]
        for build, *args in ((T4Point, "abcd", list(zip(clusters, lengths))),
                             (T4Sample.from_splits, "abcd", [masks], [lengths])):
            with pytest.raises(InvalidSampleError, match="at most two distinct compatible"):
                build(*args)

    @pytest.mark.parametrize("labels", [
        (1, "a", 2, 3), ("a", "b", None, "c"),
        (["a"], "b", "c", "d"), (["a"], ["b"], ["c"], ["d"]),  # lists do not hash
    ])
    def test_t4_labels_that_do_not_sort_are_refused(self, labels):
        for build, *args in ((T4Point, labels), (T4Sample.from_splits, labels, [[3]], [[1.0]])):
            with pytest.raises(InvalidSampleError, match="four distinct leaves that sort"):
                build(*args)

    @pytest.mark.parametrize("masks", [
        [[3.7]], [["3"]], [[True]], [[3.0]], np.array([[3.0]]), np.array([[True]]),
        np.array([["3"]]), [[3], [np.float64(5.0)]], [[3, 0], [5, False]],
    ])
    def test_t4_masks_are_integers(self, masks):
        # by the rule spider and open-book codes follow; the bad point is named
        i = len(masks) - 1
        lengths = np.ones(np.shape(masks))
        with pytest.raises(InvalidSampleError,
                           match=rf"^points\[{i}\]\.splits: bitmask must be an integer, got"):
            T4Sample.from_splits("abcd", masks, lengths)

    @pytest.mark.parametrize("masks, lengths", [
        ([[3, 5]], [[1.0]]),
        ([3, 5], [1.0, 2.0]),  # 1-D
        ([[3, 7], [3, 7]], [[1.0], [2.0, 3.0, 4.0]]),  # rows of other lengths, four in all
    ])
    def test_t4_masks_and_lengths_of_other_shapes(self, masks, lengths):
        with pytest.raises(InvalidSampleError, match="must be 2-D arrays of one shape"):
            T4Sample.from_splits("abcd", masks, lengths)

    @pytest.mark.parametrize("values", [np.array([True]), np.array(["1.5"])], ids=["bool", "str"])
    def test_number_arrays_hold_numbers(self, values):
        # a numpy array of bools or strings is read entry by entry, as a list is
        for build, *args in ((SpiderSample.from_arrays, 3, [1], values),
                             (OpenBookSample.from_arrays, [1], values, [1.0]),
                             (T4Sample.from_splits, "abcd", [[3]], values[:, None])):
            with pytest.raises(InvalidSampleError, match="must be a number"):
                build(*args)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_means_at_the_coordinate_bound(self, n):
        # weights that sum to 1 only to rounding can carry a weighted mean
        # of coordinates at MAX_COORD past it; the mean keeps the bound
        w = np.random.default_rng(n).random(n) + 0.01
        w, top = tuple((w / w.sum()).tolist()), spider.MAX_COORD
        u = intrinsic_mean(SpiderSample.from_arrays(3, [1] * n, [top] * n, w)).mean.u
        book = openbook_mean(OpenBookSample.from_arrays([1] * n, [top] * n, [top] * n, w)).mean
        t4 = t4_mean(T4Sample.from_splits("abcd", [[0b11, 0b111]] * n, [[top] * 2] * n, w)).mean
        for x in (u, book.x1, book.x2, *t4.coords.values()):
            assert x <= top and x == pytest.approx(top, rel=1e-12)

    def test_arrays_are_read_only(self):
        s = SpiderSample.from_arrays(3, [1, 2], [0.5, 1.0])
        with pytest.raises(ValueError):
            s.u[0] = 2.0
        with pytest.raises(AttributeError):
            s.p = 4

    @pytest.mark.parametrize("sample, name", [
        (SpiderSample.from_arrays(3, [1], [1.0]), "p"),
        (SpiderSample.from_arrays(3, [1], [1.0]), "codes"),
        (OpenBookSample.from_arrays([1], [1.0], [1.0]), "x1"),
        (T4Sample.from_splits("abcd", [[3]], [[1.0]]), "labels"),
        (T4Sample.from_splits("abcd", [[3]], [[1.0]]), "weights"),
    ], ids=["spider_p", "spider_codes", "openbook_x1", "t4_labels", "t4_weights"])
    def test_attributes_cannot_be_deleted(self, sample, name):
        kept = getattr(sample, name)
        with pytest.raises(AttributeError, match=f"{type(sample).__name__} is immutable"):
            delattr(sample, name)
        assert getattr(sample, name) is kept

    def test_weights_differ(self):
        a = SpiderSample.from_arrays(2, [1, 2], [0.5, 1.0])
        b = SpiderSample.from_arrays(2, [1, 2], [0.5, 1.0], (0.25, 0.75))
        assert a != b

    @pytest.mark.parametrize("kind, field", [(kind, field) for kind, (_, args, _) in
                                             ONE_FIELD_CHANGED.items() for field in args])
    def test_one_field_changed_alone_differs(self, kind, field):
        build, args, changed = ONE_FIELD_CHANGED[kind]
        assert build(**args) == build(**args)
        assert build(**args) != build(**{**args, field: changed[field]})


# numbers from the least double to the coordinate bound, with 0.0 and -0.0
# (the center, the spine, a dropped split), which the rules accept
document_number = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0, spider.MAX_COORD]),
    st.floats(5e-324, spider.MAX_COORD))
# labels that JSON escapes, that templates could read as slots, and that look like numbers
document_label = st.one_of(
    st.sampled_from(['"', "\\", "é", "中", "%", "%r", "%.0r", "{}", "{0}", "0.0", "-0.0",
                     "1e+150", '"u": 0.0', ": 0.0,", "\n", "\x00"]),
    st.text(max_size=4))


@st.composite
def document_samples(draw):
    """A t3, open-book or t4 sample, with or without weights."""
    kind = draw(st.sampled_from(["t3", "openbook", "t4"]))
    n = draw(st.integers(0, 12))
    weights = draw(weights_for(n)) if n else None
    numbers = st.lists(document_number, min_size=n, max_size=n)
    if kind == "t3":
        p = draw(st.integers(1, 5))
        legs = draw(st.lists(st.integers(1, p), min_size=n, max_size=n))  # 0 where u is 0
        return SpiderSample.from_arrays(p, legs, draw(numbers), weights)
    if kind == "openbook":
        leaves = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        return OpenBookSample.from_arrays(leaves, draw(numbers), draw(numbers), weights)
    labels = draw(st.lists(document_label, min_size=4, max_size=4, unique=True))
    supports = _geometry(tuple(labels)).supports  # the star tree, the axes, the quadrants
    bit = {lb: 1 << i for i, lb in enumerate(labels)}
    rows = draw(st.lists(st.sampled_from(supports), min_size=n, max_size=n))
    masks = np.reshape([[sum(bit[lb] for lb in c) for c in (*sup, (), ())[:2]] for sup in rows],
                       (n, 2))
    lengths = np.reshape(draw(st.lists(document_number, min_size=2 * n, max_size=2 * n)), (n, 2))
    # an empty slot has no length; a split of length 0 is dropped
    return T4Sample.from_splits(labels, masks, np.where(masks > 0, lengths, 0.0), weights)


class TestDocumentWriter:
    """``to_json`` writes the bytes of ``canonical_json(to_dict())``."""

    @settings(max_examples=300, deadline=None)
    @given(document_samples())
    def test_writer_equals_canonical_json(self, sample):
        assert sample.to_json() == canonical_json(sample.to_dict())

    @pytest.mark.parametrize("number", [math.nan, math.inf])
    def test_writer_refuses_what_json_refuses(self, number):
        # arrays past the checks, as no constructor builds them
        for cls, arrays in ((SpiderSample, {"u": [number]}),
                            (OpenBookSample, {"x1": [1.0], "x2": [number]}),
                            (T4Sample, {"coords": [[number, 0.0]]})):
            sample = cls.__new__(cls)
            sample.__dict__.update(p=1, labels=tuple("abcd"))
            sample._keep(np.ones(1, dtype=np.int64), None,
                          **{k: np.array(v) for k, v in arrays.items()})
            for write in (sample.to_json, lambda: canonical_json(sample.to_dict())):
                with pytest.raises(ValueError, match="not JSON compliant"):
                    write()


class TestHotPath:
    """``simulate`` reduces each replicate to per-leg sums: it builds no
    sample and no point object and never calls the per-sample means.
    ``sample-trees --k 4`` builds no T4Point, and the t4 ``mean`` builds
    as many for a sample as for that sample repeated ten times; so do
    ``plot`` and ``mean --plot``, with their point objects."""

    @pytest.fixture
    def events(self, monkeypatch):
        counts = dict.fromkeys(
            ("sample", "point", "intrinsic_mean", "openbook_mean", "t4_point"), 0)

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(ArraySample, "_keep", "sample")
        counting(SpiderPoint, "__post_init__", "point")
        counting(OpenBookPoint, "__post_init__", "point")
        counting(spider, "intrinsic_mean", "intrinsic_mean")
        counting(openbook, "openbook_mean", "openbook_mean")
        counting(T4Point, "__init__", "t4_point")
        return counts

    def test_events_are_counted(self, events):
        law = mcsim.SpiderLaw((0.5, 0.5), (mcsim.Exponential(1.0),) * 2)
        spider.intrinsic_mean(mcsim.draw_spider_sample(law, 5, replicate_rng(1, 0)))
        assert events["sample"] == events["intrinsic_mean"] == 1 and events["point"] >= 1
        T4Point((1, 2, 3, 4))
        assert events["t4_point"] == 1

    def test_sample_trees_k4(self, events, tmp_path):
        data = resources.files("treestats") / "data"
        assert main(["sample-trees", str(data / "toy_alignment.fasta"), "--groups",
                     str(data / "toy_groups4.csv"), "--k", "4", "--reps", "200",
                     "-o", str(tmp_path / "sample.json")]) == 0
        assert events["t4_point"] == 0

    def test_t4_mean(self, events, tmp_path):
        doc = json.loads((Path(__file__).parent / "golden" / "sample_trees_k4_seed7.json")
                         .read_text())
        counts = []
        for times in (1, 10):
            path = tmp_path / f"sample{times}.json"
            path.write_text(json.dumps({**doc, "points": doc["points"] * times}))
            events["t4_point"] = 0
            assert main(["mean", str(path), "-o", str(tmp_path / "mean.json")]) == 0
            counts.append(events["t4_point"])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("name", sorted(PLOT_SAMPLES))
    def test_plots(self, events, tmp_path, name):
        doc = json.loads(PLOT_SAMPLES[name].read_text())
        counts = []
        for times in (1, 10):
            path = tmp_path / f"sample{times}.json"
            path.write_text(json.dumps({**doc, "points": doc["points"] * times}))
            events.update(t4_point=0, point=0)
            plot_outputs(path, tmp_path / "out")
            counts.append((events["t4_point"], events["point"]))
        assert counts[0] == counts[1]

    def test_simulate(self, events):
        law = mcsim.SpiderLaw((0.5, 0.3, 0.2), (mcsim.Exponential(1.0),) * 3)
        mcsim.simulate(law, n=200, replications=50, seed=1)
        assert events == dict.fromkeys(events, 0)

    def test_simulate_openbook(self, events):
        leaf = (mcsim.Uniform(0.0, 2.0), mcsim.Exponential(1.0))
        law = mcsim.OpenBookLaw((0.5, 0.3, 0.2), (leaf,) * 3)
        mcsim.simulate_openbook(law, n=200, replications=50, seed=1)
        mcsim.spine_coverage(law, n=200, replications=50, seed=1)
        assert events == dict.fromkeys(events, 0)
