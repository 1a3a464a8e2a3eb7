import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    choice_picks,
    four_point_topology,
    neighbor_joining_delete,
    pruned_splits,
    random_binary_tree,
    tree_distance_matrix,
    unrooted_bipartitions,
)
from treestats.errors import TooFewTaxaError, UnknownTaxonError
from treestats.njtree import (
    induced_subtree,
    neighbor_joining,
    restrict_to_quartet,
    restrict_to_triplet,
    tree_index,
)
from treestats.pipeline import draw_picks
from treestats.seqio import DistanceMatrix, parse_newick, serialize_newick
from treestats.t4space import T4Point, T4Sample


def dm3(d12, d13, d23):
    return DistanceMatrix(("t1", "t2", "t3"), np.array([
        [0.0, d12, d13],
        [d12, 0.0, d23],
        [d13, d23, 0.0],
    ]))


class TestNeighborJoining:
    def test_three_taxa_analytic(self):
        tree = neighbor_joining(dm3(0.3, 0.4, 0.5))
        lengths = {c.label: c.length for c in tree.children}
        assert lengths == pytest.approx({"t1": 0.1, "t2": 0.2, "t3": 0.3})

    def test_equilateral(self):
        tree = neighbor_joining(dm3(2.0, 2.0, 2.0))
        assert [c.length for c in tree.children] == [1.0, 1.0, 1.0]

    def test_four_taxa_additive(self):
        taxa = ("t1", "t2", "t3", "t4")
        d = np.array([
            [0.0, 2.0, 3.0, 3.0],
            [2.0, 0.0, 3.0, 3.0],
            [3.0, 3.0, 0.0, 2.0],
            [3.0, 3.0, 2.0, 0.0],
        ])
        dm = DistanceMatrix(taxa, d)
        # oracle: four-point condition picks the pairing with minimal cross sum
        pair, interior = four_point_topology(dm, taxa)
        assert pair == frozenset({"t1", "t2"})
        assert interior == pytest.approx(1.0)
        tree = neighbor_joining(dm)
        assert unrooted_bipartitions(tree) == {frozenset({"t1", "t2"})} or \
            unrooted_bipartitions(tree) == {frozenset({"t3", "t4"})}
        assert np.allclose(tree_distance_matrix(tree).d, dm.d[
            [tree_distance_matrix(tree).taxa.index(t) for t in taxa]
        ][:, [tree_distance_matrix(tree).taxa.index(t) for t in taxa]])
        quartet = quartet_point(tree_index(tree), taxa, taxa)
        assert quartet.coords in (
            {frozenset({"t1", "t2"}): pytest.approx(1.0)},
            {frozenset({"t3", "t4"}): pytest.approx(1.0)},
        )

    def test_too_few_taxa(self):
        with pytest.raises(TooFewTaxaError):
            neighbor_joining(DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_additive_recovery_random_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 9))
            truth = random_binary_tree([f"x{i}" for i in range(n)], rng)
            dm = tree_distance_matrix(truth)
            rebuilt = neighbor_joining(dm)
            assert unrooted_bipartitions(rebuilt) == unrooted_bipartitions(truth)
            dm2 = tree_distance_matrix(rebuilt)
            order = [dm2.taxa.index(t) for t in dm.taxa]
            assert np.allclose(dm2.d[order][:, order], dm.d, atol=1e-9)


@st.composite
def nj_matrices(draw):
    """Symmetric zero-diagonal matrices, n = 3..60: uniform, or quantized
    to a few levels so that Q has many ties."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([None, 1, 2, 3, 5]))
    if levels is None:
        x = rng.random((n, n))
    else:
        x = rng.integers(0, levels + 1, (n, n)) / levels
    d = np.triu(x, 1)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), d + d.T)


def nodes_and_lengths(tree):
    return [(node.label, len(node.children), node.length) for node in tree.walk()]


class TestNeighborJoiningEqualsDeleteOracle:
    """The two-buffer NJ gives the np.delete version's tree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(nj_matrices())
    def test_same_tree_bit_for_bit(self, dm):
        tree, expected = neighbor_joining(dm), neighbor_joining_delete(dm)
        assert serialize_newick(tree, 17) == serialize_newick(expected, 17)
        assert nodes_and_lengths(tree) == nodes_and_lengths(expected)
        assert unrooted_bipartitions(tree) == unrooted_bipartitions(expected)


def permuted(dm, order):
    return DistanceMatrix(tuple(dm.taxa[k] for k in order), dm.d[np.ix_(order, order)])


def assert_exact(truth, dm, rebuilt):
    assert unrooted_bipartitions(rebuilt) == unrooted_bipartitions(truth)
    dm2 = tree_distance_matrix(rebuilt)
    order = [dm2.taxa.index(t) for t in dm.taxa]
    assert np.allclose(dm2.d[np.ix_(order, order)], dm.d, rtol=0, atol=1e-9)


class TestNeighborJoiningExactInAnyOrder:
    """NJ recovers the tree and path metric of an additive matrix whatever
    the order of its taxa, which moves NJ's joins and its last join."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_permutation(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2):
            truth = random_binary_tree([f"x{i}" for i in range(n)], rng)
            dm = tree_distance_matrix(truth)
            for order in itertools.permutations(range(n)):
                shuffled = permuted(dm, list(order))
                assert_exact(truth, shuffled, neighbor_joining(shuffled))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 30).flatmap(lambda n: st.tuples(
        st.integers(0, 2**32 - 1), st.permutations(range(n)))))
    def test_random_permutation(self, case):
        seed, order = case
        truth = random_binary_tree([f"x{i}" for i in range(len(order))],
                                   np.random.default_rng(seed))
        shuffled = permuted(tree_distance_matrix(truth), list(order))
        assert_exact(truth, shuffled, neighbor_joining(shuffled))


def triplet_point(index, picks):
    """(leg, u) of one row of picked labels, through the batched restriction."""
    legs, u = restrict_to_triplet(index, index.nodes([picks]))
    return int(legs[0]), float(u[0])


def quartet_point(index, picks, labels):
    """One row of picked labels as a T4Point, through the batched restriction;
    ``labels`` name the point's leaves, one per pick."""
    masks, lengths = restrict_to_quartet(index, index.nodes([picks]))
    return T4Sample.from_splits(labels, masks, lengths).points[0]


def restrict3(newick, picks):
    return triplet_point(tree_index(parse_newick(newick)), picks)


def restrict4(newick, picks, labels=None):
    return quartet_point(tree_index(parse_newick(newick)), picks, labels or picks)


class TestRestrictToTriplet:
    def test_cherry_read_off(self):
        leg, u = restrict3("((a:1,b:1):0.5,c:2);", ("a", "b", "c"))
        assert leg == 1  # the cherry of the first and second pick
        assert u == pytest.approx(0.5)

    def test_legs_follow_pick_order(self):
        t = "((a:1,b:1):0.5,c:2);"
        assert restrict3(t, ("a", "c", "b"))[0] == 2
        assert restrict3(t, ("c", "a", "b"))[0] == 3

    def test_star(self):
        assert restrict3("(a:1,b:1,c:1);", ("a", "b", "c")) == (0, 0.0)

    def test_zero_length_cherry_is_star(self):
        assert restrict3("((a:1,b:1):0,c:2);", ("a", "b", "c")) == (0, 0.0)

    def test_suppression_sums_lengths(self):
        leg, u = restrict3("(((a:1,b:1):0.3,c:1):0.2,d:1);", ("a", "b", "d"))
        assert leg == 1
        assert u == pytest.approx(0.5)

    def test_unknown_taxon(self):
        with pytest.raises(UnknownTaxonError):
            restrict3("(a:1,b:1,c:1);", ("a", "b", "z"))

    def test_repeated_taxon(self):
        with pytest.raises(UnknownTaxonError):
            restrict3("(a:1,b:1,c:1);", ("a", "b", "a"))

    @pytest.mark.parametrize("labels, message", [
        (("a", "b", "a"), "repeated labels in ['a', 'b', 'a']"),
        (("a", "z"), "'z' is not a leaf of the tree"),
    ])
    def test_induced_subtree_refuses(self, labels, message):
        # restrict3 checks its picks first, so these are induced_subtree's own
        with pytest.raises(UnknownTaxonError) as exc:
            induced_subtree(parse_newick("(a:1,b:1,c:1);"), labels)
        assert str(exc.value) == message

    def test_path_metric_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            labels = [f"x{i}" for i in range(n)]
            tree = random_binary_tree(labels, rng)
            full = tree_distance_matrix(tree)
            pick = [str(x) for x in rng.choice(labels, size=3, replace=False)]
            sub = induced_subtree(tree, pick)
            small = tree_distance_matrix(sub)
            for i, s in enumerate(pick):
                for t in pick[i + 1:]:
                    assert small.value(s, t) == pytest.approx(full.value(s, t))


class TestRestrictToQuartet:
    def test_two_nested_splits(self):
        q = restrict4("(((a:1,b:1):0.3,c:1):0.2,d:1);", ("a", "b", "c", "d"))
        assert q.coords == {
            frozenset({"a", "b"}): pytest.approx(0.3),
            frozenset({"a", "b", "c"}): pytest.approx(0.2),
        }

    def test_star(self):
        assert restrict4("(a:1,b:1,c:1,d:1);", ("a", "b", "c", "d")).is_origin

    def test_degree_two_root_merges_complementary_pairs(self):
        q = restrict4("((a:1,c:1):0.4,(b:1,d:1):0.6);", ("a", "b", "c", "d"))
        assert q.coords == {frozenset({"a", "c"}): pytest.approx(1.0)}

    def test_merge_keeps_the_side_of_the_first_pick(self):
        t = "((a:1,c:1):0.4,(b:1,d:1):0.6);"
        q = restrict4(t, ("b", "a", "c", "d"))
        assert q.coords == {frozenset({"b", "d"}): pytest.approx(1.0)}
        named = restrict4(t, ("b", "a", "c", "d"), labels=("w", "x", "y", "z"))
        assert named.labels == ("w", "x", "y", "z")
        assert named.coords == {frozenset({"w", "z"}): pytest.approx(1.0)}

    def test_pendant_root_keeps_both_pair_clusters(self):
        # root hangs off the junction between the cherries, so the two
        # pair clusters are distinct rooted splits and must not merge
        q = restrict4("(((a:1,b:1):0.5,(c:1,d:1):0.7):0.3,e:1);", ("a", "b", "c", "d"))
        assert q.coords == {
            frozenset({"a", "b"}): pytest.approx(0.5),
            frozenset({"c", "d"}): pytest.approx(0.7),
        }

    def test_wrong_pick_count(self):
        with pytest.raises(ValueError):
            restrict4("(a:1,b:1,c:1,d:1);", ("a", "b", "c"))

    def test_path_metric_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(5, 9))
            labels = [f"x{i}" for i in range(n)]
            tree = random_binary_tree(labels, rng)
            full = tree_distance_matrix(tree)
            pick = [str(x) for x in rng.choice(labels, size=4, replace=False)]
            sub = induced_subtree(tree, pick)
            small = tree_distance_matrix(sub)
            for i, s in enumerate(pick):
                for t in pick[i + 1:]:
                    assert small.value(s, t) == pytest.approx(full.value(s, t))


def roughen(tree, rng, collapse, zero):
    """Collapse random interior edges into polytomies and zero random lengths."""
    for node in list(tree.walk()):
        merged = []
        for child in node.children:
            if child.children and rng.random() < collapse:
                merged.extend(child.children)
            else:
                merged.append(child)
        node.children = merged
    for node in tree.walk():
        if rng.random() < zero:
            node.length = 0.0
    return tree


@st.composite
def restriction_cases(draw):
    k = draw(st.sampled_from([3, 4]))
    labels = [f"x{i}" for i in range(draw(st.integers(k, 12)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = random_binary_tree(labels, rng)
    roughen(tree, rng, draw(st.sampled_from([0.0, 0.3, 0.7])),
            draw(st.sampled_from([0.0, 0.2, 0.5])))
    picks = draw(st.permutations(labels))[:k]
    return tree, picks


# leg of the cherry by the pick positions in it
LEGS = {frozenset({0, 1}): 1, frozenset({0, 2}): 2, frozenset({1, 2}): 3}


class TestRestrictionEqualsPruning:
    """Restriction gives exactly (==) what pruning a copy gives."""

    @settings(max_examples=400, deadline=None)
    @given(restriction_cases())
    def test_walk_equals_pruning_oracle(self, case):
        tree, picks = case
        index = tree_index(tree)
        splits = pruned_splits(tree, picks)
        if len(picks) == 3:
            expected = (0, 0.0)
            if splits:
                ((cherry, length),) = splits
                expected = (LEGS[frozenset(picks.index(x) for x in cherry)], length)
            assert triplet_point(index, picks) == expected
        else:
            assert quartet_point(index, picks, picks) == T4Point(picks, splits)


@st.composite
def batched_cases(draw):
    """A tree with polytomies and zero lengths, and up to 40 rows of
    picks; for k = 4 some rows take two picks below the root's first
    child and two elsewhere, where two cherries meet at the root."""
    k = draw(st.sampled_from([3, 4]))
    labels = [f"x{i}" for i in range(draw(st.integers(k, 14)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = roughen(random_binary_tree(labels, rng), rng,
                   draw(st.sampled_from([0.0, 0.3, 0.7])), draw(st.sampled_from([0.0, 0.2, 0.5])))
    rows = [list(rng.permutation(labels)[:k]) for _ in range(draw(st.integers(1, 30)))]
    left = tree.children[0].leaf_labels()
    right = [lb for lb in labels if lb not in left]
    if k == 4 and len(left) >= 2 and len(right) >= 2:
        for _ in range(10):
            row = [*rng.choice(left, 2, replace=False), *rng.choice(right, 2, replace=False)]
            rows.append([str(x) for x in rng.permutation(row)])
    return k, tree, rows


def by_cluster(splits):
    return sorted(splits, key=lambda cl: sorted(cl[0]))


class TestBatchedRestriction:
    """One call restricts every row exactly (==) as pruning a copy does."""

    @settings(max_examples=300, deadline=None)
    @given(batched_cases())
    def test_rows_equal_pruning_oracle(self, case):
        k, tree, rows = case
        index = tree_index(tree)
        if k == 3:
            legs, u = restrict_to_triplet(index, index.nodes(rows))
            got = list(zip(legs.tolist(), u.tolist()))
        else:
            masks, lengths = restrict_to_quartet(index, index.nodes(rows))
            assert masks.shape == lengths.shape == (len(rows), 7)
        for i, row in enumerate(rows):
            splits = pruned_splits(tree, row)
            if k == 3:
                expected = (0, 0.0)
                if splits:
                    ((cherry, length),) = splits
                    expected = (LEGS[frozenset(row.index(x) for x in cherry)], length)
                assert got[i] == expected
            else:
                found = [(frozenset(row[b] for b in range(4) if m >> b & 1), x)
                         for m, x in zip(masks[i].tolist(), lengths[i].tolist()) if x != 0]
                assert by_cluster(found) == by_cluster(splits)

    def test_no_rows(self):
        index = tree_index(parse_newick("((a:1,b:1):0.5,c:1,d:1);"))
        legs, u = restrict_to_triplet(index, np.empty((0, 3), dtype=np.int64))
        assert legs.shape == u.shape == (0,)


class TestDrawPicks:
    """The batched draw gives the picks of rng.choice per repetition and pool."""

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 77, 2**40 + 3])
    def test_equals_choice_loop(self, k, seed):
        rng = np.random.default_rng(seed + k)
        sizes = [*rng.integers(1, 32, size=k - 1), 1 + seed % 31]
        pools = [[f"g{g}t{t}" for t in range(size)] for g, size in enumerate(sizes)]
        assert draw_picks(pools, 500, seed).tolist() == choice_picks(pools, 500, seed)

    def test_every_pool_size(self):
        pools = [[f"t{t}" for t in range(size)] for size in range(1, 32)]
        for seed in (3, 5):
            assert draw_picks(pools, 50, seed).tolist() == choice_picks(pools, 50, seed)
