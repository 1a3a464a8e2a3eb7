import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    distance_csv_float_cells,
    distance_csv_per_cell,
    mismatch_distance_loop,
    parse_newick_recursive,
    serialize_newick_recursive,
)
from treestats import seqio
from treestats.errors import (
    AlignmentLengthError,
    AlphabetError,
    DuplicateTaxonError,
    InvalidMatrixError,
    NegativeLengthError,
    NewickSyntaxError,
    NoComparableSitesError,
)
from treestats.seqio import (
    AlignedBlock,
    DistanceMatrix,
    GapMode,
    TreeNode,
    mismatch_distance,
    parse_fasta,
    parse_newick,
    serialize_newick,
)


def block(*rows, taxa=None):
    taxa = taxa or tuple(f"t{i}" for i in range(len(rows)))
    return AlignedBlock(tuple(taxa), tuple(rows))


class TestParseFasta:
    def test_basic(self):
        b = parse_fasta(">a\nACGT\n>b\nACGA")
        assert b.taxa == ("a", "b")
        assert b.rows == ("ACGT", "ACGA")

    def test_unequal_lengths(self):
        with pytest.raises(AlignmentLengthError):
            parse_fasta(">a\nACG\n>b\nACGA")

    def test_case_folding(self):
        b = parse_fasta(">a\nac-g\n>a2\nACGG")
        assert b.rows == ("AC-G", "ACGG")

    def test_duplicate_taxa(self):
        with pytest.raises(DuplicateTaxonError):
            parse_fasta(">a\nAC\n>a\nAC")

    def test_illegal_characters(self):
        with pytest.raises(AlphabetError):
            parse_fasta(">a\nACXG\n>b\nACGG")

    def test_multiline_sequences_and_whitespace(self):
        b = parse_fasta(">a\nAC\nGT\n\n>b\nAC GA\n")
        assert b.rows == ("ACGT", "ACGA")

    def test_empty_input(self):
        with pytest.raises(AlignmentLengthError):
            parse_fasta("")

    @pytest.mark.parametrize("taxa, rows, message", [
        (("a", "b"), ("AC",), "taxa count does not match row count"),
        ((), (), "empty alignment block"),
    ])
    def test_block_refuses(self, taxa, rows, message):
        with pytest.raises(AlignmentLengthError) as exc:
            AlignedBlock(taxa, rows)
        assert str(exc.value) == message


class TestMismatchDistance:
    def test_single_mismatch_both_modes(self):
        b = block("ACGT", "ACGA")
        for mode in GapMode:
            assert mismatch_distance(b, mode).d[0, 1] == pytest.approx(0.25)

    def test_gap_ignore(self):
        b = block("AC-T", "ACGT")
        assert mismatch_distance(b, GapMode.IGNORE).d[0, 1] == 0.0

    def test_gap_mismatch(self):
        b = block("AC-T", "ACGT")
        assert mismatch_distance(b, GapMode.MISMATCH).d[0, 1] == pytest.approx(0.25)

    def test_gap_gap_column_excluded(self):
        b = block("A-CT", "A-CA")
        # 3 columns have a non-gap; one of them differs
        assert mismatch_distance(b, GapMode.MISMATCH).d[0, 1] == pytest.approx(1 / 3)
        assert mismatch_distance(b, GapMode.IGNORE).d[0, 1] == pytest.approx(1 / 3)

    def test_no_comparable_sites(self):
        b = block("--AC", "AC--")
        with pytest.raises(NoComparableSitesError):
            mismatch_distance(b, GapMode.IGNORE)

    def test_all_gap_pair_mismatch_mode(self):
        b = block("--", "--", "AC")
        with pytest.raises(NoComparableSitesError):
            mismatch_distance(b, GapMode.MISMATCH)

    def test_n_matches_anything_by_default(self):
        b = block("ANGT", "ACGT")
        assert mismatch_distance(b, GapMode.IGNORE).d[0, 1] == 0.0

    def test_strict_n(self):
        b = block("ANGT", "ACGT")
        assert mismatch_distance(b, GapMode.IGNORE, strict_n=True).d[0, 1] == 0.25
        b2 = block("ANGT", "ANGT")
        assert mismatch_distance(b2, GapMode.IGNORE, strict_n=True).d[0, 1] == 0.25

    def test_u_equals_t(self):
        b = block("ACGU", "ACGT")
        assert mismatch_distance(b, GapMode.IGNORE).d[0, 1] == 0.0

    def test_invariants_random_alignments(self):
        rng = np.random.default_rng(7)
        alphabet = np.array(list("ACGTUN-"))
        for _ in range(40):
            n = int(rng.integers(2, 6))
            length = int(rng.integers(4, 30))
            rows = ["".join(rng.choice(alphabet, length)) for _ in range(n)]
            b = block(*rows)
            for mode in GapMode:
                try:
                    dm = mismatch_distance(b, mode)
                except NoComparableSitesError:
                    continue
                assert np.allclose(dm.d, dm.d.T)
                assert np.all(np.diag(dm.d) == 0)
                assert np.all(dm.d >= 0)
                assert np.all(dm.d <= 1.0)


SYMBOLS = np.array(list("ACGTUN-"))
BLOCK = seqio._BLOCK_COLUMNS


@st.composite
def alignments(draw):
    """Blocks mixing all symbols, with all-gap rows and rows gapped on one
    side of a cut (pairs of those can share no gap-free column); lengths
    run past two column blocks."""
    n = draw(st.integers(1, 6))
    length = draw(st.one_of(st.integers(1, 40), st.integers(BLOCK - 3, 2 * BLOCK + 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        mix = draw(st.lists(st.integers(0, 4), min_size=7, max_size=7).filter(any))
        row = rng.choice(SYMBOLS, length, p=np.array(mix) / sum(mix))
        shape = draw(st.sampled_from(["mixed", "all_gap", "gap_left", "gap_right"]))
        cut = draw(st.integers(0, length))
        if shape == "all_gap":
            row[:] = "-"
        elif shape == "gap_left":
            row[:cut] = "-"
        elif shape == "gap_right":
            row[cut:] = "-"
        rows.append("".join(row))
    return block(*rows)


def distance_csv_or_error(fn, b, mode, strict_n):
    try:
        return fn(b, mode, strict_n).to_csv()
    except NoComparableSitesError as exc:
        return f"NoComparableSitesError: {exc}"


class TestDistanceMatchesLoop:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alignments())
    def test_blocked_products_equal_pair_loop(self, b):
        for mode in GapMode:
            for strict_n in (False, True):
                assert distance_csv_or_error(
                    mismatch_distance, b, mode, strict_n
                ) == distance_csv_or_error(mismatch_distance_loop, b, mode, strict_n)

    def test_first_empty_pair_reported_in_row_major_order(self):
        # pairs (0, 2) and (1, 2) share no gap-free column; (0, 2) comes first
        b = block("AC" * BLOCK + "--", "A" * (2 * BLOCK) + "--", "-" * (2 * BLOCK) + "GT")
        with pytest.raises(NoComparableSitesError, match="'t0' and 't2'"):
            mismatch_distance(b, GapMode.IGNORE)


class TestDistanceMatrixCSV:
    def test_round_trip(self):
        dm = DistanceMatrix(("a", "b", "c"), np.array([
            [0.0, 0.25, 0.5],
            [0.25, 0.0, 0.125],
            [0.5, 0.125, 0.0],
        ]))
        again = DistanceMatrix.from_csv(dm.to_csv())
        assert again.taxa == dm.taxa
        assert np.array_equal(again.d, dm.d)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrixError):
            DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidMatrixError):
            DistanceMatrix(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidMatrixError):
            DistanceMatrix(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("d, message", [
        (np.zeros((3, 3)), "matrix shape (3, 3) does not fit 2 taxa"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "matrix contains non-finite entries"),
    ], ids=["shape", "nan"])
    def test_rejects_shape_and_nan(self, d, message):
        with pytest.raises(InvalidMatrixError) as exc:
            DistanceMatrix(("a", "b"), d)
        assert str(exc.value) == message

    def test_rejects_duplicate_taxa(self):
        with pytest.raises(DuplicateTaxonError, match="'a'"):
            DistanceMatrix(("a", "b", "a"), np.zeros((3, 3)))

    @pytest.mark.parametrize("text, row, count", [
        ("a,b,c\n0,1,2\n1,0\n2,3,0\n", 2, 2),
        ("a,b,c\n0,1\n1,0,3\n2,3,0\n", 1, 2),
        ("a,b\n0,1,5\n1,0\n", 1, 3),
    ])
    def test_from_csv_rejects_ragged_rows(self, text, row, count):
        with pytest.raises(InvalidMatrixError, match=f"row {row} has {count} entries"):
            DistanceMatrix.from_csv(text)


# distances as they occur (ratios of small integers), arbitrary floats,
# and both zeros: -0.0 passes the nonnegativity check and keeps its sign
csv_values = st.one_of(
    st.integers(0, 12).flatmap(lambda k: st.sampled_from([k / 7, k / 12, k / 1500])),
    st.floats(0.0, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324]),
)


def symmetric(n, upper):
    """Matrix with ``upper`` above the diagonal and mirrored below it."""
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    d.T[np.triu_indices(n, 1)] = upper
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), d)


class TestDistanceCSVEqualsPerCellOracle:
    """to_csv formats each distinct value once and writes the same bytes."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.lists(csv_values, min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_repeated_values(self, n, pool, seed):
        upper = np.random.default_rng(seed).choice(np.array(pool), n * (n - 1) // 2)
        dm = symmetric(n, upper)
        assert dm.to_csv() == distance_csv_per_cell(dm)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 16).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.floats(1e-300, 1e300), min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2, unique=True))))
    def test_every_value_distinct(self, case):
        dm = symmetric(*case)
        text = dm.to_csv()
        assert text == distance_csv_per_cell(dm)
        assert np.array_equal(DistanceMatrix.from_csv(text).d, dm.d)

    def test_every_value_distinct_wide(self):
        n = 200
        dm = symmetric(n, np.random.default_rng(5).random(n * (n - 1) // 2))
        assert dm.to_csv() == distance_csv_per_cell(dm)

    def test_negative_zero_keeps_its_sign(self):
        dm = symmetric(3, [-0.0, 0.0, 0.5])
        assert dm.to_csv() == "t0,t1,t2\n0.0,-0.0,0.0\n-0.0,0.0,0.5\n0.0,0.5,0.0\n"
        assert dm.to_csv() == distance_csv_per_cell(dm)


# the same value written several ways, with blanks around cells and
# blank lines between rows, all of which from_csv must read alike
cell_text = st.sampled_from([repr, "{:.17g}".format, "{:.17e}".format, "{:.6g}".format])
blanks = st.text(" \t", max_size=2)


@st.composite
def padded_csv(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    upper = draw(st.lists(csv_values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    dm = symmetric(n, upper)
    rows = [[draw(blanks) + draw(cell_text)(x) + draw(blanks) for x in row]
            for row in dm.d.tolist()]
    lines = []
    for line in [",".join(dm.taxa), *map(",".join, rows)]:
        lines += [*draw(st.lists(blanks, max_size=2)), line]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n \n\t\n"]))


def parse_both(text):
    """(result or error message) of from_csv and of its per-cell oracle."""
    out = []
    for parse in (DistanceMatrix.from_csv, distance_csv_float_cells):
        try:
            out.append(parse(text))
        except InvalidMatrixError as exc:
            out.append(str(exc))
    return out


class TestDistanceCSVParserEqualsFloatOracle:
    """from_csv reads the body in one call and gets float's bits."""

    @settings(max_examples=300, deadline=None)
    @given(padded_csv())
    def test_same_bits(self, text):
        new, old = parse_both(text)
        if isinstance(old, str):  # .6g can break symmetry: the same error then
            assert new == old
            return
        assert new.taxa == old.taxa
        assert np.array_equal(new.d.view(np.int64), old.d.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(padded_csv(max_n=6).filter(lambda t: "," in t), st.data())  # n >= 2
    def test_same_errors(self, text, data):
        lines = text.split("\n")
        k = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if "," in ln][1:]))
        cells = lines[k].split(",")
        edit = data.draw(st.sampled_from(["drop", "add", "bad"]))
        if edit == "drop":
            del cells[-1]
        elif edit == "add":
            cells.append("0.5")
        else:
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
                st.sampled_from(["x", "", " ", "1e", "0x10", "--1", "1 2", "#1"]))
        lines[k] = ",".join(cells)
        new, old = parse_both("\n".join(lines))
        if edit == "bad":  # the text after the colon is float's or numpy's
            assert new.startswith("bad number in distance CSV: ")
            assert old.startswith("bad number in distance CSV: ")
        else:
            assert new == old

    def test_edge_values(self):
        text = "a,b,c\n\n 0 ,-0.0,5e-324\n\t-0.0, 0,1e300 \n  \n5e-324,1e300,0\n\n"
        new, old = parse_both(text)
        assert np.array_equal(new.d.view(np.int64), old.d.view(np.int64))
        assert np.signbit(new.d[0, 1]) and new.d[0, 2] == 5e-324


def random_tree(rng, n_leaves):
    nodes = [TreeNode(label=f"x{i}", length=float(rng.uniform(0, 2)))
             for i in range(n_leaves)]
    while len(nodes) > 2:
        i, j = sorted(rng.choice(len(nodes), 2, replace=False))
        child = TreeNode(length=float(rng.uniform(0, 2)), children=[nodes[i], nodes[j]])
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [child]
    return TreeNode(children=nodes)


def canonical(node):
    if node.is_leaf():
        return ("leaf", node.label, round(node.length, 9))
    kids = sorted((canonical(c) for c in node.children), key=repr)
    return ("node", tuple(kids), round(node.length, 9))


class TestNewick:
    def test_parse_cherry(self):
        t = parse_newick("((a:1,b:1):0.5,c:2);")
        assert sorted(t.leaf_labels()) == ["a", "b", "c"]
        inner = [c for c in t.children if not c.is_leaf()][0]
        assert inner.length == 0.5
        assert sorted(inner.leaf_labels()) == ["a", "b"]

    def test_repr_never_raises(self):
        # neither a lone leaf nor a label Newick cannot carry is a Newick tree
        assert repr(TreeNode("a")) == "TreeNode('a', 0.0, children=0)"
        tree = TreeNode(children=[TreeNode("a b", 1.0), TreeNode("c", 1.0)])
        assert repr(tree) == "TreeNode(None, 0.0, children=2)"

    def test_star_defaults_to_zero_lengths(self):
        t = parse_newick("(a,b,c);")
        assert [c.length for c in t.children] == [0.0, 0.0, 0.0]

    def test_unbalanced(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("((a,b),c;")

    def test_trailing_garbage(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("(a,b); junk")

    def test_negative_length(self):
        with pytest.raises(NegativeLengthError):
            parse_newick("(a:-1,b:1);")

    def test_duplicate_leaves(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("(a,a);")

    def test_serialize_interior_edge(self):
        # tree type ((b,c),a) with interior edge 0.02
        t = TreeNode(children=[
            TreeNode(length=0.02, children=[TreeNode("b", 0.31), TreeNode("c", 0.007)]),
            TreeNode("a", 0.12),
        ])
        text = serialize_newick(t)
        assert text.startswith("((b:0.31,c:0.007):0.02,a:0.12)")
        assert text.endswith(";")

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 17))
            t = random_tree(rng, n)
            back = parse_newick(serialize_newick(t, precision=12))
            assert canonical(back) == canonical(t)

    def test_unary_root_collapsed(self):
        t = parse_newick("((a:1,b:2):0.5);")
        assert sorted(t.leaf_labels()) == ["a", "b"]
        assert len(t.children) == 2

    def test_unary_root_label_moves_to_the_collapsed_root(self):
        t = parse_newick("((a,b))y;")
        assert t.label == "y"
        assert sorted(t.leaf_labels()) == ["a", "b"]


@pytest.mark.parametrize("text, error, message", [
    ("", NewickSyntaxError, "empty Newick string"),
    (" \n\t", NewickSyntaxError, "empty Newick string"),
    ("(a,b)", NewickSyntaxError, "missing terminating ';'"),
    ("(a,b); junk", NewickSyntaxError, "trailing data after ';': 'junk'"),
    ("(a,b);(c,d);", NewickSyntaxError, "trailing data after ';': '(c,d);'"),
    ("(a:x,b);", NewickSyntaxError, "bad branch length 'x'"),
    ("(a:,b);", NewickSyntaxError, "bad branch length ''"),
    ("(a:inf,b);", NewickSyntaxError, "non-finite branch length 'inf'"),
    ("(a:nan,b);", NewickSyntaxError, "non-finite branch length 'nan'"),
    ("(a:-1,b:1);", NegativeLengthError, "negative branch length '-1'"),
    ("(a,;", NewickSyntaxError, "unexpected end of Newick string"),
    ("((;", NewickSyntaxError, "unexpected end of Newick string"),
    ("((a,b),c;", NewickSyntaxError, "unbalanced parentheses"),
    ("(a,b c);", NewickSyntaxError, "unbalanced parentheses"),
    ("(,a);", NewickSyntaxError, "expected a label at position 1"),
    ("(a, :1);", NewickSyntaxError, "expected a label at position 4"),
    ("(a,b)c d;", NewickSyntaxError, "trailing data before ';': 'd'"),
    ("(a,b)),c;", NewickSyntaxError, "trailing data before ';': '),c'"),
    ("a;", NewickSyntaxError, "a tree needs at least two leaves"),
    ("((a:1):2);", NewickSyntaxError, "a tree needs at least two leaves"),
    ("(a,a);", NewickSyntaxError, "duplicate leaf labels"),
    ("((a,b),(c,a));", NewickSyntaxError, "duplicate leaf labels"),
])
def test_newick_error_messages(text, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_newick(text)


def _outcome(run, arg):
    """What ``run(arg)`` gives: a Newick text, a tree's nested (label,
    length, children) tuples, or the error's type and message."""
    def shape(node):
        return (node.label, node.length, tuple(map(shape, node.children)))
    try:
        out = run(arg)
    except (NewickSyntaxError, NegativeLengthError) as exc:
        return type(exc), str(exc)
    return out if isinstance(out, str) else shape(out)


_trees = st.recursive(
    st.builds(TreeNode, st.sampled_from(["a", "b", "c", "d", "e", "", "a b"]),
              st.sampled_from([0.0, 0.5, 1e-7, 2.0 / 3, 1e21])),
    lambda kids: st.builds(TreeNode, st.sampled_from([None, "", "n", "x:"]),
                           st.sampled_from([0.0, 0.25, 1.0 / 3]),
                           st.lists(kids, min_size=1, max_size=3)),
    max_leaves=12)
_newick_chars = st.sampled_from([*"(),:; \tab1.-e", "inf", "1e400"])


class TestNewickAgainstRecursive:
    """The stack-based reader and writer against the recursive pair in
    ``oracles``: the same bytes, the same trees, the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(_trees, st.sampled_from([1, 6, 17]))
    def test_writer(self, tree, precision):
        assert _outcome(lambda t: serialize_newick(t, precision), tree) == _outcome(
            lambda t: serialize_newick_recursive(t, precision), tree)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.lists(_newick_chars, max_size=30).map("".join),
                     st.tuples(_trees, st.lists(st.tuples(st.integers(0, 200), _newick_chars),
                                                max_size=3))
                     .map(lambda t: _edit_newick(t[0], t[1]))))
    def test_reader(self, text):
        assert _outcome(parse_newick, text) == _outcome(parse_newick_recursive, text)

    def test_deep_caterpillar_round_trips(self):
        tree = TreeNode("x0", 0.5)
        for i in range(1, 5000):
            tree = TreeNode(None, 0.25, [tree, TreeNode(f"x{i}", 1.0 / i)])
        tree.length = 0.0
        text = serialize_newick(tree, 17)
        assert text.startswith("(" * 4999 + "x0:0.5,x1:1):0.25,x2:0.5):0.25,")
        back = parse_newick(text)
        assert serialize_newick(back, 17) == text
        assert sum(1 for _ in back.walk()) == 9999


def _edit_newick(tree, edits):
    """The Newick text of ``tree`` (or its error message) with each
    ``(place, text)`` of ``edits`` written over one character."""
    text = _outcome(serialize_newick_recursive, tree)
    text = text if isinstance(text, str) else "(a,b);"
    for i, junk in edits:
        i %= len(text)
        text = text[:i] + junk + text[i + 1:]
    return text
