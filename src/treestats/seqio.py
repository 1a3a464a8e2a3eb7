"""Aligned-sequence, Newick, and distance-matrix I/O plus mismatch distances.

The module deliberately stays small: FASTA blocks of pre-aligned sequences
come in, pairwise mismatch-fraction matrices and rooted trees with branch
lengths go out.  Newick trees of any depth are read and written: both
walk the tree with a stack of their own, not Python's.  Comparison rules
(what counts as a mismatch) are:

* ``U`` and ``T`` are identified, so RNA and DNA sources mix freely.
* ``N`` compares equal to every base by default; ``strict_n=True`` makes it
  mismatch everything instead.
* Columns where both rows have ``-`` never count, in either gap mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AlignmentLengthError,
    AlphabetError,
    DuplicateTaxonError,
    InvalidMatrixError,
    NegativeLengthError,
    NewickSyntaxError,
    NoComparableSitesError,
)

ALPHABET = frozenset("ACGTUN-")

_GAP = ord("-")
_N = ord("N")


class GapMode(Enum):
    """How alignment gaps enter the mismatch fraction."""

    IGNORE = "ignore"
    MISMATCH = "mismatch"


def _check_unique_taxa(taxa) -> None:
    """Raise :class:`DuplicateTaxonError` naming the first repeated label."""
    if len(set(taxa)) != len(taxa):
        seen: set[str] = set()
        dup = next(t for t in taxa if t in seen or seen.add(t))
        raise DuplicateTaxonError(f"duplicate taxon label {dup!r}")


@dataclass(frozen=True)
class AlignedBlock:
    """A block of equal-length aligned sequences with unique taxon labels."""

    taxa: tuple[str, ...]
    rows: tuple[str, ...]

    def __post_init__(self):
        if len(self.taxa) != len(self.rows):
            raise AlignmentLengthError("taxa count does not match row count")
        if not self.taxa:
            raise AlignmentLengthError("empty alignment block")
        _check_unique_taxa(self.taxa)
        length = len(self.rows[0])
        if length < 1:
            raise AlignmentLengthError(f"row for {self.taxa[0]!r} has length 0, expected >= 1")
        for taxon, row in zip(self.taxa, self.rows):
            if len(row) != length:
                raise AlignmentLengthError(
                    f"row for {taxon!r} has length {len(row)}, expected {length}"
                )
            bad = set(row) - ALPHABET
            if bad:
                raise AlphabetError(
                    f"row for {taxon!r} contains illegal characters {sorted(bad)}"
                )

    @property
    def n_taxa(self) -> int:
        return len(self.taxa)

    @property
    def n_columns(self) -> int:
        return len(self.rows[0])


def parse_fasta(text: str) -> AlignedBlock:
    """Parse FASTA text into an :class:`AlignedBlock`.

    Labels are the full header line after ``>`` (stripped).  Sequence lines
    are concatenated, whitespace removed, and upper-cased.
    """
    taxa: list[str] = []
    chunks: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            label = line[1:].strip()
            if not label:
                raise AlphabetError(f"empty FASTA header at line {lineno}")
            taxa.append(label)
            chunks.append([])
        else:
            if not taxa:
                raise AlphabetError(
                    f"sequence data before any header at line {lineno}"
                )
            chunks[-1].append("".join(line.split()).upper())
    if not taxa:
        raise AlignmentLengthError("no FASTA records found")
    return AlignedBlock(tuple(taxa), tuple("".join(c) for c in chunks))


# --------------------------------------------------------------------------
# distance matrices
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal over unique taxa.

    Entries must also be small enough that neighbor joining cannot
    overflow: its Q values are bounded by ``3 * n * max(d)``, which must
    be finite.
    """

    taxa: tuple[str, ...]
    d: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_unique_taxa(self.taxa)
        m = np.array(self.d, dtype=float)
        n = len(self.taxa)
        if m.shape != (n, n):
            raise InvalidMatrixError(f"matrix shape {m.shape} does not fit {n} taxa")
        if not np.all(np.isfinite(m)):
            raise InvalidMatrixError("matrix contains non-finite entries")
        if np.any(m < 0):
            raise InvalidMatrixError("matrix contains negative distances")
        if np.any(np.abs(np.diag(m)) > 1e-12):
            raise InvalidMatrixError("matrix diagonal is not zero")
        scale = max(1.0, float(np.abs(m).max()))
        if np.any(np.abs(m - m.T) > 1e-9 * scale):
            raise InvalidMatrixError("matrix is not symmetric")
        if not np.isfinite(3.0 * n * scale):
            raise InvalidMatrixError(
                f"distances up to {scale!r} overflow neighbor joining on {n} taxa"
            )
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        m.flags.writeable = False
        object.__setattr__(self, "d", m)

    def value(self, a: str, b: str) -> float:
        i, j = self.taxa.index(a), self.taxa.index(b)
        return float(self.d[i, j])

    def to_csv(self) -> str:
        """Header row of taxa, then the square matrix, comma separated.

        Each cell is ``repr`` of its float.  The text is the same as
        formatting cell by cell, but each distinct value is formatted
        once: mismatch fractions are ratios of small integers and the
        matrix is symmetric, so values repeat.  Values are told apart by
        their bits, so ``-0.0`` keeps its sign.  :class:`InvalidMatrixError`
        names the labels :meth:`from_csv` would not read back.
        """
        bad = [t for t in self.taxa
               if not t or t != t.strip() or "," in t or len(t.splitlines()) != 1]
        if bad:
            raise InvalidMatrixError(f"the distance CSV cannot carry the taxon labels {bad!r}: "
                                     "a label is one line, without commas or blanks at its ends")
        bits, inverse = np.unique(self.d.view(np.int64), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
        rows = text[inverse.reshape(self.d.shape)].tolist()
        lines = [",".join(self.taxa), *(",".join(row) for row in rows)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMatrix":
        """Read the text of :meth:`to_csv`; blank lines and blanks around
        cells are ignored.

        The body is parsed in one ``np.loadtxt`` call, which reads the
        same decimal forms as ``float`` (and ``inf``/``nan``, which the
        matrix checks then reject) bit for bit, but not ``_`` digit
        separators or non-ASCII digits.
        """
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise InvalidMatrixError("empty distance CSV")
        taxa = tuple(t.strip() for t in lines[0].split(","))
        if "" in taxa:
            raise InvalidMatrixError(f"empty taxon name in column {taxa.index('') + 1} of the header")
        if len(lines) != len(taxa) + 1:
            raise InvalidMatrixError(
                f"expected {len(taxa)} matrix rows, found {len(lines) - 1}"
            )
        for k, ln in enumerate(lines[1:], 1):
            if ln.count(",") != len(taxa) - 1:
                raise InvalidMatrixError(
                    f"matrix row {k} has {ln.count(',') + 1} entries, expected {len(taxa)}"
                )
        try:
            d = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise InvalidMatrixError(f"bad number in distance CSV: {exc}") from None
        return cls(taxa, d)


# Columns per indicator block.  Counts are accumulated block by block, so
# extra memory is O(N^2 + N * _BLOCK_COLUMNS) however long the alignment;
# per-block counts stay far below 2**24, so float32 products are exact.
_BLOCK_COLUMNS = 512

# byte -> one-hot over A, C, G, T, with U folded into T
_ONE_HOT = np.zeros((256, 4), dtype=np.float32)
_ONE_HOT[np.frombuffer(b"ACGTU", dtype=np.uint8), [0, 1, 2, 3, 3]] = 1.0


def mismatch_distance(
    block: AlignedBlock, mode: GapMode, strict_n: bool = False
) -> DistanceMatrix:
    """Pairwise mismatch fractions of an aligned block.

    ``GapMode.IGNORE`` compares only columns where neither row is gapped.
    ``GapMode.MISMATCH`` counts gap-versus-base columns as differences and
    divides by the number of columns with at least one non-gap.  Columns
    where both rows are gapped are excluded from both numerator and
    denominator in either mode.

    Raises :class:`NoComparableSitesError` when a pair has no usable column;
    the first such pair in row-major order (``i < j``) is reported.
    """
    n, length = block.n_taxa, block.n_columns
    enc = np.frombuffer("".join(block.rows).encode("ascii"), dtype=np.uint8)
    enc = enc.reshape(n, length)
    # byte -> 1 for the symbols that can mismatch: bases, and N if strict_n
    can_mismatch = _ONE_HOT.sum(axis=1)
    if strict_n:
        can_mismatch[_N] = 1.0
    # Per pair, over the columns: same_base counts equal bases, gap_gap
    # columns gapped in both rows, and both_counted columns where both rows
    # hold a symbol that can mismatch.  A column mismatches when both of
    # its symbols can and they differ.
    same_base = np.zeros((n, n))
    gap_gap = np.zeros((n, n))
    both_counted = np.zeros((n, n))
    for lo in range(0, length, _BLOCK_COLUMNS):
        cols = enc[:, lo : lo + _BLOCK_COLUMNS]
        one_hot = _ONE_HOT[cols].reshape(n, -1)
        gap = (cols == _GAP).astype(np.float32)
        counted = can_mismatch[cols]
        same_base += one_hot @ one_hot.T
        gap_gap += gap @ gap.T
        both_counted += counted @ counted.T
    mismatched = both_counted - same_base
    gaps = np.diag(gap_gap)  # each row's own gap count
    gap_sum = gaps[:, None] + gaps[None, :]
    if mode is GapMode.IGNORE:
        denom = length - gap_sum + gap_gap
        num = mismatched
        reason = "no gap-free columns shared by"
    else:
        denom = length - gap_gap
        num = gap_sum - 2.0 * gap_gap + mismatched  # gap-versus-symbol columns too
        reason = "all columns gapped for"
    empty = np.argwhere(np.triu(denom == 0, k=1))
    if empty.size:
        i, j = empty[0]
        raise NoComparableSitesError(
            f"{reason} {block.taxa[i]!r} and {block.taxa[j]!r}"
        )
    np.fill_diagonal(denom, 1.0)
    d = num / denom
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(block.taxa, d)


# --------------------------------------------------------------------------
# rooted trees with branch lengths, Newick format
# --------------------------------------------------------------------------

class TreeNode:
    """Node of a rooted tree; a tree is just its root node.

    ``length`` is the length of the edge above the node (0.0 at the root).
    """

    __slots__ = ("label", "length", "children")

    def __init__(self, label=None, length=0.0, children=None):
        self.label = label
        self.length = float(length)
        self.children: list[TreeNode] = list(children) if children else []

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Yield every node, parents before children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list["TreeNode"]:
        return [n for n in self.walk() if n.is_leaf()]

    def leaf_labels(self) -> list[str]:
        return [n.label for n in self.leaves()]

    def __repr__(self):  # not Newick: a lone leaf or an unwritable label would raise
        return f"TreeNode({self.label!r}, {self.length!r}, children={len(self.children)})"


_RESERVED = set("():,;")


def parse_newick(text: str) -> TreeNode:
    """Parse a Newick string (must end with ``;``) into a rooted tree.

    Missing branch lengths read as 0.  A root with a single child is
    collapsed into that child, so every returned root has degree >= 2.
    The open subtrees are kept on a stack, so a tree of any depth is read.
    """
    s = text.strip()
    if not s:
        raise NewickSyntaxError("empty Newick string")
    if ";" not in s:
        raise NewickSyntaxError("missing terminating ';'")
    body, _, tail = s.partition(";")
    if tail.strip():
        raise NewickSyntaxError(f"trailing data after ';': {tail.strip()[:20]!r}")
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(body) and body[pos].isspace():
            pos += 1

    def read_token() -> str:
        nonlocal pos
        start = pos
        while pos < len(body) and body[pos] not in _RESERVED and not body[pos].isspace():
            pos += 1
        return body[start:pos]

    def read_length() -> float:
        nonlocal pos
        skip_ws()
        if pos >= len(body) or body[pos] != ":":
            return 0.0
        pos += 1
        skip_ws()
        tok = read_token()
        try:
            val = float(tok)
        except ValueError:
            raise NewickSyntaxError(f"bad branch length {tok!r}") from None
        if not np.isfinite(val):
            raise NewickSyntaxError(f"non-finite branch length {tok!r}")
        if val < 0:
            raise NegativeLengthError(f"negative branch length {tok!r}")
        return val

    open_children: list[list[TreeNode]] = []  # the children read so far of each open "("
    node = None
    while node is None:
        skip_ws()
        if pos >= len(body):
            raise NewickSyntaxError("unexpected end of Newick string")
        if body[pos] == "(":
            pos += 1
            open_children.append([])
            continue
        label = read_token()
        if not label:
            raise NewickSyntaxError(f"expected a label at position {pos}")
        node = TreeNode(label, read_length())
        while open_children:  # close the subtrees that end here
            open_children[-1].append(node)
            skip_ws()
            if pos < len(body) and body[pos] == ",":
                pos += 1
                node = None
                break
            if pos >= len(body) or body[pos] != ")":
                raise NewickSyntaxError("unbalanced parentheses")
            pos += 1
            skip_ws()
            node = TreeNode(read_token() or None, read_length(), open_children.pop())
    root = node
    skip_ws()
    if pos != len(body):
        raise NewickSyntaxError(f"trailing data before ';': {body[pos:][:20]!r}")
    while len(root.children) == 1:
        child = root.children[0]
        child.length += root.length
        if root.label and not child.label:
            child.label = root.label
        root = child
    if root.is_leaf():
        raise NewickSyntaxError("a tree needs at least two leaves")
    labels = root.leaf_labels()  # every leaf has one: an empty one is refused above
    if len(set(labels)) != len(labels):
        raise NewickSyntaxError("duplicate leaf labels")
    return root


def serialize_newick(tree: TreeNode, precision: int = 6) -> str:
    """Serialize a rooted tree of any depth to Newick with the given
    significant digits; :class:`NewickSyntaxError` names the labels
    :func:`parse_newick` would not read back (a leaf's missing one, any
    holding ``():;,`` or blanks)."""
    bad = [n.label for n in tree.walk() if (n.label or n.is_leaf()) and (
        not n.label or any(c in _RESERVED or c.isspace() for c in n.label))]
    if bad:
        raise NewickSyntaxError(f"Newick cannot carry the labels {bad!r}: "
                                "a label holds no whitespace and none of ():;,")
    if tree.is_leaf():
        raise NewickSyntaxError("cannot serialize a single leaf as a tree")
    out, todo = [], [tree]  # todo: nodes to write and text to copy, last first
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        length = f":{node.length:.{precision}g}" if node.length or node is not tree else ""
        if node.is_leaf():
            out.append(f"{node.label}{length}")
            continue
        out.append("(")
        items = [x for child in node.children for x in (",", child)][1:]
        todo += [f"){node.label or ''}{length}", *reversed(items)]
    return "".join(out) + ";"
