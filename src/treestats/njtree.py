"""Neighbor-joining tree construction and restriction to leaf subsets.

Neighbor joining follows Saitou-Nei with the Studier-Keppler Q criterion.
The output is rooted at the final three-way join; that rooting is an
artifact of the algorithm's termination, not a biological statement, and
restriction treats the root as a fifth (or fourth) terminal.

Restriction reads one :class:`TreeIndex` per tree (a parent link and an
edge length per node) and walks up from the k <= 4 picked leaves: a node
is kept where the set of picks below it grows, and a suppressed node adds
its length to the kept edge below it.  Each kept edge below the root
splits off 2..k-1 picks.  When the root keeps exactly two children, each
above two picks, the two edges are one unrooted split: they merge into
the side holding the first pick, with the lengths summed.
:func:`restrict_to_triplet` gives a 3-spider leg and coordinate and
:func:`restrict_to_quartet` a :class:`~treestats.t4space.T4Point`.
:func:`induced_subtree` prunes a copy of the tree instead, and is kept as
the reference the walk is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import TooFewTaxaError, UnknownTaxonError
from .seqio import DistanceMatrix, TreeNode

if TYPE_CHECKING:  # imported where used, so that dist and nj never load t4space
    from .t4space import T4Point


# --------------------------------------------------------------------------
# neighbor joining
# --------------------------------------------------------------------------

def neighbor_joining(dm: DistanceMatrix) -> TreeNode:
    """Build the neighbor-joining tree of a distance matrix.

    Q-matrix ties break toward the lexicographically smallest index pair,
    so output is deterministic.  Negative branch-length estimates are
    clamped to zero with the deficit moved to the sibling branch, keeping
    the joined pair's path length.  The tree is rooted at the final
    three-way join.  On an additive matrix the tree's path metric
    reproduces the input exactly.

    The working matrix lives in two flat n*n buffers: each join writes
    the merged row and column in place, then copies the matrix without
    row and column ``j`` into the other buffer as one contiguous
    (m-1, m-1) block.  The arithmetic is that of the plain version (in
    ``tests/oracles.py``) bit for bit, so Newick and sample output do not
    move: the column sums run down the rows of a contiguous matrix, in
    the same row order; ``q[a, b]`` is ``(m-2)*d[a, b] - r[a] - r[b]``,
    subtracted in that order; and ``argmin`` scans Q row-major.  Q is
    not bit-symmetric (``q[b, a]`` subtracts ``r[b]`` first), so the
    ``i > j`` swap is kept.
    """
    n = len(dm.taxa)
    if n < 3:
        raise TooFewTaxaError(f"neighbor joining needs >= 3 taxa, got {n}")
    buf, spare, qbuf = dm.d.flatten(), np.empty(n * n), np.empty(n * n)
    nodes = [TreeNode(label=t) for t in dm.taxa]

    for m in range(n, 3, -1):
        d = buf[: m * m].reshape(m, m)
        r = d.sum(axis=0)
        q = qbuf[: m * m].reshape(m, m)
        np.multiply(d, m - 2, out=q)
        q -= r[:, None]
        q -= r
        q.flat[:: m + 1] = np.inf
        i, j = divmod(int(np.argmin(q)), m)
        if i > j:  # Q is not bit-symmetric: q[i, j] rounded below q[j, i]
            i, j = j, i
        li = 0.5 * d[i, j] + (r[i] - r[j]) / (2 * (m - 2))
        lj = d[i, j] - li
        if li < 0:
            lj += li
            li = 0.0
        if lj < 0:
            li = max(0.0, li + lj)
            lj = 0.0
        nodes[i].length = li
        nodes[j].length = lj
        joined = TreeNode(children=[nodes[i], nodes[j]])
        dnew = 0.5 * (d[i] + d[j] - d[i, j])
        d[i, :] = dnew
        d[:, i] = dnew
        d[i, i] = 0.0
        nodes[i] = joined
        # drop row and column j: copy the four blocks around them
        out = spare[: (m - 1) * (m - 1)].reshape(m - 1, m - 1)
        out[:j, :j] = d[:j, :j]
        out[:j, j:] = d[:j, j + 1 :]
        out[j:, :j] = d[j + 1 :, :j]
        out[j:, j:] = d[j + 1 :, j + 1 :]
        buf, spare = spare, buf
        nodes.pop(j)

    d = buf[:9].reshape(3, 3)
    dxy, dxz, dyz = d[0, 1], d[0, 2], d[1, 2]
    nodes[0].length = max(0.0, 0.5 * (dxy + dxz - dyz))
    nodes[1].length = max(0.0, 0.5 * (dxy + dyz - dxz))
    nodes[2].length = max(0.0, 0.5 * (dxz + dyz - dxy))
    return TreeNode(children=nodes)


def tree_distance_matrix(tree: TreeNode) -> DistanceMatrix:
    """Pairwise leaf-to-leaf path lengths of a tree."""
    leaves = tree.leaves()
    labels = tuple(lf.label for lf in leaves)
    n = len(labels)
    d = np.zeros((n, n))
    index = {id(lf): k for k, lf in enumerate(leaves)}

    # depth-first accumulation: distances between leaves meet at their LCA
    def below(node) -> dict[int, float]:
        if node.is_leaf():
            return {index[id(node)]: 0.0}
        mine: dict[int, float] = {}
        for child in node.children:
            sub = {k: v + child.length for k, v in below(child).items()}
            for k1, v1 in mine.items():
                for k2, v2 in sub.items():
                    d[k1, k2] = d[k2, k1] = v1 + v2
            mine.update(sub)
        return mine

    below(tree)
    return DistanceMatrix(labels, d)


# --------------------------------------------------------------------------
# restriction to leaf subsets
# --------------------------------------------------------------------------

def induced_subtree(tree: TreeNode, labels) -> TreeNode:
    """Subtree spanned by the given leaves and the root.

    Non-root nodes of degree 2 are suppressed with their edge lengths
    summed.  The root is kept even when its induced degree drops to 1 or
    2: it acts as an extra labeled terminal of the restriction.
    """
    wanted = list(labels)
    if len(set(wanted)) != len(wanted):
        raise UnknownTaxonError(f"repeated labels in {wanted}")
    present = set(tree.leaf_labels())
    for lb in wanted:
        if lb not in present:
            raise UnknownTaxonError(f"{lb!r} is not a leaf of the tree")
    keep = set(wanted)

    def prune(node: TreeNode) -> TreeNode | None:
        if node.is_leaf():
            return TreeNode(node.label, node.length) if node.label in keep else None
        kept = [c for c in (prune(ch) for ch in node.children) if c is not None]
        if not kept:
            return None
        if len(kept) == 1:
            only = kept[0]
            only.length += node.length
            return only
        return TreeNode(node.label, node.length, kept)

    kept = [c for c in (prune(ch) for ch in tree.children) if c is not None]
    return TreeNode(tree.label, 0.0, kept)


@dataclass(frozen=True)
class TreeIndex:
    """Parent links of a tree: nodes numbered in preorder, the root is 0.

    ``parent[v]`` is the parent of node ``v`` (-1 at the root),
    ``length[v]`` the length of the edge above it, and ``leaf`` maps each
    leaf label to its node.
    """

    parent: tuple
    length: tuple
    leaf: dict


def tree_index(tree: TreeNode) -> TreeIndex:
    """Index a tree once for :func:`restrict_to_triplet`/:func:`restrict_to_quartet`."""
    parent, length, leaf = [], [], {}
    stack = [(tree, -1)]
    while stack:
        node, up = stack.pop()
        if node.is_leaf():
            leaf[node.label] = len(parent)
        stack.extend((child, len(parent)) for child in reversed(node.children))
        parent.append(up)
        length.append(node.length)
    return TreeIndex(tuple(parent), tuple(length), leaf)


def _splits(index: TreeIndex, picks, k: int) -> list[tuple[int, float]]:
    """(bitmask of the picks below, length) of each split of the restriction.

    Bit i stands for ``picks[i]``.  Lengths are summed upward from the
    kept node, the order :func:`induced_subtree` sums them in, and may be 0.
    """
    if len(picks) != k:
        raise ValueError(f"restriction needs {k} leaves, got {len(picks)}")
    try:
        nodes = [index.leaf[p] for p in picks]
    except KeyError as exc:
        raise UnknownTaxonError(f"{exc.args[0]!r} is not a leaf of the tree") from None
    if len(set(nodes)) != k:
        raise UnknownTaxonError(f"repeated labels in {list(picks)}")
    parent, length = index.parent, index.length
    below = {}
    for bit, v in enumerate(nodes):
        while v:
            below[v] = below.get(v, 0) | 1 << bit
            v = parent[v]
    edges, at_root, todo, seen = [], [], list(nodes), set()
    while todo:
        v = todo.pop()
        mask, total, up = below[v], length[v], parent[v]
        while up and below[up] == mask:  # suppressed: one kept child
            total += length[up]
            up = parent[up]
        if not up:
            at_root.append((mask, total))
        elif up not in seen:
            seen.add(up)
            todo.append(up)
        edges.append((mask, total))
    if len(at_root) == 2 and all(m.bit_count() == 2 for m, _ in at_root):
        (m1, l1), (m2, l2) = at_root
        return [(m1 if m1 & 1 else m2, l1 + l2)]
    return [(m, l) for m, l in edges if 2 <= m.bit_count() < k]


# leg of a 3-spider by the pick positions of its cherry (bit i = picks[i])
_LEGS = {0b011: 1, 0b101: 2, 0b110: 3}


def restrict_to_triplet(index: TreeIndex, picks) -> tuple[int, float]:
    """Project an indexed tree onto three of its leaves as a 3-spider point.

    Returns ``(leg, u)``: leg 1, 2 or 3 for the cherry of the first and
    second, first and third, or second and third pick, and the interior
    edge length; ``(0, 0.0)`` for the star.
    """
    for mask, length in _splits(index, picks, 3):
        if length:
            return _LEGS[mask], length
    return 0, 0.0


def restrict_to_quartet(index: TreeIndex, picks, labels) -> T4Point:
    """Project an indexed tree onto four of its leaves as a four-leaf tree.

    ``labels`` name the point's leaves, one per pick in the same order
    (``picks`` itself to keep the leaf labels).
    """
    from .t4space import T4Point

    return T4Point(labels, [
        (frozenset(lb for i, lb in enumerate(labels) if mask >> i & 1), length)
        for mask, length in _splits(index, picks, 4)
    ])
