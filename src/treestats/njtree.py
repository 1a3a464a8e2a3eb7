"""Neighbor-joining tree construction and restriction to leaf subsets.

Neighbor joining follows Saitou-Nei with the Studier-Keppler Q criterion.
The output is rooted at the final three-way join; that rooting is an
artifact of the algorithm's termination, not a biological statement, and
restriction treats the root as a fifth (or fourth) terminal.

Restriction reads one :class:`TreeIndex` per tree (parent links, edge
lengths and preorder subtree ends as arrays) and restricts every
repetition at once: each row of an (m, k) array of picked leaves, k <= 4.
A node is kept where the set of picks below it grows: the picks and the
lowest common ancestors of picks that are neighbours in preorder.  A
suppressed node adds its length to the kept edge below it.  Each kept
edge below the root splits off 2..k-1 picks.  When the root keeps
exactly two children, each above two picks, the two edges are one
unrooted split: they merge into the side holding the first pick, with
the lengths summed.  :func:`restrict_to_triplet` gives 3-spider legs and
coordinates, :func:`restrict_to_quartet` split bitmasks and lengths.
:func:`induced_subtree` prunes a copy of the tree instead, and is kept as
the reference the restriction is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TooFewTaxaError, UnknownTaxonError
from .seqio import DistanceMatrix, TreeNode


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


@dataclass(frozen=True, eq=False)
class TreeIndex:
    """Parent links of a tree: nodes numbered in preorder, the root is 0.

    ``parent[v]`` is the parent of node ``v`` (-1 at the root),
    ``length[v]`` the length of the edge above it and ``end[v]`` one past
    the last node of its subtree, so ``u`` is ``v`` or an ancestor of it
    exactly when ``u <= v < end[u]``.  ``leaf`` maps each leaf label to
    its node.
    """

    parent: np.ndarray
    length: np.ndarray
    end: np.ndarray
    leaf: dict

    def nodes(self, labels) -> np.ndarray:
        """The leaf nodes of an array-like of leaf labels, in its shape."""
        labels = np.asarray(labels, dtype=object)
        try:
            nodes = [self.leaf[lb] for lb in labels.flat]
        except KeyError as exc:
            raise UnknownTaxonError(f"{exc.args[0]!r} is not a leaf of the tree") from None
        return np.array(nodes, dtype=np.int64).reshape(labels.shape)


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
    end = list(range(1, len(parent) + 1))
    for v in range(len(parent) - 1, 0, -1):  # a subtree closes before its parent's
        end[parent[v]] = max(end[parent[v]], end[v])
    return TreeIndex(np.array(parent), np.array(length, dtype=float), np.array(end), leaf)


def _restrict(index: TreeIndex, picks, k: int):
    """Bitmasks and lengths of the kept edges of every row's restriction.

    ``picks`` is an (m, k) array of leaf nodes, distinct in each row; bit
    i of a mask stands for column i.  Returns two (m, 2k - 1) arrays, one
    column per kept node: the picks below it, and the length of the edge
    above it where that edge is a split, 0 elsewhere.  Lengths are summed
    upward from the kept node, the order :func:`induced_subtree` sums them
    in, and may be 0.
    """
    picks = np.asarray(picks)
    if picks.ndim != 2 or picks.shape[1] != k:
        raise InvalidParameterError(
            f"restriction needs {k} leaves per row, got shape {picks.shape}")
    parent, length, end = index.parent, index.length, index.end
    ordered = np.sort(picks, axis=1)  # in preorder
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeated.any():
        label = {v: lb for lb, v in index.leaf.items()}
        raise UnknownTaxonError(f"repeated labels in {[label[v] for v in picks[repeated][0]]}")
    # the kept inner nodes are the lowest common ancestors of picks that
    # are neighbours in preorder: climb from the first until the second
    # lies below
    lca, second = ordered[:, :-1].flatten(), ordered[:, 1:].flatten()
    todo = np.flatnonzero(end[lca] <= second)
    while todo.size:
        lca[todo] = parent[lca[todo]]
        todo = todo[end[lca[todo]] <= second[todo]]
    kept = np.concatenate([picks, lca.reshape(-1, k - 1)], axis=1)
    # the picks below each kept node, and the kept node above it: its
    # lowest kept proper ancestor, else the root
    below = (kept[:, :, None] <= picks[:, None]) & (picks[:, None] < end[kept][:, :, None])
    masks = below @ (1 << np.arange(k))
    above = (kept[:, None] < kept[:, :, None]) & (kept[:, :, None] < end[kept][:, None])
    top = np.where(above, kept[:, None], 0).max(axis=2)
    edge = (kept != 0) & ~np.tril(kept[:, :, None] == kept[:, None], -1).any(axis=2)
    count = below.sum(axis=2)
    split = edge & (count >= 2) & (count < k)
    # a split's length: its own edge, then those of the suppressed nodes
    # up to the kept node above, added one at a time
    total, up, stop = length[kept[split]], parent[kept[split]], top[split]
    todo = np.flatnonzero(up != stop)
    while todo.size:
        total[todo] += length[up[todo]]
        up[todo] = parent[up[todo]]
        todo = todo[up[todo] != stop[todo]]
    lengths = np.zeros(kept.shape)
    lengths[split] = total
    # a root with exactly two kept children, two picks below each: the two
    # edges are one unrooted split, on the side of the first pick
    at_root = edge & (top == 0)
    merge = (at_root.sum(axis=1) == 2) & ((at_root & (count == 2)).sum(axis=1) == 2)
    side = at_root[merge] & (masks[merge] & 1 == 1)
    lengths[merge] = np.where(side, lengths[merge].sum(axis=1)[:, None], 0.0)  # l1 + l2
    return masks, lengths


# leg of a 3-spider by the bitmask of its cherry (bit i = column i of the picks)
_LEGS = np.array([0, 0, 0, 1, 0, 2, 3, 0])


def restrict_to_triplet(index: TreeIndex, picks):
    """Project an indexed tree onto three of its leaves per row, as 3-spider points.

    ``picks`` is an (m, 3) array of leaf nodes (:meth:`TreeIndex.nodes`).
    Returns the legs and coordinates, (m,) each: leg 1, 2 or 3 for the
    cherry of the first and second, first and third, or second and third
    pick, and the interior edge length; leg 0 and 0.0 for the star.
    """
    masks, lengths = _restrict(index, picks, 3)  # at most one split per row
    return (_LEGS[masks] * (lengths != 0)).sum(axis=1), lengths.sum(axis=1)


def restrict_to_quartet(index: TreeIndex, picks):
    """Project an indexed tree onto four of its leaves per row.

    ``picks`` is an (m, 4) array of leaf nodes (:meth:`TreeIndex.nodes`).
    Returns the bitmasks (bit i = column i) and lengths of the kept edges,
    (m, 7) each, length 0 where an edge is no split; ``T4Sample.from_splits`` reads them.
    """
    return _restrict(index, picks, 4)
