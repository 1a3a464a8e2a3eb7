"""Independent oracles used by the test suite.

Everything here recomputes expected values by brute force (grid scans,
shortest paths on a discretized complex, exact tail probabilities,
analytic four-point formulas, restriction by pruning a tree copy)
without touching the code paths under test, beyond the elementary
point/sample containers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.stats import binom

from treestats.errors import InvalidMatrixError, NoComparableSitesError
from treestats.njtree import induced_subtree
from treestats.seqio import DistanceMatrix, GapMode, TreeNode
from treestats.t4space import (
    T4Point,
    _geometry,
    all_splits,
    compatible,
    frechet_function,
)


# --------------------------------------------------------------------------
# sequences: mismatch distances one pair at a time
# --------------------------------------------------------------------------

def mismatch_distance_loop(block, mode, strict_n=False):
    """Mismatch fractions from per-pair column masks, pairs in row-major order.

    The direct restatement of the comparison rules that
    ``seqio.mismatch_distance`` computes with indicator-matrix products.
    """
    def encode(row):
        arr = np.frombuffer(row.encode("ascii"), dtype=np.uint8).copy()
        arr[arr == ord("U")] = ord("T")
        return arr

    gap_code, n_code = ord("-"), ord("N")
    enc = [encode(r) for r in block.rows]
    n = block.n_taxa
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = enc[i], enc[j]
            gap_a = a == gap_code
            gap_b = b == gap_code
            both_gapped = gap_a & gap_b
            comparable = ~gap_a & ~gap_b
            if strict_n:
                match = (a == b) & (a != n_code) & (b != n_code)
            else:
                match = (a == b) | (a == n_code) | (b == n_code)
            if mode is GapMode.IGNORE:
                denom = int(comparable.sum())
                if denom == 0:
                    raise NoComparableSitesError(
                        f"no gap-free columns shared by {block.taxa[i]!r} "
                        f"and {block.taxa[j]!r}"
                    )
                num = int((comparable & ~match).sum())
            else:
                denom = int((~both_gapped).sum())
                if denom == 0:
                    raise NoComparableSitesError(
                        f"all columns gapped for {block.taxa[i]!r} "
                        f"and {block.taxa[j]!r}"
                    )
                one_gapped = gap_a ^ gap_b
                num = int((one_gapped | (comparable & ~match)).sum())
            d[i, j] = d[j, i] = num / denom
    return DistanceMatrix(block.taxa, d)


def distance_csv_per_cell(dm):
    """Distance CSV with ``repr`` taken of every cell, row by row.

    The direct form of ``DistanceMatrix.to_csv``, which formats each
    distinct value once.
    """
    lines = [",".join(dm.taxa)]
    for row in dm.d:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def distance_csv_float_cells(text):
    """``DistanceMatrix.from_csv`` with ``float`` called on every cell.

    The direct form of the parser, which reads the body in one
    ``np.loadtxt`` call.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidMatrixError("empty distance CSV")
    taxa = tuple(t.strip() for t in lines[0].split(","))
    if len(lines) != len(taxa) + 1:
        raise InvalidMatrixError(f"expected {len(taxa)} matrix rows, found {len(lines) - 1}")
    try:
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise InvalidMatrixError(f"bad number in distance CSV: {exc}") from None
    for k, row in enumerate(rows, 1):
        if len(row) != len(taxa):
            raise InvalidMatrixError(
                f"matrix row {k} has {len(row)} entries, expected {len(taxa)}"
            )
    return DistanceMatrix(taxa, np.array(rows))


# --------------------------------------------------------------------------
# neighbor joining with a fresh matrix per join
# --------------------------------------------------------------------------

def neighbor_joining_delete(dm):
    """Neighbor joining that drops row and column ``j`` with ``np.delete``.

    The plain form of ``njtree.neighbor_joining``, which reuses two
    buffers; both must give the same tree, bit for bit.
    """
    d = dm.d.copy()
    nodes = [TreeNode(label=t) for t in dm.taxa]
    while len(nodes) > 3:
        m = len(nodes)
        r = d.sum(axis=0)
        q = (m - 2) * d - r[:, None] - r[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = divmod(int(np.argmin(q)), m)
        if i > j:
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
        d = np.delete(np.delete(d, j, axis=0), j, axis=1)
        nodes.pop(j)
    dxy, dxz, dyz = d[0, 1], d[0, 2], d[1, 2]
    nodes[0].length = max(0.0, 0.5 * (dxy + dxz - dyz))
    nodes[1].length = max(0.0, 0.5 * (dxy + dyz - dxz))
    nodes[2].length = max(0.0, 0.5 * (dxz + dyz - dxy))
    return TreeNode(children=nodes)


# --------------------------------------------------------------------------
# spider: 1D grid minimization of the Frechet function
# --------------------------------------------------------------------------

def spider_grid_minimum(sample, step=1e-4):
    """Brute-force the Frechet minimum over a dense grid on every leg.

    Returns ((leg or None, coordinate), value).  Distances are evaluated
    directly from the metric, not from any closed form.
    """
    codes = np.array([0 if pt.leg is None else pt.leg for pt in sample.points])
    u = np.array([pt.u for pt in sample.points])
    n = len(u)
    w = (
        np.full(n, 1.0 / n)
        if sample.weights is None
        else np.asarray(sample.weights, dtype=float)
    )
    best_val = float((w * u * u).sum())  # the center
    best = (None, 0.0)
    hi = float(u.max()) if n else 0.0
    xs = np.arange(0.0, hi + step, step)
    for a in range(1, sample.p + 1):
        on_leg = codes == a
        dist = np.where(
            on_leg[None, :],
            np.abs(xs[:, None] - u[None, :]),
            xs[:, None] + u[None, :],
        )
        f = (dist * dist) @ w
        k = int(np.argmin(f))
        if f[k] < best_val:
            best_val = float(f[k])
            best = (a, float(xs[k])) if xs[k] > 0 else (None, 0.0)
    return best, best_val


# --------------------------------------------------------------------------
# open book: 2D grid minimization
# --------------------------------------------------------------------------

def openbook_grid_minimum(sample, step=1e-3):
    """Scan the open-book Frechet function on a 2D grid of every leaf.

    Returns ((leaf or None, x1, x2), value).
    """
    codes = np.array([0 if pt.leaf is None else pt.leaf for pt in sample.points])
    x1 = np.array([pt.x1 for pt in sample.points])
    x2 = np.array([pt.x2 for pt in sample.points])
    n = len(x1)
    w = (
        np.full(n, 1.0 / n)
        if sample.weights is None
        else np.asarray(sample.weights, dtype=float)
    )
    g1 = np.arange(0.0, float(x1.max()) + step, step)
    g2 = np.arange(0.0, float(x2.max()) + step, step)
    spine_part = ((g1[:, None] - x1[None, :]) ** 2) @ w  # shared by all leaves
    best = None
    best_val = math.inf
    for a in (1, 2, 3):
        signed = np.where(codes == a, x2, -x2)
        leaf_part = ((g2[:, None] - signed[None, :]) ** 2) @ w
        f = spine_part[:, None] + leaf_part[None, :]
        k = int(np.argmin(f))
        i, j = divmod(k, len(g2))
        val = float(f[i, j])
        if val < best_val:
            best_val = val
            leaf = a if g2[j] > 0 else None
            best = (leaf, float(g1[i]), float(g2[j]))
    return best, best_val


# --------------------------------------------------------------------------
# four-leaf tree space: geodesics by enumerating Petersen paths per pair
# --------------------------------------------------------------------------

_HALF_PI = math.pi / 2.0


def _first_pairs(geom, support):
    """The first edges of the Petersen paths out of a point's support."""
    if len(support) == 2:
        e, f = support
        return [(e, f), (f, e)]
    (e,) = support
    out = []
    for t in geom.adjacency[e]:
        out.append((e, t))
        out.append((t, e))
    return out


def _route(x, y):
    """Shortest route between two points: (length, kind, payload).

    The minimum of the straight segment when one closed quadrant holds
    both points, the straight segments of the unfoldings of every short
    Petersen path from ``x``'s support to ``y``'s whose angle stays below
    pi, and the cone path ``|x| + |y|`` through the origin.
    """
    if x.labels != y.labels:
        raise ValueError("points live over different label universes")
    union = set(x.support) | set(y.support)
    if len(union) <= 1 or (len(union) == 2 and compatible(*union)):
        axes = tuple(union)
        d = math.sqrt(sum((x.get(e) - y.get(e)) ** 2 for e in axes))
        return d, "segment", axes
    rx, ry = x.norm(), y.norm()
    best = (rx + ry, "cone", None)
    geom = _geometry(x.labels)
    sy = set(y.support)
    for first in _first_pairs(geom, x.support):
        for path in geom.paths_by_first[first]:
            if not sy <= {path[-2], path[-1]}:
                continue
            alpha = math.atan2(x.get(path[1]), x.get(path[0]))
            k = len(path) - 1
            beta = (k - 1) * _HALF_PI + math.atan2(y.get(path[-1]), y.get(path[-2]))
            span = beta - alpha
            if span >= math.pi:
                continue
            cand = math.sqrt(max(rx * rx + ry * ry - 2.0 * rx * ry * math.cos(span), 0.0))
            if cand < best[0]:
                best = (cand, "unfold", (path, alpha, beta))
    return best


def route_distance(x, y):
    """Geodesic distance of two tree-space points, by :func:`_route`."""
    return _route(x, y)[0]


def route_geodesic_point(x, y, t):
    """Point at arclength fraction ``t`` along the route of :func:`_route`."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    length, kind, payload = _route(x, y)
    labels = x.labels
    if kind == "segment":
        return T4Point(labels, {e: (1.0 - t) * x.get(e) + t * y.get(e) for e in payload})
    rx, ry = x.norm(), y.norm()
    if kind == "unfold":
        path, alpha, beta = payload
        qx = (1.0 - t) * rx * math.cos(alpha) + t * ry * math.cos(beta)
        qy = (1.0 - t) * rx * math.sin(alpha) + t * ry * math.sin(beta)
        r = math.hypot(qx, qy)
        ang = math.atan2(qy, qx)
        if ang < 0.0:  # unfolded wedges may span past pi; unwrap
            ang += 2.0 * math.pi
        ang = min(max(ang, alpha), beta)
        j = min(max(int(ang // _HALF_PI), 0), len(path) - 2)
        phi = ang - j * _HALF_PI
        c1, c2 = r * math.cos(phi), r * math.sin(phi)
        eps = 1e-12 * max(r, 1.0)
        coords = {}
        if c1 > eps:
            coords[path[j]] = c1
        if c2 > eps:
            coords[path[j + 1]] = c2
        return T4Point(labels, coords)
    s = t * length  # the cone path through the origin
    if s <= rx:
        return T4Point(labels, {e: (rx - s) / rx * x.get(e) for e in x.support})
    return T4Point(labels, {e: (s - rx) / ry * y.get(e) for e in y.support})


def route_frechet_function(x, sample):
    """Weighted mean squared :func:`route_distance` from ``x`` to the sample."""
    wts = sample.normalized_weights()
    return float(sum(w * route_distance(x, pt) ** 2 for w, pt in zip(wts, sample.points)))


# --------------------------------------------------------------------------
# four-leaf tree space: Dijkstra on a discretized complex
# --------------------------------------------------------------------------

def t4_shortest_path(x, y, h=0.02):
    """Shortest-path distance on the discretized two-complex.

    Axes carry radial grid nodes at spacing ``h``; every quadrant
    contributes the straight chords between grid nodes on its two
    boundary axes, and the endpoints connect into each quadrant that
    contains them.  Every graph edge is a genuine path in the space, so
    the value upper-bounds the true geodesic distance and converges to
    it as ``h`` shrinks.
    """
    labels = x.labels
    splits = all_splits(labels)
    radius = max(x.norm(), y.norm(), h)
    m = int(math.ceil(radius / h)) + 1
    radii = h * np.arange(1, m + 1)

    # node ids: 0 = origin, then m per axis, then x, y
    def axis_node(a_idx, k):
        return 1 + a_idx * m + k

    n_nodes = 1 + len(splits) * m + 2
    x_node, y_node = n_nodes - 2, n_nodes - 1
    rows, cols, weights = [], [], []

    def add_arrays(r, c, w):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        weights.append(np.asarray(w, dtype=float))

    for a_idx in range(len(splits)):
        ids = axis_node(a_idx, 0) + np.arange(m)
        add_arrays(
            np.concatenate(([0], ids[:-1])),
            ids,
            np.full(m, h),
        )
    quadrants = []
    for i, e in enumerate(splits):
        for f in splits[i + 1 :]:
            if compatible(e, f):
                quadrants.append((e, f))
    index = {s: i for i, s in enumerate(splits)}
    for e, f in quadrants:
        ide = axis_node(index[e], 0) + np.arange(m)
        idf = axis_node(index[f], 0) + np.arange(m)
        rr = np.repeat(ide, m)
        cc = np.tile(idf, m)
        ww = np.sqrt((radii[:, None] ** 2 + radii[None, :] ** 2)).ravel()
        add_arrays(rr, cc, ww)

    endpoint_edges = {}

    def connect(node_id, pt):
        support = set(pt.support)
        endpoint_edges[(node_id, 0)] = min(
            endpoint_edges.get((node_id, 0), math.inf), pt.norm()
        )
        for e, f in quadrants:
            if not support <= {e, f}:
                continue
            ce, cf = pt.get(e), pt.get(f)
            for g, cg, other in ((e, ce, cf), (f, cf, ce)):
                ids = axis_node(index[g], 0) + np.arange(m)
                dist = np.sqrt((cg - radii) ** 2 + other * other)
                for nid, dd in zip(ids, dist):
                    key = (node_id, int(nid))
                    if dd < endpoint_edges.get(key, math.inf):
                        endpoint_edges[key] = float(dd)

    connect(x_node, x)
    connect(y_node, y)
    ux = set(x.support) | set(y.support)
    if len(ux) <= 1 or (len(ux) == 2 and compatible(*sorted(ux, key=lambda s: sorted(s)))):
        d2 = 0.0
        for e in ux:
            d2 += (x.get(e) - y.get(e)) ** 2
        endpoint_edges[(x_node, y_node)] = math.sqrt(d2)

    if endpoint_edges:
        er, ec, ew = zip(*((r, c, w) for (r, c), w in endpoint_edges.items()))
        add_arrays(er, ec, ew)
    graph = csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    )
    dist = dijkstra(graph, directed=False, indices=x_node)
    return float(dist[y_node])


def t4_grid_frechet_minimum(sample, step=0.05, radius=None):
    """Grid-restricted Frechet minimization over all closed quadrants.

    Uses :func:`route_frechet_function`, so the implementation's mean is
    checked against distances it did not compute.  Returns (point, value).
    """
    labels = sample.labels
    splits = all_splits(labels)
    if radius is None:
        radius = max(pt.norm() for pt in sample.points) + step
    grid = np.arange(0.0, radius + step, step)
    best = T4Point(labels, {})
    best_val = route_frechet_function(best, sample)
    for i, e in enumerate(splits):
        for f in splits[i + 1 :]:
            if not compatible(e, f):
                continue
            for s in grid:
                for t in grid:
                    pt = T4Point(labels, {e: s, f: t})
                    val = route_frechet_function(pt, sample)
                    if val < best_val:
                        best_val = val
                        best = pt
    return best, best_val


def _snap_point(labels, coords: dict, eps: float = 1e-9) -> T4Point:
    return T4Point(labels, {e: v for e, v in coords.items() if v > eps})


def t4_mean_inductive_polish(sample, epochs=50, seed=0, movement_tol=1e-8):
    """The original two-stage T4 mean; returns (point, Frechet value).

    A seeded inductive pass pulls the estimate along geodesics with step
    ``1/(k+1)``; then L-BFGS-B with finite differences minimizes the
    Frechet value on every closed quadrant from that estimate, and the
    best of those minima, the origin and the inductive estimate wins.
    """
    from scipy.optimize import minimize

    labels = sample.labels
    wts = sample.normalized_weights()

    union = set()
    for pt in sample.points:
        union |= set(pt.support)
    if len(union) <= 1 or (len(union) == 2 and compatible(*union)):
        coords = {
            e: float(sum(w * pt.get(e) for w, pt in zip(wts, sample.points)))
            for e in union
        }
        mean = _snap_point(labels, coords, eps=0.0)
        return mean, route_frechet_function(mean, sample)

    rng = np.random.default_rng(seed)
    n = len(sample.points)
    uniform = sample.weights is None
    current = None
    count = 0
    for _ in range(epochs):
        order = (
            rng.permutation(n)
            if uniform
            else rng.choice(n, size=n, p=wts, replace=True)
        )
        start = current
        for idx in order:
            pt = sample.points[int(idx)]
            if current is None:
                current = pt
                count = 1
            else:
                current = route_geodesic_point(current, pt, 1.0 / (count + 1))
                count += 1
        if start is not None and route_distance(start, current) < movement_tol:
            break

    current = _snap_point(labels, current.coords)
    best_point = current
    best_value = route_frechet_function(current, sample)
    geom = _geometry(labels)
    star = T4Point(labels, {})
    candidates = [(route_frechet_function(star, sample), star)]
    for i, e in enumerate(geom.splits):
        for f in geom.splits[i + 1 :]:
            if not compatible(e, f):
                continue

            def fun(v, e=e, f=f):
                coords = {}
                if v[0] > 0:
                    coords[e] = v[0]
                if v[1] > 0:
                    coords[f] = v[1]
                return route_frechet_function(T4Point(labels, coords), sample)

            x0 = np.array([max(current.get(e), 0.0), max(current.get(f), 0.0)])
            res = minimize(
                fun,
                x0,
                method="L-BFGS-B",
                bounds=[(0.0, None), (0.0, None)],
                options={"maxiter": 100},
            )
            pt = _snap_point(labels, {e: float(res.x[0]), f: float(res.x[1])})
            candidates.append((route_frechet_function(pt, sample), pt))
    val, pt = min(candidates, key=lambda c: c[0])
    if val <= best_value:
        best_value, best_point = val, pt
    return best_point, best_value


def t4_descent(sample, mean, value, step=1e-3):
    """Largest drop of the Frechet function over short steps from ``mean``.

    Steps of ``step`` x sqrt(value) go along the 8 compass directions of
    every closed quadrant that contains the mean's support.
    """
    h = step * math.sqrt(value)
    support = set(mean.support)
    worst = 0.0
    for e, f in _geometry(sample.labels).quadrants:
        if not support <= {e, f}:
            continue
        for de, df in ((1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            scale = h / math.hypot(de, df)
            moved = T4Point(sample.labels, {
                e: max(mean.get(e) + scale * de, 0.0),
                f: max(mean.get(f) + scale * df, 0.0),
            })
            worst = max(worst, value - frechet_function(moved, sample))
    return worst


# --------------------------------------------------------------------------
# trees: random generation, bipartitions, four-point condition
# --------------------------------------------------------------------------

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


def choice_picks(pools, reps, seed):
    """Grouped picks drawn one at a time: ``rng.choice(pool)`` per
    repetition, pool after pool; a list of rows of pool entries."""
    rng = np.random.default_rng(seed)
    arrays = [np.array(pool) for pool in pools]
    return [[rng.choice(pool).item() for pool in arrays] for _ in range(reps)]


def random_binary_tree(labels, rng, lo=0.1, hi=1.0) -> TreeNode:
    """Random rooted binary tree with branch lengths in [lo, hi]."""
    nodes = [TreeNode(label=lb, length=rng.uniform(lo, hi)) for lb in labels]
    while len(nodes) > 1:
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False))
        merged = TreeNode(
            length=rng.uniform(lo, hi), children=[nodes[i], nodes[j]]
        )
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [merged]
    root = nodes[0]
    root.length = 0.0
    return root


def pruned_splits(tree: TreeNode, picks) -> list[tuple[frozenset, float]]:
    """Splits of a tree restricted to k picked leaves, by pruning a copy.

    The (cluster, length) of every edge of ``induced_subtree`` (the root
    kept as an extra terminal) whose cluster holds 2..k-1 picks, in
    depth-first order.  When the induced root has two children with two
    picks each, the two edges are one unrooted split: they merge into the
    side holding ``picks[0]``, with the lengths summed.  Zero lengths are
    dropped.
    """
    sub = induced_subtree(tree, picks)
    found = []

    def visit(node) -> frozenset:
        if node.is_leaf():
            cl = frozenset([node.label])
        else:
            cl = frozenset().union(*(visit(c) for c in node.children))
        if node is not sub and 2 <= len(cl) <= len(picks) - 1:
            found.append((cl, node.length))
        return cl

    visit(sub)
    if len(found) == 2 and len(sub.children) == 2:
        (c1, l1), (c2, l2) = found
        if len(c1) == 2 and len(c2) == 2 and not (c1 & c2):
            found = [(c1 if picks[0] in c1 else c2, l1 + l2)]
    return [(c, l) for c, l in found if l != 0]


def unrooted_bipartitions(tree: TreeNode) -> set:
    """Nontrivial unrooted splits, encoded as the side without the min leaf."""
    all_leaves = frozenset(tree.leaf_labels())
    ref = min(all_leaves)
    out = set()

    def visit(node) -> frozenset:
        if node.is_leaf():
            return frozenset([node.label])
        below = frozenset().union(*(visit(c) for c in node.children))
        if node is not tree and 2 <= len(below) <= len(all_leaves) - 2:
            side = below if ref not in below else all_leaves - below
            if 2 <= len(side) <= len(all_leaves) - 2:
                out.add(side)
        return below

    visit(tree)
    return out


def four_point_topology(dm, labels):
    """Quartet topology by the four-point condition, plus the interior length.

    Enumerates the three pairings and picks the one whose cross sums
    dominate; returns (frozenset pair grouped together, interior length).
    """
    a, b, c, d = labels
    dd = {(s, t): dm.value(s, t) for s in labels for t in labels if s != t}
    pairings = [
        (frozenset((a, b)), dd[a, b] + dd[c, d]),
        (frozenset((a, c)), dd[a, c] + dd[b, d]),
        (frozenset((a, d)), dd[a, d] + dd[b, c]),
    ]
    sums = sorted(p[1] for p in pairings)
    best = min(pairings, key=lambda p: p[1])
    interior = (sums[-1] - sums[0]) / 2.0
    return best[0], interior


# --------------------------------------------------------------------------
# exact stickiness probability for symmetric point-mass laws
# --------------------------------------------------------------------------

def exact_stick_probability(n: int, p: int) -> float:
    """P(sample mean == center) for the symmetric p-leg point-mass law.

    The mean leaves the center exactly when one leg holds more than half
    the sample; those events are disjoint across legs, so the probability
    is one minus p times a binomial tail.
    """
    return 1.0 - p * float(binom.sf(n // 2, n, 1.0 / p))


# --------------------------------------------------------------------------
# simulation: one generator per replicate, seeded by numpy itself
# --------------------------------------------------------------------------

def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator of replicate ``rep`` of a seeded simulation: PCG64 from
    ``SeedSequence([seed, rep])``, built by numpy's own seeding."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(rep)]))
