"""Reference outputs of the seed-commit program, and the output checks.

The program's own code cannot be its reference: the changes this
benchmark exists to measure rewrite it.  This module restates the seed
commit's semantics compactly and independently of ``src/``:

* distance CSV, Newick and sample JSON are recomputed with the seed's
  arithmetic and must match the program's files byte for byte;
* spider means and simulate reports are recomputed from the same seeded
  streams; their result fields must agree within ``RTOL``/``ATOL``;
* the four-leaf (T4) mean is checked through its defining property: the
  reported ``frechet_value`` must equal the Frechet function at the
  reported mean (within ``RTOL``), and no step of ``STEP`` x intrinsic
  sd away from the mean, inside any closed quadrant that contains it,
  may lower that function by more than ``RTOL`` of its value.  The
  space is CAT(0), so the Frechet function is convex and a point passing
  this test is the mean up to the step size.  The inductive-stage
  diagnostics (``epochs_run``, ``converged``, ``last_epoch_movement``,
  ``polish_shift``, ``method``) are deliberately not checked.

``Checker(perturb=True)`` is the negative control: every comparison is
made against a deliberately wrong reference, so every invocation fails.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import kstest

RTOL = 1e-7
ATOL = 1e-12
STEP = 1e-2
_HALF_PI = math.pi / 2.0
_GAP, _N = ord("-"), ord("N")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# distances (gaps ignored, N matches everything)
# --------------------------------------------------------------------------

def _indicator(mask: np.ndarray) -> np.ndarray:
    return mask.astype(np.float64)


def distance_matrix(rows: np.ndarray) -> np.ndarray:
    """Mismatch fractions from exact indicator-matrix counts."""
    gapless = _indicator(rows != _GAP)
    wild = _indicator(rows == _N)
    comparable = gapless @ gapless.T
    matches = wild @ gapless.T + gapless @ wild.T - wild @ wild.T
    for base in b"ACGT":
        x = _indicator(rows == base)
        matches += x @ x.T
    num = np.rint(comparable - matches).astype(np.int64)
    den = np.rint(comparable).astype(np.int64)
    if (den == 0).any():
        raise ValueError("a taxon pair shares no gap-free column")
    d = num / den
    np.fill_diagonal(d, 0.0)
    return d


def distance_csv(taxa, d: np.ndarray) -> str:
    lines = [",".join(taxa)]
    lines.extend(",".join(repr(float(x)) for x in row) for row in d)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# neighbor joining and restriction
# --------------------------------------------------------------------------

class Node:
    __slots__ = ("label", "length", "children")

    def __init__(self, label=None, length=0.0, children=()):
        self.label, self.length, self.children = label, float(length), list(children)

    def leaves(self):
        stack, out = [self], []
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return out


def neighbor_joining(taxa, dist: np.ndarray) -> Node:
    d = dist.copy()
    nodes = [Node(t) for t in taxa]
    while len(nodes) > 3:
        m = len(nodes)
        r = d.sum(axis=0)
        q = (m - 2) * d - r[:, None] - r[None, :]
        np.fill_diagonal(q, np.inf)
        i, j = sorted(divmod(int(np.argmin(q)), m))  # q is symmetric only up to rounding
        li = 0.5 * d[i, j] + (r[i] - r[j]) / (2 * (m - 2))
        lj = d[i, j] - li
        if li < 0:
            lj += li
            li = 0.0
        if lj < 0:
            li = max(0.0, li + lj)
            lj = 0.0
        nodes[i].length, nodes[j].length = li, lj
        joined = Node(children=[nodes[i], nodes[j]])
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
    return Node(children=nodes)


def newick(tree: Node) -> str:
    def render(node):
        if not node.children:
            return f"{node.label}:{node.length:.6g}"
        return f"({','.join(render(c) for c in node.children)}):{node.length:.6g}"

    return f"({','.join(render(c) for c in tree.children)});\n"


def _induced(tree: Node, keep) -> Node:
    def prune(node):
        if not node.children:
            return Node(node.label, node.length) if node.label in keep else None
        kept = [c for c in map(prune, node.children) if c is not None]
        if not kept:
            return None
        if len(kept) == 1:
            kept[0].length += node.length
            return kept[0]
        return Node(node.label, node.length, kept)

    return Node(tree.label, 0.0, [c for c in map(prune, tree.children) if c is not None])


def _clusters(root: Node, lo: int, hi: int):
    out = []

    def visit(node):
        if not node.children:
            cl = frozenset([node.label])
        else:
            cl = frozenset().union(*(visit(c) for c in node.children))
        if node is not root and lo <= len(cl) <= hi:
            out.append((cl, node.length))
        return cl

    visit(root)
    return out


def _split_key(split):
    return (len(split), tuple(sorted(split)))


def sample_document(tree: Node, groups: dict, k: int, reps: int, seed: int) -> dict:
    """The seed's grouped resampling: one spider or T4 point per repetition."""
    members: dict[str, list[str]] = {}
    for taxon, group in groups.items():
        members.setdefault(group, []).append(taxon)
    names = sorted(members)
    for g in names:
        members[g].sort()
    legs = {frozenset(names[:2]): 1, frozenset((names[0], names[2])): 2,
            frozenset(names[1:3]): 3}
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(reps):
        picked = {g: str(rng.choice(members[g])) for g in names}
        group_of = {t: g for g, t in picked.items()}
        sub = _induced(tree, set(picked.values()))
        for leaf in sub.leaves():
            leaf.label = group_of[leaf.label]
        sub = _induced(sub, set(names))
        if k == 3:
            found = _clusters(sub, 2, 2)
            if found and found[0][1] != 0:
                points.append({"leg": legs[found[0][0]], "u": found[0][1]})
            else:
                points.append({"leg": None, "u": 0.0})
            continue
        found = _clusters(sub, 2, 3)
        if len(found) == 2 and len(sub.children) == 2:
            (c1, l1), (c2, l2) = found
            if len(c1) == 2 and len(c2) == 2 and not (c1 & c2):
                found = [(c1 if min(c1 | c2) in c1 else c2, l1 + l2)]
        splits = sorted(((c, float(l)) for c, l in found if l != 0),
                        key=lambda cl: _split_key(cl[0]))
        points.append({"splits": [{"cluster": sorted(c), "length": l}
                                  for c, l in splits]})
    if k == 3:
        return {"p": 3, "points": points}
    return {"labels": names, "points": points}


# --------------------------------------------------------------------------
# spider and open-book means (moment gaps)
# --------------------------------------------------------------------------

def _gaps(v):
    total = sum(v)
    return [va - (total - va) for va in v]


def spider_summary(codes: np.ndarray, u: np.ndarray, p: int = 3):
    wts = np.full(len(u), 1.0 / len(u))
    w0 = float(wts[codes == 0].sum())
    w, nu = [], []
    for a in range(1, p + 1):
        mask = codes == a
        wa = float(wts[mask].sum())
        w.append(wa)
        nu.append(float((wts[mask] * u[mask]).sum()) / wa if wa > 0 else 0.0)
    theta = _gaps([wa * na for wa, na in zip(w, nu)])
    best = max(range(p), key=lambda a: theta[a])
    leg, mean_u = (best + 1, theta[best]) if theta[best] > 0 else (None, 0.0)
    dist = np.where(codes == (leg or 0), np.abs(u - mean_u), u + mean_u)
    sd = math.sqrt(float((wts * dist * dist).sum()))
    return w0, w, nu, theta, best, leg, mean_u, sd


def t3_report(sample: dict) -> dict:
    pts = sample["points"]
    codes = np.array([pt["leg"] or 0 for pt in pts], dtype=np.int64)
    u = np.array([pt["u"] for pt in pts], dtype=float)
    w0, w, nu, theta, best, leg, mean_u, sd = spider_summary(codes, u)
    if leg is not None:
        verdict = {"kind": "non_sticky", "leg": leg}
    elif theta[best] >= 0:
        verdict = {"kind": "boundary", "leg": best + 1}
    else:
        verdict = {"kind": "sticky", "leg": None}
    tree_type = {None: "(a,b,c)", 1: "((a,b),c)", 2: "((a,c),b)", 3: "((b,c),a)"}[leg]
    return {"space": "t3", "tree_type": tree_type, "p": 3, "n": len(pts), "w0": w0,
            "w": w, "nu": nu, "theta": theta, "verdict": verdict,
            "mean": {"leg": leg, "u": mean_u}, "intrinsic_sd": sd}


# --------------------------------------------------------------------------
# four-leaf tree space: geodesic distance and the Frechet function
# --------------------------------------------------------------------------

def _compatible(a, b) -> bool:
    return a <= b or b <= a or not (a & b)


class T4Geometry:
    """Split axes of four labels and the Petersen paths geodesics unfold along."""

    def __init__(self, labels):
        labels = sorted(labels)
        pairs = [frozenset((a, b)) for i, a in enumerate(labels) for b in labels[i + 1:]]
        triples = [frozenset(labels) - {x} for x in labels]
        self.labels = tuple(labels)
        self.splits = sorted(pairs + triples, key=_split_key)
        self.adjacency = {s: [t for t in self.splits if t != s and _compatible(s, t)]
                          for s in self.splits}
        self.paths = {}
        for e0 in self.splits:
            for e1 in self.adjacency[e0]:
                paths = [(e0, e1)]
                for e2 in self.adjacency[e1]:
                    if e2 != e0:
                        paths.append((e0, e1, e2))
                        paths.extend((e0, e1, e2, e3) for e3 in self.adjacency[e2]
                                     if e3 not in (e0, e1, e2))
                self.paths[(e0, e1)] = paths
        self.quadrants = [(e, f) for i, e in enumerate(self.splits)
                          for f in self.splits[i + 1:] if _compatible(e, f)]

    def distance(self, x: dict, y: dict) -> float:
        """Geodesic distance between points given as {split: length}."""
        union = set(x) | set(y)
        if len(union) <= 1 or (len(union) == 2 and _compatible(*union)):
            return math.sqrt(sum((x.get(e, 0.0) - y.get(e, 0.0)) ** 2 for e in union))
        rx = math.sqrt(sum(v * v for v in x.values()))
        ry = math.sqrt(sum(v * v for v in y.values()))
        best = rx + ry  # the cone path through the star tree
        sx = sorted(x, key=_split_key)
        if len(sx) == 2:
            firsts = [(sx[0], sx[1]), (sx[1], sx[0])]
        else:
            firsts = [p for t in self.adjacency[sx[0]] for p in ((sx[0], t), (t, sx[0]))]
        sy = set(y)
        for first in firsts:
            for path in self.paths[first]:
                if not sy <= {path[-2], path[-1]}:
                    continue
                alpha = math.atan2(x.get(path[1], 0.0), x.get(path[0], 0.0))
                beta = (len(path) - 2) * _HALF_PI + math.atan2(
                    y.get(path[-1], 0.0), y.get(path[-2], 0.0))
                span = beta - alpha
                if span < math.pi:
                    best = min(best, math.sqrt(max(
                        rx * rx + ry * ry - 2.0 * rx * ry * math.cos(span), 0.0)))
        return best

    def frechet(self, x: dict, points) -> float:
        return sum(self.distance(x, y) ** 2 for y in points) / len(points)


def t4_points(sample: dict):
    return [{frozenset(s["cluster"]): float(s["length"]) for s in pt["splits"]}
            for pt in sample["points"]]


def t4_tree_type(labels, clusters) -> str:
    groups = [(frozenset([lb]), str(lb)) for lb in sorted(labels)]
    for cluster in sorted(clusters, key=len):
        inside = [g for g in groups if g[0] <= cluster]
        outside = [g for g in groups if not g[0] <= cluster]
        merged = frozenset().union(*(g[0] for g in inside))
        inner = ",".join(g[1] for g in sorted(inside, key=lambda g: min(g[0])))
        groups = outside + [(merged, f"({inner})")]
    groups.sort(key=lambda g: min(g[0]))
    return "(" + ",".join(g[1] for g in groups) + ")"


def t4_descent(geom: T4Geometry, points, mean: dict, value: float) -> float:
    """Largest drop of the Frechet function over steps away from ``mean``.

    Steps of ``STEP`` x sqrt(value) go along the 8 compass directions of
    every closed quadrant that contains the mean's support.
    """
    h = STEP * math.sqrt(value)
    support = set(mean)
    worst = 0.0
    for quad in geom.quadrants:
        if not support <= set(quad):
            continue
        e, f = quad
        for de, df in ((1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            scale = h / math.hypot(de, df)
            step = {e: max(mean.get(e, 0.0) + scale * de, 0.0),
                    f: max(mean.get(f, 0.0) + scale * df, 0.0)}
            step = {s: v for s, v in step.items() if v > 0.0}
            worst = max(worst, value - geom.frechet(step, points))
    return worst


# --------------------------------------------------------------------------
# limit-law simulation
# --------------------------------------------------------------------------

def _moments(dist: dict) -> tuple[float, float]:
    if dist["kind"] == "uniform":
        lo, hi = dist["lo"], dist["hi"]
        return 0.5 * (lo + hi), (lo * lo + lo * hi + hi * hi) / 3.0
    if dist["kind"] == "exponential":
        return 1.0 / dist["rate"], 2.0 / dist["rate"] ** 2
    return dist["u"], dist["u"] ** 2


def _draw(dist: dict, rng, size: int) -> np.ndarray:
    if dist["kind"] == "uniform":
        return rng.uniform(dist["lo"], dist["hi"], size)
    if dist["kind"] == "exponential":
        return rng.exponential(1.0 / dist["rate"], size)
    return np.full(size, float(dist["u"]))


def _regime(theta) -> str:
    t = max(theta)
    return "i" if t > 0 else ("ii" if t == 0 else "iii")


def _ks(values, law_name):
    stat, pvalue = kstest(values, law_name)
    return float(stat), float(pvalue)


def simulate_report(law: dict, n: int, reps: int, seed: int) -> dict:
    """The seed's simulate / simulate_openbook report, runtime excluded."""
    book = law["space"] == "openbook"
    weights = law["weights"]
    legs = [leaf["x2"] for leaf in law["leaves"]] if book else law["legs"]
    mom = [_moments(d) for d in legs]
    theta = _gaps([w * m for w, (m, _) in zip(weights, mom)])
    regime = _regime(theta)
    a_star = int(np.argmax(theta))
    second = sum(w * m2 for w, (_, m2) in zip(weights, mom))
    sigma2 = second - theta[a_star] ** 2
    if book:
        mom1 = [_moments(leaf["x1"]) for leaf in law["leaves"]]
        mu1 = sum(w * m for w, (m, _) in zip(weights, mom1))
        sigma1 = math.sqrt(max(sum(w * m2 for w, (_, m2) in zip(weights, mom1))
                               - mu1 * mu1, 0.0))

    stats = np.empty(reps)
    spine = np.empty(reps)
    stuck = 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), rep]))
        leg_of = rng.choice(len(weights), size=n, p=np.asarray(weights))
        u = np.empty(n)
        x1 = np.empty(n)
        for a, dist in enumerate(legs):
            mask = leg_of == a
            k = int(mask.sum())
            if k:
                if book:
                    x1[mask] = _draw(law["leaves"][a]["x1"], rng, k)
                u[mask] = _draw(dist, rng, k)
        codes = np.where(u == 0.0, 0, leg_of + 1)
        _, _, _, th, _, leg, mean_u, _ = spider_summary(codes, u, len(weights))
        stuck += leg is None
        if book:
            spine[rep] = float((np.full(n, 1.0 / n) * x1).sum()) - mu1
        if regime == "i":
            folded = mean_u if leg == a_star + 1 else (0.0 if leg is None else -mean_u)
            stats[rep] = folded - theta[a_star]
        else:
            stats[rep] = th[a_star]

    sigma = math.sqrt(max(sigma2, 0.0))
    ks = ks2 = (None, None)
    if book:
        degenerate = sigma1 * sigma1 <= 1e-15
        if not degenerate:
            ks = _ks(math.sqrt(n) * spine / sigma1, "norm")
        if sigma * sigma > 1e-15 and regime == "i":
            ks2 = _ks(math.sqrt(n) * stats / sigma, "norm")
        elif sigma * sigma > 1e-15 and regime == "ii":
            ks2 = _ks(math.sqrt(n) * np.abs(stats) / sigma, "halfnorm")
    else:
        degenerate = sigma2 <= 1e-15
        if not degenerate and regime == "i":
            ks = _ks(math.sqrt(n) * stats / sigma, "norm")
        elif not degenerate and regime == "ii":
            ks = _ks(math.sqrt(n) * np.abs(stats) / sigma, "halfnorm")
    return {"space": "openbook" if book else "spider", "regime": regime, "n": n,
            "replications": reps, "stick_fraction": stuck / reps, "theta": theta,
            "ks_statistic": ks[0], "ks_pvalue": ks[1],
            "ks_statistic_secondary": ks2[0], "ks_pvalue_secondary": ks2[1],
            "degenerate": degenerate}


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------

class Checker:
    """Compares program outputs with references; collects the mismatches.

    With ``perturb`` every reference is deliberately wrong (the negative
    control), so every check must fail.
    """

    def __init__(self, perturb: bool = False):
        self.perturb = perturb

    def same_text(self, what: str, actual: str, expected: str) -> list[str]:
        if self.perturb:
            expected += "\0"
        return [] if actual == expected else [f"{what}: differs from the reference"]

    def close(self, what: str, actual, expected) -> list[str]:
        """Recursive comparison: numbers within RTOL/ATOL, the rest exactly."""
        if isinstance(expected, dict):
            if not isinstance(actual, dict) or not set(expected) <= set(actual):
                return [f"{what}: missing fields"]
            return [m for k in expected
                    for m in self.close(f"{what}.{k}", actual[k], expected[k])]
        if isinstance(expected, list):
            if not isinstance(actual, list) or len(actual) != len(expected):
                return [f"{what}: length differs"]
            return [m for i, (a, e) in enumerate(zip(actual, expected))
                    for m in self.close(f"{what}[{i}]", a, e)]
        if isinstance(expected, float) and not isinstance(actual, bool) \
                and isinstance(actual, (int, float)):
            if self.perturb:
                expected = expected * (1 + 1e-3) + 1e-3
            ok = abs(actual - expected) <= ATOL + RTOL * abs(expected)
            return [] if ok else [f"{what}: {actual!r} != {expected!r}"]
        return [] if actual == expected else [f"{what}: {actual!r} != {expected!r}"]

    def t4_mean(self, report: dict, sample: dict) -> list[str]:
        geom = T4Geometry(sample["labels"])
        points = t4_points(sample)
        mean = t4_points({"points": [report["mean"]]})[0]
        value = geom.frechet(mean, points)
        expected = {"space": "t4", "n": len(points), "labels": sorted(sample["labels"]),
                    "tree_type": t4_tree_type(geom.labels, mean),
                    "frechet_value": value, "intrinsic_sd": math.sqrt(value)}
        bad = self.close("mean", report, expected)
        drop = t4_descent(geom, points, mean, value)
        if drop > RTOL * value:
            bad.append(f"mean: Frechet function drops by {drop:.3g} near the mean")
        return bad
