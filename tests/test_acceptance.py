"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

from oracles import (
    compatible_pairs,
    exact_stick_probability,
    openbook_grid_minimum,
    random_binary_tree,
    route_geodesic_point,
    spider_grid_minimum,
    t4_shortest_path,
    tree_distance_matrix,
    unrooted_bipartitions,
)
from treestats.mcsim import (
    OpenBookLaw,
    PointMass,
    Regime,
    SpiderLaw,
    Uniform,
    simulate,
    spine_coverage,
)
from treestats.njtree import neighbor_joining
from treestats.openbook import OpenBookPoint, OpenBookSample, openbook_distance, openbook_mean
from treestats.spider import (
    SpiderMeasureSummary,
    SpiderPoint,
    SpiderSample,
    intrinsic_mean,
    spider_distance,
)
from treestats.spider import frechet_function as spider_frechet
from treestats.t4space import (
    T4Point,
    all_splits,
    t4_distance,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


# --------------------------------------------------------------------------
# 1. table reproduction
# --------------------------------------------------------------------------

TABLES = {
    "continents": (
        SpiderMeasureSummary(3, 0.0, (25 / 59, 16 / 59, 18 / 59),
                             (2.3938, 2.1342, 2.8401)),
        (-0.4, -1.3, -0.7),
        "sticky",
    ),
    "north_america": (
        SpiderMeasureSummary(3, 0.0, (16 / 30, 7 / 30, 7 / 30),
                             (1.2474, 0.9424, 0.9395)),
        (0.2, -0.7, -0.7),
        "non_sticky",
    ),
    "asia": (
        SpiderMeasureSummary(3, 0.0, (12 / 30, 7 / 30, 21 / 30),
                             (0.4853, 1.0976, 1.5386)),
        (-1.1, -1.0, 0.6),
        "non_sticky",
    ),
    "europe": (
        SpiderMeasureSummary(3, 0.0, (10 / 30, 6 / 30, 14 / 30),
                             (1.7743, 0.2151, 2.5628)),
        (-0.6, -1.7, 0.6),
        "non_sticky",
    ),
}


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    ok = True
    for name, (summary, printed_theta, printed_verdict) in TABLES.items():
        rep = intrinsic_mean(summary)
        for gap, expected in zip(rep.theta, printed_theta):
            ok &= abs(gap - expected) <= 0.05
        ok &= rep.verdict.kind == printed_verdict
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "table reproduction", ok, f"{elapsed:.3f}s")
    assert ok


# --------------------------------------------------------------------------
# 2. spider oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_2_spider_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_loc, worst_val = 0.0, 0.0
    for _ in range(500):
        p = int(rng.integers(3, 6))
        n = int(rng.integers(2, 51))
        legs = rng.integers(1, p + 1, size=n)
        u = rng.uniform(0.01, 2.0, size=n)
        sample = SpiderSample(
            p, tuple(SpiderPoint(int(a), float(x)) for a, x in zip(legs, u))
        )
        rep = intrinsic_mean(sample)
        (leg, coord), oracle_val = spider_grid_minimum(sample, step=1e-4)
        worst_loc = max(
            worst_loc, spider_distance(rep.mean, SpiderPoint(leg, coord))
        )
        worst_val = max(
            worst_val, abs(spider_frechet(rep.mean, sample) - oracle_val)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_loc <= 1e-3 and worst_val <= 1e-6 and elapsed < 30.0
    report(2, "spider grid-oracle equivalence", ok,
           f"max loc err {worst_loc:.2e}, max F err {worst_val:.2e}, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 3. open-book oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_3_openbook_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3033)
    worst_loc = 0.0
    verdicts_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 31))
        leaves = rng.integers(1, 4, size=n)
        x1 = rng.uniform(0.0, 1.5, size=n)
        x2 = rng.uniform(0.01, 1.5, size=n)
        sample = OpenBookSample(tuple(
            OpenBookPoint(int(a), float(b), float(c))
            for a, b, c in zip(leaves, x1, x2)
        ))
        rep = openbook_mean(sample)
        (leaf, g1, g2), oracle_val = openbook_grid_minimum(sample, step=1e-3)
        # the grid cannot resolve verdicts below its own step; there the
        # location agreement is the binding check
        if abs(max(rep.theta2)) > 1e-3:
            verdicts_ok &= (rep.mean.leaf is None) == (leaf is None)
        worst_loc = max(
            worst_loc, openbook_distance(rep.mean, OpenBookPoint(leaf, g1, g2))
        )
    elapsed = time.perf_counter() - t0
    ok = verdicts_ok and worst_loc <= 2e-3 and elapsed < 60.0
    report(3, "open-book grid-oracle equivalence", ok,
           f"max loc err {worst_loc:.2e}, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 4. tree-space geodesic oracle
# --------------------------------------------------------------------------

def _random_t4_point(rng, quadrants, scale=2.0):
    q = quadrants[int(rng.integers(0, len(quadrants)))]
    e, f = q
    r = rng.random()
    if r < 0.125:
        return T4Point((1, 2, 3, 4), {e: float(rng.uniform(0.05, scale))})
    if r < 0.25:
        return T4Point((1, 2, 3, 4), {f: float(rng.uniform(0.05, scale))})
    return T4Point((1, 2, 3, 4), {
        e: float(rng.uniform(0.05, scale)), f: float(rng.uniform(0.05, scale))
    })


def test_criterion_4_t4_distance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4044)
    quadrants = compatible_pairs((1, 2, 3, 4))
    h = 0.02
    worst = 0.0
    cone_ok = realizable_ok = True
    for _ in range(200):
        x = _random_t4_point(rng, quadrants)
        y = _random_t4_point(rng, quadrants)
        d = t4_distance(x, y)
        oracle = t4_shortest_path(x, y, h=h)
        worst = max(worst, abs(d - oracle))
        realizable_ok &= d <= oracle + 1e-9
        cone_ok &= d <= x.norm() + y.norm() + 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 2 * h and cone_ok and realizable_ok and elapsed < 120.0
    report(4, "tree-space geodesic vs shortest-path oracle", ok,
           f"max err {worst:.2e} (tol {2 * h}), {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 5. CAT(0) midpoint inequality
# --------------------------------------------------------------------------

def test_criterion_5_cat0_midpoints():
    rng = np.random.default_rng(5055)
    quadrants = compatible_pairs((1, 2, 3, 4))
    ok = True
    worst = -math.inf
    for _ in range(1000):
        x = _random_t4_point(rng, quadrants)
        y = _random_t4_point(rng, quadrants)
        z = _random_t4_point(rng, quadrants)
        m = route_geodesic_point(x, y, 0.5)
        slack = (
            0.5 * t4_distance(z, x) ** 2
            + 0.5 * t4_distance(z, y) ** 2
            - 0.25 * t4_distance(x, y) ** 2
            - t4_distance(z, m) ** 2
        )
        worst = max(worst, -slack)
        ok &= slack >= -1e-9
    report(5, "CAT(0) midpoint inequality", ok, f"worst violation {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# 6. Petersen combinatorics
# --------------------------------------------------------------------------

def test_criterion_6_petersen_combinatorics():
    quadrants = compatible_pairs((1, 2, 3, 4))
    splits = all_splits((1, 2, 3, 4))
    adj = {s: set() for s in splits}
    for a, b in quadrants:
        adj[a].add(b)
        adj[b].add(a)
    ok = len(quadrants) == 15 and len(splits) == 10
    ok &= all(len(adj[s]) == 3 for s in splits)

    def girth_at(v):
        from collections import deque

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

    ok &= all(girth_at(v) == 5 for v in splits)
    report(6, "15 quadrants / 10 axes / 3-regular girth-5", ok)
    assert ok


# --------------------------------------------------------------------------
# 7. neighbor joining on additive matrices
# --------------------------------------------------------------------------

def test_criterion_7_nj_additive_recovery():
    rng = np.random.default_rng(7077)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 9))
        truth = random_binary_tree([f"x{i}" for i in range(n)], rng)
        dm = tree_distance_matrix(truth)
        rebuilt = neighbor_joining(dm)
        ok &= unrooted_bipartitions(rebuilt) == unrooted_bipartitions(truth)
        dm2 = tree_distance_matrix(rebuilt)
        order = [dm2.taxa.index(t) for t in dm.taxa]
        ok &= bool(np.all(np.abs(dm2.d[order][:, order] - dm.d) <= 1e-9))
    report(7, "NJ exact recovery of additive metrics", ok)
    assert ok


# --------------------------------------------------------------------------
# 8. CLT verification by simulation
# --------------------------------------------------------------------------

def test_criterion_8_clt_verification():
    t0 = time.perf_counter()
    # regime (iii): symmetric point-mass law, cross-checked against the
    # exact multinomial tail
    sticky_law = SpiderLaw((1 / 3, 1 / 3, 1 / 3), (PointMass(1.0),) * 3)
    rep3 = simulate(sticky_law, n=100, replications=1000, seed=81)
    oracle_p = exact_stick_probability(100, 3)
    ok = rep3.regime is Regime.STICKY
    ok &= rep3.stick_fraction >= 0.99
    ok &= oracle_p >= 0.995
    ok &= abs(rep3.stick_fraction - oracle_p) <= 0.01

    # regime (i): fluctuation of the mean against the known normal limit
    normal_law = SpiderLaw((1.0,), (Uniform(0.0, 2.0),))
    rep1 = simulate(normal_law, n=200, replications=500, seed=82)
    ok &= rep1.regime is Regime.NONSTICKY
    ok &= rep1.ks_pvalue is not None and rep1.ks_pvalue > 0.01

    # spine CLT: coverage of the 95% interval
    leaf = (Uniform(0.0, 2.0), Uniform(0.0, 2.0))
    book_law = OpenBookLaw((1 / 3, 1 / 3, 1 / 3), (leaf, leaf, leaf))
    coverage = spine_coverage(book_law, n=100, replications=2000,
                              confidence=0.95, seed=83)
    ok &= 0.93 <= coverage <= 0.97
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(8, "limit-law verification", ok,
           f"stick {rep3.stick_fraction:.3f} vs oracle {oracle_p:.3f}, "
           f"KS p {rep1.ks_pvalue:.3f}, coverage {coverage:.3f}, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 9. end-to-end golden run
# --------------------------------------------------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path):
    data = resources.files("treestats") / "data"
    fasta = tmp_path / "toy.fasta"
    groups = tmp_path / "groups.csv"
    fasta.write_text((data / "toy_alignment.fasta").read_text())
    groups.write_text((data / "toy_groups3.csv").read_text())

    def run(tag):
        sample = tmp_path / f"sample_{tag}.json"
        mean = tmp_path / f"mean_{tag}.json"
        for cmd in (
            ["sample-trees", str(fasta), "--groups", str(groups),
             "--k", "3", "--reps", "10", "--seed", "42", "-o", str(sample)],
            ["mean", str(sample), "--space", "t3", "-o", str(mean)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "treestats.cli", *cmd],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
        return sample.read_bytes(), mean.read_bytes()

    first = run("a")
    second = run("b")
    ok = first == second
    obj = json.loads(first[0])
    ok &= obj["p"] == 3 and len(obj["points"]) == 10
    report(9, "end-to-end byte-identical golden run", ok)
    assert ok
