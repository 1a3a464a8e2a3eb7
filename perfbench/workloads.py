"""Seeded inputs and CLI chains of the benchmark workloads.

Every input the program sees is generated here from the workload seed:
an alignment simulated down a random binary tree (with gaps and ``N`` at
fixed shares), a taxon-to-group table taken from the tree's top clades
with a share of taxa reassigned at random, or limit-law JSON files.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
GROUP_NAMES = ("ga", "gb", "gc", "gd")
GAP_SHARE = 0.02       # alignment cells set to "-"
N_SHARE = 0.01         # alignment cells set to "N"
REASSIGN_SHARE = 0.3   # taxa moved out of their top clade's group
MEAN_EDGE = 0.03       # mean substitutions per site along an edge
FASTA_WIDTH = 80


@dataclass(frozen=True)
class SeqSpec:
    taxa: int
    columns: int
    groups: int
    reps: int


@dataclass(frozen=True)
class SimJob:
    name: str
    law: dict
    n: int
    reps: int


_UNIFORM_0_2 = {"kind": "uniform", "lo": 0.0, "hi": 2.0}
_EXP_1 = {"kind": "exponential", "rate": 1.0}
_THIRD = [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]

# The three limit regimes: a dominant leg (i, the bundled law_dominant.json),
# an exact moment-gap boundary (ii) and the symmetric open book, whose
# spine coordinate is normal while the leaf part sticks (the bundled
# law_openbook_symmetric.json).  Laws are written out by the benchmark so
# the program sees only generated files.
SIM_JOBS = (
    SimJob("dominant", {"space": "spider", "weights": [0.6, 0.2, 0.2],
                        "legs": [_UNIFORM_0_2] * 3}, n=300, reps=2000),
    SimJob("boundary", {"space": "spider", "weights": [0.5, 0.25, 0.25],
                        "legs": [_UNIFORM_0_2] * 3}, n=100, reps=2000),
    SimJob("openbook", {"space": "openbook", "weights": _THIRD,
                        "leaves": [{"x1": _UNIFORM_0_2, "x2": _EXP_1}] * 3},
           n=100, reps=2000),
)

SEQ_SPECS = {
    "seq_wide": SeqSpec(taxa=400, columns=1500, groups=3, reps=300),
    "seq_deep_t4": SeqSpec(taxa=80, columns=600, groups=4, reps=1500),
}
WORKLOADS = (*SEQ_SPECS, "limit_laws")


@dataclass(frozen=True)
class Alignment:
    taxa: tuple[str, ...]
    rows: np.ndarray  # (taxa, columns) uint8 ASCII codes
    groups: dict[str, str]


def _random_tree(n: int, rng):
    """Random-joining binary tree: (children lists, edge length per node).

    Nodes 0..n-1 are the leaves; the last node is the root.
    """
    children: list[list[int]] = [[] for _ in range(n)]
    active = list(range(n))
    while len(active) > 1:
        i, j = sorted(rng.choice(len(active), size=2, replace=False), reverse=True)
        a, b = active.pop(i), active.pop(j)
        children.append([a, b])
        active.append(len(children) - 1)
    lengths = rng.exponential(MEAN_EDGE, size=len(children))
    lengths[-1] = 0.0
    return children, lengths


def _leaves_below(children, node) -> list[int]:
    stack, out = [node], []
    while stack:
        v = stack.pop()
        if children[v]:
            stack.extend(children[v])
        else:
            out.append(v)
    return out


def _top_clades(children, k: int) -> list[list[int]]:
    """Split the root's clade into k clades, always splitting the largest."""
    clades = [len(children) - 1]
    while len(clades) < k:
        sizes = [len(_leaves_below(children, c)) if children[c] else 0 for c in clades]
        big = clades.pop(int(np.argmax(sizes)))
        clades.extend(children[big])
    return [_leaves_below(children, c) for c in clades]


def make_alignment(spec: SeqSpec, seed: int) -> Alignment:
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.taxa, spec.groups]))
    children, lengths = _random_tree(spec.taxa, rng)
    seqs: dict[int, np.ndarray] = {len(children) - 1: rng.integers(0, 4, spec.columns)}
    stack = [len(children) - 1]
    while stack:  # Jukes-Cantor substitutions along each edge
        v = stack.pop()
        for c in children[v]:
            p_change = 0.75 * (1.0 - np.exp(-4.0 * lengths[c] / 3.0))
            hit = rng.random(spec.columns) < p_change
            s = seqs[v].copy()
            s[hit] = rng.integers(0, 4, int(hit.sum()))
            seqs[c] = s
            stack.append(c)
    rows = BASES[np.stack([seqs[i] for i in range(spec.taxa)])]
    mask = rng.random(rows.shape)
    rows[mask < GAP_SHARE] = ord("-")
    rows[(mask >= GAP_SHARE) & (mask < GAP_SHARE + N_SHARE)] = ord("N")

    taxa = tuple(f"t{i:04d}" for i in range(spec.taxa))
    group_of = np.empty(spec.taxa, dtype=np.int64)
    for g, members in enumerate(_top_clades(children, spec.groups)):
        group_of[members] = g
    moved = rng.random(spec.taxa) < REASSIGN_SHARE
    group_of[moved] = rng.integers(0, spec.groups, int(moved.sum()))
    for g in range(spec.groups):  # no group may end up empty
        if not (group_of == g).any():
            group_of[int(rng.integers(spec.taxa))] = g
    groups = {t: GROUP_NAMES[int(g)] for t, g in zip(taxa, group_of)}
    return Alignment(taxa, rows, groups)


def fasta_text(aln: Alignment) -> str:
    out = []
    for taxon, row in zip(aln.taxa, aln.rows):
        out.append(f">{taxon}")
        seq = row.tobytes().decode("ascii")
        out.extend(seq[i : i + FASTA_WIDTH] for i in range(0, len(seq), FASTA_WIDTH))
    return "\n".join(out) + "\n"


def groups_text(aln: Alignment) -> str:
    return "taxon,group\n" + "".join(f"{t},{g}\n" for t, g in aln.groups.items())


@dataclass(frozen=True)
class Workload:
    """Generated inputs, the CLI chain over them, and the files it writes."""

    name: str
    seed: int
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (op name, argv)
    alignment: Alignment | None
    spec: SeqSpec | None


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs into ``workdir`` and return its chain."""
    def w(filename: str) -> str:
        return str(workdir / filename)

    if name == "limit_laws":
        commands = []
        for job in SIM_JOBS:
            (workdir / f"law_{job.name}.json").write_text(json.dumps(job.law, indent=2))
            commands.append((f"simulate_{job.name}", (
                "simulate", w(f"law_{job.name}.json"), "--n", str(job.n),
                "--reps", str(job.reps), "--seed", str(seed),
                "-o", w(f"sim_{job.name}.json"))))
        return Workload(name, seed, tuple(commands), None, None)
    spec = SEQ_SPECS[name]
    aln = make_alignment(spec, seed)
    (workdir / "aln.fasta").write_text(fasta_text(aln))
    (workdir / "groups.csv").write_text(groups_text(aln))
    space = ("--space", "t4") if spec.groups == 4 else ()
    commands = (
        ("dist", ("dist", w("aln.fasta"), "-o", w("dist.csv"))),
        ("nj", ("nj", w("dist.csv"), "-o", w("tree.nwk"))),
        ("sample_trees", ("sample-trees", w("aln.fasta"), "--groups", w("groups.csv"),
                          "--k", str(spec.groups), "--reps", str(spec.reps),
                          "--seed", str(seed), "-o", w("sample.json"))),
        ("mean", ("mean", w("sample.json"), *space, "-o", w("mean.json"))),
    )
    return Workload(name, seed, commands, aln, spec)
