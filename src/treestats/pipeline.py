"""Wiring between sequence data and tree-space statistics.

The sampling scheme mirrors the grouped resampling design: taxa are
assigned to k groups (k = 3 or 4); each repetition picks one taxon per
group at random, the neighbor-joining tree of the full alignment is
restricted to the picked taxa (with the root as an extra terminal), and
the restriction becomes one spider point (k = 3) or one tree-space point
(k = 4) whose coordinates are labeled by group.  All picks are drawn at
once and every repetition is restricted in one array pass, straight
into the arrays of a SpiderSample or T4Sample.

Group labels are sorted; for 3 groups the spider legs are numbered

    leg 1 = cherry {g1, g2},  leg 2 = cherry {g1, g3},  leg 3 = cherry {g2, g3}

which in letter notation (a, b, c for the sorted groups) reads
``((a,b),c)``, ``((a,c),b)``, ``((b,c),a)``.

Each command decides its space here once: ``load_sample``, ``mean_report``,
``sticky_report`` and ``plot_text`` each hold the one branch on it.
Only ``spider`` is imported at module level: ``seqio`` and ``njtree`` load
when ``sample_trees`` runs, ``t4space`` on the four-leaf paths, ``openbook``
on the open-book paths and ``plots`` when a command plots, so ``mean`` and
``sticky`` never load the sequence layers.  The ``seqio`` and ``njtree``
names below stay attributes of this module, bound on first access, and
``sample_trees`` calls them through ``_self``, so that a rebinding of the
attribute (the layer tracer's wrappers) is what runs.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import _lazy
from .errors import ConfigError, shown
from . import spider as sp
from .spider import canonical_json  # noqa: F401  the writer of the commands' reports

if TYPE_CHECKING:
    from .seqio import AlignedBlock, GapMode

# induced_subtree is not called: it stays bound for the layer tracer, which wraps it by name
__getattr__ = _lazy(globals(), {
    "GapMode": "seqio", "mismatch_distance": "seqio",
    "induced_subtree": "njtree", "neighbor_joining": "njtree",
    "restrict_to_quartet": "njtree", "restrict_to_triplet": "njtree", "tree_index": "njtree",
})
_self = sys.modules[__name__]


def load_groups(text: str) -> dict[str, str]:
    """Parse a taxon,group CSV (optional header on the first non-blank line)."""
    mapping: dict[str, str] = {}
    first = next((n for n, raw in enumerate(text.splitlines(), 1) if raw.strip()), 0)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ConfigError(f"bad group line {lineno}: {shown(raw)}")
        if lineno == first and parts == ["taxon", "group"]:
            continue
        if parts[0] in mapping:
            raise ConfigError(f"taxon {shown(parts[0])} assigned twice")
        mapping[parts[0]] = parts[1]
    if not mapping:
        raise ConfigError("empty group file")
    return mapping


def spider_tree_type(leg: int | None) -> str:
    """Letter notation of a 3-spider leg (a, b, c = the sorted groups)."""
    return {
        None: "(a,b,c)",
        1: "((a,b),c)",
        2: "((a,c),b)",
        3: "((b,c),a)",
    }[leg]


def draw_picks(pools, reps: int, seed: int) -> np.ndarray:
    """One seeded pick per repetition and pool, (reps, len(pools)), drawn at
    once: the picks of ``rng.choice(pool)`` per repetition, pool after pool."""
    draws = np.random.default_rng(seed).integers(0, [len(p) for p in pools],
                                                 size=(reps, len(pools)))
    return np.stack([np.asarray(p)[draws[:, i]] for i, p in enumerate(pools)], axis=1)


def sample_trees(
    block: AlignedBlock,
    groups: dict[str, str],
    k: int,
    reps: int,
    seed: int,
    gap_mode: GapMode | str = "ignore",
    strict_n: bool = False,
):
    """Resample grouped taxa into a SpiderSample (k=3) or T4Sample (k=4).

    One neighbor-joining tree is built from the full alignment; each
    repetition restricts it to one seeded pick per group.  ``gap_mode`` is
    a :class:`~treestats.seqio.GapMode` or its value.
    """
    if k not in (3, 4):
        raise ConfigError("k must be 3 or 4")
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    members: dict[str, list[str]] = {}
    known = set(block.taxa)
    for taxon, group in groups.items():
        if taxon not in known:
            raise ConfigError(f"group file references unknown taxon {shown(taxon)}")
        members.setdefault(group, []).append(taxon)
    group_names = sorted(members)
    if len(group_names) != k:
        raise ConfigError(f"need exactly {k} groups, found {len(group_names)}")
    for g in group_names:  # none is empty: a group exists once a taxon names it
        members[g].sort()

    dm = _self.mismatch_distance(block, _self.GapMode(gap_mode), strict_n)
    index = _self.tree_index(_self.neighbor_joining(dm))
    # picks in sorted-group order, so that the restriction's merge rule is
    # the same in group space on every repetition
    picks = draw_picks([index.nodes(members[g]) for g in group_names], reps, seed)
    if k == 3:
        return sp.SpiderSample.from_arrays(3, *_self.restrict_to_triplet(index, picks))
    from . import t4space as t4

    return t4.T4Sample.from_splits(group_names, *_self.restrict_to_quartet(index, picks))


# --------------------------------------------------------------------------
# sample JSON detection and reports
# --------------------------------------------------------------------------

def detect_space(obj: dict) -> str:
    """Infer which sample space a JSON document describes."""
    if "p" in obj:
        return "t3"
    if "labels" in obj:
        return "t4"
    first = sp.json_points(obj)[:1]
    if first and "leaf" in first[0]:
        return "openbook"
    if first and "leg" in first[0]:
        return "t3"
    raise ConfigError("cannot infer the sample space from the JSON document")


def load_sample(obj: dict, space: str):
    if space == "t3":
        return sp.SpiderSample.from_dict(obj)
    if space == "t4":
        from . import t4space as t4

        return t4.T4Sample.from_dict(obj)
    from . import openbook as ob

    return ob.OpenBookSample.from_dict(obj)


def mean_report(sample, space: str, tolerance: float = 0.0):
    """The mean of a sample in its space, as the space's solver reports it,
    and its report as a JSON-ready dictionary: ``(estimate, report)``.  A
    t3 ``sample`` may also be a spider summary."""
    if space == "t3":
        estimate = sp.intrinsic_mean(sample, tolerance)
        # the letter notation names the trees of a 3-spider only
        tree_type = spider_tree_type(estimate.mean.leg) if estimate.p == 3 else None
        fields = {"space": "t3", "tree_type": tree_type}
    elif space == "openbook":
        from . import openbook as ob

        estimate = ob.openbook_mean(sample, tolerance)
        fields = {"space": "openbook"}
    else:
        from . import t4space as t4

        sp.check_tolerance(tolerance)  # unused by the t4 mean, still checked
        estimate = t4.t4_mean(sample)
        fields = {"space": "t4", "n": len(sample), "labels": list(sample.labels),
                  "tree_type": t4.tree_type_newick(sample.labels, estimate.mean),
                  "intrinsic_sd": math.sqrt(estimate.frechet_value)}
    return estimate, {**fields, **estimate.to_dict()}


def sticky_report(obj: dict, tolerance: float = 0.0, axis=None) -> dict:
    """Stickiness classification of a sample or summary JSON document.

    Spider summaries are given as ``{"p": 3, "w": [...], "nu": [...]}``
    (optionally ``w0``); tree-space samples need ``axis`` (a cluster) to
    pick the open-book spine, and any other document refuses ``axis``.
    """
    space = "summary" if "w" in obj and "nu" in obj else detect_space(obj)
    if axis is not None and space != "t4":
        raise ConfigError(f"--axis applies to four-leaf samples only (this document: {space})")
    if space == "summary":
        w = obj["w"]
        p = obj.get("p", len(w) if isinstance(w, list) else None)  # checked by the summary
        summary = sp.SpiderMeasureSummary(p, obj.get("w0", 0.0), w, obj["nu"])
        return {"input": "summary", **mean_report(summary, "t3", tolerance)[1]}
    sample = load_sample(obj, space)
    if space in ("t3", "openbook"):
        return mean_report(sample, space, tolerance)[1]
    if axis is None:
        raise ConfigError("tree-space stickiness needs --axis (the spine cluster)")
    from . import t4space as t4

    cluster = frozenset(axis)
    report = t4.spine_stickiness_t4(sample, cluster, tolerance)
    partners = t4.book_partners(cluster, sample.labels)
    return {"space": "t4", "axis": sorted(cluster),
            "book_leaves": [sorted(s) for s in partners], **report.to_dict()}


def plot_text(sample, space: str, fmt: str, estimate=None) -> str:
    """The plot of a sample in ``fmt`` (``svg``, or ``csv`` for four-leaf
    samples), with the mean of ``estimate`` (from :func:`mean_report`) marked."""
    from . import plots

    if space == "t3":
        if fmt != "svg":
            raise ConfigError("spider samples only plot to SVG")
        return plots.spider_svg(sample, estimate)
    if space != "t4":
        raise ConfigError("plotting supports t3 and t4 samples")
    if fmt == "csv":
        return plots.petersen_csv(sample)
    return plots.petersen_svg(sample, None if estimate is None else estimate.mean)
