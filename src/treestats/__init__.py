"""Nonparametric statistics on stratified spaces of phylogenetic trees.

The package covers the full path from aligned sequences to tree-space
statistics: mismatch-fraction distances, neighbor-joining trees, and
restrictions of those trees into small tree spaces, where intrinsic
(Frechet) means are computed and classified as sticky or not.

Spaces implemented: the p-leg spider (rooted three-leaf trees when
p = 3), the three-leaf open book, and the two-dimensional space of
rooted four-leaf trees with its Petersen-graph structure.  A Monte Carlo
harness verifies the predicted limiting distributions by simulation.

``import treestats`` loads no submodule: each name below is imported
from its submodule on first access (PEP 562), so a command-line process
compiles only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("TreeStatsError",),
    "seqio": (
        "AlignedBlock", "DistanceMatrix", "GapMode", "TreeNode", "mismatch_distance",
        "parse_fasta", "parse_newick", "serialize_newick",
    ),
    "njtree": (
        "TreeIndex", "induced_subtree", "neighbor_joining", "restrict_to_quartet",
        "restrict_to_triplet", "tree_index",
    ),
    "spider": (
        "CENTER", "SpiderMeasureSummary", "SpiderPoint", "SpiderSample", "StickinessReport",
        "Verdict", "clt_interval", "intrinsic_mean", "spider_distance",
    ),
    "openbook": (
        "OpenBookPoint", "OpenBookSample", "SpineStickinessReport", "openbook_distance",
        "openbook_mean", "spine_clt",
    ),
    "t4space": (
        "Stratum", "T4MeanEstimate", "T4Point", "T4Sample", "all_splits", "book_partners",
        "compatible", "spine_stickiness_t4", "stratum_of", "t4_distance", "t4_mean",
        "tree_type_newick",
    ),
    "mcsim": (
        "Exponential", "OpenBookLaw", "PointMass", "Regime", "SimReport", "SpiderLaw",
        "Uniform", "classify_law", "simulate", "simulate_openbook", "spine_coverage",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_MODULE_OF]


def _lazy(namespace: dict, module_of: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: each name of ``module_of`` is imported from its treestats
    submodule on first access and bound in ``namespace``, so later lookups
    skip the hook and a rebinding of the attribute is what they find."""
    def __getattr__(name):
        if name not in module_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{module_of[name]}"), name)
        namespace[name] = value
        return value
    return __getattr__


_export = _lazy(globals(), _MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # the submodules themselves, such as treestats.errors
        return importlib.import_module(f"{__name__}.{name}")
    return _export(name)


def __dir__():
    return sorted({*globals(), *__all__})
