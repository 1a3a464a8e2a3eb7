"""Seeded simulate and sample-trees output pinned byte for byte.

The simulate fixtures under ``golden/`` were written by ``simulate`` /
``simulate_openbook`` (n=60, 150 replicates) and ``spine_coverage`` before
the samples became array-backed; a change to a seeded stream or to the
float expressions of the moment gaps shows up here as a byte difference.
Their ``ks_*`` fields were re-recorded when the KS test moved from
``scipy.stats.kstest`` to ``treestats.kolmogorov``; they moved by at most
2.3e-15 relative, all other fields stayed byte for byte.
``law_openbook_uniform.json`` is an open book whose coordinates are all
uniform, with a different law per leaf and coordinate, so that each
replicate's ``x1`` and ``x2`` runs are told apart; its ``simulate`` and
``spine_coverage`` fixtures were recorded while every law was still drawn
replicate by replicate through per-leg ``uniform`` calls.
The ``sample_trees_*`` fixtures were written by ``sample-trees`` on the toy
data (40 repetitions) while restriction still pruned a tree copy per
repetition; 5 and 8 of their k=4 repetitions hit the merged
complementary-pair case.
The ``plots/`` fixtures are what ``plot`` (SVG, and CSV for four-leaf
samples) and ``mean --plot`` wrote for three of those samples and for the
small edge samples beside them (origins only, lengths whose squares
underflow, a star-tree mean, spiders with one and five legs), recorded
while the plots still built a point object per sample point.  Pixel
coordinates print with two decimals, so they pin the float expressions
of the layout and the projection only on these inputs.  The ``t4_mixed``
and ``t4_underflow`` plots were re-recorded when the projection radius
became ``math.hypot`` of the lengths: the radius of each point whose
lengths are below 1e-154 went from 0 to its value (1e-172,
3.16227766e-172), with the dot sizes that follow from it; nothing else
changed.
``t4_markup.json`` is a four-leaf sample whose labels ``a&b``, ``c<d``,
``e>f`` and ``g--h`` hold XML markup; its plots and ``means/`` fixture were
recorded once the SVG escaped its text and kept ``--`` out of comments.
The ``means/`` fixtures are what ``mean`` wrote for the same samples, recorded
while a four-leaf point still kept its splits as (cluster, length) pairs.
The ``sticky/`` fixtures are what ``sticky`` wrote for two spider summaries
(one with ``p`` and ``w0``, one with neither), a three-leaf sample, an
open-book sample (with and without a tolerance) and two four-leaf samples
with an axis; ``means/openbook_sample.json`` is ``mean`` on that open-book
sample.  They were recorded while ``pipeline`` still chose the space in
each of its report functions.
``spider_weighted_p5.json`` is a weighted spider sample: five legs, leg 3
empty (three points name it at ``u`` 0, so they sit at the center), five
center points and 37 points on leg 1, in mixed point order.  Its ``mean``
and ``sticky`` fixtures were recorded while each leg's sums were still
taken over a boolean mask of the sample.
``t4_bisection.json`` is a three-point four-leaf sample on which the
iterative solver that preceded the closed-form ray solve had to bisect one
quadrant's chord to find its start; ``means/t4_bisection.json`` is what
``mean`` wrote for it, the star tree at Frechet value 15.333333333333332,
before the law writers and the other uncalled code of the library were
deleted.
``t4_bisection_descent.json`` is a three-point sample whose bisection found a
descending ray, so that its mean lies inside the bisected quadrant
(``{a|b}``, ``{c|d}``) and below the star tree; its ``means/`` fixture was
recorded at the same time.
The four-leaf ``means/`` fixtures were re-recorded when the per-quadrant ray
solve replaced the bisection start and projected Newton: ``iterations`` and
``projected_gradient_norm`` were removed and ``method`` went from
``"newton"`` to ``"cone"``; numbers moved only in ``t4_mixed`` (the mean's
lengths became 17/120 and 19/120, correctly rounded) and in
``t4_bisection_descent`` (Frechet value 10.330407329001142 to
10.33040732900114, the lengths by at most 4.3e-15 relative).
``t4_gain_floor.json`` is a two-point sample whose mean is the star tree,
at Frechet value 13.0, on which the iterative solver exited 1 with a
singular Newton step; each quadrant's best-ray gain is at most rounding.
``t4_near_star.json`` is a four-point sample whose mean,
``{a|d}: 0.0128``, ``{b|c}: 0.0385``, lies about 0.04 from the star tree,
where the iterative solver reported the star tree.  Both ``means/``
fixtures were recorded with the ray solve.
``t4_polish_miss.json`` is a four-point sample whose mean,
``{a|d}: 0.0075``, ``{b|c}: 0.0299``, lies about 0.03 from the star tree;
the inductive-polish oracle and the grid oracle (step 0.05) both miss it
and give the star tree.  Its ``means/`` fixture was recorded with the ray
solve.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from treestats import __version__, mcsim
from treestats import openbook as ob
from treestats import spider as sp
from treestats.t4space import T4MeanEstimate, T4Point
from treestats.cli import main
from treestats.pipeline import canonical_json, load_groups, sample_trees
from treestats.seqio import GapMode, parse_fasta

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "src" / "treestats" / "data"
LAWS = {
    "dominant": DATA / "law_dominant.json",
    "symmetric": DATA / "law_symmetric.json",
    "openbook_symmetric": DATA / "law_openbook_symmetric.json",
    "boundary": GOLDEN / "law_boundary.json",
    "openbook_uniform": GOLDEN / "law_openbook_uniform.json",
}
N, REPS = 60, 150
PLOTS = GOLDEN / "plots"
MEANS = GOLDEN / "means"
PLOT_SAMPLES = {
    "k3_seed7": GOLDEN / "sample_trees_k3_seed7.json",
    "k4_seed7": GOLDEN / "sample_trees_k4_seed7.json",
    "k4_seed42_mismatch_strict": GOLDEN / "sample_trees_k4_seed42_mismatch_strict.json",
    **{path.stem: path for path in PLOTS.glob("*.json")},
}
MEAN_SAMPLES = {**PLOT_SAMPLES, "openbook_sample": GOLDEN / "openbook_sample.json",
                "spider_weighted_p5": GOLDEN / "spider_weighted_p5.json",
                "t4_bisection": GOLDEN / "t4_bisection.json",
                "t4_bisection_descent": GOLDEN / "t4_bisection_descent.json",
                "t4_gain_floor": GOLDEN / "t4_gain_floor.json",
                "t4_near_star": GOLDEN / "t4_near_star.json",
                "t4_polish_miss": GOLDEN / "t4_polish_miss.json"}
STICKY = GOLDEN / "sticky"
STICKY_CASES = {  # fixture name: argv after ``sticky``
    "summary_w0_p": [GOLDEN / "summary_w0_p.json"],
    "summary_legs4": [GOLDEN / "summary_legs4.json"],
    "k3_seed7": [GOLDEN / "sample_trees_k3_seed7.json"],
    "openbook_sample": [GOLDEN / "openbook_sample.json"],
    "openbook_sample_tol0.5": [GOLDEN / "openbook_sample.json", "--tolerance", "0.5"],
    "spider_weighted_p5": [GOLDEN / "spider_weighted_p5.json"],
    "t4_axis_mean_ab": [PLOTS / "t4_axis_mean.json", "--axis", "a,b"],
    "t4_underflow_abc": [PLOTS / "t4_underflow.json", "--axis", "a,b,c"],
}


def load_law(name):
    return mcsim.law_from_dict(json.loads(LAWS[name].read_text()))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(LAWS))
def test_simulate_matches_golden(name, seed):
    law = load_law(name)
    if isinstance(law, mcsim.SpiderLaw):
        report = mcsim.simulate(law, N, REPS, seed)
    else:
        report = mcsim.simulate_openbook(law, N, REPS, seed)
    expected = (GOLDEN / f"simulate_{name}_seed{seed}.json").read_text()
    assert canonical_json(report.to_dict()) == expected


def check_spine_coverage(name):
    law = load_law(name)
    expected = json.loads((GOLDEN / f"spine_coverage_{name}.json").read_text())
    for seed in (3, 11):
        assert mcsim.spine_coverage(law, N, REPS, 0.95, seed) == expected[str(seed)]


def test_spine_coverage_matches_golden():
    check_spine_coverage("openbook_symmetric")


def test_spine_coverage_uniform_matches_golden():
    check_spine_coverage("openbook_uniform")


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed, gap_mode, strict_n, suffix", [
    (7, GapMode.IGNORE, False, ""),
    (42, GapMode.MISMATCH, True, "_mismatch_strict"),
])
def test_sample_trees_matches_golden(k, seed, gap_mode, strict_n, suffix):
    block = parse_fasta((DATA / "toy_alignment.fasta").read_text())
    groups = load_groups((DATA / f"toy_groups{k}.csv").read_text())
    sample = sample_trees(block, groups, k, 40, seed, gap_mode, strict_n)
    expected = (GOLDEN / f"sample_trees_k{k}_seed{seed}{suffix}.json").read_text()
    assert canonical_json(sample.to_dict()) == expected
    assert sample.to_json() == expected


def plot_outputs(sample: Path, out: Path) -> dict[str, str]:
    """What ``plot`` and ``mean --plot`` write for ``sample``, by fixture
    suffix, with the version comment of the SVG header made constant."""
    commands = {
        "plot.svg": ["plot", str(sample), "--format", "svg", "-o", str(out)],
        "mean.svg": ["mean", str(sample), "--plot", str(out), "-o", str(out.with_suffix(".json"))],
    }
    if "labels" in json.loads(sample.read_text()):
        commands["plot.csv"] = ["plot", str(sample), "--format", "csv", "-o", str(out)]
    texts = {}
    for kind, argv in commands.items():
        assert main(argv) == 0
        texts[kind] = out.read_text().replace(f"<!-- treestats {__version__} -->",
                                              "<!-- treestats VERSION -->", 1)
    return texts


@pytest.mark.parametrize("name", sorted(MEAN_SAMPLES))
def test_mean_matches_golden(name, tmp_path):
    out = tmp_path / "mean.json"
    assert main(["mean", str(MEAN_SAMPLES[name]), "-o", str(out)]) == 0
    assert out.read_text() == (MEANS / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(STICKY_CASES))
def test_sticky_matches_golden(name, tmp_path):
    out = tmp_path / "sticky.json"
    assert main(["sticky", *map(str, STICKY_CASES[name]), "-o", str(out)]) == 0
    assert out.read_text() == (STICKY / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(PLOT_SAMPLES))
def test_plots_match_golden(name, tmp_path):
    for kind, text in plot_outputs(PLOT_SAMPLES[name], tmp_path / "out").items():
        assert text == (PLOTS / f"{name}.{kind}").read_text(), kind


_VERDICT = sp.Verdict("boundary", 1)
_AB, _ABC = frozenset("ab"), frozenset("abc")
# each result record, and the document its hand-written to_dict wrote
RECORDS = {
    "Verdict": (sp.Verdict("stuck_to_spine"), {"kind": "stuck_to_spine", "leg": None}),
    "SpiderPoint": (sp.SpiderPoint(2, 0.5), {"leg": 2, "u": 0.5}),
    "SpiderMeasureSummary": (
        sp.SpiderMeasureSummary(3, 0.1, (0.5, 0.2, 0.2), (1.0, 2.0, 3.0)),
        {"p": 3, "w0": 0.1, "w": [0.5, 0.2, 0.2], "nu": [1.0, 2.0, 3.0]}),
    "StickinessReport": (
        sp.StickinessReport(3, 0.0, (0.5, 0.25, 0.25), (2.0, 1.0, 1.0), (0.5, -1.0, -1.0),
                            sp.Verdict("non_sticky", 1), sp.SpiderPoint(1, 0.5), 1.25, 4),
        {"p": 3, "n": 4, "w0": 0.0, "w": [0.5, 0.25, 0.25], "nu": [2.0, 1.0, 1.0],
         "theta": [0.5, -1.0, -1.0], "verdict": {"kind": "non_sticky", "leg": 1},
         "mean": {"leg": 1, "u": 0.5}, "intrinsic_sd": 1.25}),
    "StickinessReport_summary": (
        sp.StickinessReport(2, 0.0, (0.5, 0.5), (1.0, 1.0), (0.0, 0.0), _VERDICT, sp.CENTER,
                            None),
        {"p": 2, "n": None, "w0": 0.0, "w": [0.5, 0.5], "nu": [1.0, 1.0],
         "theta": [0.0, 0.0], "verdict": {"kind": "boundary", "leg": 1},
         "mean": {"leg": None, "u": 0.0}, "intrinsic_sd": None}),
    "SpiderInterval": (
        sp.SpiderInterval(1, 0.0, 1.5, 0.0, 0.75, 0.95, _VERDICT, "boundary case"),
        {"leg": 1, "lo": 0.0, "hi": 1.5, "folded_mean": 0.0, "folded_se": 0.75,
         "confidence": 0.95, "verdict": {"kind": "boundary", "leg": 1},
         "note": "boundary case"}),
    "OpenBookPoint": (ob.OpenBookPoint(3, 0.5, 2.0), {"leaf": 3, "x1": 0.5, "x2": 2.0}),
    "SpineStickinessReport": (
        ob.SpineStickinessReport(0.5, (-0.5, -1.0, -1.0), sp.Verdict("stuck_to_spine"),
                                 ob.OpenBookPoint(None, 0.5, 0.0), 0.25, (0.5, 0.25, 0.25), 8),
        {"x1_star": 0.5, "theta2": [-0.5, -1.0, -1.0],
         "verdict": {"kind": "stuck_to_spine", "leg": None},
         "mean": {"leaf": None, "x1": 0.5, "x2": 0.0}, "spine_sd": 0.25,
         "w": [0.5, 0.25, 0.25], "n": 8}),
    "SpineInterval": (ob.SpineInterval(0.0, 1.0, 0.5, 0.25, 0.9, 8),
                      {"lo": 0.0, "hi": 1.0, "x1_star": 0.5, "se": 0.25, "confidence": 0.9,
                       "n": 8}),
    "T4MeanEstimate": (
        T4MeanEstimate(T4Point("abcd", {_ABC: 0.5, _AB: 1.0}), 0.25, "cone", (_AB, _ABC)),
        {"mean": {"splits": [{"cluster": ["a", "b"], "length": 1.0},
                             {"cluster": ["a", "b", "c"], "length": 0.5}]},
         "frechet_value": 0.25, "method": "cone", "quadrant": [["a", "b"], ["a", "b", "c"]]}),
    "SimReport": (
        mcsim.SimReport("openbook", mcsim.Regime.BOUNDARY, 60, 150, 0.25, (0.0, -1.0, -1.0),
                        0.05, 0.5, 0.1, None, True, runtime_seconds=2.5),
        {"space": "openbook", "regime": "ii", "n": 60, "replications": 150,
         "stick_fraction": 0.25, "theta": [0.0, -1.0, -1.0], "ks_statistic": 0.05,
         "ks_pvalue": 0.5, "ks_statistic_secondary": 0.1, "ks_pvalue_secondary": None,
         "degenerate": True}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_documents(name):
    # one rule writes every result record: its compared fields, nothing else
    record, expected = RECORDS[name]
    doc = record.to_dict()
    assert list(doc) == [f.name for f in fields(record) if f.compare]
    assert canonical_json(doc) == canonical_json(expected)
