"""From aligned sequences to tree-space statistics.

Walks the bundled toy alignment (12 taxa in 3 month-style groups) through
the full pipeline: mismatch distances, the neighbor-joining tree, grouped
resampling into spider and tree-space samples, intrinsic means, and SVG
plots.  Outputs land in demos/output/.
"""

from importlib import resources
from pathlib import Path

from treestats import (
    GapMode,
    intrinsic_mean,
    mismatch_distance,
    neighbor_joining,
    parse_fasta,
    serialize_newick,
    t4_mean,
    tree_type_newick,
)
from treestats.pipeline import load_groups, sample_trees, spider_tree_type
from treestats.plots import petersen_svg, spider_svg

DATA = resources.files("treestats") / "data"
OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

block = parse_fasta((DATA / "toy_alignment.fasta").read_text())
print(f"alignment: {block.n_taxa} taxa x {block.n_columns} columns")

dm = mismatch_distance(block, GapMode.IGNORE)
print("max pairwise mismatch fraction:", round(float(dm.d.max()), 4))

tree = neighbor_joining(dm)
print("NJ tree:", serialize_newick(tree, precision=3))

# --- three groups -> spider sample --------------------------------------
groups3 = load_groups((DATA / "toy_groups3.csv").read_text())
spider_sample = sample_trees(block, groups3, k=3, reps=10, seed=42)
print()
print("10 spider points (leg = cherry of the two grouped months):")
for pt in spider_sample.points:
    print("  ", pt, "" if pt.leg is None else f"type {spider_tree_type(pt.leg)}")

report = intrinsic_mean(spider_sample)
print("verdict:", report.verdict, "| mean:", report.mean,
      "| tree type:", spider_tree_type(report.mean.leg),
      "| sd:", round(report.intrinsic_sd, 4))
(OUT / "spider_sample.svg").write_text(spider_svg(spider_sample, report))
print("wrote", OUT / "spider_sample.svg")

# --- four groups -> tree-space sample ------------------------------------
groups4 = load_groups((DATA / "toy_groups4.csv").read_text())
t4_sample = sample_trees(block, groups4, k=4, reps=20, seed=42)
print()
print("20 tree-space points; first five:")
for pt in t4_sample.points[:5]:
    print("  ", pt)

estimate = t4_mean(t4_sample)
print("mean point:", estimate.mean)
print("mean tree type:", tree_type_newick(t4_sample.labels, estimate.mean))
print("Frechet value:", round(estimate.frechet_value, 5))
(OUT / "petersen_sample.svg").write_text(petersen_svg(t4_sample, estimate.mean))
print("wrote", OUT / "petersen_sample.svg")
