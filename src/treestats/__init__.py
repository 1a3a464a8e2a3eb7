"""Nonparametric statistics on stratified spaces of phylogenetic trees.

The package covers the full path from aligned sequences to tree-space
statistics: mismatch-fraction distances, neighbor-joining trees, and
restrictions of those trees into small tree spaces, where intrinsic
(Frechet) means are computed and classified as sticky or not.

Spaces implemented: the p-leg spider (rooted three-leaf trees when
p = 3), the three-leaf open book, and the two-dimensional space of
rooted four-leaf trees with its Petersen-graph structure.  A Monte Carlo
harness verifies the predicted limiting distributions by simulation.
"""

__version__ = "0.1.0"

from . import errors
from .errors import TreeStatsError
from .seqio import (
    AlignedBlock,
    DistanceMatrix,
    GapMode,
    TreeNode,
    mismatch_distance,
    parse_fasta,
    parse_newick,
    serialize_newick,
    write_fasta,
)
from .njtree import (
    TreeIndex,
    induced_subtree,
    neighbor_joining,
    restrict_to_quartet,
    restrict_to_triplet,
    tree_distance_matrix,
    tree_index,
)
from .spider import (
    CENTER,
    SpiderMeasureSummary,
    SpiderPoint,
    SpiderSample,
    StickinessReport,
    Verdict,
    clt_interval,
    intrinsic_mean,
    net_moment,
    spider_distance,
    summarize,
    theta,
    thetas,
)
from .openbook import (
    OpenBookPoint,
    OpenBookSample,
    SpineStickinessReport,
    openbook_distance,
    openbook_mean,
    spine_clt,
)
from .t4space import (
    PetersenProjection,
    Quadrant,
    Stratum,
    T4MeanEstimate,
    T4Point,
    T4Sample,
    all_splits,
    book_partners,
    compatible,
    enumerate_quadrants,
    geodesic_point,
    petersen_projection,
    spine_stickiness_t4,
    stratum_of,
    t4_distance,
    t4_mean,
    tree_type_newick,
)
from .mcsim import (
    Exponential,
    OpenBookLaw,
    PointMass,
    Regime,
    SimReport,
    SpiderLaw,
    Uniform,
    classify_law,
    classify_openbook_law,
    simulate,
    simulate_openbook,
    spine_coverage,
)
