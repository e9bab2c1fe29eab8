"""Distance algorithms and an evaluation harness for API usage graphs."""

from .dot import parse_aug, parse_rule, serialize_aug
from .errors import (
    AugDistError,
    CorpusLayoutError,
    DegenerateStructureError,
    DotSyntaxError,
    EmptyGraphError,
    GedTimeoutError,
    InsufficientDataError,
    SchemaError,
)
from .evaluation import (
    ApplicabilityVerdict,
    Dataset,
    DetectionReport,
    TimingRow,
    distance_table,
    is_applicable,
    load_corpus,
    load_rules,
    score,
    timing_rows,
    timing_summary,
)
from .exas import (
    dist_exas_cosine,
    dist_exas_l1,
    dist_exas_split,
    extract_features,
)
from .ged import (
    CostModel,
    GedResult,
    default_cost_model,
    dist_ged_astar,
    dist_ged_hungarian,
    ged_astar,
    ged_hungarian,
    hungarian_assignment,
)
from .graphs import AUG, CorrectionRule, Edge, Node, package_of, split_by_api
from .mcs import dist_mcs_hungarian, mcs_assignment, mcs_cost_model
from .node_similarity import SimilarityMatrix, dist_node_sim, similarity_matrix

__version__ = "0.1.0"

__all__ = [
    "AUG",
    "ApplicabilityVerdict",
    "AugDistError",
    "CorpusLayoutError",
    "CorrectionRule",
    "CostModel",
    "Dataset",
    "DegenerateStructureError",
    "DetectionReport",
    "DotSyntaxError",
    "Edge",
    "EmptyGraphError",
    "GedResult",
    "GedTimeoutError",
    "InsufficientDataError",
    "Node",
    "SchemaError",
    "SimilarityMatrix",
    "TimingRow",
    "default_cost_model",
    "dist_exas_cosine",
    "dist_exas_l1",
    "dist_exas_split",
    "dist_ged_astar",
    "dist_ged_hungarian",
    "dist_mcs_hungarian",
    "dist_node_sim",
    "distance_table",
    "extract_features",
    "ged_astar",
    "ged_hungarian",
    "hungarian_assignment",
    "is_applicable",
    "load_corpus",
    "load_rules",
    "mcs_assignment",
    "mcs_cost_model",
    "package_of",
    "parse_aug",
    "parse_rule",
    "score",
    "serialize_aug",
    "similarity_matrix",
    "split_by_api",
    "timing_rows",
    "timing_summary",
]
