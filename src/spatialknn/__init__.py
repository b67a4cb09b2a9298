"""Spatial nearest-neighbour prediction and classification.

Nonparametric regression and classification for data observed at
spatial sites. The core estimator weights each observation by the
product of a covariate kernel, scaled by the distance to the k-th
nearest covariate, and a site kernel, scaled by the distance to the
k'-th nearest site, so the smoothing adapts to the local density in
both spaces. A fixed-bandwidth counterpart serves as the comparison
baseline. On top sit leave-one-out cross-validation, Gaussian random
field simulation, a replication benchmark, CSV plumbing, and a command
line (``spatialknn``).
"""

from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    NumericalError,
    ParseError,
    SchemaError,
)
from .estimator import (
    KnnParams,
    NwParams,
    SpatialDataset,
    WeightVector,
    class_scores,
    classify,
    knn_weights,
    nw_weights,
    predict,
    predict_nw,
    regress,
)
from .evaluation import (
    BenchmarkCell,
    BenchmarkResult,
    CcrReport,
    EvalReport,
    ParamGrid,
    benchmark_replications,
    ccr,
    cv_select,
    cv_select_classification,
    cv_select_classification_pairs,
    default_grid,
    holdout_labels,
    holdout_predictions,
    loo_ccr,
    loo_labels,
    loo_predictions,
    loo_score,
    mae,
    paired_ttest,
    stratified_split,
    student_t_sf,
)
from .dataio import (
    CsvSchema,
    ExperimentConfig,
    load_survey,
    parse_config,
    read_dataset,
    survey_schema,
    write_dataset,
    write_report,
)
from .kernels import KERNEL_INTEGRALS, KERNEL_NAMES, eval_radial, eval_scalar
from .lattice import SiteSet, make_lattice, pairwise_distances, site_distance
from .neighbors import BandwidthResult, knn_bandwidth, spatial_bandwidth
from .simulate import (
    DgpParams,
    FieldParams,
    gaussian_cov,
    gen_dataset,
    local_dependence_field,
    sample_grf,
    survey_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthResult",
    "BenchmarkCell",
    "BenchmarkResult",
    "CcrReport",
    "ConfigError",
    "CsvSchema",
    "DataError",
    "DegenerateInputError",
    "DgpParams",
    "EvalReport",
    "ExperimentConfig",
    "FieldParams",
    "KERNEL_INTEGRALS",
    "KERNEL_NAMES",
    "KnnParams",
    "NumericalError",
    "NwParams",
    "ParamGrid",
    "ParseError",
    "SchemaError",
    "SiteSet",
    "SpatialDataset",
    "WeightVector",
    "benchmark_replications",
    "ccr",
    "class_scores",
    "classify",
    "cv_select",
    "cv_select_classification",
    "cv_select_classification_pairs",
    "default_grid",
    "eval_radial",
    "eval_scalar",
    "gaussian_cov",
    "gen_dataset",
    "holdout_labels",
    "holdout_predictions",
    "knn_bandwidth",
    "knn_weights",
    "load_survey",
    "local_dependence_field",
    "loo_ccr",
    "loo_labels",
    "loo_predictions",
    "loo_score",
    "mae",
    "make_lattice",
    "nw_weights",
    "paired_ttest",
    "pairwise_distances",
    "parse_config",
    "predict",
    "predict_nw",
    "read_dataset",
    "regress",
    "sample_grf",
    "site_distance",
    "spatial_bandwidth",
    "stratified_split",
    "student_t_sf",
    "survey_dataset",
    "survey_schema",
    "write_dataset",
    "write_report",
]
