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

from types import ModuleType as _ModuleType

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
    classify,
    knn_weights,
    nw_weights,
    predict,
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
    loo_labels,
    loo_predictions,
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
from .kernels import KERNEL_NAMES, eval_scalar
from .lattice import SiteSet, make_lattice, pairwise_distances
from .neighbors import BandwidthResult, knn_bandwidth, spatial_bandwidth
from .simulate import (
    DgpParams,
    FieldParams,
    gaussian_cov,
    gen_dataset,
    local_dependence_field,
    sample_grf,
)

__version__ = "0.1.0"

#: The names imported above; the submodules they come from are not listed.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
