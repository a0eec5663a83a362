"""Kernel estimation of mean and variance functions for functional data.

Covariates are curves compared through semi-metrics (L2 distances between
derivatives, or distances between projection scores); the conditional mean
and variance of a scalar response are estimated by Nadaraya-Watson
smoothing, with the variance taken either from squared residuals or from
the smoothed squared responses minus the squared mean.
"""

from types import ModuleType as _ModuleType

from .bench import (
    ChemoConfig,
    ChemoReport,
    ExperimentAbortError,
    ExperimentConfig,
    ExperimentReport,
    PipelineConfig,
    ReplicationRecord,
    chemo_workflow,
    convergence_check,
    discrete_mse,
    fit_pipeline,
    run_experiment,
    run_replication,
    serialize_report,
)
from .curves import (
    Curve,
    CurveSet,
    Grid,
    derivative,
    derivative_set,
    integrate,
    iter_curves_csv,
    read_curves_csv,
    read_responses_csv,
    uniform_grid,
    write_curves_csv,
    write_responses_csv,
)
from .estimators import (
    BandwidthSelectionError,
    CvResult,
    MeanFit,
    Prediction,
    TrainedMetric,
    VarianceFit,
    cv_bandwidth,
    default_bandwidth_grid,
    fit_mean,
    fit_variance,
    predict_mean,
    predict_mean_set,
    predict_variance,
    predict_variance_insample,
    predict_variance_set,
    smoother_matrix,
    squared_residuals,
)
from .kernels import (
    KERNEL_KINDS,
    POLICY_ERROR,
    POLICY_FALLBACK,
    EmptyNeighborhoodError,
    kernel_eval,
    nw_estimate,
    nw_weights,
    weight_matrix,
)
from .semimetric import (
    SemiMetricSpec,
    distance,
    distance_matrix,
    small_ball_fraction,
    train_projection,
)
from .simulate import (
    SimSpec,
    SimulatedDataset,
    gen_brownian_curves,
    gen_dataset,
    gen_sin_curves,
    rng_stream,
    true_functionals,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else: no submodule, no _-name
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
