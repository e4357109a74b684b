"""Reliability-targeted IRT simulation.

Calibrate a global discrimination scale so generated two-parameter logistic
response data hits a target marginal reliability, then generate the data and
validate the calibration at study scale.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DivergedObjectiveError,
    EmptyRequestError,
    FeasibilityWarning,
    IngestionError,
    InsufficientDataError,
    IrtcalibError,
    NumericalError,
    ParameterError,
)
from .latent import (
    DensityTable,
    LatentSample,
    LatentSpec,
    describe_shapes,
    sample_latent,
    theoretical_moments,
)
from .items import (
    DiscriminationSpec,
    ItemPool,
    PoolConfig,
    build_pool,
    bundled_pool_path,
    conditional_discriminations,
    copula_discriminations,
    gen_difficulties,
    independent_discriminations,
    load_pool_csv,
    save_pool_csv,
)
from .psychometrics import (
    DEFAULT_INTERVAL,
    METRIC_AVG_INFO,
    METRIC_MSEM,
    MonotonicityScan,
    ReliabilitySummary,
    ScaleInterval,
    analytic_ceiling,
    logistic_kernel,
    monotonicity_scan,
    phi,
    prob_correct,
    reference_ceiling,
    reliability_summary,
    test_information,
    test_information_dc,
)
from .eqc import (
    VALIDATION_INTERVAL,
    CalibrationResult,
    EqcConfig,
    eqc_calibrate,
    reliability_curve,
)
from .sac import SacConfig, SacResult, sac_calibrate, sac_deviation_study, step_size
from .study import (
    DESK_PROFILE,
    FULL_PROFILE,
    ResponseDataset,
    StudyCondition,
    StudyProfile,
    compare_calibrations,
    make_desk_grid,
    make_grid,
    realized_reliability,
    run_validation_study,
    simulate_responses,
)

__all__ = [name for name in dir() if not name.startswith("_")]
