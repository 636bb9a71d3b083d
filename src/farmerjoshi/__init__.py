"""Simulation and moment-matching calibration workbench for the standard
and adaptive Farmer-Joshi market models."""

import os

# One BLAS thread unless the user chose a count: a second OpenBLAS thread
# makes the statistics 2-3x slower on small hosts. OpenBLAS reads these
# variables when it is loaded, so this takes effect only if numpy and scipy
# are first imported after this package.
if not any(os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from farmerjoshi.data_io import (
    PriceDataError,
    PriceSeries,
    ReturnSeries,
    load_price_series,
    log_returns,
)
from farmerjoshi.market import (
    DEFAULT_PARAMETERS,
    BlowUpError,
    MarketState,
    ModelParameters,
    ParameterError,
    SimulationOutput,
    chartist_mispricing,
    fundamentalist_mispricing,
    init_simulation,
    market_impact_update,
    simulate,
    simulate_batch,
    step_adaptive,
    step_standard,
    strategy_profit,
    switch_probability,
    threshold_transition,
    value_perception_step,
)
from farmerjoshi.stats import (
    MOMENT_NAMES,
    MOMENTS_VERSION,
    MomentVector,
    StatisticError,
    acf,
    adf_statistic,
    garch_persistence,
    gph_estimator,
    hill_tail_average,
    hurst_exponent,
    ks_statistic,
    moment_vector,
    sample_moments,
)
from farmerjoshi.weighting import (
    WeightMatrix,
    WeightingError,
    estimate_weight_matrix,
    moving_block_bootstrap,
    weight_from_covariance,
)
from farmerjoshi.optimize import (
    CalibrationResult,
    GAParams,
    NMTAParams,
    ga_optimize,
    nm_optimize,
    nmta_optimize,
)
from farmerjoshi.calibration import (
    DEFAULT_BOUNDS,
    CalibrationError,
    ObjectiveConfig,
    ParameterSpace,
    ReplicationFailure,
    ReplicationSummary,
    estimation_error,
    fitness,
    make_objective,
    replicate_calibrations,
    run_optimizer,
    surface_scan,
)

__version__ = "0.1.0"
