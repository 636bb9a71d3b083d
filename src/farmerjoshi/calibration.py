"""Moment-matching objective and calibration drivers.

The objective is the weighted quadratic form G' W G, where G is the mean
deviation of the simulated moment vectors from the empirical one over I
simulations. The same fixed seed set is used for every candidate theta
(common random numbers), which makes the objective a deterministic
function of theta; runs that blow up or whose statistics degenerate map
to a large penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from farmerjoshi.data_io import ReturnSeries
from farmerjoshi.market import (
    VARIANTS,
    BlowUpError,
    ModelParameters,
    ParameterError,
    simulate_batch,
)
from farmerjoshi.optimize import (
    PENALTY_FITNESS,
    CalibrationResult,
    GAParams,
    NMTAParams,
    ga_optimize,
    nmta_optimize,
)
from farmerjoshi.stats import N_MOMENTS, StatisticError, moment_vector
from farmerjoshi.weighting import WeightMatrix

#: Free parameters in calibration order: ModelParameters' fields, the
#: adaptive-only ones last.
PARAMETER_NAMES = tuple(f.name for f in fields(ModelParameters))
#: The switching parameters, which the standard variant does not read.
ADAPTIVE_ONLY = PARAMETER_NAMES[-2:]
#: The fields ModelParameters declares ``int``.
INTEGRAL_PARAMETERS = frozenset(f.name for f in fields(ModelParameters)
                                if f.type in (int, "int"))


def model_parameters(values: dict) -> ModelParameters:
    """ModelParameters from field values, the INTEGRAL_PARAMETERS rounded to int;
    a value that is not a number is a ParameterError."""
    for name, v in values.items():
        if not isinstance(v, Real):
            raise ParameterError(f"{name} must be a number, got {v!r}")
    return ModelParameters(**{name: int(round(v)) if name in INTEGRAL_PARAMETERS else v
                              for name, v in values.items()})


#: Default box constraints. The exit-threshold box sits strictly below
#: the entry-threshold box and the lag boxes are nested so the
#: cross-constraints hold everywhere on the grid.
DEFAULT_BOUNDS = {
    "n_traders": (10, 100),
    "lam": (5.0, 50.0),
    "a": (0.1, 5.0),
    "d_min": (1, 25),
    "d_max": (10, 60),
    "mu_eta": (-0.001, 0.001),
    "sigma_eta": (0.0, 0.05),
    "sigma_zeta": (0.001, 0.03),
    "T_min": (0.05, 0.15),
    "T_max": (0.15, 0.60),
    "tau_min": (0.0, 0.02),
    "tau_max": (0.02, 0.049),
    "v_min": (-0.5, 0.0),
    "v_max": (0.0, 0.5),
    "gamma": (0.001, 0.5),
    "horizon": (5, 100),
}

#: Ordered (low, high) pairs that must satisfy low <= high per candidate.
_ORDERED_PAIRS = (("d_min", "d_max"), ("T_min", "T_max"),
                  ("tau_min", "tau_max"), ("v_min", "v_max"))


class CalibrationError(RuntimeError):
    """Raised when a calibration step cannot proceed."""


@dataclass(frozen=True)
class ParameterSpace:
    """Free-parameter vector layout, box bounds, and feasibility repair.

    The standard variant, which never reads the switching parameters,
    omits them (ADAPTIVE_ONLY) from the vector.
    """

    variant: str
    bounds: dict = field(default_factory=lambda: dict(DEFAULT_BOUNDS))

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise CalibrationError(f"unknown variant {self.variant!r}")
        missing = [n for n in self.names if n not in self.bounds]
        if missing:
            raise CalibrationError(f"bounds missing for {missing}")
        unknown = sorted(set(self.bounds) - set(PARAMETER_NAMES))
        if unknown:
            raise CalibrationError(f"bounds for unknown parameters {unknown}; "
                                   f"valid names: {', '.join(PARAMETER_NAMES)}")
        for name, pair in self.bounds.items():
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(v, Real) for v in pair) and pair[0] <= pair[1]):
                raise CalibrationError(f"bounds for {name} must be a pair of numbers "
                                       f"low <= high, got {pair!r}")
            if name in INTEGRAL_PARAMETERS and not all(float(v).is_integer() for v in pair):
                # repair rounds these, so a fractional end could round out of the box
                raise CalibrationError(f"bounds for {name} must be integers, got {pair!r}")
        for lo_name, hi_name in _ORDERED_PAIRS:
            if self.bounds[lo_name][0] > self.bounds[hi_name][1]:
                raise CalibrationError(f"bounds forbid {lo_name} <= {hi_name}")
        if self.bounds["tau_max"][1] >= self.bounds["T_min"][0]:
            raise CalibrationError("tau_max upper bound must sit below "
                                   "T_min lower bound")

    @property
    def names(self) -> tuple:
        if self.variant == "adaptive":
            return PARAMETER_NAMES
        return PARAMETER_NAMES[: -len(ADAPTIVE_ONLY)]

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def lower(self) -> np.ndarray:
        return np.array([float(self.bounds[n][0]) for n in self.names])

    @property
    def upper(self) -> np.ndarray:
        return np.array([float(self.bounds[n][1]) for n in self.names])

    @property
    def integral_mask(self) -> np.ndarray:
        return np.array([n in INTEGRAL_PARAMETERS for n in self.names])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise CalibrationError(
                f"unknown parameter {name!r}; valid names: {', '.join(self.names)}"
            ) from None

    def repair(self, theta: np.ndarray) -> np.ndarray:
        """Clip to bounds, round integrals, order constrained pairs, and clip
        again: a swapped value can leave its own box when a pair's boxes are
        not nested, and clipping an ordered pair keeps it ordered because
        __post_init__ puts the low box's lower bound under the high box's upper."""
        lower, upper = self.lower, self.upper
        theta = np.clip(np.asarray(theta, dtype=float), lower, upper)
        mask = self.integral_mask
        theta[mask] = np.rint(theta[mask])
        for lo_name, hi_name in _ORDERED_PAIRS:
            i, j = self.index(lo_name), self.index(hi_name)
            if theta[i] > theta[j]:
                theta[i], theta[j] = theta[j], theta[i]
        return np.clip(theta, lower, upper, out=theta)

    def validate(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise CalibrationError(f"theta must have shape ({self.dim},)")
        if np.any(theta < self.lower - 1e-12) or np.any(theta > self.upper + 1e-12):
            raise CalibrationError("theta violates its bounds")
        if not np.array_equal(self.repair(theta.copy()), theta):
            raise CalibrationError("theta violates integrality or ordering constraints")

    def to_model_parameters(self, theta: np.ndarray) -> ModelParameters:
        return model_parameters(dict(zip(self.names, theta)))

    def from_model_parameters(self, params: ModelParameters) -> np.ndarray:
        return np.array([float(getattr(params, n)) for n in self.names])


def check_objective_settings(replications: int, sim_days: int) -> None:
    """Reject ObjectiveConfig's scalar settings before any costly setup."""
    if replications < 1:
        raise CalibrationError("replications must be >= 1")
    if sim_days < 1:
        raise CalibrationError("sim_days must be >= 1")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything a fitness evaluation needs besides theta."""

    space: ParameterSpace
    empirical_returns: ReturnSeries
    empirical_moments: np.ndarray  # (k,)
    weight: WeightMatrix
    replications: int = 10  # I simulations per evaluation
    sim_days: int = 1000
    p0: float = 0.0
    master_seed: int = 0  # of the common-random-number seed set

    def __post_init__(self):
        check_objective_settings(self.replications, self.sim_days)
        object.__setattr__(self, "empirical_moments",
                           np.asarray(self.empirical_moments, dtype=float))
        k = len(self.empirical_moments)
        if self.weight.entries.shape != (k, k):
            raise CalibrationError(f"weight matrix is {self.weight.entries.shape}, "
                                   f"but {k} empirical moments need ({k}, {k})")


def simulated_moments(params: ModelParameters, variant: str, days: int, p0: float,
                      seeds, empirical_returns: ReturnSeries) -> tuple:
    """Simulate every seed in one batch and take each run's moment vector.

    Returns the batch's outcomes, an (I, k) array of moments with a NaN row
    for each failed run, and one (run index, exception) pair per failed
    run, in seed order: the run's BlowUpError or its StatisticError.
    """
    outputs = simulate_batch(params, variant, days, p0=p0, seeds=seeds)
    moments = np.full((len(outputs), N_MOMENTS), np.nan)
    failures = []
    for i, out in enumerate(outputs):
        try:
            if isinstance(out, BlowUpError):
                raise out
            moments[i] = moment_vector(ReturnSeries(out.log_returns), empirical_returns).as_array()
        except (BlowUpError, StatisticError) as exc:
            failures.append((i, exc))
    return outputs, moments, tuple(failures)


@dataclass(frozen=True)
class Evaluation:
    """One fitness evaluation over the I common-random-number runs."""

    #: (I, k) moment vectors, a NaN row for each failed run.
    moments: np.ndarray
    #: (run index, exception) per failed run, in seed order.
    failures: tuple
    #: The mean deviation G of the kept runs; None when penalised.
    error: np.ndarray | None
    #: G' W G, or PENALTY_FITNESS.
    fitness: float


def evaluate(theta, cfg: ObjectiveConfig) -> Evaluation:
    """Simulate theta's I runs and score them.

    Runs that blow up or whose statistics degenerate are dropped from G;
    more than half failing, a theta outside the space or a ParameterError
    (which fails every run) gives PENALTY_FITNESS.
    """
    theta = np.asarray(theta, dtype=float)
    try:
        cfg.space.validate(theta)
        params = cfg.space.to_model_parameters(theta)
    except (CalibrationError, ParameterError) as exc:  # every run fails alike
        moments = np.full((cfg.replications, N_MOMENTS), np.nan)
        failures = tuple((i, exc) for i in range(cfg.replications))
    else:  # the common-random-number seed set, the same for every theta
        seeds = np.random.SeedSequence(cfg.master_seed).generate_state(cfg.replications)
        _, moments, failures = simulated_moments(params, cfg.space.variant, cfg.sim_days,
                                                 cfg.p0, seeds, cfg.empirical_returns)
    if len(failures) > cfg.replications / 2:
        return Evaluation(moments, failures, None, PENALTY_FITNESS)
    ok = ~np.isnan(moments).any(axis=1)
    g = np.mean(cfg.empirical_moments - moments[ok], axis=0)
    return Evaluation(moments, failures, g, max(float(g @ cfg.weight.entries @ g), 0.0))


def fitness(theta, cfg: ObjectiveConfig) -> float:
    """G' W G, or PENALTY_FITNESS: the fitness of ``evaluate``."""
    return evaluate(theta, cfg).fitness


def make_objective(cfg: ObjectiveConfig):
    """Bind the config into a theta -> fitness callable for the optimizers.

    With common random numbers the fitness is a deterministic function of
    theta, so each distinct theta is simulated once: a repeat, such as a GA
    parent copied without crossover or mutation, is answered from a dict
    keyed on the theta's bytes.
    """
    known = {}

    def objective(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        if key not in known:
            known[key] = fitness(theta, cfg)
        return known[key]
    return objective


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

OPTIMIZERS = ("ga", "nmta")


def run_optimizer(optimizer: str, objective, space: ParameterSpace, seed: int,
                  ga_params: GAParams | None = None,
                  nmta_params: NMTAParams | None = None) -> CalibrationResult:
    """Dispatch one optimizer run over a parameter space."""
    bounds = (space.lower, space.upper)
    common = dict(seed=seed, repair=space.repair)
    if optimizer == "ga":
        return ga_optimize(objective, bounds, ga_params, **common)
    if optimizer == "nmta":
        return nmta_optimize(objective, bounds, nmta_params, **common)
    raise CalibrationError(
        f"unknown optimizer {optimizer!r}; choose from {', '.join(OPTIMIZERS)}")


@dataclass(frozen=True)
class ReplicationSummary:
    """Point estimates (best-fitness run) and 95% intervals across runs."""

    names: tuple
    #: The run of least fitness, the first of them on a tie.
    best: CalibrationResult
    #: The 2.5th and 97.5th percentiles (numpy's linear interpolation) of
    #: each parameter, then of the fitness.
    lower: np.ndarray
    upper: np.ndarray

    def rows(self):
        yield ("parameter", "point", "lower_95", "upper_95")
        points = (*self.best.theta, self.best.fitness)
        for name, *values in zip((*self.names, "fitness"), points, self.lower, self.upper):
            yield (name, *(repr(float(v)) for v in values))


def replicate_calibrations(run_one, space: ParameterSpace, runs: int,
                           seed: int = 0) -> ReplicationSummary:
    """Repeat ``run_one(seed_i)`` with distinct derived seeds and summarize.

    ``run_one`` maps an integer seed to a CalibrationResult; an exception it
    raises propagates. (A failed simulation never gets this far: ``evaluate``
    penalises it.)
    """
    if runs < 2:
        raise CalibrationError("need at least 2 replication runs")
    results = [run_one(int(s)) for s in np.random.SeedSequence(seed).generate_state(runs)]
    thetas = np.array([r.theta for r in results])
    fits = np.array([r.fitness for r in results])
    lo, hi = np.percentile(np.column_stack([thetas, fits]), [2.5, 97.5], axis=0)
    return ReplicationSummary(names=space.names, best=results[int(np.argmin(fits))],
                              lower=lo, upper=hi)


def surface_axes(space: ParameterSpace, name_x, name_y, grid_x, grid_y) -> tuple[int, int]:
    """The indices of a surface's two parameters in ``space``; a grid under
    2x2, a repeated name or a name outside the space is a CalibrationError."""
    if grid_x < 2 or grid_y < 2:
        raise CalibrationError("grid must be at least 2x2")
    if name_x == name_y:
        raise CalibrationError("surface parameters must differ")
    return space.index(name_x), space.index(name_y)


def surface_scan(objective, space: ParameterSpace, name_x: str, name_y: str,
                 grid_x: int, grid_y: int, theta_base: np.ndarray) -> list[tuple]:
    """Objective values over a Cartesian grid of two free parameters.

    All other coordinates stay at ``theta_base``. Returns (x, y, f)
    triples in row-major order, where (x, y) are the two coordinates of the
    repaired point that was scored; PENALTY_FITNESS appears where the
    simulation blows up.
    """
    ix, iy = surface_axes(space, name_x, name_y, grid_x, grid_y)
    xs = np.linspace(*space.bounds[name_x], grid_x)
    ys = np.linspace(*space.bounds[name_y], grid_y)
    rows = []
    for x in xs:
        for y in ys:
            theta = np.asarray(theta_base, dtype=float).copy()
            theta[ix] = x
            theta[iy] = y
            theta = space.repair(theta)
            rows.append((float(theta[ix]), float(theta[iy]), float(objective(theta))))
    return rows
