"""The nine moments/statistics used for moment matching, plus diagnostics.

Canonical order (fixed; the weight matrix indexes it): mean, stdev,
excess_kurtosis, ks_stat, hurst, gph, adf, garch_persistence, hill_avg.

Conventions frozen here because the calibration target must be stable:

* excess kurtosis uses the population moment-ratio estimator (m4/m2^2 - 3)
  while the standard deviation is the unbiased sample estimator;
* the rescaled-range slope uses dyadic windows 16, 32, ..., n/4;
* the log-periodogram regression of |r| uses the lowest floor(sqrt(n))
  Fourier frequencies;
* the unit-root regression uses an intercept, no trend, and lag order
  floor((n-1)^(1/3));
* conditional-variance persistence is the alpha + beta of a Gaussian
  quasi-maximum-likelihood GARCH(1,1) fit (variance recursion started at
  the mean squared residual) on the standardized series, found by a
  bounded BFGS search with the analytic gradient and L-BFGS-B's stopping
  rules from three deterministic starts over the box alpha = p*s,
  beta = p*(1-s), 0 <= p <= 0.9999, 0 <= s <= 1, and screened to 0.0 by
  BIC against the constant-variance null;
* the tail statistic averages Hill tail-index estimates over thresholds
  from the 90th to the 95th percentile of the positive returns and
  reports the index itself (larger = thinner tail), not its reciprocal.

MOMENTS_VERSION numbers these conventions; caches of anything computed from
the moments (the bootstrap weight matrix) key on it. Version 1 fitted the
GARCH(1,1) by three Nelder-Mead searches, which sometimes stopped short of
the optimum; version 2 is the gradient fit above. Version 3 computes the
fit's variance recursion as a BLAS banded triangular solve (``dtbsv``);
a BLAS kernel may fuse each step's multiply-add into one rounding where
version 2's ``lfilter`` rounded twice, so the last bits of a fitted
persistence follow the BLAS kernel. Version 4 replaces scipy's L-BFGS-B,
which ran the three starts one after another, by the package's own bounded
BFGS search, which runs them together: each of its iterations is one
objective call over the live starts, stacked in one banded solve. It stops
where L-BFGS-B's rules say, with a relative decrease of 1e-9 (L-BFGS-B's
default is 2.2e-9) counted only after a step that reached near the line's
minimum, so a fitted persistence moves in its last digits, by more than
1e-4 on under 1% of series and only where the NLL falls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv

MOMENT_NAMES = (
    "mean",
    "stdev",
    "excess_kurtosis",
    "ks_stat",
    "hurst",
    "gph",
    "adf",
    "garch_persistence",
    "hill_avg",
)

N_MOMENTS = len(MOMENT_NAMES)

#: Version of the statistic conventions above; bump it when a value changes.
MOMENTS_VERSION = 4


class StatisticError(ValueError):
    """A statistic is undefined or could not be computed for this input."""

    def __init__(self, message: str, component: str | None = None):
        super().__init__(message)
        self.component = component


class DegenerateSeriesWarning(UserWarning):
    """Emitted when a statistic falls back to a defined degenerate value."""


def _values(series) -> np.ndarray:
    """Accept a ReturnSeries or any 1-d array-like."""
    vals = getattr(series, "values", series)
    return np.asarray(vals, dtype=float)


def _effectively_constant(x: np.ndarray) -> bool:
    """True when the spread is at rounding-noise level for this scale."""
    if len(x) == 0:
        return True
    return float(np.ptp(x)) <= 1e-12 * max(1.0, float(np.max(np.abs(x))))


@dataclass(frozen=True)
class MomentVector:
    """The nine statistics of one return series, in canonical order."""

    mean: float
    stdev: float
    excess_kurtosis: float
    ks_stat: float
    hurst: float
    gph: float
    adf: float
    garch_persistence: float
    hill_avg: float

    def __post_init__(self):
        arr = self.as_array()
        if not np.all(np.isfinite(arr)):
            raise StatisticError(f"non-finite moment vector entries: {arr}")
        if self.stdev < 0:
            raise StatisticError("stdev must be >= 0")
        if not 0.0 <= self.ks_stat <= 1.0:
            raise StatisticError("ks_stat must lie in [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in MOMENT_NAMES])

    @classmethod
    def from_array(cls, arr) -> "MomentVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (N_MOMENTS,):
            raise StatisticError(f"expected {N_MOMENTS} entries, got shape {arr.shape}")
        return cls(**{name: float(v) for name, v in zip(MOMENT_NAMES, arr)})

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in MOMENT_NAMES}


# ---------------------------------------------------------------------------
# Distribution shape
# ---------------------------------------------------------------------------

def sample_moments(r) -> tuple[float, float, float]:
    """(mean, unbiased stdev, population excess kurtosis) of a return series."""
    x = _values(r)
    n = len(x)
    if n < 4:
        raise StatisticError("need at least 4 observations", component="mean")
    mu = float(np.mean(x))
    dev = x - mu
    m2 = float(np.mean(dev**2))
    if m2 == 0.0 or _effectively_constant(x):
        raise StatisticError("zero variance: excess kurtosis undefined",
                             component="excess_kurtosis")
    sd = float(np.std(x, ddof=1))
    kurt = float(np.mean(dev**4) / m2**2 - 3.0)
    return mu, sd, kurt


def ks_statistic(r_sim, r_emp) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance between empirical CDFs."""
    x = np.sort(_values(r_sim))
    y = np.sort(_values(r_emp))
    if len(x) == 0 or len(y) == 0:
        raise StatisticError("empty sample", component="ks_stat")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / len(x)
    cdf_y = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


# ---------------------------------------------------------------------------
# Scaling / memory
# ---------------------------------------------------------------------------

def _expected_rs_white_noise(w: int) -> float:
    """Anis-Lloyd expectation of the rescaled range on i.i.d. input."""
    i = np.arange(1, w)
    s = float(np.sum(np.sqrt((w - i) / i)))
    if w <= 340:
        return (w - 0.5) / w * s / math.sqrt(w * math.pi / 2.0)
    return s / math.sqrt(w * math.pi / 2.0)


def hurst_exponent(r) -> float:
    """Rescaled-range slope over dyadic windows 16, 32, ..., n/4.

    The log R/S values are debiased by the Anis-Lloyd white-noise
    expectation before the least-squares fit (the raw slope sits near
    0.55 on i.i.d. input because of the small windows), so white noise
    scores 0.5 on average. Blocks with zero range or zero dispersion are
    dropped; if fewer than two window sizes survive the estimate is
    degenerate and the defined fallback 1.0 is returned with a
    DegenerateSeriesWarning.
    """
    x = _values(r)
    n = len(x)
    if n < 128:
        raise StatisticError("need at least 128 observations", component="hurst")
    log_w, log_rs_excess = [], []
    w = 16
    while w <= n // 4:
        k = n // w
        blocks = x[: k * w].reshape(k, w)
        dev = blocks - blocks.mean(axis=1, keepdims=True)
        z = np.cumsum(dev, axis=1)
        ranges = z.max(axis=1) - z.min(axis=1)
        scales = blocks.std(axis=1, ddof=1)
        ok = (scales > 0) & (ranges > 0)
        if np.any(ok):
            log_w.append(math.log(w))
            log_rs_excess.append(
                math.log(float(np.mean(ranges[ok] / scales[ok])))
                - math.log(_expected_rs_white_noise(w)))
        w *= 2
    if len(log_w) < 2:
        warnings.warn("degenerate rescaled-range input; returning fallback 1.0",
                      DegenerateSeriesWarning)
        return 1.0
    slope = np.polyfit(log_w, log_rs_excess, 1)[0]
    return float(0.5 + slope)


def gph_estimator(r) -> float:
    """Log-periodogram long-memory estimate d for the absolute returns.

    Regresses log I(lambda_j) on log(4 sin^2(lambda_j / 2)) over the
    lowest m = floor(sqrt(n)) Fourier frequencies of |r| - mean|r|.
    """
    x = np.abs(_values(r))
    n = len(x)
    if n < 256:
        raise StatisticError("need at least 256 observations", component="gph")
    if _effectively_constant(x):
        raise StatisticError("degenerate periodogram: |r| is constant",
                             component="gph")
    y = x - x.mean()
    m = int(math.floor(math.sqrt(n)))
    spec = np.fft.rfft(y)[1 : m + 1]
    periodogram = (np.abs(spec) ** 2) / (2.0 * np.pi * n)
    if np.any(periodogram <= 0):
        raise StatisticError("degenerate periodogram: zero ordinate",
                             component="gph")
    j = np.arange(1, m + 1)
    regressor = np.log(4.0 * np.sin(np.pi * j / n) ** 2)
    slope = np.polyfit(regressor, np.log(periodogram), 1)[0]
    return float(-slope)


def adf_statistic(r) -> float:
    """Augmented Dickey-Fuller t-statistic, intercept included, no trend.

    Lag order p = floor((n-1)^(1/3)). Returns the raw t-statistic of the
    lagged-level coefficient; no p-value.
    """
    y = _values(r)
    n = len(y)
    if n < 32:
        raise StatisticError("need at least 32 observations", component="adf")
    p = int(math.floor((n - 1) ** (1.0 / 3.0)))
    dy = np.diff(y)
    rows = len(dy) - p
    if rows <= p + 2:
        raise StatisticError("too few observations for the lag order",
                             component="adf")
    dep = dy[p:]
    cols = [np.ones(rows), y[p : n - 1]]
    for i in range(1, p + 1):
        cols.append(dy[p - i : len(dy) - i])
    design = np.column_stack(cols)
    beta, _, rank, _ = np.linalg.lstsq(design, dep, rcond=None)
    if rank < design.shape[1]:
        raise StatisticError("singular unit-root regression", component="adf")
    resid = dep - design @ beta
    dof = rows - design.shape[1]
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    se = math.sqrt(cov[1, 1])
    if se == 0.0:
        raise StatisticError("singular unit-root regression", component="adf")
    return float(beta[1] / se)


# ---------------------------------------------------------------------------
# Conditional heteroskedasticity
# ---------------------------------------------------------------------------

class GarchConvergenceError(StatisticError):
    """The GARCH(1,1) quasi-likelihood search failed from every start."""

    def __init__(self, message: str):
        super().__init__(message, component="garch_persistence")


# Deterministic (alpha, beta) starting points, ordered by persistence;
# ties in likelihood (within _GARCH_LL_MARGIN) keep the earlier, more
# parsimonious solution, which pins down the flat ridge at alpha = 0.
_GARCH_STARTS = ((0.02, 0.05), (0.05, 0.40), (0.10, 0.80))
_GARCH_LL_MARGIN = 0.1
_PERSISTENCE_CAP = 0.9999

# Box of the standardized fit's (mu, omega, p, s), where alpha = p*s and
# beta = p*(1-s). The omega floor keeps every conditional variance positive.
_GARCH_LOWER = np.array([-math.inf, 1e-10, 0.0, 0.0])
_GARCH_UPPER = np.array([math.inf, math.inf, _PERSISTENCE_CAP, 1.0])

# The starts as points (mu, omega, p, s) of the standardized fit.
_GARCH_START_POINTS = np.array([[0.0, 1.0 - a - b, a + b, a / (a + b)]
                                for a, b in _GARCH_STARTS])

# The search's stopping rules are L-BFGS-B's: the projected gradient's
# largest entry at most _GARCH_PGTOL, or one step's decrease of the NLL at
# most _GARCH_FTOL relative to it. The decrease rule counts only a step at
# whose end the NLL's slope along it is at most _CURVATURE of its slope at
# the start: a shorter step, such as one from a Hessian approximation still
# scaled by a first, heavily backtracked step, can make a tiny decrease far
# from any minimum. A variable within min(_GARCH_ACTIVE, that entry) of a
# bound its gradient pushes it out of is held (see _BoundedBFGS).
_GARCH_PGTOL = 1e-5
_GARCH_FTOL = 1e-9
_GARCH_ACTIVE = 1e-3
_GARCH_MAX_EVALS = 500
_ARMIJO = 1e-4
_CURVATURE = 0.1
_MAX_BACKTRACKS = 20
_EPS = float(np.finfo(float).eps)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``.

    A stack of (1, n) @ (n, 1) products, each one BLAS dot of its own row
    (``np.vecdot`` does the same but needs NumPy 2).
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _garch_objective(theta: np.ndarray, y: np.ndarray,
                     band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian GARCH(1,1) NLL and gradient at each row (mu, omega, p, s) of ``theta``.

    sigma2[t] = omega + alpha*e2[t-1] + beta*sigma2[t-1] with
    sigma2[0] = mean(e2), alpha = p*s and beta = p*(1-s). The k rows'
    recursions are one forward solve of a unit lower-bidiagonal system of
    k*len(y) unknowns by BLAS ``dtbsv``: its sub-diagonal is -beta within a
    row and 0 where one row ends and the next begins, so each row's
    solution is bit for bit that of its own solve. ``band`` is that
    system's BLAS band storage (Fortran-ordered, at least k*len(y)
    columns, diagonal 1, every len(y)-th sub-diagonal entry 0). The
    gradient is the adjoint of the recursion: lam[t] = dNLL/dsigma2[t] +
    beta*lam[t+1] is the transposed solve with the same band, and each
    parameter's derivative is lam times that parameter's forcing term.

    Returns the (k,) NLLs, +inf where not finite, and the (k, 4) gradients.
    """
    k, n = len(theta), len(y)
    mu, omega, p, s = theta.T
    alpha, beta = p * s, p * (1.0 - s)
    e = y - mu[:, None]
    e2 = e * e
    forcing = np.empty_like(e2)
    forcing[:, 0] = e2.sum(axis=1) / n
    np.multiply(e2[:, :-1], alpha[:, None], out=forcing[:, 1:])
    forcing[:, 1:] += omega[:, None]
    band = band[:, :k * n]
    band[1].reshape(k, n)[:, :-1] = -beta[:, None]
    sigma2 = dtbsv(1, band, forcing.reshape(-1), lower=1, diag=1,
                   overwrite_x=1).reshape(k, n)
    inv = 1.0 / sigma2
    ratio = e2 * inv
    nll = 0.5 * (n * math.log(2.0 * math.pi) + np.log(sigma2).sum(axis=1) + ratio.sum(axis=1))
    if not np.isfinite(nll).all():
        if k > 1:
            # A non-finite row reaches its neighbours' solves as 0 * inf or
            # NaN, so each row is solved alone.
            nlls, grads = zip(*(_garch_objective(row[None], y, band) for row in theta))
            return np.concatenate(nlls), np.concatenate(grads)
        return np.array([math.inf]), np.zeros((1, 4))
    lam_rhs = (0.5 - 0.5 * ratio) * inv
    adjoint = dtbsv(1, band, lam_rhs.reshape(-1), lower=1, trans=1, diag=1,
                    overwrite_x=1).reshape(k, n)
    lam = adjoint[:, 1:]
    g_alpha = _row_dots(lam, e2[:, :-1])
    g_beta = _row_dots(lam, sigma2[:, :-1])
    grad = np.empty((k, 4))
    # mu moves every e[t] and, through mean(e2), the initial variance.
    grad[:, 0] = (-2.0 * (alpha * _row_dots(lam, e[:, :-1]) + adjoint[:, 0] * e.sum(axis=1) / n)
                  - _row_dots(e, inv))
    grad[:, 1] = lam.sum(axis=1)
    grad[:, 2] = s * g_alpha + (1.0 - s) * g_beta
    grad[:, 3] = p * (g_alpha - g_beta)
    return nll, grad


class _BoundedBFGS:
    """One start's search of the GARCH box, fed one objective value at a time.

    Each iteration holds every variable within min(_GARCH_ACTIVE,
    max |projected gradient|) of a bound that its gradient pushes it out
    of, and steps the other, free, variables by d_F = -B_FF^-1 g_F, with B
    the BFGS approximation of the Hessian. A held variable steps by
    -H_ii g_i, which a full step mostly clips onto its bound. The search
    keeps B's inverse H, so d = -H g while every variable is free, and
    B_FF^-1 = H_FF - H_FH H_HH^-1 H_HF (the Schur complement of the held
    block) otherwise; H_FF alone would ignore how the held variables pull
    on the free ones. The line search follows the projected path
    P(x + t*d) from t = 1: a trial passes the Armijo test or the step
    shrinks by quadratic interpolation, to within [0.1, 0.5] of itself (0.1
    for a non-finite NLL). The first step, and the first after a line
    search fails and H is reset to the identity, has length at most 1, as
    in L-BFGS-B. A search stops at a stopping rule, when a line search from
    the identity fails, or after _GARCH_MAX_EVALS values.
    """

    def __init__(self, x: np.ndarray, f: float, g: np.ndarray):
        self.x, self.f, self.g = x, f, g
        self.evals = 1
        self.inv, self.scaled = np.eye(4), False
        self.stopped = not (math.isfinite(f) and self._new_direction())

    def _new_direction(self) -> bool:
        """Aim a line search from x; False when x meets the gradient rule."""
        x, g, h = self.x, self.g, self.inv
        room_down, room_up = x - _GARCH_LOWER, _GARCH_UPPER - x
        # x - P(x - g), entry by entry, is g clipped to [-room_up, room_down].
        width = float(np.abs(np.minimum(np.maximum(g, -room_up), room_down)).max())
        if width <= _GARCH_PGTOL:
            return False
        eps = min(_GARCH_ACTIVE, width)
        held = ((room_down <= eps) & (g > 0)) | ((room_up <= eps) & (g < 0))
        if held.any():
            free = ~held
            h_free = h[free]
            pull = np.linalg.solve(h[held][:, held], h[held][:, free].dot(g[free]))
            self.d = -h.diagonal() * g
            self.d[free] = h_free[:, held].dot(pull) - h_free[:, free].dot(g[free])
        else:
            self.d = -h.dot(g)
        self.t = 1.0 if self.scaled else min(1.0, 1.0 / math.sqrt(self.d.dot(self.d)))
        self.backtracks = 0
        return True

    def trial(self) -> np.ndarray:
        """The point to evaluate next."""
        self.x_trial = np.minimum(np.maximum(self.x + self.t * self.d, _GARCH_LOWER),
                                  _GARCH_UPPER)
        return self.x_trial

    def advance(self, f: float, g: np.ndarray) -> bool:
        """Take the objective at the trial point; False once the search stops."""
        self.evals += 1
        step = self.x_trial - self.x
        slope = min(float(self.g.dot(step)), 0.0)
        if f <= self.f + _ARMIJO * slope:
            decrease = (self.f - f) / max(abs(self.f), abs(f), 1.0)
            # A step that ends with the NLL still falling along it at more
            # than _CURVATURE of its first slope fell short of the line's
            # minimum, so its small decrease says nothing of convergence.
            flattened = float(g.dot(step)) >= _CURVATURE * slope
            self._update(step, g - self.g)
            self.x, self.f, self.g = self.x_trial, f, g
            return ((decrease > _GARCH_FTOL or not flattened)
                    and self.evals < _GARCH_MAX_EVALS and self._new_direction())
        self.backtracks += 1
        if self.evals >= _GARCH_MAX_EVALS:
            return False
        if self.backtracks > _MAX_BACKTRACKS:
            if not self.scaled:
                return False
            self.inv, self.scaled = np.eye(4), False
            return self._new_direction()
        curvature = f - self.f - slope
        shrink = -slope / (2.0 * curvature) if math.isfinite(f) and curvature > 0 else 0.1
        self.t *= min(max(shrink, 0.1), 0.5)
        return True

    def _update(self, s: np.ndarray, y: np.ndarray) -> None:
        """BFGS update of H, skipped when the curvature s'y is not positive enough."""
        sy, yy = float(s.dot(y)), float(y.dot(y))
        if sy <= _EPS * yy:
            return
        if not self.scaled:
            self.inv, self.scaled = sy / yy * np.eye(4), True
        hy = self.inv.dot(y) / sy
        # H + (1 + y'Hy/sy) ss'/sy - (Hy s' + s y'H)/sy
        self.inv += s[:, None] * ((1.0 + y.dot(hy)) / sy * s - hy) - hy[:, None] * s


def _garch_search(y: np.ndarray, starts: np.ndarray) -> list[_BoundedBFGS]:
    """The finished search from each row (mu, omega, p, s) of ``starts``.

    The live searches advance in lockstep: each round is one objective
    call over their trial points, and a search leaves once it stops.
    """
    band = np.zeros((2, len(starts) * len(y)), order="F")
    band[0] = 1.0
    searches = [_BoundedBFGS(x, float(f), g)
                for x, f, g in zip(starts, *_garch_objective(starts, y, band))]
    live = [search for search in searches if not search.stopped]
    while live:
        trials = np.array([search.trial() for search in live])
        live = [search for search, f, g in zip(live, *_garch_objective(trials, y, band))
                if search.advance(float(f), g)]
    return searches


def _garch_fit(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """(NLL, mu, omega, alpha, beta) of the best start, in the units of ``x``.

    Fits the standardized series y = (x - mean) / sd, whose alpha, beta and
    likelihood differences equal those of x: mu and omega scale back, and
    the NLL shifts by n*log(sd).
    """
    center = float(np.mean(x))
    sd = math.sqrt(float(np.var(x, ddof=1)))
    y = (x - center) / sd
    best_nll, best = math.inf, None
    for search in _garch_search(y, _GARCH_START_POINTS):
        if search.f < best_nll - _GARCH_LL_MARGIN:
            best_nll, best = search.f, search.x
    if best is None:
        raise GarchConvergenceError("no GARCH start converged to a finite fit")
    mu, omega, p, s = best
    return (best_nll + len(x) * math.log(sd), center + sd * mu, sd * sd * omega,
            p * s, p * (1.0 - s))


def garch_persistence(r) -> float:
    """alpha + beta of a constant-mean Gaussian QMLE GARCH(1,1) fit.

    The quasi-likelihood starts the variance recursion at the mean squared
    residual. It is maximized by a bounded BFGS search with its analytic
    gradient from three deterministic starts run together, on the
    standardized series (which leaves
    alpha, beta and the likelihood ratio unchanged), over the box
    alpha = p*s, beta = p*(1-s), 0 <= p <= 0.9999, 0 <= s <= 1.

    The likelihood of white noise is exactly flat along the alpha = 0
    ridge, where beta is meaningless, so the fitted model is screened
    against the constant-variance null by BIC: unless the best start
    improves the log-likelihood by more than ln(n) the persistence of
    the null (0.0) is reported.
    """
    x = _values(r)
    n = len(x)
    if n < 256:
        raise StatisticError("need at least 256 observations",
                             component="garch_persistence")
    if _effectively_constant(x):
        raise StatisticError("zero variance: GARCH undefined",
                             component="garch_persistence")
    null_nll = 0.5 * n * (math.log(2.0 * math.pi * float(np.mean((x - np.mean(x)) ** 2)))
                          + 1.0)
    best_nll, _, _, alpha, beta = _garch_fit(x)
    if null_nll - best_nll <= math.log(n):
        return 0.0
    return float(alpha + beta)


# ---------------------------------------------------------------------------
# Tail behavior
# ---------------------------------------------------------------------------

def hill_tail_average(r) -> float:
    """Mean Hill tail index over 90th-95th percentile thresholds.

    For each order-statistic rank k in the band (rounded to the nearest
    rank), the Hill estimate uses the exceedances above the k-th smallest
    positive return. Reported as the tail index alpha.
    """
    x = _values(r)
    if len(x) < 100:
        raise StatisticError("need at least 100 observations", component="hill_avg")
    pos = np.sort(x[x > 0])
    m = len(pos)
    if m == 0:
        raise StatisticError("empty right tail", component="hill_avg")
    k_lo = max(1, int(round(0.90 * m)))
    k_hi = min(m - 1, int(round(0.95 * m)))
    if k_hi - k_lo + 1 < 3:
        raise StatisticError("fewer than 3 order statistics between the "
                             "90th and 95th percentiles", component="hill_avg")
    log_pos = np.log(pos)
    # suffix_mean[k] = mean of log_pos[k:]
    suffix_sums = np.cumsum(log_pos[::-1])[::-1]
    estimates = []
    for k in range(k_lo, k_hi + 1):
        inv = suffix_sums[k] / (m - k) - log_pos[k - 1]
        if inv > 0:
            estimates.append(1.0 / inv)
    if len(estimates) < 3:
        raise StatisticError("degenerate tail: ties at the thresholds",
                             component="hill_avg")
    return float(np.mean(estimates))


# ---------------------------------------------------------------------------
# Assembly and diagnostics
# ---------------------------------------------------------------------------

def moment_vector(r_sim, r_emp) -> MomentVector:
    """All nine statistics of ``r_sim``; the KS entry compares to ``r_emp``.

    Component failures propagate as StatisticError naming the component.
    """
    def run(component, fn, *args):
        try:
            return fn(*args)
        except StatisticError as exc:
            if exc.component is None:
                exc.component = component
            raise StatisticError(f"{exc.component}: {exc}", component=exc.component) from exc

    mean, stdev, kurt = run("excess_kurtosis", sample_moments, r_sim)
    return MomentVector(
        mean=mean,
        stdev=stdev,
        excess_kurtosis=kurt,
        ks_stat=run("ks_stat", ks_statistic, r_sim, r_emp),
        hurst=run("hurst", hurst_exponent, r_sim),
        gph=run("gph", gph_estimator, r_sim),
        adf=run("adf", adf_statistic, r_sim),
        garch_persistence=run("garch_persistence", garch_persistence, r_sim),
        hill_avg=run("hill_avg", hill_tail_average, r_sim),
    )


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag.

    Lag-k numerators are averaged over their n-k terms so that a
    perfectly alternating series scores exactly -1 at lag 1.
    """
    x = _values(series)
    n = len(x)
    if max_lag < 1 or max_lag >= n:
        raise StatisticError("need 1 <= max_lag < len(series)", component="acf")
    dev = x - x.mean()
    denom = float(np.mean(dev**2))
    if denom == 0.0 or _effectively_constant(x):
        raise StatisticError("zero variance: autocorrelation undefined",
                             component="acf")
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        out[k - 1] = float(np.mean(dev[k:] * dev[:-k])) / denom
    return out
