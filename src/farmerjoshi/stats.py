"""The nine moments/statistics used for moment matching, plus diagnostics.

Canonical order (fixed; the weight matrix indexes it): mean, stdev,
excess_kurtosis, ks_stat, hurst, gph, adf, garch_persistence, hill_avg.

Conventions frozen here because the calibration target must be stable:

* excess kurtosis uses the population moment-ratio estimator (m4/m2^2 - 3),
  with m4 the mean of each squared deviation squared, while the standard
  deviation is the unbiased sample estimator;
* the Kolmogorov-Smirnov distance reads both empirical CDFs at every
  observed point;
* the rescaled-range slope uses dyadic windows 16, 32, ..., n/4;
* the log-periodogram regression of |r| uses the lowest floor(sqrt(n))
  Fourier frequencies;
* the unit-root regression uses an intercept, no trend, and lag order
  floor((n-1)^(1/3)), solved by its normal equations on the standardized
  series; the two slopes above are closed-form least squares;
* conditional-variance persistence is the alpha + beta of a Gaussian
  quasi-maximum-likelihood GARCH(1,1) fit (variance recursion started at
  the mean squared residual) on the standardized series, found by a
  bounded BFGS search with the analytic gradient and L-BFGS-B's stopping
  rules from two deterministic starts over the box alpha = p*s,
  beta = p*(1-s), 0 <= p <= 0.9999, 0 <= s <= 1, and screened to 0.0 by
  BIC against the constant-variance null;
* the tail statistic averages Hill tail-index estimates over thresholds
  from the 90th to the 95th percentile of the positive returns and
  reports the index itself (larger = thinner tail), not its reciprocal.

MOMENTS_VERSION numbers these conventions; caches of anything computed from
the moments (the bootstrap weight matrix) key on it. Bump it when a change
moves a statistic's value, even in its last bits; the banded BLAS solve and
the search's Python-float arithmetic both set the last bits of a fitted
persistence. README's "Statistic conventions and their version" section
says what each version changed.

Of scipy this module uses only BLAS ``dtbsv``, taken at the first GARCH fit
from the compiled extension ``scipy.linalg._fblas`` without importing the
``scipy.linalg`` package (about 4 MB and 0.015 s, against 28 MB and 0.3 s),
so importing it or computing any other statistic loads numpy alone.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

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
MOMENTS_VERSION = 8

#: Fewest returns the full moment vector is defined on: the log-periodogram
#: regression and the GARCH fit need this many, the other statistics fewer.
MIN_OBSERVATIONS = 256


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
    d2 = dev * dev
    # The operations of np.mean(dev**2) and np.std(x, ddof=1), bit for bit.
    ss = float(np.sum(d2))
    m2 = ss / n
    if m2 == 0.0 or _effectively_constant(x):
        raise StatisticError("zero variance: excess kurtosis undefined",
                             component="excess_kurtosis")
    sd = math.sqrt(ss / (n - 1))
    # d2 * d2: dev**4 would be a libm pow per element.
    kurt = float(np.mean(d2 * d2) / m2**2 - 3.0)
    return mu, sd, kurt


def ks_statistic(r_sim, r_emp) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance between empirical CDFs.

    Both CDFs are read at every observed point, from one merge of the two
    sorted samples: at the last of each group of equal values, the counts
    so far are each sample's count at or below that value, whatever the
    order within the group.
    """
    x = np.sort(_values(r_sim))
    y = np.sort(_values(r_emp))
    nx, ny = len(x), len(y)
    if nx == 0 or ny == 0:
        raise StatisticError("empty sample", component="ks_stat")
    merged = np.concatenate([x, y])
    order = np.argsort(merged, kind="stable")  # timsort: one linear merge of the two runs
    merged = merged[order]
    count_x = np.cumsum(order < nx)
    # The last of each group of equal values; NaNs, sorted last and unequal
    # to themselves, are one group.
    last = np.empty(nx + ny, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[:-1] &= merged[:-1] == merged[:-1]
    last[-1] = True
    ends = np.flatnonzero(last)
    count_x = count_x[ends]
    return float(np.max(np.abs(count_x / nx - (ends + 1 - count_x) / ny)))


# ---------------------------------------------------------------------------
# Scaling / memory
# ---------------------------------------------------------------------------

@functools.cache  # hurst_exponent asks for the same few dyadic windows every call
def _expected_rs_white_noise(w: int) -> float:
    """Anis-Lloyd expectation of the rescaled range on i.i.d. input."""
    i = np.arange(1, w)
    s = float(np.sum(np.sqrt((w - i) / i)))
    if w <= 340:
        return (w - 0.5) / w * s / math.sqrt(w * math.pi / 2.0)
    return s / math.sqrt(w * math.pi / 2.0)


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ``y`` on ``x`` with an intercept."""
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


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
        # np.add.reduce(...) / count is np.mean's arithmetic without its
        # Python-level wrapper, which costs more than the sum on short rows.
        dev = blocks - np.add.reduce(blocks, axis=1, keepdims=True) / w
        z = np.cumsum(dev, axis=1)
        ranges = z.max(axis=1) - z.min(axis=1)
        scales = np.sqrt(np.add.reduce(dev * dev, axis=1) / (w - 1))  # blocks.std(axis=1, ddof=1)
        ok = (scales > 0) & (ranges > 0)
        if not ok.all():
            ranges, scales = ranges[ok], scales[ok]
        if len(ranges):
            log_w.append(math.log(w))
            log_rs_excess.append(
                math.log(float(np.add.reduce(ranges / scales) / len(ranges)))
                - math.log(_expected_rs_white_noise(w)))
        w *= 2
    if len(log_w) < 2:
        warnings.warn("degenerate rescaled-range input; returning fallback 1.0",
                      DegenerateSeriesWarning)
        return 1.0
    return 0.5 + _ols_slope(np.array(log_w), np.array(log_rs_excess))


def gph_estimator(r) -> float:
    """Log-periodogram long-memory estimate d for the absolute returns.

    Regresses log I(lambda_j) on log(4 sin^2(lambda_j / 2)) over the
    lowest m = floor(sqrt(n)) Fourier frequencies of |r| - mean|r|.
    """
    x = np.abs(_values(r))
    n = len(x)
    if n < MIN_OBSERVATIONS:
        raise StatisticError(f"need at least {MIN_OBSERVATIONS} observations", component="gph")
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
    return -_ols_slope(regressor, np.log(periodogram))


def adf_statistic(r) -> float:
    """Augmented Dickey-Fuller t-statistic, intercept included, no trend.

    Lag order p = floor((n-1)^(1/3)). Returns the raw t-statistic of the
    lagged-level coefficient; no p-value. Standardizing the series first
    leaves the statistic unchanged (it is invariant to y -> a + b*y).
    """
    y = _values(r)
    n = len(y)
    if n < 32:
        raise StatisticError("need at least 32 observations", component="adf")
    if _effectively_constant(y):
        raise StatisticError("singular unit-root regression", component="adf")
    dev = y - np.mean(y)
    y = dev / math.sqrt(float(dev @ dev) / n)
    p = int(math.floor((n - 1) ** (1.0 / 3.0)))
    dy = np.diff(y)
    rows = len(dy) - p
    if rows <= p + 2:
        raise StatisticError("too few observations for the lag order",
                             component="adf")
    dep = dy[p:]
    design = np.empty((rows, p + 2))
    design[:, 0] = 1.0
    design[:, 1] = y[p : n - 1]
    # Row t's lagged differences dy[t+p-1], ..., dy[t], newest first.
    design[:, 2:] = np.lib.stride_tricks.sliding_window_view(dy[:-1], p)[:, ::-1]
    gram = design.T @ design
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues[0] <= math.sqrt(_EPS) * eigenvalues[-1]:
        raise StatisticError("singular unit-root regression", component="adf")
    inv = np.linalg.inv(gram)
    beta = inv @ (design.T @ dep)
    resid = dep - design @ beta
    s2 = float(resid @ resid) / (rows - design.shape[1])
    se = math.sqrt(s2 * inv[1, 1])
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


# Two deterministic (alpha, beta) starting points, ordered by persistence;
# ties in likelihood (within _GARCH_LL_MARGIN) keep the earlier, more
# parsimonious solution, which pins down the flat ridge at alpha = 0.
_GARCH_STARTS = ((0.02, 0.05), (0.10, 0.80))
_GARCH_LL_MARGIN = 0.1
_PERSISTENCE_CAP = 0.9999

# Box of the standardized fit's (mu, omega, p, s), where alpha = p*s and
# beta = p*(1-s). The omega floor keeps every conditional variance positive.
_GARCH_LOWER = (-math.inf, 1e-10, 0.0, 0.0)
_GARCH_UPPER = (math.inf, math.inf, _PERSISTENCE_CAP, 1.0)

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


@functools.cache
def _dtbsv():
    """BLAS ``dtbsv`` from scipy's compiled ``scipy.linalg._fblas``, loaded at
    the first GARCH fit (about 4 MB and 0.015 s) without running
    ``scipy/linalg/__init__.py`` (about 28 MB and 0.3 s). The module is
    registered under its name, so a later ``import scipy.linalg`` reuses it."""
    import scipy
    name = "scipy.linalg._fblas"
    module = sys.modules.get(name)
    if module is None:
        path = [os.path.join(os.path.dirname(scipy.__file__), "linalg")]
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            raise ImportError(f"{name} not found in {path[0]}", name=name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.dtbsv


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
    dtbsv = _dtbsv()
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


# The search's vectors and matrices are lists of floats, never changed in place.
_IDENTITY = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def _dot(a: list, b: list) -> float:
    """The dot product of two 4-vectors, summed from the first term."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _search_direction(h: list, g: list, held: list) -> list[float] | None:
    """-B_FF^-1 g_F for the free variables and -H_ii g_i for the ``held`` ones,
    where H = B^-1 and B_FF^-1 = H_FF - H_FH H_HH^-1 H_HF is the Schur complement
    that eliminating the held variables from H one at a time leaves in the free block.

    None when a pivot of that elimination is not positive: H_HH is then
    singular or indefinite in floating point, and has no usable inverse."""
    schur, g_free = h, list(g)
    for k in held:
        pivot = schur[k][k]
        if not pivot > 0.0:
            return None
        schur = [[sij - row[k] / pivot * skj for sij, skj in zip(row, schur[k])]
                 for row in schur]
        g_free[k] = 0.0
    g0, g1, g2, g3 = g_free
    d = [-(s0 * g0 + s1 * g1 + s2 * g2 + s3 * g3) for s0, s1, s2, s3 in schur]
    for k in held:
        d[k] = -h[k][k] * g[k]
    return d


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
    on the free ones. H is reset to the identity when H_HH has a pivot that
    is not positive. The line search follows the projected path
    P(x + t*d) from t = 1: a trial passes the Armijo test or the step
    shrinks by quadratic interpolation, to within [0.1, 0.5] of itself (0.1
    for a non-finite NLL). The first step, and the first after a line
    search fails or a pivot resets H to the identity, has length at most
    1, as in L-BFGS-B. A search stops at a stopping rule, when a line search from
    the identity fails, or after _GARCH_MAX_EVALS values.
    """

    def __init__(self, x: list, f: float, g: list):
        self._x, self.f, self._g = x, f, g
        self.evals = 1
        self._h, self.scaled = _IDENTITY, False
        self.stopped = not (math.isfinite(f) and self._new_direction())

    # The point and its gradient as arrays, for callers outside the search.
    x = property(lambda self: np.array(self._x))
    g = property(lambda self: np.array(self._g))

    def _new_direction(self) -> bool:
        """Aim a line search from x; False when x meets the gradient rule."""
        g = self._g
        # The room from x to the bound that -g points at; x - P(x - g), the
        # projected gradient, has entries of size min(|g_i|, room_i).
        room = [xi - lo if gi > 0 else hi - xi if gi < 0 else math.inf
                for xi, gi, lo, hi in zip(self._x, g, _GARCH_LOWER, _GARCH_UPPER)]
        width = max([r if r < abs(gi) else abs(gi) for gi, r in zip(g, room)])
        if width <= _GARCH_PGTOL:
            return False
        eps = min(_GARCH_ACTIVE, width)
        held = [i for i, r in enumerate(room) if r <= eps]
        self.d = _search_direction(self._h, g, held)
        if self.d is None:
            # As after a failed line search: restart from the identity,
            # whose pivots are all 1.
            self._h, self.scaled = _IDENTITY, False
            self.d = _search_direction(_IDENTITY, g, held)
        self.t = 1.0 if self.scaled else min(1.0, 1.0 / math.sqrt(_dot(self.d, self.d)))
        self.backtracks = 0
        return True

    def trial(self) -> list[float]:
        """The point to evaluate next: x + t*d clipped to the box."""
        self._trial = [hi if hi < (v := xi + self.t * di) else lo if lo > v else v
                       for xi, di, lo, hi in zip(self._x, self.d, _GARCH_LOWER, _GARCH_UPPER)]
        return self._trial

    def advance(self, f: float, g: list) -> bool:
        """Take the objective at the trial point; False once the search stops."""
        self.evals += 1
        step = [a - b for a, b in zip(self._trial, self._x)]
        slope = min(_dot(self._g, step), 0.0)
        if f <= self.f + _ARMIJO * slope:
            decrease = (self.f - f) / max(abs(self.f), abs(f), 1.0)
            # A step that ends with the NLL still falling along it at more
            # than _CURVATURE of its first slope fell short of the line's
            # minimum, so its small decrease says nothing of convergence.
            flattened = _dot(g, step) >= _CURVATURE * slope
            self._update(step, [a - b for a, b in zip(g, self._g)])
            self._x, self.f, self._g = self._trial, f, g
            return ((decrease > _GARCH_FTOL or not flattened)
                    and self.evals < _GARCH_MAX_EVALS and self._new_direction())
        self.backtracks += 1
        if self.evals >= _GARCH_MAX_EVALS:
            return False
        if self.backtracks > _MAX_BACKTRACKS:
            if not self.scaled:
                return False
            self._h, self.scaled = _IDENTITY, False
            return self._new_direction()
        curvature = f - self.f - slope
        shrink = -slope / (2.0 * curvature) if math.isfinite(f) and curvature > 0 else 0.1
        self.t *= min(max(shrink, 0.1), 0.5)
        return True

    def _update(self, s: list, y: list) -> None:
        """BFGS update of H for the step s and gradient change y, skipped when
        the curvature s'y is not positive enough:
        H + (1 + y'Hy/sy) ss'/sy - (Hy s' + s y'H)/sy."""
        sy, yy = _dot(s, y), _dot(y, y)
        if sy <= _EPS * yy:
            return
        if not self.scaled:
            self._h, self.scaled = [[sy / yy * e for e in row] for row in _IDENTITY], True
        y0, y1, y2, y3 = y
        hy = [(h0 * y0 + h1 * y1 + h2 * y2 + h3 * y3) / sy for h0, h1, h2, h3 in self._h]
        c = (1.0 + _dot(y, hy)) / sy
        s0, s1, s2, s3 = s
        c0, c1, c2, c3 = [c * sj - hyj for sj, hyj in zip(s, hy)]
        self._h = [[h0 + (si * c0 - hyi * s0), h1 + (si * c1 - hyi * s1),
                    h2 + (si * c2 - hyi * s2), h3 + (si * c3 - hyi * s3)]
                   for (h0, h1, h2, h3), si, hyi in zip(self._h, s, hy)]


def _garch_search(y: np.ndarray, starts: np.ndarray) -> list[_BoundedBFGS]:
    """The finished search from each row (mu, omega, p, s) of ``starts``.

    The live searches advance in lockstep: each round is one objective
    call over their trial points, and a search leaves once it stops.
    """
    band = np.zeros((2, len(starts) * len(y)), order="F")
    band[0] = 1.0
    nll, grad = _garch_objective(starts, y, band)
    searches = [_BoundedBFGS(x, f, g)
                for x, f, g in zip(starts.tolist(), nll.tolist(), grad.tolist())]
    live = [search for search in searches if not search.stopped]
    while live:
        nll, grad = _garch_objective(np.array([search.trial() for search in live]), y, band)
        live = [search for search, f, g in zip(live, nll.tolist(), grad.tolist())
                if search.advance(f, g)]
    return searches


def _centre(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(mean, x - mean, sum of squared deviations) of ``x``, in one pass of
    ``np.mean`` and ``np.var``'s operations, bit for bit."""
    center = float(np.mean(x))
    dev = x - center
    return center, dev, float(np.sum(dev * dev))


def _garch_fit(center: float, dev: np.ndarray,
               ss: float) -> tuple[float, float, float, float, float]:
    """(NLL, mu, omega, alpha, beta) of the best start for the series x whose
    ``_centre(x)`` is (center, dev, ss), in the units of x.

    Fits the standardized series y = (x - mean) / sd, whose alpha, beta and
    likelihood differences equal those of x: mu and omega scale back, and
    the NLL shifts by n*log(sd).
    """
    sd = math.sqrt(ss / (len(dev) - 1))  # np.var(x, ddof=1)
    y = dev / sd
    best_nll, best = math.inf, None
    for search in _garch_search(y, _GARCH_START_POINTS):
        if search.f < best_nll - _GARCH_LL_MARGIN:
            best_nll, best = search.f, search.x
    if best is None:
        raise GarchConvergenceError("no GARCH start converged to a finite fit")
    mu, omega, p, s = best
    return (best_nll + len(dev) * math.log(sd), center + sd * mu, sd * sd * omega,
            p * s, p * (1.0 - s))


def garch_persistence(r) -> float:
    """alpha + beta of a constant-mean Gaussian QMLE GARCH(1,1) fit.

    The quasi-likelihood starts the variance recursion at the mean squared
    residual. It is maximized by a bounded BFGS search with its analytic
    gradient from two deterministic starts run together, on the
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
    if n < MIN_OBSERVATIONS:
        raise StatisticError(f"need at least {MIN_OBSERVATIONS} observations",
                             component="garch_persistence")
    if _effectively_constant(x):
        raise StatisticError("zero variance: GARCH undefined",
                             component="garch_persistence")
    center, dev, ss = _centre(x)
    null_nll = 0.5 * n * (math.log(2.0 * math.pi * (ss / n)) + 1.0)
    best_nll, _, _, alpha, beta = _garch_fit(center, dev, ss)
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
    k = np.arange(k_lo, k_hi + 1)
    inv = suffix_sums[k_lo : k_hi + 1] / (m - k) - log_pos[k_lo - 1 : k_hi]
    inv = inv[inv > 0]
    if len(inv) < 3:
        raise StatisticError("degenerate tail: ties at the thresholds",
                             component="hill_avg")
    return float(np.mean(1.0 / inv))


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
