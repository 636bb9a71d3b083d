"""Earlier GARCH(1,1) fits, kept as references for ``stats.garch_persistence``.

Version 1: three Nelder-Mead searches over (mu, omega, alpha, beta) of the
Gaussian quasi-likelihood, from the same starts, with the same tie-break
and BIC screen as the library fit. Slow (about 1,400 likelihood calls per
series), so only the tests use it.

Version 3: the same Gaussian quasi-likelihood with its analytic gradient,
fitted by scipy's L-BFGS-B from each start in turn, the variance recursion
and its adjoint run by BLAS ``dtbsv`` (``version3_fit``).

Version 2: version 3 with both recursions run by ``scipy.signal.lfilter``
instead of ``dtbsv`` (``version2_fit``).

Version 4: the library's stacked bounded BFGS search with its bookkeeping
(x, g, the direction and the inverse Hessian) in NumPy arrays
(``version4_fit``); the library keeps the same rules in Python floats.

Versions 1 to 4 run from the library's starts, ``stats._GARCH_STARTS``.

Version 7: the library's search from three starts, (alpha, beta) = (0.05,
0.40) between the library's two (``version7_fit``).

Run as a script to repeat the equivalence study of the library fit against
version 1 over a larger set of series (about two minutes on one core), or
against version 7, 4, 3 or 2 with ``--version 7`` (three sets of series),
``--version 4``, ``--version 3`` or ``--version 2`` (about ten seconds a
set); the last four exit 1 when a criterion fails:

    PYTHONPATH=src python tests/garch_oracle.py [--version {1,2,3,4,7}] [per_kind]
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.optimize import minimize
from scipy.signal import lfilter

from farmerjoshi.calibration import ParameterSpace
from farmerjoshi.market import DEFAULT_PARAMETERS, BlowUpError, simulate
from farmerjoshi.stats import (
    _ARMIJO,
    _CURVATURE,
    _EPS,
    _GARCH_ACTIVE,
    _GARCH_FTOL,
    _GARCH_LL_MARGIN,
    _GARCH_LOWER,
    _GARCH_MAX_EVALS,
    _GARCH_PGTOL,
    _GARCH_START_POINTS,
    _GARCH_STARTS,
    _GARCH_UPPER,
    _MAX_BACKTRACKS,
    _PERSISTENCE_CAP,
    _centre,
    _garch_fit,
    _garch_objective,
    _garch_search,
    garch_persistence,
)
from farmerjoshi.weighting import moving_block_bootstrap

from conftest import garch_returns

#: Tolerance of the library fit against version 1, fixed before the rewrite:
#: the BIC decision agrees everywhere, and the persistence moves by more than
#: this only where the library fit reaches a lower NLL.
PERSISTENCE_TOL = 1e-3

#: Criteria of the library fit against version 3, fixed before the change:
#: on at least VERSION3_SHARE of the series the BIC decisions agree and
#: |dp| <= VERSION3_P_TOL, and on every series with a larger |dp| the
#: library's NLL is at most version 3's.
VERSION3_P_TOL = 1e-4
VERSION3_SHARE = 0.99

#: Criteria of the library fit against version 4, fixed before the change:
#: on at least VERSION4_SHARE of the series the BIC decisions agree and
#: |dp| <= VERSION4_P_TOL, and on every series with a larger |dp| the
#: library's NLL is at most version 4's; the script also asks for a median
#: fit at least VERSION4_SPEEDUP times faster than version 4's.
VERSION4_P_TOL = 1e-6
VERSION4_SHARE = 0.99
VERSION4_SPEEDUP = 1.15

#: Criteria of the library fit against version 7, fixed before the change:
#: every BIC decision agrees, |dp| <= VERSION7_P_TOL on every series and the
#: persistence is bit-identical on at least VERSION7_IDENTICAL of them; the
#: script also asks for a median fit no slower than version 7's.
VERSION7_P_TOL = 1e-5
VERSION7_IDENTICAL = 0.99

#: Version 7's (alpha, beta) starts and the same as points (mu, omega, p, s).
VERSION7_STARTS = ((0.02, 0.05), (0.05, 0.40), (0.10, 0.80))
VERSION7_START_POINTS = np.array([[0.0, 1.0 - a - b, a + b, a / (a + b)]
                                  for a, b in VERSION7_STARTS])

#: Version 3's box of the standardized (mu, omega, p, s).
VERSION3_BOUNDS = ((None, None), (1e-10, None), (0.0, _PERSISTENCE_CAP), (0.0, 1.0))


def garch_nll(theta, x: np.ndarray) -> float:
    """Gaussian negative log-likelihood with sigma2[0] = mean(e**2); 1e12 off the domain."""
    mu, omega, alpha, beta = theta
    if omega <= 0 or alpha < 0 or beta < 0 or alpha + beta >= _PERSISTENCE_CAP:
        return 1e12
    eps = x - mu
    e2 = eps * eps
    s0 = float(np.mean(e2))
    if s0 <= 0:
        return 1e12
    # sigma2[t] = omega + alpha*e2[t-1] + beta*sigma2[t-1], sigma2[0] = s0
    driven = omega + alpha * e2[:-1]
    tail, _ = lfilter([1.0], [1.0, -beta], driven, zi=np.array([beta * s0]))
    sigma2 = np.concatenate(([s0], tail))
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        return 1e12
    nll = 0.5 * float(np.sum(np.log(2.0 * np.pi * sigma2) + e2 / sigma2))
    if not math.isfinite(nll):
        return 1e12
    return nll


def null_nll(x: np.ndarray) -> float:
    """Negative log-likelihood of the constant-variance model at its optimum."""
    n = len(x)
    return 0.5 * n * (math.log(2.0 * math.pi * float(np.mean((x - np.mean(x)) ** 2))) + 1.0)


def nelder_mead_fit(x: np.ndarray) -> tuple[float, float]:
    """(best NLL, unscreened alpha + beta) of the Nelder-Mead fit from the library's starts."""
    var0 = float(np.var(x, ddof=1))
    mu0 = float(np.mean(x))
    best = None
    best_nll = math.inf
    for a0, b0 in _GARCH_STARTS:
        w0 = var0 * (1.0 - a0 - b0)
        res = minimize(
            garch_nll, np.array([mu0, w0, a0, b0]), args=(x,),
            method="Nelder-Mead",
            options={"maxiter": 1000, "xatol": 1e-7, "fatol": 1e-6},
        )
        if not np.isfinite(res.fun) or res.fun >= 1e12:
            continue
        if res.fun < best_nll - _GARCH_LL_MARGIN:
            best_nll = float(res.fun)
            best = res.x
    if best is None:
        raise RuntimeError("no GARCH start converged to a finite fit")
    _, _, alpha, beta = best
    return best_nll, float(alpha + beta)


def lfilter_tbsv(k, band, x, lower=1, trans=0, diag=1, overwrite_x=0):
    """``dtbsv`` of a unit lower-bidiagonal band, computed the version-2 way.

    ``lfilter`` runs the forward recursion x[t] + beta*out[t-1] with two
    roundings a step, and the transposed solve over the reversed input.
    """
    a = [1.0, band[1, 0]]
    if trans:
        return lfilter([1.0], a, x[::-1])[::-1]
    return lfilter([1.0], a, x)


def version3_objective(theta: np.ndarray, y: np.ndarray, band: np.ndarray,
                       solve=dtbsv) -> tuple[float, np.ndarray]:
    """Version 3's NLL at one (mu, omega, p, s) and its gradient, both
    recursions run by ``solve`` with the sub-diagonal -beta in ``band``."""
    mu, omega, p, s = theta
    alpha, beta = p * s, p * (1.0 - s)
    e = y - mu
    e2 = e * e
    forcing = np.empty_like(y)
    forcing[0] = e2.mean()
    np.multiply(e2[:-1], alpha, out=forcing[1:])
    forcing[1:] += omega
    band[1] = -beta
    sigma2 = solve(1, band, forcing, lower=1, diag=1, overwrite_x=1)
    ratio = e2 / sigma2
    nll = 0.5 * (len(y) * math.log(2.0 * math.pi) + np.log(sigma2).sum() + ratio.sum())
    adjoint = solve(1, band, (0.5 - 0.5 * ratio) / sigma2, lower=1, trans=1, diag=1,
                    overwrite_x=1)
    lam = adjoint[1:]
    g_alpha = lam @ e2[:-1]
    g_beta = lam @ sigma2[:-1]
    g_mu = -2.0 * (alpha * (lam @ e[:-1]) + adjoint[0] * e.mean()) - (e / sigma2).sum()
    grad = np.array([g_mu, lam.sum(), s * g_alpha + (1.0 - s) * g_beta,
                     p * (g_alpha - g_beta)])
    return float(nll), grad


def version3_fit(x: np.ndarray, solve=dtbsv) -> tuple[float, float, float, float, float]:
    """(NLL, mu, omega, alpha, beta) of version 3's best start, in the units of ``x``."""
    center = float(np.mean(x))
    sd = math.sqrt(float(np.var(x, ddof=1)))
    y = (x - center) / sd
    band = np.ones((2, len(y)), order="F")
    best_nll, best = math.inf, None
    for a0, b0 in _GARCH_STARTS:
        p0 = a0 + b0
        res = minimize(version3_objective, np.array([0.0, 1.0 - p0, p0, a0 / p0]),
                       args=(y, band, solve), jac=True, method="L-BFGS-B",
                       bounds=VERSION3_BOUNDS)
        if np.isfinite(res.fun) and res.fun < best_nll - _GARCH_LL_MARGIN:
            best_nll, best = float(res.fun), res.x
    if best is None:
        raise RuntimeError("no GARCH start converged to a finite fit")
    mu, omega, p, s = best
    return (best_nll + len(x) * math.log(sd), center + sd * mu, sd * sd * omega,
            p * s, p * (1.0 - s))


def version2_fit(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """Version 3's fit with both recursions run by ``lfilter``."""
    return version3_fit(x, solve=lfilter_tbsv)


class Version4Search:
    """Version 4's search from one start: the rules of ``stats._BoundedBFGS``
    with x, g, the direction and the inverse Hessian in NumPy arrays."""

    lower, upper = np.array(_GARCH_LOWER), np.array(_GARCH_UPPER)

    def __init__(self, x: np.ndarray, f: float, g: np.ndarray):
        self.x, self.f, self.g = x, f, g
        self.evals = 1
        self.inv, self.scaled = np.eye(4), False
        self.stopped = not (math.isfinite(f) and self._new_direction())

    def _new_direction(self) -> bool:
        x, g, h = self.x, self.g, self.inv
        room_down, room_up = x - self.lower, self.upper - x
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
        self.x_trial = np.minimum(np.maximum(self.x + self.t * self.d, self.lower), self.upper)
        return self.x_trial

    def advance(self, f: float, g: np.ndarray) -> bool:
        self.evals += 1
        step = self.x_trial - self.x
        slope = min(float(self.g.dot(step)), 0.0)
        if f <= self.f + _ARMIJO * slope:
            decrease = (self.f - f) / max(abs(self.f), abs(f), 1.0)
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
        sy, yy = float(s.dot(y)), float(y.dot(y))
        if sy <= _EPS * yy:
            return
        if not self.scaled:
            self.inv, self.scaled = sy / yy * np.eye(4), True
        hy = self.inv.dot(y) / sy
        self.inv += s[:, None] * ((1.0 + y.dot(hy)) / sy * s - hy) - hy[:, None] * s


def version4_search(y: np.ndarray, starts: np.ndarray) -> list[Version4Search]:
    """Version 4's finished search from each row of ``starts``, in lockstep."""
    band = np.zeros((2, len(starts) * len(y)), order="F")
    band[0] = 1.0
    searches = [Version4Search(x, float(f), g)
                for x, f, g in zip(starts, *_garch_objective(starts, y, band))]
    live = [search for search in searches if not search.stopped]
    while live:
        trials = np.array([search.trial() for search in live])
        live = [search for search, f, g in zip(live, *_garch_objective(trials, y, band))
                if search.advance(float(f), g)]
    return searches


def version4_fit(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """(NLL, mu, omega, alpha, beta) of version 4's best start, in the units of ``x``."""
    center = float(np.mean(x))
    sd = math.sqrt(float(np.var(x, ddof=1)))
    return best_start(version4_search((x - center) / sd, _GARCH_START_POINTS), center, sd,
                      len(x))


def version7_fit(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """(NLL, mu, omega, alpha, beta) of version 7's best start, in the units of ``x``."""
    center, dev, ss = _centre(x)
    sd = math.sqrt(ss / (len(dev) - 1))
    return best_start(_garch_search(dev / sd, VERSION7_START_POINTS), center, sd,
                      len(x))


def best_start(searches: list, center: float, sd: float,
               n: int) -> tuple[float, float, float, float, float]:
    """(NLL, mu, omega, alpha, beta) of the first search whose NLL no later
    one beats by more than the tie margin, scaled back by ``center`` and
    ``sd`` to the units of the series of ``n`` returns."""
    best_nll, best = math.inf, None
    for search in searches:
        if search.f < best_nll - _GARCH_LL_MARGIN:
            best_nll, best = search.f, search.x
    if best is None:
        raise RuntimeError("no GARCH start converged to a finite fit")
    mu, omega, p, s = best
    return (best_nll + n * math.log(sd), center + sd * mu, sd * sd * omega,
            p * s, p * (1.0 - s))


def screened(x: np.ndarray, nll: float, alpha: float, beta: float) -> float:
    """The persistence a fit reports: alpha + beta, or 0.0 unless the fit's
    log-likelihood beats the constant-variance null's by more than ln(n)."""
    return 0.0 if null_nll(x) - nll <= math.log(len(x)) else float(alpha + beta)


def equivalence_series(per_kind: int, days: int = 2500, seed: int = 0) -> dict:
    """Named test series: ``per_kind`` each of standard and adaptive paths at
    random thetas, ``conftest.garch_returns`` at random (alpha, beta), i.i.d.
    normals and block-bootstrap replicates of a clustered series.

    The first path of each variant is at ``DEFAULT_PARAMETERS``; blown-up
    paths are skipped, so a variant may yield fewer than ``per_kind``.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for variant in ("standard", "adaptive"):
        space = ParameterSpace(variant)
        for k in range(per_kind):
            theta = space.repair(space.lower + rng.random(space.dim)
                                 * (space.upper - space.lower))
            params = DEFAULT_PARAMETERS if k == 0 else space.to_model_parameters(theta)
            try:
                path = simulate(params, variant, days, p0=0.0, seed=1000 + k)
            except BlowUpError:
                continue
            out[f"{variant}/{k}"] = path.log_returns
    for k in range(per_kind):
        alpha = rng.uniform(0.02, 0.2)
        beta = rng.uniform(0.5, 0.97 - alpha)
        out[f"garch/{k}"] = garch_returns(days, seed=k, alpha=alpha, beta=beta)
        out[f"iid/{k}"] = 0.01 * np.random.default_rng(k).standard_normal(days)
    clustered = garch_returns(days, seed=2024)
    for k in range(per_kind):
        out[f"bootstrap/{k}"] = moving_block_bootstrap(clustered, 100, seed=k).values
    return out


def compare(x: np.ndarray) -> dict:
    """Both fits of one series: screened persistence, best NLL and seconds of each."""
    t0 = time.perf_counter()
    nll_old, unscreened_old = nelder_mead_fit(x)
    t1 = time.perf_counter()
    p_new = garch_persistence(x)
    t2 = time.perf_counter()
    kept_old = null_nll(x) - nll_old > math.log(len(x))
    return {
        "p_new": p_new,
        "p_old": unscreened_old if kept_old else 0.0,
        "nll_new": _garch_fit(*_centre(x))[0],
        "nll_old": nll_old,
        "s_new": t2 - t1,
        "s_old": t1 - t0,
    }


def within_tolerance(row: dict) -> bool:
    """Same BIC decision, and |dp| <= PERSISTENCE_TOL unless the NLL fell."""
    same_decision = (row["p_new"] == 0.0) == (row["p_old"] == 0.0)
    close = abs(row["p_new"] - row["p_old"]) <= PERSISTENCE_TOL
    return same_decision and (close or row["nll_new"] <= row["nll_old"])


def study(per_kind: int = 44) -> None:
    """Print the equivalence study: |dp| quantiles, decisions, NLL where dp is large."""
    rows = {name: compare(x) for name, x in equivalence_series(per_kind, seed=1).items()}
    dp = np.array([abs(r["p_new"] - r["p_old"]) for r in rows.values()])
    agree = sum((r["p_new"] == 0.0) == (r["p_old"] == 0.0) for r in rows.values())
    print(f"series {len(rows)}  BIC decisions agree {agree}  "
          f"fitted {sum(r['p_new'] > 0.0 for r in rows.values())}")
    print(f"|dp| max {dp.max():.3g}  p99 {np.quantile(dp, 0.99):.3g}  "
          f"median {np.median(dp):.3g}  share <= {PERSISTENCE_TOL:g}: "
          f"{np.mean(dp <= PERSISTENCE_TOL):.4f}")
    print(f"fit time: Nelder-Mead {sum(r['s_old'] for r in rows.values()):.1f} s, "
          f"L-BFGS-B {sum(r['s_new'] for r in rows.values()):.1f} s")
    for name, r in rows.items():
        if abs(r["p_new"] - r["p_old"]) > PERSISTENCE_TOL:
            print(f"  {name}: p {r['p_old']:.6f} -> {r['p_new']:.6f}, "
                  f"NLL {r['nll_old']:.4f} -> {r['nll_new']:.4f}")
    failing = [name for name, r in rows.items() if not within_tolerance(r)]
    print(f"outside tolerance: {failing or 'none'}")


#: The earlier gradient fits by version, with the |dp| tolerance, the share
#: of series held to it (and to the same BIC decision), the share whose
#: persistence must be bit-identical and the speed-up that the library fit
#: must meet.
GRADIENT_FITS = {
    2: (version2_fit, VERSION3_P_TOL, VERSION3_SHARE, 0.0, 1.0),
    3: (version3_fit, VERSION3_P_TOL, VERSION3_SHARE, 0.0, 1.0),
    4: (version4_fit, VERSION4_P_TOL, VERSION4_SHARE, 0.0, VERSION4_SPEEDUP),
    7: (version7_fit, VERSION7_P_TOL, 1.0, VERSION7_IDENTICAL, 1.0),
}

#: The seeds of ``equivalence_series`` that each version's study runs on.
STUDY_SEEDS = {2: (1,), 3: (1,), 4: (1,), 7: (0, 1, 2)}


def gradient_fit_rows(series: dict, version: int = 3) -> dict:
    """The library fit against version 7, 4, 3 or 2 on each named series:
    screened persistence, best NLL and GARCH seconds of both, the two fits
    run alternately first from one series to the next."""
    old_fit = GRADIENT_FITS[version][0]
    rows = {}
    for i, (name, x) in enumerate(series.items()):
        times = {}
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            t0 = time.perf_counter()
            fit = old_fit(x) if side == "old" else _garch_fit(*_centre(x))
            times[side] = time.perf_counter() - t0
            nll, _, _, alpha, beta = fit
            rows.setdefault(name, {}).update({f"p_{side}": screened(x, nll, alpha, beta),
                                              f"nll_{side}": nll})
        rows[name].update({f"s_{side}": s for side, s in times.items()})
    return rows


def gradient_fit_verdict(rows: dict, version: int = 3) -> dict:
    """Shares of agreeing BIC decisions, of |dp| within that version's
    tolerance and of bit-identical persistences, the series with a larger
    |dp| whose NLL rose, median GARCH seconds, whether the accuracy criteria
    are met (``met``) and whether the library's median is at least that
    version's speed-up faster (``fast``; no slower for versions 2, 3 and
    7). The timing is kept apart because it reads the load on the host as
    well as the fit."""
    _, p_tol, share, identical, speedup = GRADIENT_FITS[version]
    dp = {name: abs(r["p_new"] - r["p_old"]) for name, r in rows.items()}
    verdict = {
        "agree": float(np.mean([(r["p_new"] == 0.0) == (r["p_old"] == 0.0)
                                for r in rows.values()])),
        "close": float(np.mean([d <= p_tol for d in dp.values()])),
        "identical": float(np.mean([d == 0.0 for d in dp.values()])),
        "worse": [name for name, d in dp.items()
                  if d > p_tol and rows[name]["nll_new"] > rows[name]["nll_old"]],
        "s_old": float(np.median([r["s_old"] for r in rows.values()])),
        "s_new": float(np.median([r["s_new"] for r in rows.values()])),
    }
    verdict["met"] = (verdict["agree"] >= share and verdict["close"] >= share
                      and verdict["identical"] >= identical and not verdict["worse"])
    verdict["fast"] = verdict["s_old"] >= speedup * verdict["s_new"]
    return verdict


def search_load(series: dict, points: np.ndarray) -> tuple[float, float]:
    """Mean likelihood rows and mean lockstep rounds of one fit from the
    starts ``points`` over the named series."""
    rows, rounds = [], []
    for x in series.values():
        _, dev, ss = _centre(x)
        evals = [search.evals for search in
                 _garch_search(dev / math.sqrt(ss / (len(dev) - 1)), points)]
        rows.append(sum(evals))
        rounds.append(max(evals))
    return float(np.mean(rows)), float(np.mean(rounds))


def gradient_fit_study(per_kind: int = 44, version: int = 3) -> bool:
    """Print the library fit against version 7, 4, 3 or 2; True if the
    accuracy and timing criteria are both met."""
    series = {f"{seed}:{name}": x for seed in STUDY_SEEDS[version]
              for name, x in equivalence_series(per_kind, seed=seed).items()}
    rows = gradient_fit_rows(series, version)
    verdict = gradient_fit_verdict(rows, version)
    _, p_tol, _, identical, speedup = GRADIENT_FITS[version]
    # With a bit-identical criterion, every series that moved is listed.
    listed = 0.0 if identical else p_tol
    dp = np.array([abs(r["p_new"] - r["p_old"]) for r in rows.values()])
    print(f"series {len(rows)}  BIC decisions agree {verdict['agree']:.4f}  "
          f"|dp| <= {p_tol:g} on {verdict['close']:.4f}  "
          f"identical persistence {int(np.sum(dp == 0.0))}")
    print(f"|dp| max {dp.max():.3g}  p99 {np.quantile(dp, 0.99):.3g}  "
          f"median {np.median(dp):.3g}")
    for name, r in rows.items():
        if abs(r["p_new"] - r["p_old"]) > listed:
            print(f"  {name}: p {r['p_old']:.9f} -> {r['p_new']:.9f}, "
                  f"NLL {r['nll_old']:.9f} -> {r['nll_new']:.9f}")
    if version == 7:
        for label, points in (("version 7", VERSION7_START_POINTS),
                              ("library", _GARCH_START_POINTS)):
            print("{}: likelihood rows per fit {:.1f}, rounds {:.1f}".format(
                label, *search_load(series, points)))
    print(f"median GARCH time per series: version {version} "
          f"{1e3 * verdict['s_old']:.2f} ms, library {1e3 * verdict['s_new']:.2f} ms "
          f"({verdict['s_old'] / verdict['s_new']:.2f}x)")
    print(f"accuracy criteria {'met' if verdict['met'] else 'NOT met'}, "
          f"median time {'' if verdict['fast'] else 'NOT '}at least {speedup:g}x faster")
    return verdict["met"] and verdict["fast"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("per_kind", nargs="?", type=int, default=44,
                        help="series per family (default 44)")
    parser.add_argument("--version", type=int, choices=(1, 2, 3, 4, 7), default=1,
                        help="the earlier fit to compare with (default 1)")
    args = parser.parse_args()
    if args.version == 1:
        study(args.per_kind)
    else:
        raise SystemExit(0 if gradient_fit_study(args.per_kind, args.version) else 1)
