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

Run as a script to repeat the equivalence study of the library fit against
version 1 over a larger set of series (about two minutes on one core), or
against version 3 or 2 with ``--version 3`` or ``--version 2`` (about ten
seconds):

    PYTHONPATH=src python tests/garch_oracle.py [--version {1,2,3}] [per_kind]
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
    _GARCH_LL_MARGIN,
    _GARCH_STARTS,
    _PERSISTENCE_CAP,
    _garch_fit,
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
    """(best NLL, unscreened alpha + beta) of the three-start Nelder-Mead fit."""
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
        "nll_new": _garch_fit(x)[0],
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


def gradient_fit_rows(series: dict, version: int = 3) -> dict:
    """The library fit against version 3 (or 2) on each named series:
    screened persistence, best NLL and GARCH seconds of both, the two fits
    run alternately first from one series to the next."""
    old_fit = version3_fit if version == 3 else version2_fit
    rows = {}
    for i, (name, x) in enumerate(series.items()):
        times = {}
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            t0 = time.perf_counter()
            fit = old_fit(x) if side == "old" else _garch_fit(x)
            times[side] = time.perf_counter() - t0
            nll, _, _, alpha, beta = fit
            rows.setdefault(name, {}).update({f"p_{side}": screened(x, nll, alpha, beta),
                                              f"nll_{side}": nll})
        rows[name].update({f"s_{side}": s for side, s in times.items()})
    return rows


def gradient_fit_verdict(rows: dict) -> dict:
    """Shares of agreeing BIC decisions and of |dp| <= VERSION3_P_TOL, the
    series with a larger |dp| whose NLL rose, median GARCH seconds, whether
    the accuracy criteria are met (``met``) and whether the library's median
    is no slower (``no_slower``). The timing is kept apart because it reads
    the load on the host as well as the fit."""
    dp = {name: abs(r["p_new"] - r["p_old"]) for name, r in rows.items()}
    verdict = {
        "agree": float(np.mean([(r["p_new"] == 0.0) == (r["p_old"] == 0.0)
                                for r in rows.values()])),
        "close": float(np.mean([d <= VERSION3_P_TOL for d in dp.values()])),
        "worse": [name for name, d in dp.items()
                  if d > VERSION3_P_TOL and rows[name]["nll_new"] > rows[name]["nll_old"]],
        "s_old": float(np.median([r["s_old"] for r in rows.values()])),
        "s_new": float(np.median([r["s_new"] for r in rows.values()])),
    }
    verdict["met"] = (verdict["agree"] >= VERSION3_SHARE and verdict["close"] >= VERSION3_SHARE
                      and not verdict["worse"])
    verdict["no_slower"] = verdict["s_new"] <= verdict["s_old"]
    return verdict


def gradient_fit_study(per_kind: int = 44, version: int = 3) -> bool:
    """Print the library fit against version 3 (or 2); True if the accuracy
    and timing criteria are both met."""
    rows = gradient_fit_rows(equivalence_series(per_kind, seed=1), version)
    verdict = gradient_fit_verdict(rows)
    dp = np.array([abs(r["p_new"] - r["p_old"]) for r in rows.values()])
    print(f"series {len(rows)}  BIC decisions agree {verdict['agree']:.4f}  "
          f"|dp| <= {VERSION3_P_TOL:g} on {verdict['close']:.4f}  "
          f"identical persistence {int(np.sum(dp == 0.0))}")
    print(f"|dp| max {dp.max():.3g}  p99 {np.quantile(dp, 0.99):.3g}  "
          f"median {np.median(dp):.3g}")
    for name, r in rows.items():
        if abs(r["p_new"] - r["p_old"]) > VERSION3_P_TOL:
            print(f"  {name}: p {r['p_old']:.6f} -> {r['p_new']:.6f}, "
                  f"NLL {r['nll_old']:.6f} -> {r['nll_new']:.6f}")
    print(f"median GARCH time per series: version {version} "
          f"{1e3 * verdict['s_old']:.2f} ms, library {1e3 * verdict['s_new']:.2f} ms "
          f"({verdict['s_old'] / verdict['s_new']:.2f}x)")
    print(f"accuracy criteria {'met' if verdict['met'] else 'NOT met'}, "
          f"median time {'no slower' if verdict['no_slower'] else 'SLOWER'}")
    return verdict["met"] and verdict["no_slower"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("per_kind", nargs="?", type=int, default=44,
                        help="series per family (default 44)")
    parser.add_argument("--version", type=int, choices=(1, 2, 3), default=1,
                        help="the earlier fit to compare with (default 1)")
    args = parser.parse_args()
    if args.version == 1:
        study(args.per_kind)
    else:
        raise SystemExit(0 if gradient_fit_study(args.per_kind, args.version) else 1)
