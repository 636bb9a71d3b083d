"""Earlier GARCH(1,1) fits, kept as references for ``stats.garch_persistence``.

Version 1: three Nelder-Mead searches over (mu, omega, alpha, beta) of the
Gaussian quasi-likelihood, from the same starts, with the same tie-break
and BIC screen as the library fit. Slow (about 1,400 likelihood calls per
series), so only the tests use it.

Version 2: the library's gradient fit with both variance recursions run by
``scipy.signal.lfilter`` instead of BLAS ``dtbsv`` (``version2_fit``).

Run as a script to repeat the equivalence study of the library fit against
version 1 over a larger set of series (about two minutes on one core), or
against version 2 with ``--version 2`` (a few seconds):

    PYTHONPATH=src python tests/garch_oracle.py [--version 2] [per_kind]
"""

from __future__ import annotations

import argparse
import math
import time
from unittest import mock

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from farmerjoshi import stats
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

#: Tolerance of the library fit against version 2, fixed before the change:
#: the BIC decision agrees everywhere, and |dp| and |dNLL| stay within these.
VERSION2_P_TOL = 1e-6
VERSION2_NLL_TOL = 1e-6


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


def version2_fit(x: np.ndarray) -> tuple[float, float]:
    """(best NLL, screened persistence) of the version-2 fit of ``x``."""
    with mock.patch.object(stats, "dtbsv", lfilter_tbsv):
        return stats._garch_fit(x)[0], garch_persistence(x)


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


def version2_study(per_kind: int = 44) -> bool:
    """Print the library fit against version 2; True if within the tolerances."""
    rows = []
    for x in equivalence_series(per_kind, seed=1).values():
        nll_old, p_old = version2_fit(x)
        p_new = garch_persistence(x)
        rows.append((abs(p_new - p_old), abs(_garch_fit(x)[0] - nll_old),
                     (p_new == 0.0) == (p_old == 0.0)))
    dp, dnll, agree = (np.array(column) for column in zip(*rows))
    print(f"series {len(rows)}  BIC decisions agree {int(agree.sum())}  "
          f"identical persistence {int(np.sum(dp == 0.0))}")
    print(f"|dp| max {dp.max():.3g} (tolerance {VERSION2_P_TOL:g})  "
          f"|dNLL| max {dnll.max():.3g} (tolerance {VERSION2_NLL_TOL:g})")
    met = bool(agree.all() and dp.max() <= VERSION2_P_TOL and dnll.max() <= VERSION2_NLL_TOL)
    print(f"tolerance {'met' if met else 'NOT met'}")
    return met


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("per_kind", nargs="?", type=int, default=44,
                        help="series per family (default 44)")
    parser.add_argument("--version", type=int, choices=(1, 2), default=1,
                        help="the earlier fit to compare with (default 1)")
    args = parser.parse_args()
    if args.version == 2:
        raise SystemExit(0 if version2_study(args.per_kind) else 1)
    study(args.per_kind)
