"""Plot-ready report tables from repeated simulations at a fitted theta.

Every builder returns rows (header first) ready for CSV serialization;
rendering is left to external tools. Percentile bands are linear
2.5/97.5 percentiles across simulations and collapse onto the single
path when only one simulation is supplied.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from farmerjoshi.market import SimulationOutput
from farmerjoshi.stats import MOMENT_NAMES, MomentVector, _values, acf

#: Plotting positions in the normal-QQ table.
QQ_POINTS = 99


def _r(x) -> str:
    return repr(float(x))


def price_band_rows(outputs: list[SimulationOutput], emp_log_prices=None):
    """Per-day 95% percentile band of log prices across simulations."""
    paths = np.array([o.log_prices for o in outputs])
    lo, med, hi = np.percentile(paths, [2.5, 50.0, 97.5], axis=0)
    emp = None if emp_log_prices is None else np.asarray(emp_log_prices, dtype=float)
    header = ["day", "band_lower", "band_median", "band_upper", "path_0"]
    if emp is not None:
        header.append("empirical")
    yield tuple(header)
    for t in range(paths.shape[1]):
        row = [t, _r(lo[t]), _r(med[t]), _r(hi[t]), _r(paths[0, t])]
        if emp is not None:
            row.append(_r(emp[t]) if t < len(emp) else "")
        yield tuple(row)


def return_path_rows(outputs: list[SimulationOutput], emp_returns=None):
    """Log-return paths: one sample path plus percentile bands."""
    paths = np.array([o.log_returns for o in outputs])
    lo, hi = np.percentile(paths, [2.5, 97.5], axis=0)
    emp = None if emp_returns is None else _values(emp_returns)
    header = ["day", "path_0", "band_lower", "band_upper"]
    if emp is not None:
        header.append("empirical")
    yield tuple(header)
    for t in range(paths.shape[1]):
        row = [t + 1, _r(paths[0, t]), _r(lo[t]), _r(hi[t])]
        if emp is not None:
            row.append(_r(emp[t]) if t < len(emp) else "")
        yield tuple(row)


def acf_rows(outputs: list[SimulationOutput], emp_returns, max_lag: int):
    """ACF of raw and absolute returns with Bartlett significance bands.

    Simulated columns are the median and 2.5/97.5 percentiles across
    simulations; the band column is 1.96/sqrt(T) for the simulated
    length.
    """
    emp = _values(emp_returns)
    emp_r = acf(emp, max_lag)
    emp_abs = acf(np.abs(emp), max_lag)
    sim_r = np.array([acf(o.log_returns, max_lag) for o in outputs])
    sim_abs = np.array([acf(np.abs(o.log_returns), max_lag) for o in outputs])
    band = 1.96 / np.sqrt(len(outputs[0].log_returns))
    r_lo, r_med, r_hi = np.percentile(sim_r, [2.5, 50.0, 97.5], axis=0)
    a_lo, a_med, a_hi = np.percentile(sim_abs, [2.5, 50.0, 97.5], axis=0)
    yield ("lag", "emp_acf_r", "emp_acf_abs_r",
           "sim_acf_r_median", "sim_acf_r_lower", "sim_acf_r_upper",
           "sim_acf_abs_r_median", "sim_acf_abs_r_lower", "sim_acf_abs_r_upper",
           "bartlett_band")
    for k in range(max_lag):
        yield (k + 1, _r(emp_r[k]), _r(emp_abs[k]),
               _r(r_med[k]), _r(r_lo[k]), _r(r_hi[k]),
               _r(a_med[k]), _r(a_lo[k]), _r(a_hi[k]), _r(band))


def qq_rows(outputs: list[SimulationOutput], emp_returns, points: int = QQ_POINTS):
    """Normal-QQ pairs for empirical and simulated returns.

    Quantiles are taken at evenly spaced plotting positions; the
    theoretical column is the standard-normal quantile.
    """
    emp = _values(emp_returns)
    probs = (np.arange(1, points + 1) - 0.5) / points
    theo = ndtri(probs)
    emp_q = np.quantile(emp, probs)
    sim_q = np.median(
        np.array([np.quantile(o.log_returns, probs) for o in outputs]), axis=0)
    yield ("probability", "normal_quantile", "empirical_quantile",
           "simulated_quantile_median")
    for i in range(points):
        yield (_r(probs[i]), _r(theo[i]), _r(emp_q[i]), _r(sim_q[i]))


def strategy_series_rows(output: SimulationOutput):
    """Per-day strategy counts and aggregate profits of one simulation."""
    yield ("day", "n_chartists", "n_fundamentalists",
           "profit_chartists", "profit_fundamentalists")
    for t in range(len(output.log_returns)):
        yield (t + 1, int(output.n_chartists[t]), int(output.n_fundamentalists[t]),
               _r(output.profit_chartists[t]), _r(output.profit_fundamentalists[t]))


def moments_table_rows(sim_moments: list[MomentVector], emp_moments: MomentVector):
    """Per-moment simulated mean and 95% interval next to the empirical value."""
    sims = np.array([m.as_array() for m in sim_moments])
    lo, hi = np.percentile(sims, [2.5, 97.5], axis=0)
    mean = sims.mean(axis=0)
    emp = emp_moments.as_array()
    yield ("moment", "sim_mean", "ci_lower", "ci_upper", "empirical")
    for i, name in enumerate(MOMENT_NAMES):
        yield (name, _r(mean[i]), _r(lo[i]), _r(hi[i]), _r(emp[i]))
