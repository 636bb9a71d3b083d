"""Plot-ready report tables from repeated simulations at a fitted theta.

Every builder returns rows (header first) ready for CSV serialization;
rendering is left to external tools. Percentile bands are linear
2.5/97.5 percentiles across simulations and collapse onto the single
path when only one simulation is supplied.

The QQ table's normal quantiles come from ``_ndtri``, a port of the Cephes
routine that ``scipy.special.ndtri`` wraps, equal to it bit for bit; so
building any table loads numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from farmerjoshi.market import SimulationOutput
from farmerjoshi.stats import MOMENT_NAMES, _values, acf

#: Plotting positions in the normal-QQ table.
QQ_POINTS = 99


# Cephes ndtri's rational approximations: P0/Q0 for |y - 0.5| <= 3/8, then in
# z = 1/sqrt(-2 log y) P1/Q1 for y down to exp(-32) and P2/Q2 below it, each
# highest power first. Cephes leaves the Q tables' leading 1 implicit (p1evl).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, in Cephes ``polevl``'s order (``p1evl``'s for a leading 1)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """The standard-normal quantile of ``y`` in [0, 1] (Cephes ``ndtri``, as scipy runs it)."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - 0.13533528323661269189  # exp(-2)
    if upper:
        y = 1.0 - y
    if y > 0.13533528323661269189:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def _r(x) -> str:
    return repr(float(x))


def price_band_rows(outputs: list[SimulationOutput], emp_log_prices):
    """Per-day 95% percentile band of log prices across simulations, beside
    the empirical log price (blank past its end)."""
    paths = np.array([o.log_prices for o in outputs])
    lo, med, hi = np.percentile(paths, [2.5, 50.0, 97.5], axis=0)
    emp = np.asarray(emp_log_prices, dtype=float)
    yield ("day", "band_lower", "band_median", "band_upper", "path_0", "empirical")
    for t in range(paths.shape[1]):
        yield (t, _r(lo[t]), _r(med[t]), _r(hi[t]), _r(paths[0, t]),
               _r(emp[t]) if t < len(emp) else "")


def return_path_rows(outputs: list[SimulationOutput], emp_returns):
    """Log-return paths: one sample path plus percentile bands, beside the
    empirical return (blank past its end)."""
    paths = np.array([o.log_returns for o in outputs])
    lo, hi = np.percentile(paths, [2.5, 97.5], axis=0)
    emp = _values(emp_returns)
    yield ("day", "path_0", "band_lower", "band_upper", "empirical")
    for t in range(paths.shape[1]):
        yield (t + 1, _r(paths[0, t]), _r(lo[t]), _r(hi[t]),
               _r(emp[t]) if t < len(emp) else "")


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
    theo = [_ndtri(p) for p in probs.tolist()]
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


def moments_table_rows(sims: np.ndarray, emp: np.ndarray):
    """Per-moment simulated mean and 95% interval next to the empirical value,
    from an (I, k) array of simulated moment vectors and the empirical one."""
    lo, hi = np.percentile(sims, [2.5, 97.5], axis=0)
    mean = sims.mean(axis=0)
    yield ("moment", "sim_mean", "ci_lower", "ci_upper", "empirical")
    for i, name in enumerate(MOMENT_NAMES):
        yield (name, _r(mean[i]), _r(lo[i]), _r(hi[i]), _r(emp[i]))
