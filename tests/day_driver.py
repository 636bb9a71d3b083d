"""The day kernel driven a day at a time, and the model's rules for one trader.

``simulate_batch`` feeds the kernel ``market._Runs.run`` blocks of days and
keeps only its outputs. :class:`DayDriver` builds a one-seed ``_Runs`` and
feeds ``run`` one day of draws per :meth:`DayDriver.step`, so a test can read
row 0's trader state after every day: positions, strategy draws, the shadow
window and the rolling profits that the next day's switch reads. The draws
come from the row's own streams, as ``simulate`` draws them, unless the test
prescribes the switching draws.

The functions after it state the model's rules for one trader and one day;
the tests hold the kernel to them.
"""

import numpy as np

from farmerjoshi.market import CHART, FUND, ModelParameters, ParameterError, _Runs


def _row0(name: str) -> property:
    return property(lambda self: getattr(self.runs, name)[0])


class DayDriver:
    """One run of ``variant`` with room for ``days`` days, moved a day per :meth:`step`.

    Trader attributes are (N,) views of row 0. A standard run keeps no
    shadow positions (``runs.shadow_window`` is None).
    """

    entry = _row0("entry")
    exit = _row0("exit")
    lag = _row0("lag")
    value = _row0("value")
    capital = _row0("capital")
    pos_actual = _row0("pos_actual")

    def __init__(self, params: ModelParameters, variant: str, days: int,
                 p0: float = 0.0, seed: int = 0):
        self.params = params
        self.adaptive = variant == "adaptive"
        self.runs = _Runs(params, p0, [seed], days, self.adaptive)
        self.rng_zeta, self.rng_eta, self.rng_switch = self.runs.streams[0]

    @property
    def day(self) -> int:
        return self.runs.day

    def step(self, u=None) -> None:
        """Run one day; ``u`` (a scalar or (N,)) replaces the day's switching draws.

        Raises the BlowUpError of a day out of range.
        """
        p = self.params
        n_eta = p.n_traders if self.adaptive else p.n_fundamentalists()
        zeta = self.rng_zeta.normal(0.0, p.sigma_zeta, size=(1, 1))
        eta = self.rng_eta.normal(p.mu_eta, p.sigma_eta, size=(1, 1, n_eta))
        if u is not None:
            u = np.broadcast_to(u, (1, 1, p.n_traders))
        elif self.adaptive:
            u = self.rng_switch.random((1, 1, p.n_traders))
        blown = self.runs.run(zeta, eta, u)
        if blown:
            raise blown[0]

    @property
    def is_chartist(self) -> np.ndarray:
        """Each trader's strategy on the last day: its draw (adaptive) or the
        fixed split, the last half of the traders (standard)."""
        if self.adaptive:
            return self.runs._decisions[0, 0]
        return np.arange(self.params.n_traders) >= self.params.n_fundamentalists()

    def log_price(self, t: int) -> float:
        """p_t for day t; the ``d_max`` days before day 0 hold p0."""
        return float(self.runs.prices[0, self.params.d_max + t])

    @property
    def log_prices(self) -> np.ndarray:
        """p_0..p_day."""
        d_max = self.params.d_max
        return self.runs.prices[0, d_max : d_max + self.day + 1].copy()

    def _shadows(self, t: int) -> np.ndarray:
        """Both strategies' shadow positions held after day t, (2, N)."""
        runs = self.runs
        if not runs.base <= t <= runs.day:
            raise IndexError(f"day {t} is outside the window {runs.base}..{runs.day}")
        return runs.shadow_window[0, :, t - runs.base]

    def shadow_fund(self, t: int) -> np.ndarray:
        return self._shadows(t)[FUND]

    def shadow_chart(self, t: int) -> np.ndarray:
        return self._shadows(t)[CHART]

    def rolling_profits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-trader (chartist, fundamentalist) profits that drive the next switch.

        The product the kernel forms before it redraws the strategies: one
        (1, h) @ (h, N) product per strategy over the last ``horizon``
        returns and shadow rows, which numpy hands to BLAS gemv one by one.
        One (h, 2N) product would round differently. Before day 1 the
        products are empty, so zero.
        """
        runs, t = self.runs, self.runs.day
        k = max(0, t - self.params.horizon)
        dp = runs.returns[:, None, None, k:t]
        window = runs.shadow_window[:, :, k - runs.base : t - runs.base]
        pi = np.matmul(dp, window)[0, :, 0]
        return pi[CHART], pi[FUND]


# ---------------------------------------------------------------------------
# One trader, one day
# ---------------------------------------------------------------------------

def market_impact_update(p_t: float, net_order: float, lam: float, zeta: float) -> float:
    """Next log price: p_t + net_order / lam + zeta."""
    if lam <= 0:
        raise ParameterError("lam must be positive")
    return p_t + net_order / lam + zeta


def threshold_transition(current: float, m: float, T: float, tau: float, c: float) -> float:
    """One day of the entry/exit state machine for a single position.

    ``current`` is the signed position in {-c, 0, +c}. Flat enters long
    at m < -T and short at m > T; long exits once m rises above -tau;
    short exits once m falls below tau.
    """
    if current == 0.0:
        if m < -T:
            return c
        if m > T:
            return -c
        return 0.0
    if current > 0.0:
        return 0.0 if m > -tau else current
    return 0.0 if m < tau else current


def strategy_profit(shadow_positions, log_prices, H: int, t: int) -> float:
    """Rolling profit of one strategy over the ``H`` days ending at day t.

    ``shadow_positions[k]`` is the position held after day k's decision,
    ``log_prices[k]`` the log price p_k; the profit sums
    position[k-1] * (p_k - p_{k-1}) for k in [max(1, t-H+1), t]. Before a
    full window exists the sum runs over all available days.
    """
    if t < 1:
        return 0.0
    x = np.asarray(shadow_positions, dtype=float)
    p = np.asarray(log_prices, dtype=float)
    k0 = max(1, t - H + 1)
    dp = p[k0 : t + 1] - p[k0 - 1 : t]
    return float(x[k0 - 1 : t] @ dp)


def switch_probability(pi_c: float, pi_f: float, gamma: float) -> tuple[float, float]:
    """Logistic strategy-selection probabilities (phi_chartist, phi_fund).

    Computed in the overflow-safe form of 1 / (1 + exp((pi_f - pi_c)/gamma)),
    with numpy's exp as in the day kernel, so the two agree to the last bit
    (``math.exp`` differs from ``np.exp`` in the last bit on some inputs).
    """
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    z = (pi_f - pi_c) / gamma
    e = np.exp(-abs(z))
    phi_c = float((e if z >= 0.0 else 1.0) / (1.0 + e))
    return phi_c, 1.0 - phi_c
