"""Day-by-day simulation of the standard and adaptive Farmer-Joshi models.

Two trading strategies operate on a single asset cleared once per day by a
risk-neutral market maker. Trend followers threshold the lagged log-price
change m = p[t-d] - p[t]; value investors threshold the deviation
m = p[t] - v of the log price from a privately perceived log value. A
trader holding no position enters long c when m falls below -T, enters
short -c when m rises above T, and exits back to flat when m crosses
-tau (long) or tau (short). Capital is tied to the threshold gap,
c = a * (T - tau). The market maker moves the log price by the net order
divided by liquidity, plus Gaussian noise.

In the standard variant each trader runs one fixed strategy. In the
adaptive variant every trader maintains shadow positions for both
strategies, tracks each strategy's profit over the last ``horizon`` days,
and re-draws its active strategy daily with logistic probability in the
profit difference (temperature ``gamma``); its actual position snaps to
the active strategy's shadow position.

``simulate_batch`` runs the I common-random-number seeds of one parameter
set through one kernel over an (I, N) state, a block of days per call
(fewer when a day of the batch's buffers takes more bytes); ``simulate``
is its one-seed case. Every row reproduces the one-seed run bit for bit.
Each day the kernel does what the next day reads: mispricings, switching,
positions, the price (written in place into the output buffer) and, in
the adaptive variant, the return the rolling profits read. Once per block
it reduces the day's chartist counts and strategy profits from block
buffers, and checks the block's prices for blow-ups. Across blocks it
keeps only the trader state (position signs, value perceptions) and, in
the adaptive variant, a bounded window of shadow positions for the
rolling profits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Literal, get_args

import numpy as np

Variant = Literal["standard", "adaptive"]
#: The model variants, as ``simulate`` and the calibration take them.
VARIANTS = get_args(Variant)

#: Log-price magnitude beyond which a run is declared divergent.
BLOWUP_LOG_PRICE = 50.0


class ParameterError(ValueError):
    """Raised when a parameter set violates its constraints."""


class BlowUpError(RuntimeError):
    """Raised when the simulated log price leaves the plausible range."""


@dataclass(frozen=True)
class ModelParameters:
    """Full parameter vector for either model variant.

    ``gamma`` (switching temperature) and ``horizon`` (profit window,
    days) only affect the adaptive variant. ``v_min``/``v_max`` bound the
    initial log-value perception as an OFFSET from the starting log
    price, which keeps the vector scale-free across assets.

    The exit-threshold upper bound must sit strictly below the
    entry-threshold lower bound so that every trader's capital
    a * (T - tau) is positive.
    """

    n_traders: int
    lam: float  # market-maker liquidity
    a: float  # capital per unit threshold gap
    d_min: int
    d_max: int
    mu_eta: float  # drift of the value-perception walk
    sigma_eta: float
    sigma_zeta: float  # price-equation noise s.d.
    T_min: float
    T_max: float
    tau_min: float
    tau_max: float
    v_min: float
    v_max: float
    gamma: float = 0.05
    horizon: int = 50

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        p = self
        checks = [
            (isinstance(p.n_traders, (int, np.integer)) and p.n_traders >= 1,
             "n_traders must be a positive integer"),
            (p.lam > 0, "lam must be positive"),
            (p.a > 0, "a must be positive"),
            (isinstance(p.d_min, (int, np.integer)) and isinstance(p.d_max, (int, np.integer)),
             "d_min and d_max must be integers"),
            (1 <= p.d_min <= p.d_max, "need 1 <= d_min <= d_max"),
            (p.sigma_eta >= 0, "sigma_eta must be >= 0"),
            (p.sigma_zeta >= 0, "sigma_zeta must be >= 0"),
            (0 < p.T_min <= p.T_max, "need 0 < T_min <= T_max"),
            (p.tau_min <= p.tau_max, "need tau_min <= tau_max"),
            (p.tau_max < p.T_min, "need tau_max < T_min (positive capital)"),
            (p.v_min <= p.v_max, "need v_min <= v_max"),
            (p.gamma > 0, "gamma must be positive"),
            (isinstance(p.horizon, (int, np.integer)) and p.horizon >= 1,
             "horizon must be a positive integer"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ParameterError(msg)

    def n_fundamentalists(self) -> int:
        """Standard-variant split: half the traders, remainder to chartists."""
        return self.n_traders // 2

    def with_values(self, **kwargs) -> "ModelParameters":
        return replace(self, **kwargs)


#: Baseline parameter set used by the CLI when none is supplied.
DEFAULT_PARAMETERS = ModelParameters(
    n_traders=50,
    lam=15.0,
    a=1.0,
    d_min=2,
    d_max=30,
    mu_eta=0.0,
    sigma_eta=0.01,
    sigma_zeta=0.01,
    T_min=0.10,
    T_max=0.30,
    tau_min=0.01,
    tau_max=0.045,
    v_min=-0.25,
    v_max=0.25,
    gamma=0.03,
    horizon=50,
)


@dataclass(frozen=True)
class SimulationOutput:
    """Price path plus per-day agent diagnostics for one run.

    ``n_chartists``/``n_fundamentalists`` count the strategies in force
    during each step (constant split in the standard variant). The profit
    columns hold, per step, the across-trader sum of the rolling
    ``horizon``-day strategy profits that drive switching (adaptive) or
    the realized one-day profit of each fixed-strategy group (standard).
    """

    variant: str
    seed: int
    log_prices: np.ndarray  # shape (days + 1,)
    log_returns: np.ndarray  # shape (days,)
    n_chartists: np.ndarray  # int, shape (days,)
    n_fundamentalists: np.ndarray  # int, shape (days,)
    profit_chartists: np.ndarray  # shape (days,)
    profit_fundamentalists: np.ndarray  # shape (days,)

    def to_csv_rows(self) -> Iterator[tuple]:
        yield ("day", "log_price", "log_return", "n_chartists",
               "n_fundamentalists", "profit_chartists", "profit_fundamentalists")
        yield (0, repr(float(self.log_prices[0])), "", "", "", "", "")
        for t in range(len(self.log_returns)):
            yield (t + 1,
                   repr(float(self.log_prices[t + 1])),
                   repr(float(self.log_returns[t])),
                   int(self.n_chartists[t]),
                   int(self.n_fundamentalists[t]),
                   repr(float(self.profit_chartists[t])),
                   repr(float(self.profit_fundamentalists[t])))


# ---------------------------------------------------------------------------
# The day kernel, batched over the seeds of one parameter set
# ---------------------------------------------------------------------------

#: Most days per kernel call (a block), and so per generator call. Blocks
#: keep generator calls, output reductions and blow-up checks out of the
#: daily loop.
BLOCK_DAYS = 128

#: Bytes that a batch's block buffers may take: the block's draws and, in
#: the adaptive variant, its rolling profits and strategy draws, or in the
#: standard variant its positions.
BLOCK_BYTES = 1 << 20

#: Index of each strategy on the strategy axis of shadow positions and
#: rolling profits.
FUND, CHART = 0, 1


def _block_days(params: ModelParameters, adaptive: bool, n_runs: int, days: int) -> int:
    """Days per block of ``n_runs`` rows with outputs for ``days`` days: as
    many as fit in BLOCK_BYTES, but at most BLOCK_DAYS and at least 16 (every
    block costs each row a few generator calls), and no more than ``days``."""
    n = params.n_traders
    # bytes per row and day: a float64 zeta and, per trader, float64 eta and
    # u, two float64 profits and a bool decision (adaptive), or a float64 eta
    # per fundamentalist and a float64 position per trader (standard)
    row_day = 8 + 33 * n if adaptive else 8 + 8 * (params.n_fundamentalists() + n)
    return min(days, max(16, min(BLOCK_DAYS, BLOCK_BYTES // (n_runs * row_day))))


def _seed_streams(seed: int) -> list[np.random.Generator]:
    """The four independent streams of one seed: init, zeta, eta, switch."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(4)]


class _Positions:
    """The entry/exit rule over a whole array of positions, in place.

    The state is each position's sign s in {-1, 0, 1}, kept as int8 with
    its mirror -s: a short position is a long one of -m, so one set of
    ufunc calls over (2, *shape) arrays moves both sides. A side is held
    tomorrow when

        s + [m < -T] + [m <= -tau] >= 2,

    that is [m < -T] from flat, [m <= -tau] from held (tau < T, so m < -T
    implies m <= -tau) and never from the other side. ``m <= -tau`` is
    tested as ``m < nextafter(-tau, +inf)``, the same for every float m.
    The position is then s * c: flat is +0.0, as in the one-position
    oracle ``threshold_transition`` of ``tests/day_driver.py``.

    Trader arrays come in the layout of the variant: (I, N) standard or
    (I, 2, N) adaptive, one position per strategy. The caller writes each
    day's mispricing into ``mispricing`` and calls :meth:`step`.
    """

    def __init__(self, entry: np.ndarray, exit: np.ndarray, capital: np.ndarray):
        pair = (2, *capital.shape)
        self.capital = capital
        self._m = np.empty(pair)  # m, then -m
        self.mispricing = self._m[0]
        #: The signs s, then -s.
        self.sides = np.zeros(pair, np.int8)
        self._enter = np.broadcast_to(-entry, pair).copy()
        self._hold = np.broadcast_to(np.nextafter(-exit, np.inf), pair).copy()
        self._one = np.ones(pair, np.int8)  # an array: a scalar operand is converted per call
        self._level = np.empty(pair, np.int8)
        self._test = np.empty(pair, bool)
        self._held = self._test.view(np.int8)
        self._held_mirror = self._held[::-1]
        self._sign = np.empty(capital.shape)

    def step(self, out: np.ndarray) -> None:
        """Move every position one day on ``mispricing``; write them to ``out``."""
        m, sides, level, test, held = self._m, self.sides, self._level, self._test, self._held
        np.negative(self.mispricing, out=m[1])
        np.less(m, self._enter, out=test)
        np.add(sides, held, out=level)
        np.less(m, self._hold, out=test)
        np.add(level, held, out=level)
        np.greater(level, self._one, out=test)
        np.subtract(held, self._held_mirror, out=sides)
        self._sign[...] = sides[0]
        np.multiply(self._sign, self.capital, out=out)


def _blowup(p: float, day: int) -> BlowUpError:
    return BlowUpError(f"log price {p!r} diverged at day {day} "
                       f"(|p| > {BLOWUP_LOG_PRICE} signals parameter blow-up)")


class _Runs:
    """Trader state and outputs of I runs that share one parameter set, one row per seed.

    Trader arrays are (I, N). :meth:`run` moves every row through a block
    of days in one loop and writes the outputs in place: log prices
    (``d_max`` columns of p0 in front, so chartist lags are defined from day
    one; column ``d_max + t`` holds p_t), log returns, chartist counts and
    strategy profits. Of the shadow positions, which only the adaptive
    variant keeps, it keeps a window of ``2 * horizon + 1`` days that
    slides by ``horizon + 1`` days when full, so a slide never copies a day
    onto one it still has to copy; window row j holds day ``base + j``.

    The rows and the variant are fixed when the runs are drawn; nothing
    reshapes or restarts them afterwards. A row that leaves the range runs
    on to the end of the run.
    """

    def __init__(self, params: ModelParameters, p0: float, seeds, days: int, adaptive: bool):
        params.validate()
        n, n_runs, n_f = params.n_traders, len(seeds), params.n_fundamentalists()
        self.params = params
        self.adaptive = adaptive
        self.day = 0
        self.base = 0
        self.rows = 2 * params.horizon + 1

        streams = [_seed_streams(seed) for seed in seeds]
        draws = []
        for init_rng, *_ in streams:
            draws.append((init_rng.uniform(params.T_min, params.T_max, size=n),
                          init_rng.uniform(params.tau_min, params.tau_max, size=n),
                          init_rng.integers(params.d_min, params.d_max + 1, size=n),
                          p0 + init_rng.uniform(params.v_min, params.v_max, size=n)))
        self.entry, self.exit, self.lag, self.value = (
            np.array([d[k] for d in draws]).reshape(n_runs, n) for k in range(4))
        self.capital = params.a * (self.entry - self.exit)
        #: (zeta, eta, switch) generators per row.
        self.streams = [s[1:] for s in streams]

        self.prices = np.full((n_runs, params.d_max + days + 1), float(p0))
        self.returns = np.zeros((n_runs, days))
        self.n_chart = np.full((n_runs, days), n - n_f)
        self.profit = np.zeros((n_runs, 2, days))
        # Flat price indices of the lagged prices the chartists read on day
        # 0; on day t the same indices read the flat prices from element t on.
        width = self.prices.shape[1]
        lag_index = np.arange(n_runs)[:, None] * width + params.d_max - self.lag
        self._lag_index = lag_index if adaptive else lag_index[:, n_f:]
        self._lagged = np.empty(self._lag_index.shape)
        self._flat_prices = self.prices.reshape(-1)

        self.block = block = _block_days(params, adaptive, n_runs, days)
        if adaptive:
            #: The shadow positions of both strategies, a window of days.
            self.shadow_window = np.zeros((n_runs, 2, self.rows, n))
            layout = [np.repeat(x[:, None, :], 2, axis=1)
                      for x in (self.entry, self.exit, self.capital)]
            self.positions = _Positions(*layout)
            fund, chart = FUND, CHART
            # the value perceptions the fundamentalist mispricing reads and eta moves
            self._value_fund = self.value
            #: Each day's rolling profits and strategy draws, day-major so a
            #: day's slab is contiguous; reduced per block.
            self._pi = np.empty((block, n_runs, 2, 1, n))
            self._decisions = np.empty((block, n_runs, n), bool)
            self._gap, self._odds = np.empty((2, n_runs, n))
            self._neg_gamma = -params.gamma
            self.pos_actual = np.zeros((n_runs, n))
        else:
            self.shadow_window = None
            self.positions = _Positions(self.entry, self.exit, self.capital)
            # the first n_fundamentalists() traders are fundamentalists
            fund, chart = slice(None, n_f), slice(n_f, None)
            self._value_fund = self.value[:, fund]
            #: Row j + 1 holds the positions taken on the block's day j; row 0
            #: those held before the block, which are pos_actual between blocks.
            self._ring = np.zeros((block + 1, n_runs, n))
            self.pos_actual = self._ring[0]
        self._m_fund = self.positions.mispricing[:, fund]
        self._m_chart = self.positions.mispricing[:, chart]
        self._order = np.empty((n_runs, n))

    def _slide(self) -> None:
        """Move the last ``horizon`` days of the shadow window to the front,
        slab by slab: numpy copies a whole-window slide through a temporary,
        since the slabs interleave the source and destination in memory."""
        h = self.params.horizon
        for slab in self.shadow_window.reshape(-1, self.rows, self.params.n_traders):
            slab[:h] = slab[h + 1 :]
        self.base += h + 1

    def run(self, zeta, eta, u) -> dict[int, BlowUpError]:
        """Move every row through a block of days; return the rows out of range.

        ``zeta`` (I, days), ``eta`` (I, days, n_eta) and, for the adaptive
        variant, the switching uniforms ``u`` (I, days, N) are the block's
        draws, ``days`` at most the block length. The loop does only what
        the next day reads. The chartist counts and profit sums (and the
        standard variant's returns) are formed once per block, each
        (row, day) from the same contiguous sum over traders as a daily
        reduction, so with the same value.

        Rows never interact: every operation is elementwise, and every
        reduction and gemv runs per row. So a row whose log price left the
        range runs on, its overflows unreported, to the end of the run; the
        range is checked once per block. Returns the BlowUpError of each
        row out of range in this block, by row index, from its first such
        day in the block.

        phi_chartist is the overflow-safe logistic of the oracle
        ``switch_probability`` in ``tests/day_driver.py``: with
        e = exp(-|z|), z = (pi_f - pi_c) / gamma, it is e / (1 + e) where
        z >= 0 and 1 / (1 + e) where z < 0, i.e. where pi_c - pi_f > 0, so
        the numerator is max(e, sign(pi_c - pi_f)). -|z| is computed as
        |pi_c - pi_f| / -gamma, the same float.
        """
        adaptive, days, t0 = self.adaptive, zeta.shape[1], self.day
        d_max, lam = self.params.d_max, self.params.lam
        prices, returns, flat = self.prices, self.returns, self._flat_prices
        lag_index, lagged = self._lag_index, self._lagged
        value_fund, m_fund, m_chart = self._value_fund, self._m_fund, self._m_chart
        order, pos_actual, step = self._order, self.pos_actual, self.positions.step
        subtract, add, reduce = np.subtract, np.add, np.add.reduce
        rows, base, window = self.rows, self.base, self.shadow_window
        if adaptive:
            h, dp = self.params.horizon, returns[:, None, None]
            pi, decisions = self._pi, self._decisions
            gap, odds, neg_gamma = self._gap, self._odds, self._neg_gamma
            matmul, absolute, divide, exp = np.matmul, np.abs, np.divide, np.exp
            maximum, sign, less, where = np.maximum, np.sign, np.less, np.where
        else:
            ring = self._ring
        span = slice(t0, t0 + days)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(days):
                t = t0 + j
                col = d_max + t
                p_now = prices[:, col]
                p = p_now[:, None]
                flat[t:].take(lag_index, mode="clip", out=lagged)
                subtract(p, value_fund, out=m_fund)
                subtract(lagged, p, out=m_chart)
                if adaptive:
                    k = max(0, t - h)
                    pi_t = matmul(dp[..., k:t], window[:, :, k - base : t - base],
                                  out=pi[j])[:, :, 0]
                    subtract(pi_t[:, CHART], pi_t[:, FUND], out=gap)
                    absolute(gap, out=odds)
                    divide(odds, neg_gamma, out=odds)
                    exp(odds, out=odds)
                    maximum(odds, sign(gap, out=gap), out=gap)
                    add(odds, 1.0, out=odds)
                    divide(gap, odds, out=gap)
                    is_chartist = less(u[:, j], gap, out=decisions[j])
                    if t + 1 - base == rows:
                        self._slide()
                        base = self.base
                    shadow = window[:, :, t + 1 - base]
                    step(shadow)
                    new_pos = where(is_chartist, shadow[:, CHART], shadow[:, FUND])
                else:
                    new_pos = ring[j + 1]
                    step(new_pos)
                # operators on these (I,) arrays: measured faster than out= calls here
                p_next = p_now + reduce(subtract(new_pos, pos_actual, out=order), axis=1) / lam \
                    + zeta[:, j]
                prices[:, col + 1] = p_next
                if adaptive:
                    returns[:, t] = p_next - p_now
                add(value_fund, eta[:, j], out=value_fund)
                pos_actual = new_pos

            self.day = t0 + days
            if adaptive:
                self.pos_actual = pos_actual
                reduce(decisions[:days], axis=2, out=self.n_chart[:, span].T)
                reduce(pi[:days, :, :, 0], axis=3,
                       out=self.profit[:, :, span].transpose(2, 0, 1))
            else:
                subtract(prices[:, d_max + 1 :][:, span], prices[:, d_max:][:, span],
                         out=returns[:, span])
                n_f = self.params.n_fundamentalists()
                for strategy, group in ((FUND, slice(None, n_f)), (CHART, slice(n_f, None))):
                    np.multiply(reduce(ring[1 : days + 1, :, group], axis=2).T, returns[:, span],
                                out=self.profit[:, strategy, span])
                ring[0] = pos_actual
            in_range = np.abs(prices[:, d_max + 1 :][:, span]) <= BLOWUP_LOG_PRICE
        if in_range.all():
            return {}
        blown = {}
        for i in np.flatnonzero(~in_range.all(axis=1)):
            day = t0 + 1 + int(np.argmin(in_range[i]))
            blown[int(i)] = _blowup(float(prices[i, d_max + day]), day)
        return blown


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

def simulate_batch(params: ModelParameters, variant: Variant, days: int,
                   p0: float = 0.0, seeds=(0,)) -> list:
    """Run ``days`` steps from a fresh state for each seed, in one daily loop.

    Returns one outcome per seed, in order: its SimulationOutput, or the
    BlowUpError of its first day out of range. A row that blows up runs on
    to the end, untouched by and touching no other row; the loop stops
    early only once every row has blown up. Each row is bit for bit the run
    ``simulate`` gives for its seed: every seed keeps its own four streams,
    drawn a block at a time, so in the same order whatever the block length,
    and the reductions run per (row, day) in the single-run order.
    The output arrays are rows of the buffers the kernel writes day by day.
    """
    if days < 1:
        raise ParameterError("days must be >= 1")
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}")
    seeds = [int(s) for s in seeds]
    adaptive = variant == "adaptive"
    runs = _Runs(params, p0, seeds, days, adaptive)
    n = params.n_traders
    n_eta = n if adaptive else params.n_fundamentalists()

    # each seed's draws for the next block, refilled in place. numpy draws a
    # normal as loc + scale * z from the standard normal z, in two roundings;
    # the same two operations over all rows at once give the same floats.
    block = runs.block
    zeta = np.empty((len(seeds), block))
    eta = np.empty((len(seeds), block, n_eta))
    u = np.empty((len(seeds), block, n)) if adaptive else None
    errors = {}
    for t in range(0, days, block):
        size = min(block, days - t)
        z_block, e_block = zeta[:, :size], eta[:, :size]
        for i, (z, e, s) in enumerate(runs.streams):
            z.standard_normal(out=z_block[i])
            e.standard_normal(out=e_block[i])
            if adaptive:
                s.random(out=u[i, :size])
        np.multiply(z_block, params.sigma_zeta, out=z_block)
        np.add(z_block, 0.0, out=z_block)
        np.multiply(e_block, params.sigma_eta, out=e_block)
        np.add(e_block, params.mu_eta, out=e_block)
        blown = runs.run(z_block, e_block, u[:, :size] if adaptive else None)
        errors = {**blown, **errors}  # each row's first error
        if len(errors) == len(seeds):
            break

    return [errors.get(i) or SimulationOutput(
        variant=variant,
        seed=seed,
        log_prices=runs.prices[i, params.d_max :],
        log_returns=runs.returns[i],
        n_chartists=runs.n_chart[i],
        n_fundamentalists=n - runs.n_chart[i],
        profit_chartists=runs.profit[i, CHART],
        profit_fundamentalists=runs.profit[i, FUND],
    ) for i, seed in enumerate(seeds)]


def simulate(params: ModelParameters, variant: Variant, days: int,
             p0: float = 0.0, seed: int = 0) -> SimulationOutput:
    """Run ``days`` steps of the chosen variant from a fresh state."""
    (outcome,) = simulate_batch(params, variant, days, p0, [seed])
    if isinstance(outcome, BlowUpError):
        raise outcome
    return outcome
