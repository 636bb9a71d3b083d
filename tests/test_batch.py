"""simulate_batch against simulate: every row bit for bit, blow-ups per row."""

import re
import warnings

import numpy as np
import pytest

from day_driver import DayDriver, strategy_profit
from farmerjoshi.market import (
    BLOCK_DAYS,
    CHART,
    DEFAULT_PARAMETERS,
    FUND,
    BlowUpError,
    _block_days,
    simulate,
    simulate_batch,
)
from make_golden import BLOWUP_CASES, OUTPUT_ARRAYS

VARIANTS = ("standard", "adaptive")

#: A market so illiquid (lam = 1e-300) that any trade throws the price out
#: of range, with value perceptions drifting up by mu_eta a day, so the
#: first trade comes near day 1000 * T. The first seed of each pair blows up
#: on day 133, within the first five days of the second noise block, and its
#: huge capital then overflows the profits; the second seed never trades in
#: MID_BLOCK_DAYS days.
MID_BLOCK_PARAMETERS = DEFAULT_PARAMETERS.with_values(
    n_traders=2, lam=1e-300, a=1e8, mu_eta=1e-3, sigma_eta=1e-5, sigma_zeta=1e-4,
    T_min=0.125, T_max=0.35, v_min=0.0, v_max=0.0)
MID_BLOCK_DAYS = 260
MID_BLOCK_SEEDS = {"standard": (22, 0), "adaptive": (28, 11)}


def assert_same_output(a, b):
    assert (a.variant, a.seed) == (b.variant, b.seed)
    for name in OUTPUT_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def single_outcome(params, variant, days, p0, seed):
    try:
        return simulate(params, variant, days, p0=p0, seed=seed)
    except BlowUpError as exc:
        return exc


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_seeds", [1, 2, 10])
def test_batch_rows_equal_single_runs(variant, n_seeds):
    # 400 days cross many slides of the shadow window (every horizon + 1 days)
    params = DEFAULT_PARAMETERS.with_values(n_traders=23, horizon=9, d_max=12)
    seeds = [1000 + 7 * k for k in range(n_seeds)]
    batch = simulate_batch(params, variant, 400, p0=1.5, seeds=seeds)
    assert len(batch) == n_seeds
    for seed, row in zip(seeds, batch):
        assert_same_output(row, simulate(params, variant, 400, p0=1.5, seed=seed))


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_rows_equal_single_runs_on_shorter_blocks(variant):
    # At N = 1000 the byte budget gives three seeds shorter blocks than one,
    # so the batch draws, reduces and checks over other spans of days.
    params = DEFAULT_PARAMETERS.with_values(n_traders=1000)
    seeds, days = [5, 6, 7], 300
    adaptive = variant == "adaptive"
    assert _block_days(params, adaptive, len(seeds), days) < _block_days(params, adaptive, 1, days)
    for seed, row in zip(seeds, simulate_batch(params, variant, days, seeds=seeds)):
        assert_same_output(row, simulate(params, variant, days, seed=seed))


@pytest.mark.parametrize("variant", VARIANTS)
def test_blow_up_fails_its_row_alone(variant):
    params, days = BLOWUP_CASES[variant]
    seeds = list(range(8))
    singles = [single_outcome(params, variant, days, 0.0, s) for s in seeds]
    blown = [isinstance(s, BlowUpError) for s in singles]
    assert any(blown) and not all(blown)

    for batch_seeds in (seeds, seeds[::-1]):
        batch = simulate_batch(params, variant, days, p0=0.0, seeds=batch_seeds)
        for seed, row in zip(batch_seeds, batch):
            single = singles[seed]
            if isinstance(single, BlowUpError):
                # same message, so the same price and the same day
                assert isinstance(row, BlowUpError) and str(row) == str(single)
            else:
                assert_same_output(row, single)


@pytest.mark.parametrize("variant", VARIANTS)
def test_row_blowing_up_early_in_a_block_leaves_the_survivor_exact(variant):
    dead, alive = MID_BLOCK_SEEDS[variant]
    for n_runs in (1, 2):  # the days below are relative to the first block's edge
        assert _block_days(MID_BLOCK_PARAMETERS, variant == "adaptive", n_runs,
                           MID_BLOCK_DAYS) == BLOCK_DAYS
    with warnings.catch_warnings():
        # the dead row must not warn while it runs on to the end of the run
        warnings.simplefilter("error")
        single = simulate(MID_BLOCK_PARAMETERS, variant, MID_BLOCK_DAYS, seed=alive)
        for seeds in ([dead, alive], [alive, dead]):
            batch = simulate_batch(MID_BLOCK_PARAMETERS, variant, MID_BLOCK_DAYS,
                                   seeds=seeds)
            error = batch[seeds.index(dead)]
            assert isinstance(error, BlowUpError)
            day = int(re.search(r"diverged at day (\d+) ", str(error)).group(1))
            assert BLOCK_DAYS < day <= BLOCK_DAYS + 5
            assert_same_output(batch[seeds.index(alive)], single)


def test_all_rows_blowing_up_returns_every_error():
    params = DEFAULT_PARAMETERS.with_values(a=1000.0, lam=0.001, v_min=0.2, v_max=0.2)
    batch = simulate_batch(params, "standard", 50, seeds=[1, 2, 3])
    assert all(isinstance(row, BlowUpError) for row in batch)
    for seed, row in zip([1, 2, 3], batch):
        with pytest.raises(BlowUpError, match="diverged") as info:
            simulate(params, "standard", 50, seed=seed)
        assert str(info.value) == str(row)


@pytest.mark.parametrize("variant", VARIANTS)
def test_day_steps_agree_with_simulate_across_window_slides(variant):
    params = DEFAULT_PARAMETERS.with_values(n_traders=15, horizon=5, d_max=8)
    days = 2 * (params.horizon + BLOCK_DAYS) + 3
    out = simulate(params, variant, days, p0=0.3, seed=42)
    state = DayDriver(params, variant, days, 0.3, seed=42)
    n_chart, profit_chart, profit_fund = [], [], []
    for _ in range(days):
        state.step()
        n_chart.append(int(np.sum(state.is_chartist)))
        profit_chart.append(float(state.runs.profit[0, CHART, state.day - 1]))
        profit_fund.append(float(state.runs.profit[0, FUND, state.day - 1]))
    assert np.array_equal(state.log_prices, out.log_prices)
    assert n_chart == out.n_chartists.tolist()
    assert profit_chart == out.profit_chartists.tolist()
    assert profit_fund == out.profit_fundamentalists.tolist()

    assert state.log_price(-params.d_max) == 0.3
    if variant == "adaptive":
        # the window keeps at least the last horizon + 1 days, all a switch reads
        assert state.runs.base <= days - params.horizon
    else:
        assert state.runs.shadow_window is None


@pytest.mark.parametrize("horizon", [7, BLOCK_DAYS + 1])
def test_rolling_profits_match_oracle_across_window_slides(horizon):
    # Checked every day: only the day after a slide reads the window's first
    # row. Both horizons run through at least three slides.
    params = DEFAULT_PARAMETERS.with_values(n_traders=6, horizon=horizon, gamma=0.2)
    days = 2 * (horizon + BLOCK_DAYS) + 4
    state = DayDriver(params, "adaptive", days, seed=13)
    chart_rows, fund_rows = [state.shadow_chart(0).copy()], [state.shadow_fund(0).copy()]
    for day in range(1, days + 1):
        state.step()
        chart_rows.append(state.shadow_chart(day).copy())
        fund_rows.append(state.shadow_fund(day).copy())
        prices = state.log_prices
        for pi, rows in zip(state.rolling_profits(), (chart_rows, fund_rows)):
            history = np.array(rows)
            expected = [strategy_profit(history[:, i], prices, horizon, day)
                        for i in range(params.n_traders)]
            assert pi == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_seed_arrays_accepted():
    seeds = np.random.SeedSequence(0).generate_state(2)
    batch = simulate_batch(DEFAULT_PARAMETERS, "adaptive", 20, seeds=seeds)
    assert [row.seed for row in batch] == [int(s) for s in seeds]
    assert all(type(row.seed) is int for row in batch)
