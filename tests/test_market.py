import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from day_driver import (
    DayDriver,
    market_impact_update,
    strategy_profit,
    switch_probability,
    threshold_transition,
)
from farmerjoshi.market import (
    BLOCK_DAYS,
    DEFAULT_PARAMETERS,
    BlowUpError,
    ModelParameters,
    ParameterError,
    simulate,
)


def params_with(**kwargs) -> ModelParameters:
    base = dict(
        n_traders=10, lam=5.0, a=1.0, d_min=1, d_max=5,
        mu_eta=0.0, sigma_eta=0.01, sigma_zeta=0.01,
        T_min=0.10, T_max=0.30, tau_min=0.01, tau_max=0.05,
        v_min=-0.2, v_max=0.2, gamma=0.05, horizon=10,
    )
    base.update(kwargs)
    return ModelParameters(**base)


class TestParameterValidation:
    def test_tau_above_entry_rejected(self):
        with pytest.raises(ParameterError, match="tau_max < T_min"):
            params_with(tau_min=0.05, tau_max=0.2)

    def test_lag_order_rejected(self):
        with pytest.raises(ParameterError):
            params_with(d_min=7, d_max=3)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ParameterError):
            params_with(gamma=0.0)


class TestInitSimulation:
    def test_same_seed_identical_state(self):
        p = params_with()
        a, b = (DayDriver(p, "standard", 1, 4.6, seed=42) for _ in range(2))
        for field in ("entry", "exit", "lag", "value", "capital"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(a.log_prices, b.log_prices)

    def test_degenerate_uniform_thresholds(self):
        state = DayDriver(params_with(T_min=0.5, T_max=0.5), "standard", 1, seed=1)
        assert np.all(state.entry == 0.5)

    def test_capital_formula(self):
        p = params_with(a=2.0, T_min=0.5, T_max=0.5, tau_min=0.1, tau_max=0.1)
        state = DayDriver(p, "standard", 1, seed=3)
        assert np.all(state.capital == 2.0 * (0.5 - 0.1))

    def test_price_history_padded_with_p0(self):
        state = DayDriver(params_with(d_max=5), "standard", 1, 4.6, seed=0)
        assert state.log_prices.tolist() == [4.6]
        assert [state.log_price(t) for t in range(-5, 1)] == [4.6] * 6

    def test_value_offsets_from_p0(self):
        state = DayDriver(params_with(v_min=-0.2, v_max=-0.2), "standard", 1, 4.0, seed=0)
        assert np.allclose(state.value, 3.8)

    def test_trader_view(self):
        p = params_with()
        state = DayDriver(p, "adaptive", 1, seed=5)
        assert state.capital[0] == pytest.approx(p.a * (state.entry[0] - state.exit[0]))
        assert state.shadow_fund(0)[0] == 0.0 and state.shadow_chart(0)[0] == 0.0

    def test_standard_state_has_no_shadow_positions(self):
        # The standard kernel has no shadow window to write, so none can
        # report flat positions that the traders do not hold.
        p = DEFAULT_PARAMETERS.with_values(a=20.0)
        state = DayDriver(p, "standard", 200, seed=3)
        for _ in range(200):
            state.step()
        assert np.any(state.pos_actual != 0.0)
        assert state.runs.shadow_window is None

    def test_standard_state_keeps_no_shadow_window(self):
        # enough days that an adaptive state's window would have slid once
        days = DEFAULT_PARAMETERS.horizon + BLOCK_DAYS + 1
        state = DayDriver(DEFAULT_PARAMETERS, "standard", days, seed=3)
        for _ in range(days):
            state.step()
        assert state.runs.shadow_window is None

    def test_shadow_reads_before_the_first_step_are_flat(self):
        state = DayDriver(DEFAULT_PARAMETERS, "adaptive", 1, seed=3)
        n = DEFAULT_PARAMETERS.n_traders
        for read in (state.shadow_fund(0), state.shadow_chart(0), *state.rolling_profits()):
            assert np.array_equal(read, np.zeros(n))


class TestElementaryOps:
    def test_market_impact_zero_order(self):
        assert market_impact_update(4.6, 0.0, 2.0, 0.0) == 4.6

    def test_market_impact_unit_move(self):
        assert market_impact_update(0.0, 3.0, 3.0, 0.0) == 1.0

    def test_market_impact_arithmetic(self):
        assert market_impact_update(1.0, -1.0, 2.0, 0.01) == pytest.approx(0.51, abs=1e-15)

    def test_market_impact_requires_positive_lam(self):
        with pytest.raises(ParameterError):
            market_impact_update(0.0, 1.0, 0.0, 0.0)


class TestThresholdTransition:
    T, TAU, C = 0.5, 0.2, 1.0

    def transition(self, current, m):
        return threshold_transition(current, m, self.T, self.TAU, self.C)

    def test_flat_enters_long_below_minus_T(self):
        assert self.transition(0.0, -0.6) == self.C

    def test_long_holds_between_T_and_tau(self):
        assert self.transition(self.C, -0.3) == self.C

    def test_short_exits_below_tau(self):
        assert self.transition(-self.C, 0.1) == 0.0

    def test_full_state_region_table(self):
        # rows: (state, m) -> expected, enumerating all 3 states x 5 regions
        c = self.C
        table = [
            (0.0, -0.6, c), (0.0, -0.3, 0.0), (0.0, 0.0, 0.0),
            (0.0, 0.3, 0.0), (0.0, 0.6, -c),
            (c, -0.6, c), (c, -0.3, c), (c, -0.1, 0.0),
            (c, 0.3, 0.0), (c, 0.6, 0.0),
            (-c, -0.6, 0.0), (-c, -0.3, 0.0), (-c, 0.1, 0.0),
            (-c, 0.3, -c), (-c, 0.6, -c),
        ]
        for state, m, expected in table:
            assert self.transition(state, m) == expected, (state, m)

    def test_boundaries_are_strict(self):
        assert self.transition(0.0, -self.T) == 0.0
        assert self.transition(0.0, self.T) == 0.0
        assert self.transition(self.C, -self.TAU) == self.C
        assert self.transition(-self.C, self.TAU) == -self.C

    @given(
        current=st.sampled_from([-1.0, 0.0, 1.0]),
        m=st.floats(min_value=-3, max_value=3, allow_nan=False),
        T=st.floats(min_value=0.05, max_value=1.0),
        tau=st.floats(min_value=0.0, max_value=0.04),
    )
    @settings(max_examples=200, deadline=None)
    def test_codomain_and_no_direct_flips(self, current, m, T, tau):
        c = 1.0
        out = threshold_transition(current, m, T, tau, c)
        assert out in (-c, 0.0, c)
        if current > 0:
            assert out >= 0.0
        if current < 0:
            assert out <= 0.0
        if current == 0.0 and abs(m) <= T:
            assert out == 0.0


class TestStrategyProfit:
    def test_constant_prices(self):
        assert strategy_profit([1.0, 1.0, 1.0], [4.0, 4.0, 4.0, 4.0], 3, 3) == 0.0

    def test_telescoping_long(self):
        prices = [0.0, 0.01, 0.015, 0.02]
        assert strategy_profit([1.0, 1.0, 1.0], prices, 3, 3) == pytest.approx(0.02)

    def test_hand_evaluation(self):
        prices = [0.0, 0.03, 0.04]
        assert strategy_profit([1.0, -1.0], prices, 2, 2) == pytest.approx(0.02)

    def test_warmup_uses_available_days(self):
        prices = [0.0, 0.05, 0.06]
        # t=2 with H=10: window is k in [1, 2]
        assert strategy_profit([1.0, 1.0], prices, 10, 2) == pytest.approx(0.06)

    def test_t_zero_is_zero(self):
        assert strategy_profit([1.0], [0.0], 5, 0) == 0.0


class TestSwitchProbability:
    def test_equal_profits_fair_coin(self):
        assert switch_probability(0.3, 0.3, 0.1) == (0.5, 0.5)

    def test_logistic_identity(self):
        gamma = 0.2
        phi_c, phi_f = switch_probability(gamma * np.log(3.0), 0.0, gamma)
        assert phi_c == pytest.approx(0.75, abs=1e-12)
        assert phi_f == pytest.approx(0.25, abs=1e-12)

    def test_extreme_difference_no_overflow(self):
        phi_c, phi_f = switch_probability(1000.0 * 0.1, 0.0, 0.1)
        assert phi_c == pytest.approx(1.0, abs=1e-15)
        assert phi_f == pytest.approx(0.0, abs=1e-15)
        phi_c, _ = switch_probability(0.0, 1000.0 * 0.1, 0.1)
        assert phi_c == pytest.approx(0.0, abs=1e-15)

    @given(pi_c=st.floats(-1e6, 1e6), pi_f=st.floats(-1e6, 1e6),
           gamma=st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_probability_closure(self, pi_c, pi_f, gamma):
        phi_c, phi_f = switch_probability(pi_c, pi_f, gamma)
        assert 0.0 <= phi_c <= 1.0
        assert phi_c + phi_f == 1.0

    def test_kernel_switches_exactly_at_phi(self):
        # A trader turns chartist when u < phi_c, so u = phi_c must give a
        # fundamentalist and the next float below it a chartist: the day
        # kernel and this function agree on phi_c to the last bit, at each
        # of 400 traders' profit gaps. The gaps stay within a few gamma of
        # zero on either side, where phi_c carries the last bit of exp.
        p = params_with(n_traders=400, gamma=3.0)
        at_phi, below_phi = (DayDriver(p, "adaptive", 31, seed=5) for _ in range(2))
        for _ in range(30):
            at_phi.step()
            below_phi.step()
        pi_c, pi_f = at_phi.rolling_profits()
        phi_c = np.array([switch_probability(c, f, p.gamma)[0]
                          for c, f in zip(pi_c, pi_f)])
        assert len(np.unique(phi_c)) > 100
        assert phi_c.min() < 0.5 < phi_c.max()
        at_phi.step(u=phi_c)
        below_phi.step(u=np.nextafter(phi_c, 0.0))
        assert not at_phi.is_chartist.any()
        assert below_phi.is_chartist.all()


def micro_params(**kwargs) -> ModelParameters:
    """Degenerate draws so every trader is identical and deterministic."""
    base = dict(
        n_traders=2, lam=1.0, a=2.0, d_min=1, d_max=1,
        mu_eta=0.0, sigma_eta=0.0, sigma_zeta=0.0,
        T_min=0.1, T_max=0.1, tau_min=0.04, tau_max=0.04,
        v_min=-0.2, v_max=-0.2, gamma=0.05, horizon=1,
    )
    base.update(kwargs)
    return ModelParameters(**base)


class TestStandardMicroOracle:
    """Hand-simulated 2-trader, 3-day path with zero price noise."""

    def test_three_day_path_matches_hand_computation(self):
        p = micro_params()
        state = DayDriver(p, "standard", 3, seed=9)
        c = 2.0 * (0.1 - 0.04)
        # day 1: fundamentalist sees m = 0.2 > T, enters short; chartist flat
        # day 2: chartist sees m = p0 - p1 = c > T, enters short; fund holds
        # day 3: fund sees m = -2c + 0.2 < tau, exits; chartist holds
        p1 = market_impact_update(0.0, -c, 1.0, 0.0)
        p2 = market_impact_update(p1, -c, 1.0, 0.0)
        p3 = market_impact_update(p2, c, 1.0, 0.0)
        for _ in range(3):
            state.step()
        assert state.log_prices.tolist() == [0.0, p1, p2, p3]

    def test_positions_along_the_path(self):
        p = micro_params()
        state = DayDriver(p, "standard", 3, seed=9)
        c = 2.0 * (0.1 - 0.04)
        state.step()
        assert state.pos_actual.tolist() == [-c, 0.0]
        state.step()
        assert state.pos_actual.tolist() == [-c, -c]
        state.step()
        assert state.pos_actual.tolist() == [0.0, -c]

    def test_simulate_agrees_with_manual_steps(self):
        p = micro_params()
        out = simulate(p, "standard", 3, p0=0.0, seed=9)
        state = DayDriver(p, "standard", 3, seed=9)
        for _ in range(3):
            state.step()
        assert np.array_equal(out.log_prices, state.log_prices)


class TestAdaptiveMicroOracle:
    """1-trader, 2-day adaptive path with prescribed switching draws."""

    def test_two_day_path_with_forced_switches(self):
        p = micro_params(n_traders=1, a=1.0, horizon=1)
        state = DayDriver(p, "adaptive", 2, seed=4)
        c = 1.0 * (0.1 - 0.04)

        # day 1: profits 0 -> phi_c = 0.5; u = 0.9 -> fundamentalist.
        # fund shadow: m = 0.2 > T -> short; chart shadow stays flat.
        state.step(u=0.9)
        assert not state.is_chartist[0]
        p1 = market_impact_update(0.0, -c, 1.0, 0.0)
        assert state.log_price(1) == p1
        assert state.pos_actual[0] == -c
        assert state.shadow_fund(1)[0] == -c
        assert state.shadow_chart(1)[0] == 0.0

        # day 2: both shadows at day 0 were flat -> profits 0 -> phi = 0.5;
        # u = 0.0 -> chartist. chart shadow: m = p0 - p1 = c < T -> flat.
        # actual snaps from -c to 0, order +c.
        state.step(u=0.0)
        assert state.is_chartist[0]
        p2 = market_impact_update(p1, c, 1.0, 0.0)
        assert state.log_price(2) == p2
        assert state.pos_actual[0] == 0.0
        assert state.shadow_fund(2)[0] == -c  # short held: m = 0.14 > tau

    def test_determinism(self):
        p = params_with(gamma=0.5)
        a = simulate(p, "adaptive", 100, p0=0.0, seed=11)
        b = simulate(p, "adaptive", 100, p0=0.0, seed=11)
        assert np.array_equal(a.log_prices, b.log_prices)
        assert np.array_equal(a.n_chartists, b.n_chartists)
        assert np.array_equal(a.profit_chartists, b.profit_chartists)

    def test_equal_profits_fair_coin_frequency(self):
        p = params_with(n_traders=10_000, gamma=1e9, d_min=1, d_max=1)
        state = DayDriver(p, "adaptive", 1, seed=21)
        state.step()
        n_chart = int(np.sum(state.is_chartist))
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(n_chart - 5_000) <= 3 * sigma

    def test_windowed_profit_matches_public_op(self):
        p = params_with(gamma=0.2, horizon=7)
        state = DayDriver(p, "adaptive", 40, seed=13)
        chart_rows, fund_rows = [state.shadow_chart(0).copy()], [state.shadow_fund(0).copy()]
        for _ in range(40):
            state.step()
            chart_rows.append(state.shadow_chart(state.day).copy())
            fund_rows.append(state.shadow_fund(state.day).copy())
        pi_c, pi_f = state.rolling_profits()
        prices = state.log_prices
        for i in (0, 3, 9):
            assert pi_c[i] == pytest.approx(strategy_profit(
                np.array(chart_rows)[:, i], prices, p.horizon, state.day))
            assert pi_f[i] == pytest.approx(strategy_profit(
                np.array(fund_rows)[:, i], prices, p.horizon, state.day))
            # the state keeps the last horizon + 1 rows, all the window reads
            kept = range(state.day - p.horizon, state.day + 1)
            assert np.array_equal([state.shadow_chart(t)[i] for t in kept],
                                  np.array(chart_rows)[-len(kept):, i])
            assert np.array_equal([state.shadow_fund(t)[i] for t in kept],
                                  np.array(fund_rows)[-len(kept):, i])


class TestSimulate:
    def test_single_day_noise_only_return_is_zeta_draw(self):
        p = params_with(T_min=40.0, T_max=41.0, sigma_zeta=1.0)
        out = simulate(p, "standard", 1, p0=0.0, seed=77)
        zeta_ss = np.random.SeedSequence(77).spawn(4)[1]
        expected = np.random.Generator(np.random.PCG64(zeta_ss)).normal(0.0, 1.0)
        assert out.log_returns[0] == expected

    def test_noise_only_returns_equal_zeta_stream(self):
        p = params_with(T_min=40.0, T_max=41.0, sigma_zeta=0.02)
        out = simulate(p, "standard", 200, p0=0.0, seed=3)
        zeta_ss = np.random.SeedSequence(3).spawn(4)[1]
        rng = np.random.Generator(np.random.PCG64(zeta_ss))
        zetas = np.array([rng.normal(0.0, 0.02) for _ in range(200)])
        # the price recursion is exact; the diff reintroduces one rounding
        for t in range(200):
            assert out.log_prices[t + 1] == out.log_prices[t] + zetas[t]
        assert np.max(np.abs(out.log_returns - zetas)) < 1e-15

    def test_standard_output_independent_of_gamma_and_horizon(self):
        base = params_with()
        out1 = simulate(base, "standard", 150, p0=4.6, seed=5)
        out2 = simulate(base.with_values(gamma=9.0, horizon=3), "standard",
                        150, p0=4.6, seed=5)
        assert np.array_equal(out1.log_prices, out2.log_prices)

    def test_bitwise_deterministic(self):
        p = params_with()
        a = simulate(p, "standard", 200, p0=4.6, seed=8)
        b = simulate(p, "standard", 200, p0=4.6, seed=8)
        assert np.array_equal(a.log_prices, b.log_prices)

    def test_returns_are_price_differences(self):
        out = simulate(params_with(), "adaptive", 80, p0=1.0, seed=2)
        assert np.allclose(out.log_returns, np.diff(out.log_prices))

    def test_order_telescoping_per_trader(self):
        p = params_with(gamma=0.3)
        state = DayDriver(p, "adaptive", 60, seed=17)
        start = state.pos_actual.copy()
        order_sum = np.zeros(p.n_traders)
        for _ in range(60):
            before = state.pos_actual.copy()
            state.step()
            order_sum += state.pos_actual - before
        assert np.allclose(order_sum, state.pos_actual - start)

    def test_positions_stay_in_domain(self):
        p = params_with(gamma=0.3)
        state = DayDriver(p, "adaptive", 80, seed=19)
        for _ in range(80):
            state.step()
            for pos in (state.shadow_fund(state.day), state.shadow_chart(state.day),
                        state.pos_actual):
                ok = (pos == 0.0) | (pos == state.capital) | (pos == -state.capital)
                assert np.all(ok)

    def test_blowup_raises(self):
        p = params_with(a=1000.0, lam=0.001, v_min=0.2, v_max=0.2)
        with pytest.raises(BlowUpError, match="diverged"):
            simulate(p, "standard", 5, p0=0.0, seed=1)

    def test_invalid_days_rejected(self):
        with pytest.raises(ParameterError):
            simulate(params_with(), "standard", 0, p0=0.0, seed=1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            simulate(params_with(), "weekly", 10, p0=0.0, seed=1)

    def test_csv_rows_shape(self):
        out = simulate(params_with(), "adaptive", 5, p0=0.0, seed=3)
        rows = list(out.to_csv_rows())
        assert rows[0][0] == "day"
        assert len(rows) == 7  # header + day 0 + 5 steps
