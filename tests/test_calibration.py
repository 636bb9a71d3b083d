import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farmerjoshi import calibration
from farmerjoshi.calibration import (
    DEFAULT_BOUNDS,
    INTEGRAL_PARAMETERS,
    PENALTY_FITNESS,
    CalibrationError,
    ObjectiveConfig,
    ParameterSpace,
    evaluate,
    fitness,
    make_objective,
    model_parameters,
    replicate_calibrations,
    run_optimizer,
    surface_scan,
)
from farmerjoshi.market import BlowUpError, ParameterError
from farmerjoshi.optimize import CalibrationResult, GAParams, NMTAParams
from farmerjoshi.stats import N_MOMENTS, StatisticError
from farmerjoshi.weighting import WeightMatrix


def identity_weight() -> WeightMatrix:
    return WeightMatrix(entries=np.eye(N_MOMENTS), metadata={"source": "identity"})


@pytest.fixture()
def tiny_cfg(clustered_returns):
    from farmerjoshi.stats import moment_vector
    space = ParameterSpace("adaptive")
    m_emp = moment_vector(clustered_returns, clustered_returns).as_array()
    return ObjectiveConfig(
        space=space,
        empirical_returns=clustered_returns,
        empirical_moments=m_emp,
        weight=identity_weight(),
        replications=2,
        sim_days=300,
        p0=0.0,
        master_seed=5,
    )


def mid_theta(space: ParameterSpace) -> np.ndarray:
    return space.repair((space.lower + space.upper) / 2.0)


def stub_moments(monkeypatch, moments):
    """Each simulated run's moment vector becomes ``moments()``.

    The runs are real; only the statistics of each one are replaced.
    """
    monkeypatch.setattr(calibration, "moment_vector",
                        lambda sim, emp: SimpleNamespace(as_array=moments))


def stub_blow_ups(monkeypatch):
    """Every simulated run blows up."""
    monkeypatch.setattr(calibration, "simulate_batch",
                        lambda params, variant, days, p0, seeds:
                        [BlowUpError("boom") for _ in seeds])


class TestParameterSpace:
    def test_names_by_variant(self):
        assert len(ParameterSpace("adaptive").names) == 16
        assert len(ParameterSpace("standard").names) == 14
        assert "gamma" not in ParameterSpace("standard").names

    def test_repair_clips_rounds_and_orders(self):
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        i_dmin, i_dmax = space.index("d_min"), space.index("d_max")
        theta[i_dmin], theta[i_dmax] = 22.0, 12.0  # violates ordering
        theta[space.index("n_traders")] = 47.6  # violates integrality
        theta[space.index("a")] = 99.0  # violates bounds
        fixed = space.repair(theta)
        assert fixed[i_dmin] <= fixed[i_dmax]
        assert fixed[space.index("n_traders")] == 48.0
        assert fixed[space.index("a")] == space.bounds["a"][1]
        space.validate(fixed)

    def test_repair_stays_in_boxes_that_are_not_nested(self):
        bounds = {**DEFAULT_BOUNDS, "d_min": (5, 25), "d_max": (1, 60)}
        space = ParameterSpace("adaptive", bounds=bounds)
        theta = mid_theta(space)
        theta[space.index("d_min")], theta[space.index("d_max")] = 10.0, 3.0
        fixed = space.repair(theta)
        assert (fixed[space.index("d_min")], fixed[space.index("d_max")]) == (5.0, 10.0)
        space.validate(fixed)
        assert np.array_equal(space.repair(fixed.copy()), fixed)

    @given(st.data(), st.sampled_from(["standard", "adaptive"]))
    @settings(max_examples=200, deadline=None)
    def test_repair_is_valid_and_idempotent_under_accepted_bounds(self, data, variant):
        """Any box of the ordered pairs that ParameterSpace accepts (integer
        ends on the integral coordinates)."""
        bounds = dict(DEFAULT_BOUNDS)
        for lo_name, hi_name in calibration._ORDERED_PAIRS:
            ends = st.integers(-20, 80) if lo_name in INTEGRAL_PARAMETERS else st.floats(-1.0, 1.0)
            lo_box, hi_box = (tuple(sorted((data.draw(ends), data.draw(ends)))) for _ in "lh")
            if lo_box[0] > hi_box[1]:
                lo_box, hi_box = hi_box, lo_box
            bounds[lo_name], bounds[hi_name] = lo_box, hi_box
        shift = bounds["tau_max"][1] - bounds["T_min"][0]
        if shift >= 0:  # tau_max's box must sit below T_min's
            for name in ("T_min", "T_max"):
                bounds[name] = tuple(v + shift + 1.0 for v in bounds[name])
        space = ParameterSpace(variant, bounds=bounds)
        theta = np.array(data.draw(st.lists(st.floats(-200.0, 200.0),
                                            min_size=space.dim, max_size=space.dim)))
        fixed = space.repair(theta)
        space.validate(fixed)
        assert np.array_equal(space.repair(fixed.copy()), fixed)

    def test_validate_rejects_out_of_bounds(self):
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        theta[space.index("lam")] = 1e9
        with pytest.raises(CalibrationError, match="bounds"):
            space.validate(theta)

    def test_unknown_parameter_lists_names(self):
        with pytest.raises(CalibrationError, match="n_traders"):
            ParameterSpace("adaptive").index("liquidity")

    def test_model_parameter_roundtrip(self):
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        params = space.to_model_parameters(theta)
        back = space.from_model_parameters(params)
        assert np.allclose(back, theta)

    def test_integral_fields_rounded_once_for_both_callers(self):
        space = ParameterSpace("standard")
        theta = mid_theta(space)
        theta[space.index("n_traders")] = 47.6
        theta[space.index("d_max")] = 20.4
        params = space.to_model_parameters(theta)
        assert (params.n_traders, params.d_max) == (48, 20)
        assert type(params.n_traders) is int and type(params.horizon) is int
        values = dict(zip(space.names, theta), gamma=0.05, horizon=50)
        assert model_parameters(values) == params

    def test_bad_bounds_rejected(self):
        bad = dict(ParameterSpace("adaptive").bounds)
        bad["tau_max"] = (0.02, 0.2)  # overlaps the T_min box
        with pytest.raises(CalibrationError, match="tau_max"):
            ParameterSpace("adaptive", bounds=bad)
        typo = {**ParameterSpace("adaptive").bounds, "lamda": (1.0, 2.0)}
        with pytest.raises(CalibrationError, match="lamda"):
            ParameterSpace("adaptive", bounds=typo)
        fractional = {**ParameterSpace("adaptive").bounds, "horizon": (5.4, 100)}
        with pytest.raises(CalibrationError, match="horizon must be integers"):
            ParameterSpace("adaptive", bounds=fractional)
        ParameterSpace("adaptive", bounds={**fractional, "horizon": (5.0, 100.0)})


class TestEvaluate:
    def test_stub_matching_moments_gives_zero(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        stub_moments(monkeypatch, lambda: tiny_cfg.empirical_moments.copy())
        ev = evaluate(theta, tiny_cfg)
        assert np.array_equal(ev.error, np.zeros(N_MOMENTS))
        assert ev.fitness == 0.0 and ev.failures == ()

    def test_symmetric_deviations_cancel(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        delta = np.linspace(0.1, 0.9, N_MOMENTS)
        sign = {"flip": 1.0}

        def stub():
            sign["flip"] *= -1.0
            return tiny_cfg.empirical_moments + sign["flip"] * delta

        stub_moments(monkeypatch, stub)
        ev = evaluate(theta, tiny_cfg)
        assert np.allclose(ev.error, 0.0)
        assert ev.fitness == pytest.approx(0.0, abs=1e-20)

    def test_single_simulation_exact_deviation(self, tiny_cfg, clustered_returns,
                                               monkeypatch):
        cfg = ObjectiveConfig(
            space=tiny_cfg.space, empirical_returns=clustered_returns,
            empirical_moments=tiny_cfg.empirical_moments, weight=identity_weight(),
            replications=1, sim_days=300, master_seed=5)
        theta = mid_theta(cfg.space)
        d = np.arange(1.0, N_MOMENTS + 1)
        stub_moments(monkeypatch, lambda: cfg.empirical_moments - d)
        ev = evaluate(theta, cfg)
        assert np.allclose(ev.error, d)
        assert ev.fitness == pytest.approx(float(d @ d))

    def test_majority_failures_penalised(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        stub_blow_ups(monkeypatch)
        ev = evaluate(theta, tiny_cfg)
        assert ev.error is None and ev.fitness == PENALTY_FITNESS
        assert [i for i, _ in ev.failures] == [0, 1]
        assert all(isinstance(exc, BlowUpError) for _, exc in ev.failures)
        assert np.isnan(ev.moments).all()

    @pytest.mark.parametrize("replications", [3, 4])
    def test_failed_runs_recorded_and_dropped(self, replications, tiny_cfg,
                                              clustered_returns, monkeypatch):
        """Run 0 blows up and run 2's statistics fail. Of three runs that is
        more than half, so the evaluation is penalised; a fourth run with
        run 1's moments makes G run 1's deviation."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((N_MOMENTS, N_MOMENTS))
        w = WeightMatrix(entries=a @ a.T / N_MOMENTS)
        cfg = ObjectiveConfig(
            space=tiny_cfg.space, empirical_returns=clustered_returns,
            empirical_moments=tiny_cfg.empirical_moments, weight=w,
            replications=replications, sim_days=300, master_seed=5)
        real_batch = calibration.simulate_batch

        def simulate_batch(params, variant, days, p0, seeds):
            outputs = real_batch(params, variant, days, p0=p0, seeds=seeds)
            return [BlowUpError("stub blow-up"), *outputs[1:]]

        run1 = cfg.empirical_moments - rng.standard_normal(N_MOMENTS)
        calls = []

        def moment_vector(sim, emp):
            calls.append(sim)
            if len(calls) == 2:
                raise StatisticError("zero variance", component="adf")
            return SimpleNamespace(as_array=lambda: run1)

        monkeypatch.setattr(calibration, "simulate_batch", simulate_batch)
        monkeypatch.setattr(calibration, "moment_vector", moment_vector)
        theta = mid_theta(cfg.space)
        ev = evaluate(theta, cfg)
        assert len(calls) == replications - 1
        assert np.isnan(ev.moments[[0, 2]]).all()
        assert np.array_equal(ev.moments[1::2], [run1] * (replications // 2))
        assert [(i, type(exc)) for i, exc in ev.failures] == [(0, BlowUpError),
                                                             (2, StatisticError)]
        assert ev.failures[1][1].component == "adf"
        if replications == 3:
            assert ev.error is None and ev.fitness == PENALTY_FITNESS
        else:
            g = cfg.empirical_moments - run1
            assert np.array_equal(ev.error, g)
            assert ev.fitness == float(g @ w.entries @ g) > 0.0
        calls.clear()
        assert fitness(theta, cfg) == ev.fitness

    @staticmethod
    def assert_every_run_fails_unsimulated(theta, cfg, error, monkeypatch):
        monkeypatch.setattr(calibration, "simulate_batch", None)  # never reached
        ev = evaluate(theta, cfg)
        assert ev.fitness == PENALTY_FITNESS and ev.error is None
        assert [i for i, _ in ev.failures] == [0, 1]
        assert all(isinstance(exc, error) for _, exc in ev.failures)
        assert np.isnan(ev.moments).all()
        assert fitness(theta, cfg) == PENALTY_FITNESS

    def test_out_of_box_theta_penalised(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        theta[tiny_cfg.space.index("lam")] = 1e9
        self.assert_every_run_fails_unsimulated(theta, tiny_cfg, CalibrationError,
                                                monkeypatch)

    def test_invalid_model_theta_penalised(self, tiny_cfg, monkeypatch):
        """A box the user widened past the model's constraints: every theta
        in it is a ParameterError, which fails each run without simulating."""
        space = ParameterSpace("adaptive", bounds={**DEFAULT_BOUNDS, "lam": (0.0, 0.0)})
        cfg = dataclasses.replace(tiny_cfg, space=space)
        self.assert_every_run_fails_unsimulated(mid_theta(space), cfg, ParameterError,
                                                monkeypatch)


class TestFitness:
    def test_zero_error_zero_fitness(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        stub_moments(monkeypatch, lambda: tiny_cfg.empirical_moments.copy())
        assert fitness(theta, tiny_cfg) == 0.0

    def test_identity_weight_sum_of_squares(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        d = np.zeros(N_MOMENTS)
        d[0], d[1] = 1.0, 2.0
        stub_moments(monkeypatch, lambda: tiny_cfg.empirical_moments - d)
        assert fitness(theta, tiny_cfg) == pytest.approx(5.0)

    def test_quadratic_form_matches_oracle(self, tiny_cfg, clustered_returns,
                                           monkeypatch):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((N_MOMENTS, N_MOMENTS))
        w = WeightMatrix(entries=a @ a.T / N_MOMENTS)
        cfg = ObjectiveConfig(
            space=tiny_cfg.space, empirical_returns=clustered_returns,
            empirical_moments=tiny_cfg.empirical_moments, weight=w,
            replications=1, sim_days=300, master_seed=5)
        g = rng.standard_normal(N_MOMENTS)
        stub_moments(monkeypatch, lambda: cfg.empirical_moments - g)
        expected = float(g @ (w.entries @ g))
        theta = mid_theta(cfg.space)
        assert fitness(theta, cfg) == pytest.approx(expected, rel=1e-12)

    def test_blow_up_maps_to_penalty(self, tiny_cfg, monkeypatch):
        theta = mid_theta(tiny_cfg.space)
        stub_blow_ups(monkeypatch)
        assert fitness(theta, tiny_cfg) == PENALTY_FITNESS

    def test_real_simulation_fitness_deterministic(self, tiny_cfg):
        theta = mid_theta(tiny_cfg.space)
        f1 = fitness(theta, tiny_cfg)
        f2 = fitness(theta, tiny_cfg)
        assert f1 == f2
        assert np.isfinite(f1) and f1 >= 0


def stub_result(theta, fit, seed=0) -> CalibrationResult:
    return CalibrationResult(theta=np.atleast_1d(theta), fitness=fit,
                             trace=np.array([fit]), evaluations=1,
                             wall_time=0.0, seed=seed)


def fitness_interval(fits) -> tuple:
    """The fitness row's (lower, upper) over runs of the given fitness values."""
    space = ParameterSpace("standard")
    theta = mid_theta(space)
    values = iter(fits)
    summary = replicate_calibrations(lambda s: stub_result(theta, next(values), s),
                                     space, runs=len(fits), seed=0)
    return summary.lower[-1], summary.upper[-1]


class TestReplicateCalibrations:
    def test_identical_runs_degenerate_interval(self):
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        summary = replicate_calibrations(
            lambda s: stub_result(theta, 1.0, s), space, runs=5, seed=0)
        assert np.array_equal(summary.best.theta, theta)
        assert np.array_equal(summary.lower, np.append(theta, 1.0))
        assert np.array_equal(summary.upper, np.append(theta, 1.0))

    def test_percentile_oracle_1_to_100(self):
        lo, hi = fitness_interval(np.arange(1.0, 101.0))
        assert (lo, hi) == tuple(np.percentile(np.arange(1.0, 101.0), [2.5, 97.5]))
        assert lo == pytest.approx(3.475)
        assert hi == pytest.approx(97.525)

    def test_two_runs_interval_is_linear_percentile(self):
        # with two samples the 2.5/97.5 percentiles sit 2.5% inside the range
        lo, hi = fitness_interval([10.0, 20.0])
        assert lo == pytest.approx(10.25)
        assert hi == pytest.approx(19.75)

    def test_summary_intervals_match_oracle(self):
        space = ParameterSpace("standard")
        base = mid_theta(space)
        values = iter(np.linspace(1.0, 100.0, 100))

        def run_one(seed):
            theta = base.copy()
            theta[space.index("lam")] = next(values) / 10.0 + 5.0
            return stub_result(theta, float(seed % 7), seed)

        summary = replicate_calibrations(run_one, space, runs=100, seed=1)
        i = space.index("lam")
        assert summary.lower[i] == pytest.approx(3.475 / 10.0 + 5.0)
        assert summary.upper[i] == pytest.approx(97.525 / 10.0 + 5.0)

    @staticmethod
    def assert_propagates(error):
        """The second of four runs raises ``error``: it ends the replications."""
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        calls = {"n": 0}

        def run_one(seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise error
            return stub_result(theta, 1.0, seed)

        with pytest.raises(type(error), match=str(error)):
            replicate_calibrations(run_one, space, runs=4, seed=0)
        assert calls["n"] == 2

    def test_programming_errors_propagate(self):
        self.assert_propagates(TypeError("bad argument"))

    def test_domain_errors_propagate(self):
        # a fitness evaluation penalises a failed simulation; one that escapes a
        # run is a fault, and no run is dropped from the intervals for it
        self.assert_propagates(BlowUpError("sim exploded"))

    def test_rows_table_shape(self):
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        summary = replicate_calibrations(
            lambda s: stub_result(theta, 2.0, s), space, runs=3, seed=0)
        rows = list(summary.rows())
        assert rows[0] == ("parameter", "point", "lower_95", "upper_95")
        assert len(rows) == 1 + len(space.names) + 1  # header + params + fitness
        assert rows[-1][0] == "fitness"


class TestSurfaceScan:
    def test_grid_row_count(self):
        space = ParameterSpace("adaptive")
        theta = mid_theta(space)
        rows = surface_scan(lambda th: 1.0, space, "a", "lam", 2, 2, theta)
        assert len(rows) == 4

    def test_rescan_identical(self, tiny_cfg):
        theta = mid_theta(tiny_cfg.space)
        obj = make_objective(tiny_cfg)
        a = surface_scan(obj, tiny_cfg.space, "a", "gamma", 2, 2, theta)
        b = surface_scan(obj, tiny_cfg.space, "a", "gamma", 2, 2, theta)
        assert a == b

    @pytest.mark.parametrize("name_x, name_y, grid_x, grid_y", [
        ("d_min", "d_max", 4, 4),  # integral and ordered: repair rounds and swaps
        ("n_traders", "a", 7, 2),  # an integral grid that repair leaves alone
        ("horizon", "gamma", 15, 2),  # integral, off-grid: repair rounds
    ])
    def test_rows_report_the_point_evaluated(self, name_x, name_y, grid_x, grid_y):
        space = ParameterSpace("adaptive")
        seen = []

        def objective(theta):
            seen.append(theta.copy())
            return float(len(seen))

        rows = surface_scan(objective, space, name_x, name_y, grid_x, grid_y,
                            mid_theta(space))
        assert len(rows) == len(seen) == grid_x * grid_y
        ix, iy = space.index(name_x), space.index(name_y)
        for n, ((x, y, f), theta) in enumerate(zip(rows, seen), 1):
            assert (x, y, f) == (theta[ix], theta[iy], n)

    def test_same_parameter_twice_rejected(self, tiny_cfg):
        theta = mid_theta(tiny_cfg.space)
        with pytest.raises(CalibrationError):
            surface_scan(lambda th: 0.0, tiny_cfg.space, "a", "a", 2, 2, theta)

    def test_small_grid_rejected(self, tiny_cfg):
        theta = mid_theta(tiny_cfg.space)
        with pytest.raises(CalibrationError):
            surface_scan(lambda th: 0.0, tiny_cfg.space, "a", "lam", 1, 2, theta)


class TestMakeObjective:
    def test_ga_run_unchanged_and_each_theta_evaluated_once(self, tiny_cfg, monkeypatch):
        space, params = tiny_cfg.space, GAParams(population=8, generations=3)
        plain = run_optimizer("ga", lambda theta: fitness(theta, tiny_cfg), space,
                              seed=1, ga_params=params)
        evaluated, requested = [], []
        monkeypatch.setattr(calibration, "fitness",
                            lambda theta, cfg: evaluated.append(theta) or fitness(theta, cfg))
        memo = make_objective(tiny_cfg)

        def objective(theta):
            requested.append(theta.tobytes())
            return memo(theta)

        res = run_optimizer("ga", objective, space, seed=1, ga_params=params)
        assert res.theta.tobytes() == plain.theta.tobytes()
        assert res.fitness == plain.fitness
        assert res.trace.tobytes() == plain.trace.tobytes()
        assert res.evaluations == plain.evaluations == len(requested)
        # with seed 1, three of the 29 requests repeat an earlier theta
        assert len(evaluated) == len(set(requested)) < len(requested)


class TestRunOptimizer:
    def test_unknown_tag(self):
        space = ParameterSpace("adaptive")
        with pytest.raises(CalibrationError, match="unknown optimizer"):
            run_optimizer("annealing", lambda th: 0.0, space, seed=0)

    def test_ga_respects_space_constraints(self):
        space = ParameterSpace("adaptive")

        def objective(theta):
            space.validate(theta)  # raises if the optimizer hands us junk
            return float(np.sum((theta - space.lower) ** 2))

        res = run_optimizer("ga", objective, space, seed=0,
                            ga_params=GAParams(population=8, generations=4))
        space.validate(res.theta)

    def test_nmta_respects_space_constraints(self):
        space = ParameterSpace("standard")

        def objective(theta):
            space.validate(theta)
            return float(np.sum(theta ** 2))

        res = run_optimizer("nmta", objective, space, seed=1,
                            nmta_params=NMTAParams(max_iters=30,
                                                   threshold_samples=10))
        space.validate(res.theta)
