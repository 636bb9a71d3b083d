import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farmerjoshi.optimize import (
    GAParams,
    PENALTY_FITNESS,
    NMTAParams,
    _Search,
    build_thresholds,
    ga_optimize,
    nmta_optimize,
    reflect_into_bounds,
)


def sphere(x):
    return float(np.sum(x * x))


BOX6 = (np.full(6, -5.0), np.full(6, 5.0))


class TestReflectIntoBounds:
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_output_inside_box(self, xs):
        lower = np.array([-1.0, 0.0, 2.0])
        upper = np.array([1.0, 0.0, 6.0])
        y = reflect_into_bounds(np.array(xs), lower, upper)
        assert np.all(y >= lower - 1e-12) and np.all(y <= upper + 1e-12)

    def test_interior_unchanged(self):
        lower, upper = np.zeros(2), np.ones(2)
        x = np.array([0.25, 0.75])
        assert np.array_equal(reflect_into_bounds(x, lower, upper), x)

    def test_simple_reflection(self):
        lower, upper = np.zeros(1), np.ones(1)
        assert reflect_into_bounds(np.array([1.25]), lower, upper)[0] == pytest.approx(0.75)
        assert reflect_into_bounds(np.array([-0.25]), lower, upper)[0] == pytest.approx(0.25)


class TestGaOptimize:
    def test_sphere_convergence(self):
        res = ga_optimize(sphere, BOX6, GAParams(population=40, generations=60), seed=0)
        assert res.fitness < 1e-2
        assert res.evaluations == 40 + 60 * 39

    def test_trace_non_increasing_and_final_matches(self):
        res = ga_optimize(sphere, BOX6, GAParams(population=20, generations=25), seed=1)
        assert np.all(np.diff(res.trace) <= 0)
        assert res.trace[-1] == res.fitness
        assert res.fitness == np.min(res.trace)

    def test_deterministic(self):
        a = ga_optimize(sphere, BOX6, GAParams(population=12, generations=10), seed=5)
        b = ga_optimize(sphere, BOX6, GAParams(population=12, generations=10), seed=5)
        assert np.array_equal(a.theta, b.theta)
        assert a.fitness == b.fitness
        assert np.array_equal(a.trace, b.trace)

    def test_theta_within_bounds(self):
        res = ga_optimize(sphere, BOX6, GAParams(population=10, generations=5), seed=2)
        assert np.all(res.theta >= BOX6[0]) and np.all(res.theta <= BOX6[1])

    def test_integral_coordinates_rounded(self):
        integral = np.array([True, False])
        seen = []

        def objective(x):
            seen.append(x.copy())
            return float((x[0] - 2.3) ** 2 + x[1] ** 2)

        res = ga_optimize(objective, (np.zeros(2), np.full(2, 5.0)),
                          GAParams(population=8, generations=6), seed=3,
                          repair=lambda x: np.where(integral, np.rint(x), x))
        assert all(v[0] == round(v[0]) for v in seen)
        assert res.theta[0] == 2.0

    def test_population_minimum(self):
        with pytest.raises(ValueError):
            ga_optimize(sphere, BOX6, GAParams(population=2), seed=0)

    def test_repair_hook_applied(self):
        def repair(x):
            y = x.copy()
            if y[0] > y[1]:
                y[0], y[1] = y[1], y[0]
            return y

        def objective(x):
            assert x[0] <= x[1]
            return sphere(x)

        res = ga_optimize(objective, (np.full(2, -3.0), np.full(2, 3.0)),
                          GAParams(population=10, generations=8), seed=4,
                          repair=repair)
        assert res.theta[0] <= res.theta[1]


class TestNmtaOptimize:
    def test_zero_thresholds_equals_plain_nm(self):
        quad = lambda x: float(np.sum((x - 1.2) ** 2))
        box = (np.full(3, -5.0), np.full(3, 5.0))
        a = nmta_optimize(quad, box, NMTAParams(thresholds=(0.0,) * 10,
                                                max_iters=150), seed=5)
        b = nmta_optimize(quad, box, NMTAParams(thresholds=(0.0,), max_iters=150), seed=5)
        assert not a.details["events"] and not b.details["events"]
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.theta, b.theta)
        assert a.evaluations == b.evaluations

    def test_quadratic_bowl_convergence(self):
        quad = lambda x: float(np.sum((x - 0.7) ** 2))
        box = (np.full(2, -5.0), np.full(2, 5.0))
        res = nmta_optimize(quad, box, NMTAParams(max_iters=250, thresholds=(0.0,)), seed=0)
        assert res.fitness < 1e-4

    def test_thresholds_non_increasing(self):
        def rugged(x):
            return sphere(x) + np.sin(20 * x[0])
        res = nmta_optimize(rugged, (np.full(2, -2.0), np.full(2, 2.0)),
                            NMTAParams(max_iters=60), seed=3)
        taus = np.array(res.details["thresholds"])
        assert np.all(np.diff(taus) <= 0)
        assert taus[-1] == 0.0

    def test_accepted_worsenings_bounded_by_threshold(self):
        def schwefel(x):
            return float(418.9829 * len(x) - np.sum(x * np.sin(np.sqrt(np.abs(x)))))
        box = (np.full(2, -500.0), np.full(2, 500.0))
        res = nmta_optimize(schwefel, box,
                            NMTAParams(max_iters=200, shift_every=5,
                                       shift_scale=0.25), seed=1)
        events = res.details["events"]
        assert events, "expected at least one shift proposal"
        for ev in events:
            if ev["accepted"]:
                assert ev["new_best"] <= ev["old_best"] + ev["threshold"] + 1e-12

    def test_simplex_best_non_increasing_between_shifts(self):
        def schwefel(x):
            return float(418.9829 * len(x) - np.sum(x * np.sin(np.sqrt(np.abs(x)))))
        box = (np.full(2, -500.0), np.full(2, 500.0))
        res = nmta_optimize(schwefel, box,
                            NMTAParams(max_iters=120, shift_every=10), seed=2)
        accepted_iters = {e["iteration"] for e in res.details["events"]}
        trace = res.details["simplex_best_traces"][0]
        # trace index i corresponds to iteration i (0 = initial simplex)
        for i in range(1, len(trace)):
            if i not in accepted_iters:
                assert trace[i] <= trace[i - 1] + 1e-12

    def test_deterministic(self):
        a = nmta_optimize(sphere, BOX6, NMTAParams(max_iters=80), seed=9)
        b = nmta_optimize(sphere, BOX6, NMTAParams(max_iters=80), seed=9)
        assert np.array_equal(a.trace, b.trace)
        assert a.fitness == b.fitness

    def test_penalty_pairs_excluded_from_thresholds(self):
        def spiky(x):
            return PENALTY_FITNESS if x[0] > 0 else sphere(x)

        ev = _Search(spiky, (np.full(2, -1.0), np.full(2, 1.0)), None, seed=0)
        taus = build_thresholds(ev, NMTAParams(threshold_samples=60, shift_scale=1.0))
        assert ev.count == 120
        assert np.all(taus < 1e11)

    def test_zero_shift_settings_rejected(self):
        # plain Nelder-Mead is reached by zero thresholds alone
        with pytest.raises(ValueError, match="shift_every must be >= 1"):
            NMTAParams(shift_every=0)
        with pytest.raises(ValueError, match="threshold_samples must be >= 1"):
            NMTAParams(threshold_samples=0)

    @pytest.mark.parametrize("thresholds", [(), (np.nan,), (np.inf,), (0.5, -1.0)],
                             ids=["empty", "nan", "inf", "negative"])
    def test_unusable_thresholds_rejected(self, thresholds):
        with pytest.raises(ValueError, match="thresholds must be a non-empty sequence"):
            NMTAParams(thresholds=thresholds)

    def test_restarts_accumulate_best(self):
        res = nmta_optimize(sphere, BOX6,
                            NMTAParams(max_iters=40, restarts=3,
                                       thresholds=(0.0,)), seed=4)
        assert res.fitness == np.min(res.trace)
        assert len(res.details["simplex_best_traces"]) == 3

    def test_multimodal_escape_beats_plain_nm(self):
        def schwefel(x):
            return float(418.9829 * len(x) - np.sum(x * np.sin(np.sqrt(np.abs(x)))))
        box = (np.full(2, -500.0), np.full(2, 500.0))
        nm_f, ta_f = [], []
        for s in range(8):
            nm_f.append(nmta_optimize(schwefel, box,
                                      NMTAParams(max_iters=300, thresholds=(0.0,)),
                                      seed=s).fitness)
            ta_f.append(nmta_optimize(schwefel, box,
                                      NMTAParams(max_iters=300, shift_every=5,
                                                 shift_scale=0.25), seed=s).fitness)
        assert np.median(ta_f) < np.median(nm_f)


@pytest.mark.parametrize("optimize, params, skipped", [
    (ga_optimize, GAParams(population=6, generations=3), 0),
    # the NM search starts after the 2 x 5 threshold samples
    (nmta_optimize, NMTAParams(max_iters=12, threshold_samples=5), 10),
    (nmta_optimize, NMTAParams(max_iters=12, thresholds=(0.0,)), 0),
], ids=["ga", "nmta", "nm"])
def test_infinite_objective_returns_first_point_evaluated(optimize, params, skipped):
    seen = []

    def infinite(x):
        seen.append(x.copy())
        return np.inf

    res = optimize(infinite, BOX6, params, seed=3)
    assert res.fitness == np.inf and np.all(res.trace == np.inf)
    assert np.array_equal(res.theta, seen[skipped])
