"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
per-criterion lines as they happen; they are also echoed in the terminal
summary). Criterion 7, the stylized-fact comparison of both calibrated
variants, is pending (ROADMAP's criterion-7 direction): no test for it
exists yet. Criteria 6 and 8 dominate the wall time.
"""

import time

import numpy as np
import pytest

from conftest import garch_returns, record_acceptance
from day_driver import DayDriver, market_impact_update
from farmerjoshi.calibration import (
    ObjectiveConfig,
    ParameterSpace,
    fitness,
    make_objective,
    replicate_calibrations,
    run_optimizer,
)
from farmerjoshi.data_io import ReturnSeries
from farmerjoshi.market import ModelParameters, simulate
from farmerjoshi.optimize import (
    CalibrationResult,
    GAParams,
    NMTAParams,
    ga_optimize,
    nmta_optimize,
)
from farmerjoshi.stats import (
    acf,
    adf_statistic,
    garch_persistence,
    gph_estimator,
    hill_tail_average,
    hurst_exponent,
    ks_statistic,
    moment_vector,
    sample_moments,
)
from farmerjoshi.weighting import WeightMatrix, estimate_weight_matrix

TEST_SCALE = dict(sim_days=500, n_traders=50, objective_sims=4)


def make_params(**kwargs) -> ModelParameters:
    base = dict(
        n_traders=50, lam=15.0, a=1.0, d_min=2, d_max=20,
        mu_eta=0.0, sigma_eta=0.01, sigma_zeta=0.01,
        T_min=0.10, T_max=0.30, tau_min=0.01, tau_max=0.045,
        v_min=-0.25, v_max=0.25, gamma=0.05, horizon=30,
    )
    base.update(kwargs)
    return ModelParameters(**base)


def identity_weight() -> WeightMatrix:
    return WeightMatrix(entries=np.eye(9), metadata={"source": "identity"})


def small_cfg(emp: ReturnSeries, variant="adaptive", sims=4, days=500,
              seed=5) -> ObjectiveConfig:
    return ObjectiveConfig(
        space=ParameterSpace(variant),
        empirical_returns=emp,
        empirical_moments=moment_vector(emp, emp).as_array(),
        weight=identity_weight(),
        replications=sims,
        sim_days=days,
        p0=0.0,
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# Criterion 1: determinism suite
# ---------------------------------------------------------------------------

class TestCriterion1Determinism:
    def test_determinism_suite(self, clustered_returns):
        t0 = time.time()
        params = make_params()
        ok = True
        details = []

        a = simulate(params, "adaptive", 500, p0=0.0, seed=7)
        b = simulate(params, "adaptive", 500, p0=0.0, seed=7)
        sim_ok = (np.array_equal(a.log_prices, b.log_prices)
                  and np.array_equal(a.n_chartists, b.n_chartists))
        ok &= sim_ok
        details.append(f"simulate={'ok' if sim_ok else 'MISMATCH'}")

        cfg = small_cfg(clustered_returns)
        theta = cfg.space.repair((cfg.space.lower + cfg.space.upper) / 2)
        fit_ok = fitness(theta, cfg) == fitness(theta, cfg)
        ok &= fit_ok
        details.append(f"fitness={'ok' if fit_ok else 'MISMATCH'}")

        objective = make_objective(cfg)
        ga_kw = dict(ga_params=GAParams(population=6, generations=1), seed=3)
        g1 = run_optimizer("ga", objective, cfg.space, **ga_kw)
        g2 = run_optimizer("ga", objective, cfg.space, **ga_kw)
        ga_ok = (np.array_equal(g1.theta, g2.theta) and g1.fitness == g2.fitness
                 and np.array_equal(g1.trace, g2.trace))
        ok &= ga_ok
        details.append(f"ga={'ok' if ga_ok else 'MISMATCH'}")

        nm_kw = dict(nmta_params=NMTAParams(max_iters=3, threshold_samples=2), seed=4)
        n1 = run_optimizer("nmta", objective, cfg.space, **nm_kw)
        n2 = run_optimizer("nmta", objective, cfg.space, **nm_kw)
        nm_ok = (np.array_equal(n1.theta, n2.theta)
                 and np.array_equal(n1.trace, n2.trace))
        ok &= nm_ok
        details.append(f"nmta={'ok' if nm_ok else 'MISMATCH'}")

        w1 = estimate_weight_matrix(clustered_returns, 50, 12, seed=2)
        w2 = estimate_weight_matrix(clustered_returns, 50, 12, seed=2)
        w_ok = np.array_equal(w1.entries, w2.entries)
        ok &= w_ok
        details.append(f"weights={'ok' if w_ok else 'MISMATCH'}")

        elapsed = time.time() - t0
        ok &= elapsed < 60.0
        record_acceptance(1, "determinism-suite", ok,
                          ", ".join(details) + f", {elapsed:.1f}s (< 60s)")
        assert ok


# ---------------------------------------------------------------------------
# Criterion 2: statistic oracle suite
# ---------------------------------------------------------------------------

def fi_noise(d: float, n: int, seed: int, trunc: int = 4000) -> np.ndarray:
    """Fractionally integrated noise via the truncated MA expansion."""
    rng = np.random.default_rng(seed)
    psi = np.empty(trunc)
    psi[0] = 1.0
    for k in range(1, trunc):
        psi[k] = psi[k - 1] * (k - 1 + d) / k
    eps = rng.standard_normal(n + trunc)
    return np.convolve(eps, psi, mode="full")[trunc:trunc + n]


class TestCriterion2StatisticOracles:
    def test_statistic_oracles(self):
        t0 = time.time()
        checks = {}

        rng = np.random.default_rng(5)
        x = rng.standard_normal(1_000_000)
        mean, sd, kurt = sample_moments(x)
        n = len(x)
        checks["normal-moments"] = (abs(mean) < 5 / np.sqrt(n)
                                    and abs(sd - 1) < 5 / np.sqrt(2 * n)
                                    and abs(kurt) < 5 * np.sqrt(24.0 / n))

        ks = ks_statistic(np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.5]))
        checks["ks-brute-force"] = abs(ks - 1.0 / 3.0) < 1e-12

        hurst_vals = [hurst_exponent(np.random.default_rng(s).standard_normal(8192))
                      for s in range(100)]
        checks["hurst-iid"] = abs(np.mean(hurst_vals) - 0.5) < 0.08

        anti = 0
        for s in range(100):
            r = np.random.default_rng(s)
            e = r.standard_normal(8192)
            ar = np.empty(8192)
            ar[0] = e[0]
            for t in range(1, 8192):
                ar[t] = -0.5 * ar[t - 1] + e[t]
            anti += hurst_exponent(ar) < 0.5
        checks["hurst-antipersistent"] = anti >= 95

        gph0 = [gph_estimator(np.random.default_rng(s).standard_normal(8192))
                for s in range(100)]
        checks["gph-d0"] = abs(np.mean(gph0)) < 0.15

        gph3 = [gph_estimator(10.0 + fi_noise(0.3, 8192, s)) for s in range(100)]
        checks["gph-d03"] = abs(np.mean(gph3) - 0.3) < 0.15

        rng = np.random.default_rng(4)
        y = rng.standard_normal(4096)
        p = int(np.floor((len(y) - 1) ** (1.0 / 3.0)))
        from test_stats import adf_oracle
        checks["adf-oracle"] = abs(adf_statistic(y) - adf_oracle(y, p)) < 1e-8
        checks["adf-iid"] = adf_statistic(y) < -10
        walk = np.cumsum(np.random.default_rng(0).standard_normal(4096))
        checks["adf-random-walk"] = adf_statistic(walk) > -3

        rec = garch_persistence(garch_returns(8192, seed=42, alpha=0.10,
                                              beta=0.85, omega=5e-6, df=None))
        checks["garch-recovery"] = abs(rec - 0.95) < 0.05

        iid_small = sum(
            garch_persistence(np.random.default_rng(s).standard_normal(8192)) < 0.3
            for s in range(50))
        checks["garch-iid"] = iid_small >= 45

        rng = np.random.default_rng(0)
        checks["hill-pareto3"] = abs(
            hill_tail_average(rng.pareto(3.0, 100_000) + 1.0) - 3.0) < 0.3
        checks["hill-pareto15"] = abs(
            hill_tail_average(rng.pareto(1.5, 100_000) + 1.0) - 1.5) < 0.2

        elapsed = time.time() - t0
        ok = all(checks.values()) and elapsed < 600
        failed = [k for k, v in checks.items() if not v]
        record_acceptance(2, "statistic-oracles", ok,
                          (f"all {len(checks)} oracles ok" if not failed
                           else f"failed: {failed}") + f", {elapsed:.0f}s (< 600s)")
        assert ok, failed


# ---------------------------------------------------------------------------
# Criterion 3: model micro-oracles
# ---------------------------------------------------------------------------

class TestCriterion3MicroOracles:
    def test_micro_oracles(self):
        micro = make_params(
            n_traders=2, lam=1.0, a=2.0, d_min=1, d_max=1, sigma_eta=0.0,
            sigma_zeta=0.0, T_min=0.1, T_max=0.1, tau_min=0.04, tau_max=0.04,
            v_min=-0.2, v_max=-0.2, horizon=1)
        c = 2.0 * (0.1 - 0.04)
        p1 = market_impact_update(0.0, -c, 1.0, 0.0)
        p2 = market_impact_update(p1, -c, 1.0, 0.0)
        p3 = market_impact_update(p2, c, 1.0, 0.0)
        out = simulate(micro, "standard", 3, p0=0.0, seed=9)
        standard_ok = out.log_prices.tolist() == [0.0, p1, p2, p3]

        adaptive = make_params(
            n_traders=1, lam=1.0, a=1.0, d_min=1, d_max=1, sigma_eta=0.0,
            sigma_zeta=0.0, T_min=0.1, T_max=0.1, tau_min=0.04, tau_max=0.04,
            v_min=-0.2, v_max=-0.2, horizon=1)
        state = DayDriver(adaptive, "adaptive", 2, seed=4)
        ca = 1.0 * (0.1 - 0.04)
        state.step(u=0.9)
        q1 = market_impact_update(0.0, -ca, 1.0, 0.0)
        ok1 = (state.log_price(1) == q1 and state.pos_actual[0] == -ca
               and not state.is_chartist[0])
        state.step(u=0.0)
        q2 = market_impact_update(q1, ca, 1.0, 0.0)
        ok2 = (state.log_price(2) == q2 and state.pos_actual[0] == 0.0
               and state.is_chartist[0])
        adaptive_ok = ok1 and ok2

        ok = standard_ok and adaptive_ok
        record_acceptance(3, "model-micro-oracles", ok,
                          f"standard-2x3={'exact' if standard_ok else 'MISMATCH'}, "
                          f"adaptive-1x2={'exact' if adaptive_ok else 'MISMATCH'}")
        assert ok


# ---------------------------------------------------------------------------
# Criterion 4: noise-only limit
# ---------------------------------------------------------------------------

class TestCriterion4NoiseOnlyLimit:
    def test_noise_only_sd(self):
        sigma = 0.02
        days = 10_000
        params = make_params(T_min=40.0, T_max=41.0, sigma_zeta=sigma)
        out = simulate(params, "standard", days, p0=0.0, seed=3)
        tol = 3.0 * sigma / np.sqrt(2 * days)
        diff = abs(out.log_returns.std(ddof=1) - sigma)
        ok = diff < tol
        record_acceptance(4, "noise-only-limit", ok,
                          f"|sd-sigma|={diff:.2e} < {tol:.2e} at T={days}")
        assert ok


# ---------------------------------------------------------------------------
# Criterion 5: optimizer sanity
# ---------------------------------------------------------------------------

def schwefel(x):
    return float(418.9829 * len(x) - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


class TestCriterion5OptimizerSanity:
    def test_optimizer_sanity(self):
        checks = {}
        sphere = lambda x: float(np.sum(x * x))
        box6 = (np.full(6, -5.0), np.full(6, 5.0))
        res = ga_optimize(sphere, box6, GAParams(population=40, generations=60),
                          seed=0)
        checks["ga-sphere"] = res.fitness < 1e-2

        quad = lambda x: float(np.sum((x - 1.2) ** 2))
        box3 = (np.full(3, -5.0), np.full(3, 5.0))
        zt = nmta_optimize(quad, box3, NMTAParams(thresholds=(0.0,) * 10,
                                                  max_iters=150), seed=5)
        nm = nmta_optimize(quad, box3, NMTAParams(thresholds=(0.0,), max_iters=150), seed=5)
        checks["nmta-zero-equals-nm"] = (np.array_equal(zt.trace, nm.trace)
                                         and np.array_equal(zt.theta, nm.theta))

        sbox = (np.full(2, -500.0), np.full(2, 500.0))
        nm_f, ta_f, events = [], [], []
        for s in range(20):
            nm_f.append(nmta_optimize(schwefel, sbox, NMTAParams(max_iters=300,
                                                                  thresholds=(0.0,)),
                                      seed=s).fitness)
            r = nmta_optimize(schwefel, sbox,
                              NMTAParams(max_iters=300, shift_every=5,
                                         shift_scale=0.25), seed=s)
            ta_f.append(r.fitness)
            events.extend(r.details["events"])
        checks["nmta-beats-nm-median"] = np.median(ta_f) < np.median(nm_f)
        accepted = [e for e in events if e["accepted"]]
        checks["accepted-worsening-bounded"] = bool(accepted) and all(
            e["new_best"] <= e["old_best"] + e["threshold"] + 1e-12
            for e in accepted)

        ok = all(checks.values())
        failed = [k for k, v in checks.items() if not v]
        record_acceptance(
            5, "optimizer-sanity", ok,
            f"ga-sphere={res.fitness:.1e}, nmta-median={np.median(ta_f):.1f} "
            f"vs nm={np.median(nm_f):.1f}, {len(accepted)} accepted shifts"
            + (f", failed: {failed}" if failed else ""))
        assert ok, failed


# ---------------------------------------------------------------------------
# Criterion 6: weight-matrix properties
# ---------------------------------------------------------------------------

class TestCriterion6WeightMatrix:
    def test_weight_matrix_properties(self):
        t0 = time.time()
        emp = ReturnSeries(garch_returns(2800, seed=77))
        w1 = estimate_weight_matrix(emp, block_len=100, replicates=500, seed=5)
        m = w1.entries
        sym = float(np.max(np.abs(m - m.T)))
        eig = np.linalg.eigvalsh(m)
        psd_ok = eig.min() >= -1e-8 * max(eig.max(), 1.0)
        w2 = estimate_weight_matrix(emp, block_len=100, replicates=500, seed=5)
        det_ok = np.array_equal(w1.entries, w2.entries)
        elapsed = time.time() - t0
        ok = sym <= 1e-10 and psd_ok and det_ok and elapsed < 300
        record_acceptance(
            6, "weight-matrix", ok,
            f"asym={sym:.1e} (<=1e-10), min-eig={eig.min():.2e}, "
            f"deterministic={det_ok}, {elapsed:.0f}s (< 300s)")
        assert ok


# ---------------------------------------------------------------------------
# Criterion 8: self-consistency calibration smoke
# ---------------------------------------------------------------------------

class TestCriterion8SelfConsistency:
    def test_ga_reaches_noise_floor(self):
        t0 = time.time()
        true_params = make_params(lam=20.0, a=0.8, d_min=10, d_max=40,
                                  sigma_zeta=0.006, T_max=0.5, gamma=0.05,
                                  horizon=50, sigma_eta=0.015)
        data = simulate(true_params, "adaptive", 2500, p0=0.0, seed=404)
        emp = ReturnSeries(data.log_returns)
        weight = estimate_weight_matrix(emp, block_len=100, replicates=150, seed=6)
        space = ParameterSpace("adaptive")
        cfg = ObjectiveConfig(
            space=space, empirical_returns=emp,
            empirical_moments=moment_vector(emp, emp).as_array(),
            weight=weight, replications=2, sim_days=2500, p0=0.0, master_seed=17)
        theta_star = space.from_model_parameters(true_params)
        space.validate(theta_star)
        f_star = fitness(theta_star, cfg)
        res = run_optimizer("ga", make_objective(cfg), space, seed=11,
                            ga_params=GAParams(population=16, generations=10))
        ok = res.fitness <= 2.0 * f_star
        record_acceptance(
            8, "self-consistency-smoke", ok,
            f"ga-fitness={res.fitness:.4g} vs 2x f(theta*)={2 * f_star:.4g}, "
            f"{time.time() - t0:.0f}s")
        assert ok


# ---------------------------------------------------------------------------
# Criterion 9: replication harness
# ---------------------------------------------------------------------------

class TestCriterion9ReplicationHarness:
    def test_table_shape_and_percentile_oracle(self):
        space = ParameterSpace("adaptive")
        base = space.repair((space.lower + space.upper) / 2)
        thetas = iter(np.linspace(1.0, 100.0, 100))

        def run_one(seed):
            theta = base.copy()
            theta[space.index("gamma")] = next(thetas) / 1000.0
            return CalibrationResult(theta=theta, fitness=float(seed % 11),
                                     trace=np.array([1.0]), evaluations=1,
                                     wall_time=0.0, seed=seed)

        summary5 = replicate_calibrations(
            lambda s: run_one(s), space, runs=5, seed=1)
        rows = list(summary5.rows())
        shape_ok = (rows[0] == ("parameter", "point", "lower_95", "upper_95")
                    and len(rows) == 1 + 16 + 1 and rows[-1][0] == "fitness")

        thetas = iter(np.linspace(1.0, 100.0, 100))
        summary100 = replicate_calibrations(
            lambda s: run_one(s), space, runs=100, seed=2)
        i = space.index("gamma")
        lo_expected, hi_expected = np.percentile(np.linspace(1, 100, 100), [2.5, 97.5])
        oracle_ok = (summary100.lower[i] == pytest.approx(lo_expected / 1000.0)
                     and summary100.upper[i] == pytest.approx(hi_expected / 1000.0))

        ok = shape_ok and oracle_ok
        record_acceptance(
            9, "replication-harness", ok,
            f"table-shape={'ok' if shape_ok else 'BAD'}, "
            f"interval=[{summary100.lower[i]:.6f}, {summary100.upper[i]:.6f}] "
            f"matches linear percentile oracle")
        assert ok
