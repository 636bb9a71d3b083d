"""Golden fingerprints of the simulator, the statistics, the objective and
the optimizers.

Run from the repository root to compare this checkout with
``tests/data/golden_paths.json``; it prints each mismatching key (a path,
a blow-up, a variant's fitness values, a series' moments, an optimizer run
or the moments version) and exits non-zero:

    PYTHONPATH=src python tests/make_golden.py

``--write`` rewrites the file instead:

    PYTHONPATH=src python tests/make_golden.py --write

It refuses when the moments differ from the file's but
``stats.MOMENTS_VERSION`` does not: a change of statistic values must bump
the version, which also invalidates the weight caches.

``tests/test_golden.py`` recomputes the same fingerprints and compares them
bit for bit. Regenerate only when a change to the simulated paths or to the
objective is intended, and record in CHANGES.md what changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import farmerjoshi  # noqa: F401  (first: it sets the BLAS thread count before numpy loads)
import numpy as np

from farmerjoshi.calibration import ObjectiveConfig, ParameterSpace, fitness, run_optimizer
from farmerjoshi.data_io import ReturnSeries
from farmerjoshi.market import (
    BLOCK_DAYS,
    DEFAULT_PARAMETERS,
    BlowUpError,
    _block_days,
    simulate,
)
from farmerjoshi.optimize import GAParams, NMTAParams
from farmerjoshi.stats import MOMENTS_VERSION, N_MOMENTS, moment_vector
from farmerjoshi.weighting import WeightMatrix

from conftest import garch_returns

GOLDEN_FILE = Path(__file__).parent / "data" / "golden_paths.json"

PATH_DAYS = 2500
PATH_SEEDS = (3, 20210419, 987654321)
PARAMETER_SETS = {
    "default": DEFAULT_PARAMETERS,
    "n37_h7_d1": DEFAULT_PARAMETERS.with_values(n_traders=37, horizon=7, d_min=1),
}
VARIANTS = ("standard", "adaptive")
OUTPUT_ARRAYS = ("log_prices", "log_returns", "n_chartists", "n_fundamentalists",
                 "profit_chartists", "profit_fundamentalists")

#: Parameter sets where some seeds blow up within ``days`` and others do not.
BLOWUP_CASES = {
    "standard": (DEFAULT_PARAMETERS.with_values(a=35.0, lam=5.0, n_traders=60,
                                                sigma_zeta=0.03, d_max=20, horizon=20), 400),
    "adaptive": (DEFAULT_PARAMETERS.with_values(a=14.0, lam=5.0, n_traders=100,
                                                sigma_zeta=0.03), 300),
}
BLOWUP_SEEDS = tuple(range(8))

#: Quiet markets whose value perceptions drift up by mu_eta a day until the
#: first fundamentalist enters near day 1000 * T; the low liquidity then
#: throws the price out of range the next day. Seeds whose first blow-up
#: falls on the last day of the first noise block or the first of the next.
BLOCK_EDGE_PARAMETERS = DEFAULT_PARAMETERS.with_values(
    lam=1e-3, mu_eta=1e-3, sigma_eta=1e-5, sigma_zeta=1e-4,
    T_min=0.129, T_max=0.149, v_min=-0.005, v_max=0.005)
BLOCK_EDGE_DAYS = 300
BLOCK_EDGE_SEEDS = {  # (variant, seed): the day of its first blow-up
    ("standard", 6): BLOCK_DAYS,
    ("standard", 1): BLOCK_DAYS + 1,
    ("adaptive", 3): BLOCK_DAYS,
    ("adaptive", 4): BLOCK_DAYS + 1,
}

FITNESS_DAYS = 1000
FITNESS_REPLICATIONS = 3
FITNESS_THETA_SEED = 5

MOMENT_DAYS = 2500

#: Small optimizer runs over the adaptive calibration box; see box_objective.
OPTIMIZER_RUNS = {
    "ga": dict(optimizer="ga", ga_params=GAParams(population=8, generations=5)),
    "nmta": dict(optimizer="nmta", nmta_params=NMTAParams(
        max_iters=40, shift_every=5, threshold_samples=12)),
    "nmta_zero": dict(optimizer="nmta", nmta_params=NMTAParams(max_iters=40, thresholds=(0.0,))),
}
OPTIMIZER_SEED = 7


def path_key(variant: str, set_name: str, seed: int) -> str:
    return f"{variant}/{set_name}/{seed}"


def path_fingerprint(variant: str, set_name: str, seed: int) -> dict:
    """sha256 of every output array of one simulated path, or its blow-up."""
    try:
        out = simulate(PARAMETER_SETS[set_name], variant, PATH_DAYS, p0=0.0, seed=seed)
    except BlowUpError as exc:
        return {"blowup": str(exc)}
    return {name: hashlib.sha256(np.ascontiguousarray(getattr(out, name)).tobytes())
            .hexdigest() for name in OUTPUT_ARRAYS}


def blowup_fingerprint(params, variant: str, days: int, seed: int) -> str:
    """The BlowUpError message of one run, or ``"ok"`` if it stays in range."""
    try:
        simulate(params, variant, days, p0=0.0, seed=seed)
    except BlowUpError as exc:
        return str(exc)
    return "ok"


def blowup_cases() -> dict:
    """(params, variant, days, seed) by key: ``variant/seed`` for BLOWUP_CASES,
    ``variant/block_edge/seed`` for BLOCK_EDGE_SEEDS."""
    cases = {f"{variant}/{seed}": (params, variant, days, seed)
             for variant, (params, days) in BLOWUP_CASES.items() for seed in BLOWUP_SEEDS}
    for variant, seed in BLOCK_EDGE_SEEDS:
        # the expected days straddle the edge of a BLOCK_DAYS-day first block
        assert _block_days(BLOCK_EDGE_PARAMETERS, variant == "adaptive", 1,
                           BLOCK_EDGE_DAYS) == BLOCK_DAYS
        cases[f"{variant}/block_edge/{seed}"] = (BLOCK_EDGE_PARAMETERS, variant,
                                                 BLOCK_EDGE_DAYS, seed)
    return cases


def blowup_fingerprints() -> dict:
    return {key: blowup_fingerprint(*case) for key, case in blowup_cases().items()}


def empirical_returns() -> ReturnSeries:
    """GARCH(1,1) returns with unit-variance t(5) shocks, fixed seed."""
    rng = np.random.default_rng(321)
    z = rng.standard_t(df=5.0, size=FITNESS_DAYS) / np.sqrt(5.0 / 3.0)
    r = np.empty(FITNESS_DAYS)
    s2 = 2e-6 / (1.0 - 0.12 - 0.85)
    for t in range(FITNESS_DAYS):
        r[t] = np.sqrt(s2) * z[t]
        s2 = 2e-6 + 0.12 * r[t] ** 2 + 0.85 * s2
    return ReturnSeries(r)


def objective_config(variant: str) -> ObjectiveConfig:
    emp = empirical_returns()
    return ObjectiveConfig(
        space=ParameterSpace(variant),
        empirical_returns=emp,
        empirical_moments=moment_vector(emp, emp).as_array(),
        weight=WeightMatrix(np.eye(N_MOMENTS)),
        replications=FITNESS_REPLICATIONS,
        sim_days=FITNESS_DAYS,
        p0=0.0,
        master_seed=11,
    )


def fitness_thetas(space: ParameterSpace) -> list[np.ndarray]:
    """The bound midpoints and two uniform draws from the box, repaired."""
    rng = np.random.default_rng(FITNESS_THETA_SEED)
    draws = [space.lower + rng.random(space.dim) * (space.upper - space.lower)
             for _ in range(2)]
    return [space.repair(t) for t in [(space.lower + space.upper) / 2.0, *draws]]


def fitness_fingerprints(variant: str) -> list[dict]:
    cfg = objective_config(variant)
    return [{"theta": [float.hex(float(x)) for x in theta],
             "fitness": float.hex(fitness(theta, cfg))}
            for theta in fitness_thetas(cfg.space)]


def moment_series() -> dict[str, np.ndarray]:
    """Three fixed series: clustered, i.i.d. and one simulated adaptive path."""
    path = simulate(DEFAULT_PARAMETERS, "adaptive", MOMENT_DAYS, p0=0.0, seed=PATH_SEEDS[0])
    return {
        "garch_returns": garch_returns(MOMENT_DAYS, seed=2024),
        "iid_normal": 0.01 * np.random.default_rng(17).standard_normal(MOMENT_DAYS),
        "adaptive_path": path.log_returns,
    }


def moment_fingerprints() -> dict:
    """``float.hex`` of each series' nine moments; KS is against garch_returns."""
    series = moment_series()
    reference = series["garch_returns"]
    return {name: {k: float.hex(v) for k, v in moment_vector(x, reference).to_dict().items()}
            for name, x in series.items()}


def box_objective(space: ParameterSpace):
    """The Rosenbrock function of the box coordinates z = (theta - lower) / width.

    Closed form, so the optimizer runs pinned with it change only when an
    optimizer does, not when the simulator or the statistics do. Elementwise
    arithmetic and a sum only: no BLAS call whose rounding could vary.
    """
    width = space.upper - space.lower

    def objective(theta) -> float:
        z = (np.asarray(theta, dtype=float) - space.lower) / width
        return float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2))

    return objective


def optimizer_fingerprints() -> dict:
    """``float.hex`` of the theta and the best-so-far trace of each optimizer run."""
    space = ParameterSpace("adaptive")
    objective = box_objective(space)
    runs = {name: run_optimizer(objective=objective, space=space, seed=OPTIMIZER_SEED, **kw)
            for name, kw in OPTIMIZER_RUNS.items()}
    return {name: {"theta": [float.hex(float(x)) for x in r.theta],
                   "trace": [float.hex(float(f)) for f in r.trace],
                   "evaluations": r.evaluations}
            for name, r in runs.items()}


def generate() -> dict:
    return {
        "paths": {path_key(v, s, seed): path_fingerprint(v, s, seed)
                  for v in VARIANTS for s in PARAMETER_SETS for seed in PATH_SEEDS},
        "fitness": {v: fitness_fingerprints(v) for v in VARIANTS},
        "moments": moment_fingerprints(),
        "moments_version": MOMENTS_VERSION,
        "blowups": blowup_fingerprints(),
        "optimizers": optimizer_fingerprints(),
    }


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys, as ``section/name`` (or ``section`` for a single value), whose
    fingerprints differ or exist on one side only."""
    keys = []
    for section in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(section), actual.get(section)
        if isinstance(old, dict) and isinstance(new, dict):
            keys += [f"{section}/{name}" for name in sorted(old.keys() | new.keys())
                     if old.get(name) != new.get(name)]
        elif old != new:
            keys.append(section)
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare this checkout's golden fingerprints with the golden file.")
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {GOLDEN_FILE.name} instead of comparing")
    args = parser.parse_args(argv)
    current = generate()
    if args.write:
        old = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
        if (old.get("moments_version") == MOMENTS_VERSION
                and old.get("moments") != current["moments"]):
            print(f"refusing to write: the moments changed but MOMENTS_VERSION is still "
                  f"{MOMENTS_VERSION}; bump it in farmerjoshi/stats.py", file=sys.stderr)
            return 1
        GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_FILE.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_FILE}", file=sys.stderr)
        return 0
    bad = mismatches(json.loads(GOLDEN_FILE.read_text()), current)
    for key in bad:
        print(f"mismatch: {key}")
    print(f"{len(bad)} mismatching keys" if bad else "all fingerprints match",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
