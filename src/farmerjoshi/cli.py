"""Command-line workbench tying ingestion, simulation, weighting,
calibration, and report generation together.

Commands:

* ``simulate``  - run one simulation, write the path CSV and a moment summary
* ``calibrate`` - fit parameters to an empirical daily-close CSV
* ``report``    - plot-ready CSVs from repeated simulations at a fitted theta
* ``surface``   - objective values over a 2-parameter grid

Every command is deterministic given its configuration and seeds; every
output file carries a metadata block echoing the config hash and seeds.
A JSON config file (``--config``) is read as the command's own flags;
explicit flags win.
Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from farmerjoshi import report as report_mod
from farmerjoshi.calibration import (
    ADAPTIVE_ONLY,
    DEFAULT_BOUNDS,
    OPTIMIZERS,
    PARAMETER_NAMES,
    PENALTY_FITNESS,
    CalibrationError,
    ObjectiveConfig,
    ParameterSpace,
    make_objective,
    model_parameters,
    run_optimizer,
    run_replications,
    summarize_replications,
    surface_scan,
)
from farmerjoshi.data_io import (
    PriceDataError,
    ReturnSeries,
    load_price_series,
    log_returns,
    write_atomic,
)
from farmerjoshi.market import (
    DEFAULT_PARAMETERS,
    VARIANTS,
    BlowUpError,
    ModelParameters,
    ParameterError,
    simulate,
    simulate_batch,
)
from farmerjoshi.optimize import GAParams, NMTAParams
from farmerjoshi.stats import StatisticError, moment_vector
from farmerjoshi.weighting import (
    DEFAULT_BLOCK_LEN,
    DEFAULT_REPLICATES,
    WeightMatrix,
    WeightingError,
    cache_path,
    cached_weight_matrix,
)

logger = logging.getLogger("farmerjoshi")

OUTPUT_DIR_ENV = "FARMERJOSHI_OUT"


class UsageError(Exception):
    """Input/validation problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def write_csv(path: Path, rows, meta: dict) -> None:
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}: {meta[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    write_atomic(path, buf.getvalue())


def write_json(path: Path, doc: dict, meta: dict) -> None:
    write_atomic(path, json.dumps({"meta": meta, **doc}, sort_keys=True, indent=1))


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _meta(resolved: dict) -> dict:
    return {"config_hash": config_hash(resolved), "seed": resolved.get("seed")}


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def _read_json(path_str: str, what: str) -> dict:
    """The JSON object in an input file; a missing file, bad JSON or any
    other JSON value is a UsageError."""
    path = Path(path_str)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return doc


def _resolve(argv: list[str]) -> tuple[Callable[[dict], int], dict]:
    """The handler of the command in ``argv`` and its settings: the flags'
    defaults, overlaid by a ``--config`` file's values, overlaid by the flags given.

    Each key of the file is a flag's name with underscores, parsed as that
    flag: ``{"block_len": 50}`` reads as ``--block-len=50``. ``null`` and
    ``false`` omit the flag, ``true`` gives a switch, and a list gives the flag
    once per item; a ``--set`` on the command line replaces the file's list.
    """
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    if args["config"]:
        file_cfg = _read_json(args["config"], "config file")
        unknown = set(file_cfg) - (set(args) - {"command", "handler"})
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        tokens = []
        for key, value in file_cfg.items():
            if isinstance(args[key], list):
                continue
            flag = "--" + key.replace("_", "-")
            for item in value if isinstance(value, list) else [value]:
                if item is True:
                    tokens.append(flag)
                elif item is not False and item is not None:
                    tokens.append(f"{flag}={item}")
        args = vars(parser.parse_args([args["command"], *tokens, *argv[1:]]))
    handler = args.pop("handler")
    del args["command"], args["config"]
    return handler, args


def _out_dir(resolved: dict) -> Path:
    out = resolved.get("out") or os.environ.get(OUTPUT_DIR_ENV) or "farmerjoshi-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    resolved["out"] = str(path)
    return path


def _load_empirical(path_str: str) -> tuple[np.ndarray, ReturnSeries]:
    if not path_str:
        raise UsageError("an empirical price CSV is required (--empirical)")
    prices = load_price_series(path_str)
    return np.log(prices.closes), log_returns(prices)


def _parse_params(resolved: dict) -> ModelParameters:
    values = _read_json(resolved["params"], "parameter file") if resolved.get("params") else {}
    for item in resolved.get("set") or []:
        name, eq, raw = item.partition("=")
        if not eq:
            raise UsageError(f"--set expects name=value, got {item!r}")
        try:
            values[name.strip()] = float(raw)
        except ValueError:
            raise UsageError(f"--set {item}: {raw!r} is not a number") from None
    return _model_parameters(values, "invalid parameters")


def _model_parameters(values: dict, context: str) -> ModelParameters:
    """calibration.model_parameters of the defaults updated by ``values``; an
    unknown name or a ParameterError is a UsageError."""
    defaults = dataclasses.asdict(DEFAULT_PARAMETERS)
    unknown = set(values) - set(defaults)
    if unknown:
        raise UsageError(f"{context}: unknown parameters {sorted(unknown)}; "
                         f"valid: {sorted(defaults)}")
    try:
        return model_parameters({**defaults, **values})
    except ParameterError as exc:
        raise UsageError(f"{context}: {exc}") from None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(resolved: dict) -> int:
    if resolved["days"] < 1:
        raise UsageError("--days must be >= 1")
    out = _out_dir(resolved)
    params = _parse_params(resolved)
    meta = _meta(resolved)

    output = simulate(params, resolved["variant"], resolved["days"],
                      p0=resolved["p0"], seed=resolved["seed"])
    write_csv(out / "simulation.csv", output.to_csv_rows(), meta)

    sim_returns = ReturnSeries(output.log_returns)
    if resolved.get("empirical"):
        _, emp_returns = _load_empirical(resolved["empirical"])
    else:
        emp_returns = sim_returns
    try:
        moments = moment_vector(sim_returns, emp_returns).to_dict()
        moment_error = None
    except StatisticError as exc:
        moments, moment_error = None, str(exc)
    write_json(out / "summary.json", {
        "variant": resolved["variant"],
        "days": resolved["days"],
        "parameters": dataclasses.asdict(params),
        "moments": moments,
        "moment_error": moment_error,
    }, meta)
    logger.info("wrote %s and %s", out / "simulation.csv", out / "summary.json")
    return 0


# ---------------------------------------------------------------------------
# calibrate / surface shared setup
# ---------------------------------------------------------------------------

def _weight_matrix(resolved: dict, emp_returns: ReturnSeries, out: Path) -> WeightMatrix:
    if resolved.get("weights"):
        doc = _read_json(resolved["weights"], "weight matrix file")
        try:
            return WeightMatrix.from_doc(doc)
        except WeightingError as exc:
            raise UsageError(f"weight matrix file {resolved['weights']}: {exc}") from None
    cache_dir = resolved.get("cache_dir") or (out / "weights-cache")
    settings = (resolved["block_len"], resolved["bootstrap_replicates"],
                resolved["bootstrap_seed"])
    cached = cache_path(cache_dir, emp_returns, *settings)
    if not resolved.get("bootstrap"):
        if not cached.exists():
            raise UsageError(
                f"no cached weight matrix at {cached}; pass --bootstrap to build one "
                "or --weights FILE to load one")
        try:
            return WeightMatrix.load(cached)
        except WeightingError as exc:
            raise UsageError(f"{exc}; pass --bootstrap to rebuild it") from None
    if not cached.exists():
        logger.info("bootstrapping weight matrix into %s", cached)
    return cached_weight_matrix(emp_returns, cache_dir, *settings)


def _objective_setup(resolved: dict, out: Path, include_inert: bool = False) -> ObjectiveConfig:
    emp_log_prices, emp_returns = _load_empirical(resolved.get("empirical"))
    bounds = dict(DEFAULT_BOUNDS)
    if resolved.get("bounds"):
        bounds.update(_read_json(resolved["bounds"], "bounds file"))
    space = ParameterSpace(resolved["variant"], bounds=bounds, include_inert=include_inert)
    weight = _weight_matrix(resolved, emp_returns, out)
    try:
        emp_moments = moment_vector(emp_returns, emp_returns).as_array()
    except StatisticError as exc:
        raise UsageError(f"empirical series too degenerate to calibrate: {exc}") from None
    return ObjectiveConfig(
        space=space,
        empirical_returns=emp_returns,
        empirical_moments=emp_moments,
        weight=weight,
        replications=resolved["objective_sims"],
        sim_days=resolved["sim_days"] or len(emp_returns),
        p0=float(emp_log_prices[0]),
        master_seed=resolved["objective_seed"],
        penalty=resolved["penalty"],
    )


#: The NMTAParams fields that calibrate flags set; the others keep their defaults.
_NMTA_FLAGS = ("restarts", "max_iters", "shift_every", "shift_scale",
               "threshold_samples", "thresholds")


def _optimizer_params(resolved: dict) -> tuple[GAParams, NMTAParams]:
    ga = GAParams(**{f.name: resolved[f.name] for f in dataclasses.fields(GAParams)})
    nmta = {name: resolved[name] for name in _NMTA_FLAGS}
    if nmta["thresholds"] is not None:
        try:
            nmta["thresholds"] = tuple(float(x) for x in str(nmta["thresholds"]).split(","))
        except ValueError:
            raise UsageError("--thresholds expects comma-separated numbers, "
                             f"got {nmta['thresholds']!r}") from None
    return ga, NMTAParams(**nmta, penalty_cutoff=resolved["penalty"])


def _result_doc(result, space) -> dict:
    doc = {
        "optimizer": result.details.get("optimizer"),
        "variant": space.variant,
        "theta": {n: float(v) for n, v in zip(space.names, result.theta)},
        "fitness": result.fitness,
        "evaluations": result.evaluations,
        "optimizer_seed": result.seed,
    }
    if "thresholds" in result.details:
        doc["thresholds"] = result.details["thresholds"]
        doc["shift_events"] = result.details["events"]
    return doc


def _cmd_calibrate(resolved: dict) -> int:
    out = _out_dir(resolved)
    meta = _meta(resolved)
    ga_params, nmta_params = _optimizer_params(resolved)
    cfg = _objective_setup(resolved, out)
    space = cfg.space
    objective = make_objective(cfg)
    optimizer = resolved["optimizer"]

    def run_one(seed: int):
        return run_optimizer(optimizer, objective, space, seed,
                             ga_params=ga_params, nmta_params=nmta_params)

    objective_doc = {"objective": {
        "replications": cfg.replications,
        "sim_days": cfg.sim_days,
        "master_seed": cfg.master_seed,
        "penalty": cfg.penalty,
        "p0": cfg.p0,
        "weight_metadata": cfg.weight.metadata,
        "empirical_moments": cfg.empirical_moments.tolist(),
    }}
    replications = resolved["replications"]
    if replications and replications >= 2:
        logger.info("running %d replicate calibrations (%s)", replications, optimizer)
        results, run_seeds, failures = run_replications(run_one, replications,
                                                        seed=resolved["seed"])
        for failure in failures:
            logger.warning("replication with seed %d failed: %s: %s",
                           failure.seed, failure.error, failure.message)
        extra = {"runs_succeeded": len(results),
                 "replication_failures": [dataclasses.asdict(f) for f in failures]}
        try:
            summary = summarize_replications(results, space, replications, run_seeds, failures)
        except CalibrationError as exc:
            # Too few runs succeeded: keep their failures, then fail the command.
            write_json(out / "calibration.json", {"optimizer": optimizer,
                                                  "variant": space.variant,
                                                  **extra, **objective_doc}, meta)
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 1
        write_csv(out / "replication_summary.csv", summary.rows(), meta)
        result = min(results, key=lambda r: r.fitness)
        logger.info("best of %d replications: fitness %.6g",
                    summary.runs_succeeded, result.fitness)
    else:
        logger.info("running %s calibration (seed %d)", optimizer, resolved["seed"])
        result = run_one(resolved["seed"])
        extra = {}

    doc = {**_result_doc(result, space), **extra, **objective_doc}
    write_json(out / "calibration.json", doc, meta)
    write_csv(out / "fitness_trace.csv",
              [("step", "best_fitness")] +
              [(i, repr(float(f))) for i, f in enumerate(result.trace)], meta)
    logger.info("final fitness %.6g after %d evaluations",
                result.fitness, result.evaluations)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _load_calibration(path_str: str) -> tuple[str, ModelParameters]:
    """The variant of a calibration result, and its theta over the default parameters."""
    if not path_str:
        raise UsageError("--calibration FILE is required")
    doc = _read_json(path_str, "calibration result")
    if not isinstance(doc.get("theta"), dict) or "variant" not in doc:
        raise UsageError(f"{path_str} does not look like a calibration result")
    return doc["variant"], _model_parameters(doc["theta"], "calibration theta invalid")


def _cmd_report(resolved: dict) -> int:
    out = _out_dir(resolved)
    meta = _meta(resolved)
    variant, params = _load_calibration(resolved.get("calibration"))
    emp_log_prices, emp_returns = _load_empirical(resolved.get("empirical"))

    sims = resolved["simulations"]
    days = resolved["days"] or len(emp_returns)
    if sims < 1 or days < 1:
        raise UsageError("--simulations and --days must be >= 1")
    seeds = np.random.SeedSequence(resolved["seed"]).generate_state(sims)
    outputs = simulate_batch(params, variant, days, p0=float(emp_log_prices[0]),
                             seeds=seeds)
    for outcome in outputs:
        if isinstance(outcome, BlowUpError):
            raise outcome

    max_lag = resolved["max_lag"]
    write_csv(out / "price_paths.csv",
              report_mod.price_band_rows(outputs, emp_log_prices), meta)
    write_csv(out / "return_paths.csv",
              report_mod.return_path_rows(outputs, emp_returns), meta)
    write_csv(out / "acf.csv",
              report_mod.acf_rows(outputs, emp_returns, max_lag), meta)
    write_csv(out / "qq.csv",
              report_mod.qq_rows(outputs, emp_returns, resolved["qq_points"]), meta)
    write_csv(out / "strategy_series.csv",
              report_mod.strategy_series_rows(outputs[0]), meta)
    sim_moments = [moment_vector(ReturnSeries(o.log_returns), emp_returns)
                   for o in outputs]
    emp_moments = moment_vector(emp_returns, emp_returns)
    write_csv(out / "moments_table.csv",
              report_mod.moments_table_rows(sim_moments, emp_moments), meta)
    logger.info("wrote report tables to %s", out)
    return 0


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def _cmd_surface(resolved: dict) -> int:
    out = _out_dir(resolved)
    meta = _meta(resolved)
    name_x, name_y = resolved["x"], resolved["y"]
    if not name_x or not name_y:
        raise UsageError("--x and --y parameter names are required")
    # switching parameters may be swept for the standard variant too;
    # they leave its output unchanged (the surface comes out flat)
    include_inert = (resolved["variant"] == "standard"
                     and bool({name_x, name_y} & set(ADAPTIVE_ONLY)))
    cfg = _objective_setup(resolved, out, include_inert=include_inert)
    space = cfg.space
    grid = str(resolved["grid"]).lower().split("x")
    try:
        grid_x, grid_y = (int(grid[0]), int(grid[1])) if len(grid) == 2 \
            else (int(grid[0]), int(grid[0]))
    except ValueError:
        raise UsageError(f"bad --grid spec {resolved['grid']!r}; use e.g. 10x10") from None

    if resolved.get("calibration"):
        _, params = _load_calibration(resolved["calibration"])
        base = space.from_model_parameters(params)
    else:
        base = (space.lower + space.upper) / 2.0
    base = space.repair(base)

    rows = surface_scan(make_objective(cfg), space, name_x, name_y, grid_x, grid_y, base)
    header = [(name_x, name_y, "fitness")]
    body = [(repr(x), repr(y), repr(f)) for x, y, f in rows]
    write_csv(out / "surface.csv", header + body, meta)
    logger.info("wrote %d surface points to %s", len(body), out / "surface.csv")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} "
                     "or ./farmerjoshi-out)")
    sub.add_argument("--seed", type=int, default=0)


def _add_objective_flags(sub):
    sub.add_argument("--empirical", help="daily close CSV (date,close)")
    sub.add_argument("--variant", choices=VARIANTS, default="adaptive")
    sub.add_argument("--bounds", help="JSON file overriding default parameter bounds")
    sub.add_argument("--weights", help="load weight matrix JSON instead of bootstrapping")
    sub.add_argument("--bootstrap", action="store_true",
                     help="build the weight matrix when not cached")
    sub.add_argument("--block-len", type=int, default=DEFAULT_BLOCK_LEN)
    sub.add_argument("--bootstrap-replicates", type=int, default=DEFAULT_REPLICATES)
    sub.add_argument("--bootstrap-seed", type=int, default=0)
    sub.add_argument("--cache-dir",
                     help="weight-matrix cache directory (default OUT/weights-cache)")
    sub.add_argument("--objective-sims", type=int,
                     default=ObjectiveConfig.replications,  # the dataclass field's default
                     help="simulations averaged per fitness evaluation")
    sub.add_argument("--objective-seed", type=int, default=0,
                     help="master seed of the common-random-number set")
    sub.add_argument("--sim-days", type=int,
                     help="simulated days per run (default: empirical length)")
    sub.add_argument("--penalty", type=float, default=PENALTY_FITNESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farmerjoshi",
        description="Simulation and calibration workbench for threshold-trader "
                    "market models (standard and adaptive variants).")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run one simulation")
    _add_common(sim)
    sim.add_argument("--variant", choices=VARIANTS, default="adaptive")
    sim.add_argument("--days", type=int, default=1000)
    sim.add_argument("--p0", type=float, default=0.0, help="initial log price")
    sim.add_argument("--params", help="JSON file with model parameter fields")
    sim.add_argument("--set", action="append", metavar="NAME=VALUE",
                     help="override one parameter (repeatable)")
    sim.add_argument("--empirical", help="optional daily close CSV for the "
                     "moment comparison")
    sim.set_defaults(handler=_cmd_simulate)

    cal = commands.add_parser("calibrate", help="fit parameters to data")
    _add_common(cal)
    _add_objective_flags(cal)
    cal.add_argument("--optimizer", choices=OPTIMIZERS, default="ga")
    cal.add_argument("--replications", type=int,
                     help="independent calibration runs for the 95%% intervals")
    cal.add_argument("--population", type=int, default=GAParams.population)
    cal.add_argument("--generations", type=int, default=GAParams.generations)
    cal.add_argument("--crossover-rate", type=float, default=GAParams.crossover_rate)
    cal.add_argument("--mutation-scale", type=float, default=GAParams.mutation_scale)
    cal.add_argument("--elites", type=int, default=GAParams.elites)
    cal.add_argument("--max-iters", type=int, default=NMTAParams.max_iters)
    cal.add_argument("--restarts", type=int, default=NMTAParams.restarts)
    cal.add_argument("--shift-every", type=int, default=NMTAParams.shift_every)
    cal.add_argument("--shift-scale", type=float, default=NMTAParams.shift_scale)
    cal.add_argument("--threshold-samples", type=int, default=NMTAParams.threshold_samples)
    cal.add_argument("--thresholds",
                     help="explicit threshold sequence, e.g. '0' or '0.5,0.2,0'")
    cal.set_defaults(handler=_cmd_calibrate)

    rep = commands.add_parser("report", help="plot-ready tables at a fitted theta")
    _add_common(rep)
    rep.add_argument("--calibration", help="calibration.json from `calibrate`")
    rep.add_argument("--empirical", help="daily close CSV (date,close)")
    rep.add_argument("--simulations", type=int, default=20)
    rep.add_argument("--days", type=int, help="default: empirical length")
    rep.add_argument("--max-lag", type=int, default=50)
    rep.add_argument("--qq-points", type=int, default=report_mod.QQ_POINTS)
    rep.set_defaults(handler=_cmd_report)

    surf = commands.add_parser("surface", help="2-parameter objective surface")
    _add_common(surf)
    _add_objective_flags(surf)
    surf.add_argument("--x", choices=PARAMETER_NAMES, metavar="X",
                      help="first parameter name")
    surf.add_argument("--y", choices=PARAMETER_NAMES, metavar="Y",
                      help="second parameter name")
    surf.add_argument("--grid", default="10x10", help="grid spec, e.g. 10x10")
    surf.add_argument("--calibration", help="calibration.json supplying the "
                      "fixed base theta (default: bound midpoints)")
    surf.set_defaults(handler=_cmd_surface)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    try:
        handler, resolved = _resolve(sys.argv[1:] if argv is None else list(argv))
        return handler(resolved)
    except SystemExit as exc:  # argparse: --help, or a bad flag or config value
        return int(exc.code or 0)
    except (UsageError, PriceDataError, ParameterError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, StatisticError, WeightingError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
