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
import re
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from farmerjoshi import report as report_mod
from farmerjoshi.calibration import (
    DEFAULT_BOUNDS,
    OPTIMIZERS,
    PARAMETER_NAMES,
    PENALTY_FITNESS,
    CalibrationError,
    ObjectiveConfig,
    ParameterSpace,
    check_objective_settings,
    make_objective,
    model_parameters,
    replicate_calibrations,
    run_optimizer,
    simulated_moments,
    surface_axes,
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
)
from farmerjoshi.optimize import GAParams, NMTAParams
from farmerjoshi.stats import MIN_OBSERVATIONS, StatisticError, moment_vector
from farmerjoshi.weighting import (
    DEFAULT_BLOCK_LEN,
    DEFAULT_REPLICATES,
    WeightMatrix,
    WeightingError,
    cached_weight_matrix,
    check_bootstrap,
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
    flag: ``{"block_len": 50}`` reads as ``--block-len=50``. ``null`` omits the
    flag, a list gives the flag once per item, and any other value is passed as
    ``--flag=value``; a ``--set`` on the command line replaces the file's list.
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
                if item is not None:
                    tokens.append(f"{flag}={item}")
        args = vars(parser.parse_args([args["command"], *tokens, *argv[1:]]))
    handler = args.pop("handler")
    del args["command"], args["config"]
    return handler, args


def _out_dir(resolved: dict) -> Path:
    """--out, else $FARMERJOSHI_OUT, else ./farmerjoshi-out; its first write creates it."""
    path = Path(resolved.get("out") or os.environ.get(OUTPUT_DIR_ENV) or "farmerjoshi-out")
    resolved["out"] = str(path)
    return path


def _load_empirical(path_str: str) -> tuple[np.ndarray, ReturnSeries]:
    if not path_str:
        raise UsageError("an empirical price CSV is required (--empirical)")
    prices = load_price_series(path_str)
    return np.log(prices.closes), log_returns(prices)


def _empirical_moments(emp_returns: ReturnSeries) -> np.ndarray:
    """The empirical moment vector; a series too degenerate for it is a UsageError."""
    try:
        return moment_vector(emp_returns, emp_returns).as_array()
    except StatisticError as exc:
        raise UsageError(f"empirical series too degenerate to calibrate: {exc}") from None


def _require_moment_days(days: int, flag: str) -> None:
    """Reject, before any simulation, a simulated length too short for the moments."""
    if days < MIN_OBSERVATIONS:
        raise UsageError(f"{days} simulated days ({flag}) are too few: the statistics "
                         f"need at least {MIN_OBSERVATIONS}")


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
    unknown = set(values) - set(PARAMETER_NAMES)
    if unknown:
        raise UsageError(f"{context}: unknown parameters {sorted(unknown)}; "
                         f"valid: {sorted(PARAMETER_NAMES)}")
    try:
        return model_parameters({**dataclasses.asdict(DEFAULT_PARAMETERS), **values})
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
    emp_returns = None  # read before the simulation, so a bad file leaves no output
    if resolved.get("empirical"):
        _, emp_returns = _load_empirical(resolved["empirical"])

    output = simulate(params, resolved["variant"], resolved["days"],
                      p0=resolved["p0"], seed=resolved["seed"])
    write_csv(out / "simulation.csv", output.to_csv_rows(), meta)

    sim_returns = ReturnSeries(output.log_returns)
    try:
        moments = moment_vector(sim_returns,
                                sim_returns if emp_returns is None else emp_returns).to_dict()
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
    """The --weights file, or else the bootstrap matrix from the cache, built and
    cached on a miss. Bad settings or a bad --weights file are UsageErrors."""
    if resolved.get("weights"):
        try:
            return WeightMatrix.load(resolved["weights"])
        except WeightingError as exc:
            raise UsageError(str(exc)) from None
    settings = (resolved["block_len"], resolved["bootstrap_replicates"],
                resolved["bootstrap_seed"])
    try:
        check_bootstrap(len(emp_returns), *settings[:2])
    except WeightingError as exc:
        raise UsageError(f"bootstrap settings: {exc}") from None
    cache_dir = resolved.get("cache_dir") or out / "weights-cache"
    return cached_weight_matrix(emp_returns, cache_dir, *settings)


def _objective_setup(resolved: dict, out: Path) -> ObjectiveConfig:
    emp_log_prices, emp_returns = _load_empirical(resolved.get("empirical"))
    sim_days = len(emp_returns) if resolved["sim_days"] is None else resolved["sim_days"]
    _require_moment_days(sim_days, "--sim-days")
    bounds = dict(DEFAULT_BOUNDS)
    if resolved.get("bounds"):
        bounds.update(_read_json(resolved["bounds"], "bounds file"))
    space = ParameterSpace(resolved["variant"], bounds=bounds)
    check_objective_settings(resolved["objective_sims"], sim_days)
    emp_moments = _empirical_moments(emp_returns)
    weight = _weight_matrix(resolved, emp_returns, out)
    return ObjectiveConfig(
        space=space,
        empirical_returns=emp_returns,
        empirical_moments=emp_moments,
        weight=weight,
        replications=resolved["objective_sims"],
        sim_days=sim_days,
        p0=float(emp_log_prices[0]),
        master_seed=resolved["objective_seed"],
    )


def _optimizer_params(resolved: dict) -> tuple[GAParams, NMTAParams]:
    try:
        ga = GAParams(**{f.name: resolved[f.name] for f in dataclasses.fields(GAParams)})
    except ValueError as exc:
        raise UsageError(f"GA settings: {exc}") from None
    nmta = {f.name: resolved[f.name] for f in dataclasses.fields(NMTAParams)}
    if nmta["thresholds"] is not None:
        try:
            nmta["thresholds"] = tuple(float(x) for x in str(nmta["thresholds"]).split(","))
        except ValueError:
            raise UsageError("--thresholds expects comma-separated numbers, "
                             f"got {nmta['thresholds']!r}") from None
    try:
        return ga, NMTAParams(**nmta)
    except ValueError as exc:
        raise UsageError(f"NMTA settings: {exc}") from None


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
    replications = resolved["replications"]
    if replications is not None and replications < 2:
        raise UsageError("--replications must be at least 2")
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
        "penalty": PENALTY_FITNESS,
        "p0": cfg.p0,
        "weight_metadata": cfg.weight.metadata,
        "empirical_moments": cfg.empirical_moments.tolist(),
    }}
    if replications:
        logger.info("running %d replicate calibrations (%s)", replications, optimizer)
        summary = replicate_calibrations(run_one, space, replications, seed=resolved["seed"])
        write_csv(out / "replication_summary.csv", summary.rows(), meta)
        result = summary.best
        logger.info("best of %d replications: fitness %.6g", replications, result.fitness)
    else:
        logger.info("running %s calibration (seed %d)", optimizer, resolved["seed"])
        result = run_one(resolved["seed"])

    doc = {**_result_doc(result, space), **objective_doc}
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
    days = len(emp_returns) if resolved["days"] is None else resolved["days"]
    if sims < 1:
        raise UsageError("--simulations must be >= 1")
    _require_moment_days(days, "--days")
    max_lag = resolved["max_lag"]
    n_returns = min(days, len(emp_returns))  # the ACF table reads both series
    if not 1 <= max_lag < n_returns:
        raise UsageError(f"--max-lag must be at least 1 and below {n_returns}, "
                         "the length of the shorter return series")
    if resolved["qq_points"] < 1:
        raise UsageError("--qq-points must be >= 1")
    emp_moments = _empirical_moments(emp_returns)
    seeds = np.random.SeedSequence(resolved["seed"]).generate_state(sims)
    outputs, sim_moments, failures = simulated_moments(
        params, variant, days, float(emp_log_prices[0]), seeds, emp_returns)
    # Every path is classified first, so a failed run writes no table.
    if failures:
        raise failures[0][1]

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
    grid = re.fullmatch(r"(\d+)(?:x(\d+))?", str(resolved["grid"]).lower())
    if grid is None:
        raise UsageError(f"bad --grid spec {resolved['grid']!r}; use N or NxM, e.g. 10x10")
    grid_x, grid_y = int(grid[1]), int(grid[2] or grid[1])
    # checked before any weight matrix is read or built; the names depend on the variant alone
    surface_axes(ParameterSpace(resolved["variant"]), name_x, name_y, grid_x, grid_y)
    params = None
    if resolved.get("calibration"):
        variant, params = _load_calibration(resolved["calibration"])
        if variant != resolved["variant"]:
            raise UsageError(f"{resolved['calibration']} holds a {variant} calibration, "
                             f"not the --variant {resolved['variant']}")
    cfg = _objective_setup(resolved, out)
    space = cfg.space
    base = space.repair((space.lower + space.upper) / 2.0 if params is None
                        else space.from_model_parameters(params))

    rows = surface_scan(make_objective(cfg), space, name_x, name_y, grid_x, grid_y, base)
    header = [(name_x, name_y, "fitness")]
    body = [(repr(x), repr(y), repr(f)) for x, y, f in rows]
    write_csv(out / "surface.csv", header + body, meta)
    logger.info("wrote %d surface points to %s", len(body), out / "surface.csv")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def non_negative_int(text: str) -> int:
    """The type of the seed flags: numpy's SeedSequence takes no negative seed."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} "
                     "or ./farmerjoshi-out)")
    sub.add_argument("--seed", type=non_negative_int, default=0)


def _add_objective_flags(sub):
    sub.add_argument("--empirical", help="daily close CSV (date,close)")
    sub.add_argument("--variant", choices=VARIANTS, default="adaptive")
    sub.add_argument("--bounds", help="JSON file overriding default parameter bounds")
    sub.add_argument("--weights", help="load weight matrix JSON instead of bootstrapping")
    sub.add_argument("--block-len", type=int, default=DEFAULT_BLOCK_LEN)
    sub.add_argument("--bootstrap-replicates", type=int, default=DEFAULT_REPLICATES)
    sub.add_argument("--bootstrap-seed", type=non_negative_int, default=0)
    sub.add_argument("--cache-dir",
                     help="weight-matrix cache directory (default OUT/weights-cache)")
    sub.add_argument("--objective-sims", type=int,
                     default=ObjectiveConfig.replications,  # the dataclass field's default
                     help="simulations averaged per fitness evaluation")
    sub.add_argument("--objective-seed", type=non_negative_int, default=0,
                     help="master seed of the common-random-number set")
    sub.add_argument("--sim-days", type=int,
                     help="simulated days per run (default: empirical length)")


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
    surf.add_argument("--grid", default="10x10", help="grid spec N or NxM, e.g. 10x10")
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
