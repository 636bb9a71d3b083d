"""Calibration benchmark for the farmerjoshi workbench.

Usage, from the repository root:

    python3 bench/run.py --workload calibrate-ga --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller; see bench/README.md):

* ``calibrate-ga``      - ``farmerjoshi.cli.main(["calibrate", ...])`` with the
  GA on a T = 2,500-day CSV, I = 2 common-random-number simulations per
  evaluation; one op is one fitness evaluation.
* ``bootstrap-weights`` - ``weighting.cached_weight_matrix`` for a series
  into an empty cache, then again hitting it; one op is one bootstrap
  replicate.
* ``simulate-paths``    - ``market.simulate`` at one theta over three
  (variant, N) cells, then the report path tables; one op is one path.

The timed phase repeats a unit of work of fixed size (one ``calibrate``
command, one weight build with its cache hit, one pass over the three
cells) while the next unit is expected to end within ``--seconds``. Unit k
draws fresh inputs from ``(--seed, k)``: a new GA seed, a new series, new
path seeds. The cost of an op depends on its input, so a run averages over
many inputs instead of repeating a few. Sizes and the remaining program
settings are constants below.

The speed of a small shared host drifts by up to 1.6x over tens of seconds,
so the gated time metrics are in ``ref``: multiples of a fixed pure-Python
reference loop timed between units and before every op. The same metrics in seconds are printed
and recorded too. BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is
set. See bench/README.md for both choices and the measurements behind them.
The last line of standard output is one JSON object; a fuller record of the
run, with the environment, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_ENV_FOUND = {name: os.environ.get(name)
                  for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
if not (ROOT / "src" / "farmerjoshi" / "__init__.py").is_file():
    sys.exit(f"error: no src/farmerjoshi under {ROOT}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from farmerjoshi import calibration, cli, data_io, market, report, stats, weighting  # noqa: E402

import tracing  # noqa: E402

T = 2500  # days of every input series and simulated path
SETUP_REPEATS = 5
MIN_TRACED_UNITS = 2  # per-layer metrics average over at least this many units
REFERENCE_LOOPS = 50_000  # one reference sample, about 3 ms
REFERENCE_REPEATS = 10  # samples between two units


def garch_returns(n: int, seed, alpha: float = 0.12, beta: float = 0.85,
                  omega: float = 2e-6, df: float = 5.0) -> np.ndarray:
    """Volatility-clustered returns: GARCH(1,1) with unit-variance t shocks.

    The recipe of ``tests/conftest.garch_returns``, kept here so that a
    change to the test helpers cannot change the benchmark's inputs.
    ``seed`` is an int or a tuple of ints, as ``numpy.random.default_rng``
    takes them.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_t(df=df, size=n) / np.sqrt(df / (df - 2.0))
    r = np.empty(n)
    s2 = omega / (1.0 - alpha - beta)
    for t in range(n):
        r[t] = np.sqrt(s2) * z[t]
        s2 = omega + alpha * r[t] ** 2 + beta * s2
    return r


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Workloads. Each has setup(seed, work) -> state, inputs(state, key) ->
# inputs (untimed), unit(state, inputs, index) -> outcome (timed), and
# check(state, inputs, outcome, ops) -> (failed ops, fingerprint, notes).
# Units run on the same key must give the same fingerprint.
# ---------------------------------------------------------------------------

class CalibrateGA:
    """The headline journey: one ``calibrate`` command per unit."""

    op_site = ("farmerjoshi.calibration", "fitness")
    op_span = "calibration.fitness"
    population, generations = 6, 1
    objective_sims, objective_seed, ga_seed = 2, 17, 11
    block_len, replicates, bootstrap_seed = 100, 10, 0

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True)
        r = garch_returns(T - 1, seed)
        closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
        csv = work / "empirical.csv"
        data_io.PriceSeries(np.datetime64("2015-01-01") + np.arange(T), closes).to_csv(csv)
        emp = data_io.log_returns(data_io.load_price_series(csv))
        weighting.cached_weight_matrix(emp, work / "cache", self.block_len,
                                       self.replicates, self.bootstrap_seed)
        return {"work": work, "csv": csv, "cache": work / "cache", "verified": set()}

    def inputs(self, state: dict, key: int) -> int:
        """The GA seed: each unit starts from another population."""
        return self.ga_seed + key

    def unit(self, state: dict, ga_seed: int, index: int) -> dict:
        out = state["work"] / f"unit{index}"
        argv = ["calibrate", "--variant", "adaptive", "--optimizer", "ga",
                "--empirical", str(state["csv"]), "--cache-dir", str(state["cache"]),
                "--block-len", str(self.block_len),
                "--bootstrap-replicates", str(self.replicates),
                "--bootstrap-seed", str(self.bootstrap_seed),
                "--objective-sims", str(self.objective_sims),
                "--objective-seed", str(self.objective_seed),
                "--population", str(self.population),
                "--generations", str(self.generations),
                "--seed", str(ga_seed), "--out", str(out)]
        return {"code": cli.main(argv), "out": out}

    def _objective_config(self, state: dict) -> calibration.ObjectiveConfig:
        """The objective the CLI builds, from public functions only."""
        prices = data_io.load_price_series(state["csv"])
        emp = data_io.log_returns(prices)
        weight = weighting.cached_weight_matrix(emp, state["cache"], self.block_len,
                                                self.replicates, self.bootstrap_seed)
        return calibration.ObjectiveConfig(
            space=calibration.ParameterSpace("adaptive"),
            empirical_returns=emp,
            empirical_moments=stats.moment_vector(emp, emp).as_array(),
            weight=weight,
            replications=self.objective_sims,
            sim_days=len(emp),
            p0=float(np.log(prices.closes)[0]),
            master_seed=self.objective_seed,
        )

    def check(self, state: dict, ga_seed: int, outcome: dict, ops: int):
        if outcome["code"] != 0:
            return ops, None, {"exit_code": outcome["code"]}
        doc = json.loads((outcome["out"] / "calibration.json").read_text())
        fingerprint = sha256(json.dumps({"theta": doc["theta"], "fitness": doc["fitness"]},
                                        sort_keys=True).encode())[:16]
        lines = (outcome["out"] / "fitness_trace.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
        trace = [float(value) for _, value in rows[1:]]
        notes = {"ga_seed": ga_seed, "fitness": doc["fitness"],
                 "evaluations": doc["evaluations"],
                 "theta_fitness_digest": fingerprint,
                 "trace_non_increasing": all(b <= a for a, b in zip(trace, trace[1:]))}
        if fingerprint not in state["verified"]:
            # CRN makes fitness a deterministic function of theta, so a fresh
            # evaluation must reproduce the reported best value bit for bit.
            cfg = self._objective_config(state)
            theta = np.array([doc["theta"][name] for name in cfg.space.names])
            notes["fresh_fitness_equal"] = calibration.fitness(theta, cfg) == doc["fitness"]
            notes["empirical_moments_equal"] = (
                cfg.empirical_moments.tolist() == doc["objective"]["empirical_moments"])
            if notes["fresh_fitness_equal"] and notes["empirical_moments_equal"]:
                state["verified"].add(fingerprint)
        ok = (notes["trace_non_increasing"] and fingerprint in state["verified"]
              and len(trace) == self.generations + 1)
        return (0 if ok else ops), fingerprint, notes


class BootstrapWeights:
    """Block-bootstrap weight matrix of a fresh series: a cache miss, then a hit."""

    op_site = ("farmerjoshi.weighting", "moment_vector")
    op_span = "stats.moment_vector"
    block_len, replicates, bootstrap_seed = 100, 10, 0

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True)
        return {"work": work, "seed": seed}

    def inputs(self, state: dict, key: int) -> data_io.ReturnSeries:
        return data_io.ReturnSeries(garch_returns(T, (state["seed"], key)))

    def unit(self, state: dict, series: data_io.ReturnSeries, index: int) -> tuple:
        args = (series, state["work"] / f"cache{index}", self.block_len,
                self.replicates, self.bootstrap_seed)
        return weighting.cached_weight_matrix(*args), weighting.cached_weight_matrix(*args)

    def check(self, state: dict, series: data_io.ReturnSeries, outcome: tuple, ops: int):
        miss, hit = outcome
        meta = miss.metadata
        notes = {
            "hit_equals_miss": bool(np.array_equal(miss.entries, hit.entries)
                                    and miss.metadata == hit.metadata),
            "replicates_accounted": meta["replicates_used"] + meta["failed_replicates"]
            == meta["replicates"] == self.replicates,
            "failed_replicates": meta["failed_replicates"],
            "inversion": meta["inversion"]}
        ok = notes["hit_equals_miss"] and notes["replicates_accounted"]
        return (0 if ok else ops), sha256(miss.entries.tobytes())[:16], notes


class SimulatePaths:
    """Many seeds at one theta, over three (variant, N) cells, plus report tables."""

    op_site = ("farmerjoshi.market", "simulate")
    op_span = "market.simulate"
    cells = (("standard", 50), ("adaptive", 50), ("adaptive", 1000))
    probe_seed = 20210419  # first path of every cell in every unit; its digest is pinned
    paths_per_cell = 4
    max_lag, qq_points = 50, 99
    reference_file = BENCH_DIR / "reference_paths.json"

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True)
        r = garch_returns(T, seed)
        return {
            "seed": seed,
            "emp_log_prices": np.concatenate([[0.0], np.cumsum(r)]),
            "emp_returns": data_io.ReturnSeries(r),
            "params": {cell: market.DEFAULT_PARAMETERS.with_values(n_traders=cell[1])
                       for cell in self.cells},
            "reference": json.loads(self.reference_file.read_text())["sha256"],
        }

    @staticmethod
    def cell_name(cell) -> str:
        return f"{cell[0]}.n{cell[1]}"

    def simulate_cell(self, params, variant: str, seeds) -> list:
        return [market.simulate(params, variant, T, p0=0.0, seed=s) for s in seeds]

    def inputs(self, state: dict, key: int) -> list:
        """Path seeds: the pinned probe, then fresh ones for this unit."""
        fresh = np.random.SeedSequence([state["seed"], key]).generate_state(
            self.paths_per_cell - 1)
        return [self.probe_seed] + [int(s) for s in fresh]

    def unit(self, state: dict, seeds: list, index: int) -> dict:
        emp_r = state["emp_returns"]
        result = {}
        for cell in self.cells:
            outputs = self.simulate_cell(state["params"][cell], cell[0], seeds)
            tables = (report.price_band_rows(outputs, state["emp_log_prices"]),
                      report.return_path_rows(outputs, emp_r),
                      report.acf_rows(outputs, emp_r, self.max_lag),
                      report.qq_rows(outputs, emp_r, self.qq_points),
                      report.strategy_series_rows(outputs[0]))
            result[cell] = (outputs, [len(list(rows)) for rows in tables])
        return result

    def check(self, state: dict, seeds: list, outcome: dict, ops: int):
        failed = 0
        notes = {}
        digests = []
        expected_rows = [T + 2, T + 1, self.max_lag + 1, self.qq_points + 1, T + 1]
        for cell, (outputs, rows) in outcome.items():
            name = self.cell_name(cell)
            probe = sha256(outputs[0].log_prices.tobytes())
            notes[name] = {"probe_matches": probe == state["reference"][name],
                           "rows_ok": rows == expected_rows}
            if not notes[name]["rows_ok"]:
                failed += len(outputs)
                continue
            for i, out in enumerate(outputs):
                good = np.array_equal(out.log_returns, np.diff(out.log_prices))
                if i == 0:
                    good = good and notes[name]["probe_matches"]
                failed += not good
                digests.append(sha256(out.log_prices.tobytes()))
        return failed, sha256("".join(digests).encode())[:16], notes


WORKLOADS = {"calibrate-ga": CalibrateGA, "bootstrap-weights": BootstrapWeights,
             "simulate-paths": SimulatePaths}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _openblas_runtime_threads():
    """(library, thread count) of the OpenBLAS loaded in this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return path, int(fn())
    return (libs[0] if libs else None), None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    library, threads = _openblas_runtime_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "git_commit": _git_commit(),
        "seed": seed,
        "blas": {
            "found": BLAS_ENV_FOUND,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "runtime_threads": threads,
            "library": library,
            "name": blas.get("name"),
            "version": blas.get("version"),
        },
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def import_in_fresh_interpreter() -> None:
    """The import cost a user pays on every command, as part of set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", "import farmerjoshi.cli"], env=env,
                   check=True, cwd=ROOT)


class Reference:
    """Samples of the host's current speed: the time of a fixed pure-Python loop.

    The loop calls nothing in the package and no extension module, so no
    change to the program can change it. The wall and CPU time spent in
    samples is kept, so that a unit's times can leave it out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self, repeats: int = 1) -> None:
        cpu0 = _cpu_seconds()
        for _ in range(repeats):
            t0 = time.perf_counter()
            total = 0
            for i in range(REFERENCE_LOOPS):
                total += i * i
            self.samples.append(time.perf_counter() - t0)
            self.spent_wall += self.samples[-1]
        self.spent_cpu += _cpu_seconds() - cpu0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_unit(workload, state, index: int, key: int, tracer, reference) -> dict:
    # Untraced units sample the host's speed before every op, so that the
    # samples spread over the unit; traced units do not, because the samples
    # would count in the spans around the op.
    timer = tracing.OpTimer(None if tracer else reference.sample)
    inputs = workload.inputs(state, key)
    module = sys.modules[workload.op_site[0]]
    original = getattr(module, workload.op_site[1])
    outcome, error = None, None
    spent_wall, spent_cpu = reference.spent_wall, reference.spent_cpu
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    with tracing.patched([(module, workload.op_site[1], timer.wrap(original))]):
        try:
            if tracer is None:
                outcome = workload.unit(state, inputs, index)
            else:
                with tracer.instrument(index):
                    outcome = workload.unit(state, inputs, index)
        except Exception:
            error = traceback.format_exc()
    elapsed, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    wall = elapsed - (reference.spent_wall - spent_wall)
    cpu -= reference.spent_cpu - spent_cpu
    ops = max(len(timer.latencies), 1)
    if error is None:
        try:
            failed, fingerprint, notes = workload.check(state, inputs, outcome, ops)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
        failed, fingerprint, notes = ops, None, {"error": error}
    return {"index": index, "key": key, "traced": tracer is not None,
            "wall": wall, "elapsed": elapsed, "cpu": cpu,
            "ops": ops, "failed": failed, "latencies": timer.latencies,
            "fingerprint": fingerprint, "notes": notes}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    RESULTS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=RESULTS_DIR))
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            import_in_fresh_interpreter()
            state = workload.setup(seed, work / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)

        tracer = tracing.Tracer(workload.op_span) if trace else None
        units = []
        start = time.perf_counter()
        reference = Reference()
        reference.sample(REFERENCE_REPEATS)

        def more():
            # Start a unit only if it should end within the time given, but
            # run at least one, or in a traced run MIN_TRACED_UNITS of each kind.
            if len(units) < (2 * MIN_TRACED_UNITS if trace else 1):
                return True
            expected = statistics.median(u["elapsed"] for u in units)
            return time.perf_counter() - start + expected <= seconds

        while more():
            # In a traced run untraced and traced units alternate, and each
            # traced unit repeats the inputs of the untraced one before it,
            # so the ratio of their walls is the tracing overhead.
            index = len(units)
            use_tracer = tracer if trace and index % 2 == 1 else None
            key = index // 2 if trace else index
            first = len(reference.samples) - REFERENCE_REPEATS
            unit = run_unit(workload, state, index, key, use_tracer, reference)
            reference.sample(REFERENCE_REPEATS)
            # The host's speed over the unit: the median of the samples
            # taken just before it, during it and just after it.
            unit["ref"] = statistics.median(reference.samples[first:])
            units.append(unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup_times": setup_times, "units": units, "tracer": tracer}


def end_to_end(setup_times, units) -> tuple[dict, dict]:
    """(gated metrics, the same times in seconds) over the untraced units.

    A time in ``ref`` is the time in seconds divided by the reference
    loop's time over its unit; the samples themselves are not counted. Unit times are means, not medians: unit
    costs differ with their inputs.
    """
    untraced = [u for u in units if not u["traced"]]
    latencies = np.array([x for u in untraced for x in u["latencies"]])
    relative = np.array([x / u["ref"] for u in untraced for x in u["latencies"]])
    ops = sum(u["ops"] for u in untraced)
    failed = sum(u["failed"] for u in untraced)
    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (statistics.mean(u["wall"] / u["ref"] for u in untraced), "ref"),
        "op_ref_p50": (float(np.percentile(relative, 50)), "ref"),
        "op_ref_p90": (float(np.percentile(relative, 90)), "ref"),
        "cpu_ref": (statistics.mean(u["cpu"] / u["ref"] for u in untraced), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / ops, "frac"),
    }
    seconds = {
        "wall_s": (statistics.mean(u["wall"] for u in untraced), "s"),
        "ops_per_s": (ops / sum(u["wall"] for u in untraced), "1/s"),
        "op_ms_p50": (1e3 * float(np.percentile(latencies, 50)), "ms"),
        "op_ms_p90": (1e3 * float(np.percentile(latencies, 90)), "ms"),
        "cpu_s": (statistics.mean(u["cpu"] for u in untraced), "s"),
        "ref_ms": (1e3 * statistics.median(u["ref"] for u in untraced), "ms"),
    }
    return gated, seconds


PER_LAYER_UNITS = {"calls": "count", "days": "count", "blowups": "count",
                   "failures": "count", "evals": "count", "penalised": "count",
                   "replicates": "count", "failed_replicates": "count",
                   "cache_hits": "count", "cache_misses": "count", "rows": "count",
                   "share": "frac", "penalised_frac": "frac", "overhead_frac": "frac",
                   "ms_per_call": "ms"}


def per_layer_unit(metric: str) -> str:
    parts = metric.split(".")
    if parts[0] == "market" and parts[1] == "us_per_day":
        return "us"
    return PER_LAYER_UNITS.get(parts[-1], "s")


def count_stability(name: str, seed: int, tracer, traced_units) -> dict:
    """The counts of a unit must repeat across runs of a seed.

    ``traced_units`` holds (unit index, input key) pairs. Counts are kept
    per key in ``bench/results``; a later traced run of the same seed in the
    same checkout compares its units with them.
    """
    counts = {str(key): tracer.unit_counts(index) for index, key in traced_units}
    record = RESULTS_DIR / f"counts-{name}-seed{seed}.json"
    previous = json.loads(record.read_text()) if record.exists() else {}
    compared = sorted(set(counts) & set(previous), key=int)
    mismatches = [{"key": key, "now": counts[key], "before": previous[key]}
                  for key in compared if counts[key] != previous[key]]
    record.write_text(json.dumps(previous | counts, sort_keys=True))
    return {"counts": counts, "mismatches": mismatches, "keys_compared": compared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = run["units"]
    attempted = sum(u["ops"] for u in units)
    failed = sum(u["failed"] for u in units)
    nondeterminism = []
    for key in sorted({u["key"] for u in units}):
        fingerprints = {u["fingerprint"] for u in units
                        if u["key"] == key and u["fingerprint"] is not None}
        if len(fingerprints) > 1:
            nondeterminism.append(f"outputs of key {key} differ: {sorted(fingerprints)}")

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed),
              "setup_times": run["setup_times"],
              "units": [{k: v for k, v in u.items() if k != "latencies"}
                        | {"op_ms": [1e3 * x for x in u["latencies"]]} for u in units]}
    if args.trace:
        tracer = run["tracer"]
        traced = [u["index"] for u in units if u["traced"]]
        traced_keys = [(u["index"], u["key"]) for u in units if u["traced"]]
        traced_wall = sum(u["wall"] for u in units if u["traced"])
        values = tracing.layer_metrics(tracer, traced, traced_wall)
        values["trace.overhead_frac"] = (
            statistics.median(u["wall"] / u["ref"] for u in units if u["traced"])
            / statistics.median(u["wall"] / u["ref"] for u in units if not u["traced"]) - 1.0)
        metrics = {k: (v, per_layer_unit(k)) for k, v in sorted(values.items())}
        stability = count_stability(args.workload, args.seed, tracer, traced_keys)
        if stability["mismatches"]:
            nondeterminism.append(f"counts differ: {stability}")
        record["count_stability"] = stability
        record["stats_failures_by_component"] = tracing.failures_by_component(
            tracer, traced)
        record["missing_sites"] = tracer.missing_sites
        spans_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(tracer.to_json()))
        print(f"spans: {spans_file}")
        seconds = {}
    else:
        metrics, seconds = end_to_end(run["setup_times"], units)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["seconds"] = {k: {"value": v, "unit": u} for k, (v, u) in seconds.items()}
    record["nondeterminism"] = nondeterminism
    correct = failed == 0 and not nondeterminism
    for line in nondeterminism:
        print(f"NONDETERMINISM: {line}", file=sys.stderr)

    out_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))
    print(f"{args.workload}: {len(units)} units, {attempted} ops, record {out_file}")
    for k, (v, u) in (metrics | seconds).items():
        print(f"  {k} = {v:.6g} {u}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
