"""Spans and op timers for the calibration benchmark.

The benchmark never edits the package. It replaces public functions at
their import sites (``module.attr``) with timing wrappers for the length
of a ``with`` block and puts the originals back afterwards. A span is
recorded at each layer boundary; spans live in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

#: (module, attribute, layer) for every boundary the traced run wraps.
#: One function is wrapped separately at each module that imports it,
#: because callers look it up in their own module's namespace.
SITES = (
    ("farmerjoshi.cli", "main", "cli"),
    ("farmerjoshi.cli", "load_price_series", "data_io"),
    ("farmerjoshi.cli", "log_returns", "data_io"),
    ("farmerjoshi.data_io", "load_price_series", "data_io"),
    ("farmerjoshi.data_io", "log_returns", "data_io"),
    ("farmerjoshi.cli", "run_optimizer", "optimize"),
    ("farmerjoshi.calibration", "ga_optimize", "optimize"),
    ("farmerjoshi.calibration", "nmta_optimize", "optimize"),
    ("farmerjoshi.calibration", "nm_optimize", "optimize"),
    ("farmerjoshi.calibration", "fitness", "calibration"),
    ("farmerjoshi.calibration", "estimation_error", "calibration"),
    ("farmerjoshi.market", "simulate", "market"),
    ("farmerjoshi.calibration", "simulate", "market"),
    ("farmerjoshi.cli", "simulate", "market"),
    ("farmerjoshi.calibration", "moment_vector", "stats"),
    ("farmerjoshi.weighting", "moment_vector", "stats"),
    ("farmerjoshi.cli", "moment_vector", "stats"),
    ("farmerjoshi.stats", "sample_moments", "stats"),
    ("farmerjoshi.stats", "ks_statistic", "stats"),
    ("farmerjoshi.stats", "hurst_exponent", "stats"),
    ("farmerjoshi.stats", "gph_estimator", "stats"),
    ("farmerjoshi.stats", "adf_statistic", "stats"),
    ("farmerjoshi.stats", "garch_persistence", "stats"),
    ("farmerjoshi.stats", "hill_tail_average", "stats"),
    ("farmerjoshi.weighting", "cached_weight_matrix", "weighting"),
    ("farmerjoshi.weighting", "estimate_weight_matrix", "weighting"),
    ("farmerjoshi.cli", "estimate_weight_matrix", "weighting"),
    ("farmerjoshi.weighting", "cache_key", "weighting"),
    ("farmerjoshi.cli", "cache_key", "weighting"),
    ("farmerjoshi.report", "price_band_rows", "report"),
    ("farmerjoshi.report", "return_path_rows", "report"),
    ("farmerjoshi.report", "acf_rows", "report"),
    ("farmerjoshi.report", "qq_rows", "report"),
    ("farmerjoshi.report", "strategy_series_rows", "report"),
)

STAT_FUNCTIONS = ("sample_moments", "ks_statistic", "hurst_exponent",
                  "gph_estimator", "adf_statistic", "garch_persistence",
                  "hill_tail_average")


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = new`` for each triple, restoring on exit."""
    saved = []
    try:
        for module, attr, new in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


class OpTimer:
    """Wall time of every call to one function: the benchmark's op.

    ``probe``, if given, is called before each op, outside its timing.
    """

    def __init__(self, probe=None):
        self.latencies: list[float] = []
        self.probe = probe

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.probe is not None:
                self.probe()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - t0)
        return timed


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    unit: int = 0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    ``op_name`` is the span that starts one benchmark op; every span opened
    inside it carries the same op id.
    """

    def __init__(self, op_name: str):
        self.op_name = op_name
        self.spans: list[Span] = []
        self.unit = 0
        self.missing_sites: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    def _wrap(self, fn, name: str, layer: str):
        is_generator = inspect.isgeneratorfunction(fn)
        signature = inspect.signature(fn) if name == "market.simulate" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opens_op = self._op is None and name == self.op_name
            if opens_op:
                self._op = self._next_op
                self._next_op += 1
            span = Span(name, layer, 0.0,
                        parent=self._stack[-1] if self._stack else None,
                        op=self._op, unit=self.unit)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.info = {"variant": bound["variant"], "days": int(bound["days"]),
                             "n_traders": int(bound["params"].n_traders)}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_generator:
                    result = list(result)
                    span.info["rows"] = len(result)
                return result
            except Exception as exc:
                component = getattr(exc, "component", None)
                span.error = type(exc).__name__ + (f":{component}" if component else "")
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if opens_op:
                    self._op = None
        return traced

    @contextlib.contextmanager
    def instrument(self, unit: int):
        """Wrap every site in SITES for the duration of one traced unit."""
        self.unit = unit
        replacements = []
        missing = []
        for module_name, attr, layer in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            replacements.append((module, attr, self._wrap(fn, f"{layer}.{attr}", layer)))
        if missing and not self.missing_sites:
            print(f"note: import sites not found, left unwrapped: {missing}",
                  file=sys.stderr)
        self.missing_sites = missing
        with patched(replacements):
            yield

    def unit_counts(self, unit: int) -> dict:
        """Model-outcome counts that must repeat exactly for identical work."""
        return _counts(self.spans, [s for s in self.spans if s.unit == unit])

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "unit": s.unit, "error": s.error, **s.info}
                for s in self.spans]


def _counts(all_spans: list[Span], spans: list[Span]) -> dict:
    def parent_name(s):
        return all_spans[s.parent].name if s.parent is not None else None

    replicates = [s for s in spans if s.name == "stats.moment_vector"
                  and parent_name(s) == "weighting.estimate_weight_matrix"]
    return {
        "calibration.evals": sum(s.name == "calibration.fitness" for s in spans),
        "calibration.penalised": sum(s.name == "calibration.estimation_error"
                                     and s.error is not None for s in spans),
        "market.blowups": sum(s.name == "market.simulate" and s.error == "BlowUpError"
                              for s in spans),
        "weighting.replicates": len(replicates),
        "weighting.failed_replicates": sum(s.error is not None for s in replicates),
        "stats.failures": sum(s.name == "stats.moment_vector" and s.error is not None
                              for s in spans),
    }


def layer_metrics(tracer: Tracer, units: list[int], traced_wall: float) -> dict:
    """Per-layer metrics over the traced units, given per unit.

    Busy time of a layer sums its outermost spans (those whose parent is
    another layer); self time of a span is its duration minus its direct
    children, which never overlap because the program is single-threaded.
    """
    all_spans = tracer.spans
    spans = [s for s in all_spans if s.unit in units]
    n = len(units)
    child_time = [0.0] * len(all_spans)
    for s in all_spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time = [s.duration - child for s, child in zip(all_spans, child_time)]

    def outermost(s):
        return s.parent is None or all_spans[s.parent].layer != s.layer

    def busy(layer):
        return sum(s.duration for s in spans if s.layer == layer and outermost(s))

    def self_s(layer):
        return sum(self_time[i] for i, s in enumerate(all_spans)
                   if s.unit in units and s.layer == layer)

    def has_ancestor(s, layer):
        while s.parent is not None:
            s = all_spans[s.parent]
            if s.layer == layer:
                return True
        return False

    counts = _counts(all_spans, spans)
    sims = [s for s in spans if s.name == "market.simulate" and s.error is None]
    sim_days = sum(s.info["days"] for s in sims)
    sim_busy = sum(s.duration for s in sims)

    def us_per_day(variant, n_traders):
        cell = [s for s in sims if s.info["variant"] == variant
                and s.info["n_traders"] == n_traders]
        days = sum(s.info["days"] for s in cell)
        return 1e6 * sum(s.duration for s in cell) / days if days else 0.0

    mv_calls = sum(s.name == "stats.moment_vector" for s in spans)
    evals = counts["calibration.evals"]
    lookups = sum(s.name == "weighting.cache_key" for s in spans)
    misses = sum(s.name == "weighting.estimate_weight_matrix" for s in spans)
    per_unit = {
        "market.calls": sum(s.name == "market.simulate" for s in spans),
        "market.days": sim_days,
        "market.busy_s": busy("market"),
        "market.blowups": counts["market.blowups"],
        "stats.calls": mv_calls,
        "stats.busy_s": busy("stats"),
        "stats.failures": counts["stats.failures"],
        **{f"stats.{fn}.busy_s": sum(s.duration for s in spans
                                     if s.name == f"stats.{fn}")
           for fn in STAT_FUNCTIONS},
        "calibration.evals": evals,
        "calibration.penalised": counts["calibration.penalised"],
        "calibration.busy_s": busy("calibration"),
        "calibration.self_s": self_s("calibration"),
        "optimize.evals": sum(s.name == "calibration.fitness" and has_ancestor(s, "optimize")
                              for s in spans),
        "optimize.busy_s": busy("optimize"),
        "optimize.self_s": self_s("optimize"),
        "weighting.replicates": counts["weighting.replicates"],
        "weighting.failed_replicates": counts["weighting.failed_replicates"],
        "weighting.busy_s": busy("weighting"),
        "weighting.self_s": self_s("weighting"),
        "weighting.cache_hits": max(lookups - misses, 0),
        "weighting.cache_misses": misses,
        "report.busy_s": busy("report"),
        "report.rows": sum(s.info.get("rows", 0) for s in spans if s.layer == "report"),
        "data_io.busy_s": busy("data_io"),
        "cli.busy_s": busy("cli"),
        "cli.self_s": self_s("cli"),
    }
    out = {k: v / n for k, v in per_unit.items()}
    out.update({
        "market.share": out["market.busy_s"] * n / traced_wall,
        "market.us_per_day": 1e6 * sim_busy / sim_days if sim_days else 0.0,
        "market.us_per_day.standard.n50": us_per_day("standard", 50),
        "market.us_per_day.adaptive.n50": us_per_day("adaptive", 50),
        "market.us_per_day.adaptive.n1000": us_per_day("adaptive", 1000),
        "stats.ms_per_call": 1e3 * out["stats.busy_s"] / out["stats.calls"]
        if mv_calls else 0.0,
        "stats.share": out["stats.busy_s"] * n / traced_wall,
        "calibration.penalised_frac": counts["calibration.penalised"] / evals
        if evals else 0.0,
    })
    return out


def failures_by_component(tracer: Tracer, units: list[int]) -> dict:
    """StatisticError counts per component over the given units."""
    out: dict[str, int] = {}
    for s in tracer.spans:
        if s.unit in units and s.name == "stats.moment_vector" and s.error:
            component = s.error.partition(":")[2] or "unknown"
            out[component] = out.get(component, 0) + 1
    return out
