"""Heuristic minimizers for the noisy, multimodal calibration objective.

Two searchers over a box-constrained parameter space:

* a real-coded genetic algorithm (tournament selection of size 2, BLX
  blend crossover, per-gene Gaussian mutation scaled to bound width,
  elitism, reflection-at-bounds repair);
* Nelder-Mead with threshold accepting: standard simplex moves, plus a
  periodic proposal to shift the whole simplex by a random vector,
  accepted as long as the best vertex worsens by no more than the
  current value of a decreasing threshold sequence. Thresholds are
  quantiles of |f(x) - f(x + shift)| sampled over random points, in the
  spirit of heuristic-optimization practice for rugged surfaces. Plain
  Nelder-Mead has one switch, every threshold zero (``--thresholds 0``):
  then no threshold is sampled and no shift is proposed.

Points stay continuous inside both searchers. An optional ``repair``
hook maps each one to the feasible set (for example by rounding integral
coordinates) at evaluation time only; reported optima are repaired points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CalibrationResult:
    """Best point found by one optimizer run, with its search trace."""

    theta: np.ndarray
    fitness: float
    trace: np.ndarray  # best-so-far objective per generation/iteration
    evaluations: int
    wall_time: float
    seed: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "trace", np.asarray(self.trace, dtype=float))


#: GA share of parent pairs recombined; the others pass on as copies.
GA_CROSSOVER_RATE = 0.8
#: GA per-gene mutation probability.
GA_MUTATION_PROB = 0.10
#: GA Gaussian mutation step, times bound width.
GA_MUTATION_SCALE = 0.1
#: GA individuals carried over unchanged to the next generation.
GA_ELITES = 1
#: GA BLX crossover: children are drawn from the parents' span widened by
#: this fraction of it on each side.
GA_BLEND_ALPHA = 0.30
#: Nelder-Mead initial vertex offset, times bound width.
NM_SIMPLEX_SCALE = 0.1
#: Stages of a sampled NMTA threshold sequence, the last one zero.
NMTA_THRESHOLD_STAGES = 10
#: An objective value at or above this is a penalty, not a measurement:
#: threshold sampling drops the pairs that reach it.
PENALTY_FITNESS = 1e12


def _require_at_least(params, minima: dict) -> None:
    """Raise a ValueError naming the first field of ``params`` below its minimum."""
    for name, least in minima.items():
        if getattr(params, name) < least:
            raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class GAParams:
    population: int = 40
    generations: int = 100

    def __post_init__(self):
        _require_at_least(self, {"population": 4, "generations": 0})


@dataclass(frozen=True)
class NMTAParams:
    restarts: int = 1
    max_iters: int = 250
    shift_every: int = 10  # iterations between shift proposals
    shift_scale: float = 0.15  # shift magnitude, times bound width
    threshold_samples: int = 100  # random pairs used to build thresholds
    thresholds: tuple | None = None  # explicit override; all-zero = plain NM

    def __post_init__(self):
        _require_at_least(self, {"restarts": 1, "max_iters": 0,
                                 "shift_every": 1, "threshold_samples": 1})
        if self.thresholds is not None and not (
                len(self.thresholds) > 0 and all(0.0 <= t < np.inf for t in self.thresholds)):
            raise ValueError("thresholds must be a non-empty sequence of finite "
                             f"numbers >= 0, got {self.thresholds!r}")


def _as_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    lower, upper = bounds
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower > upper):
        raise ValueError("invalid bounds")
    return lower, upper


def reflect_into_bounds(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Fold coordinates back into the box by reflection at the walls."""
    width = upper - lower
    y = np.where(width > 0, x, lower).astype(float)
    live = width > 0
    z = np.mod(y[live] - lower[live], 2.0 * width[live])
    y[live] = lower[live] + np.where(z > width[live], 2.0 * width[live] - z, z)
    return y


class _Search:
    """One optimizer run: its box, random stream, clock and evaluation count, the
    best point (the first of least value, clipped and repaired) and the trace."""

    def __init__(self, objective, bounds, repair, seed: int):
        self.objective = objective
        self.lower, self.upper = _as_bounds(bounds)
        self.repair = repair
        self.seed = seed
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.t0 = time.perf_counter()
        self.count = 0
        self.best_x, self.best_f = None, np.inf
        self.trace: list[float] = []

    def __call__(self, x: np.ndarray) -> float:
        self.count += 1
        y = np.clip(x, self.lower, self.upper)
        if self.repair is not None:
            y = self.repair(y)
        f = float(self.objective(y))
        if self.best_x is None or f < self.best_f:
            self.best_x, self.best_f = y, f
        return f

    def step(self) -> None:
        """Close one GA generation or NM iteration: record the best value so far."""
        self.trace.append(self.best_f)

    def result(self, **details) -> CalibrationResult:
        return CalibrationResult(
            theta=self.best_x, fitness=self.best_f, trace=np.array(self.trace),
            evaluations=self.count, wall_time=time.perf_counter() - self.t0,
            seed=self.seed, details=details)


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------

def ga_optimize(objective, bounds, ga_params: GAParams | None = None,
                seed: int = 0, repair=None) -> CalibrationResult:
    """Minimize ``objective`` over a box with a real-coded GA.

    ``repair`` is an optional feasibility hook applied to each clipped
    point at evaluation time (e.g. rounding and cross-constraint repair).
    Deterministic in ``seed``.
    """
    p = ga_params or GAParams()
    ev = _Search(objective, bounds, repair, seed)
    lower, upper, rng = ev.lower, ev.upper, ev.rng
    n = len(lower)
    width = upper - lower

    pop = lower + rng.random((p.population, n)) * width
    fit = np.array([ev(x) for x in pop])
    ev.step()

    n_children = p.population - GA_ELITES
    for _ in range(p.generations):
        order = np.argsort(fit, kind="stable")
        elite_pool = pop[order[:GA_ELITES]].copy()
        children = np.empty((n_children, n))
        made = 0
        while made < n_children:
            parents = []
            for _ in range(2):
                i, j = rng.integers(0, p.population, size=2)
                parents.append(pop[i] if fit[i] <= fit[j] else pop[j])
            pa, pb = parents
            if rng.random() < GA_CROSSOVER_RATE:
                lo = np.minimum(pa, pb)
                hi = np.maximum(pa, pb)
                span = (hi - lo) * GA_BLEND_ALPHA
                c1 = (lo - span) + rng.random(n) * (hi - lo + 2 * span)
                c2 = (lo - span) + rng.random(n) * (hi - lo + 2 * span)
            else:
                c1, c2 = pa.copy(), pb.copy()
            for c in (c1, c2):
                mask = rng.random(n) < GA_MUTATION_PROB
                c[mask] += rng.normal(0.0, 1.0, size=int(mask.sum())) \
                    * GA_MUTATION_SCALE * width[mask]
                children[made] = reflect_into_bounds(c, lower, upper)
                made += 1
                if made == n_children:
                    break
        child_fit = np.array([ev(x) for x in children])
        pop = np.vstack([elite_pool, children])
        fit = np.concatenate([fit[order[:GA_ELITES]], child_fit])
        ev.step()

    return ev.result(optimizer="ga")


# ---------------------------------------------------------------------------
# Nelder-Mead with threshold accepting
# ---------------------------------------------------------------------------

_NM_REFLECT = 1.0
_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5


def build_thresholds(ev: _Search, params: NMTAParams) -> np.ndarray:
    """Decreasing |delta f| quantiles over random shift pairs drawn and scored by ``ev``.

    Non-finite pairs and pairs reaching PENALTY_FITNESS are discarded; with
    no usable pairs the thresholds are all zero (plain Nelder-Mead behavior).
    """
    lower, upper, rng = ev.lower, ev.upper, ev.rng
    width = upper - lower
    n = len(lower)
    diffs = []
    for _ in range(params.threshold_samples):
        x = lower + rng.random(n) * width
        delta = rng.uniform(-1.0, 1.0, size=n) * params.shift_scale * width
        fa = ev(x)
        fb = ev(np.clip(x + delta, lower, upper))
        if not (np.isfinite(fa) and np.isfinite(fb)) or max(fa, fb) >= PENALTY_FITNESS:
            continue
        diffs.append(abs(fa - fb))
    if not diffs:
        return np.zeros(NMTA_THRESHOLD_STAGES)
    levels = np.linspace(0.9, 0.0, NMTA_THRESHOLD_STAGES)
    taus = np.quantile(np.asarray(diffs), levels)
    taus[-1] = 0.0  # final stage is plain descent
    return np.minimum.accumulate(taus)


def _nm_run(ev: _Search, x0: np.ndarray, params: NMTAParams, thresholds: np.ndarray,
            events: list, simplex_trace: list) -> None:
    """One Nelder-Mead run with periodic threshold-accepted simplex shifts."""
    lower, upper, rng = ev.lower, ev.upper, ev.rng
    n = len(lower)
    width = upper - lower
    simplex = np.tile(x0, (n + 1, 1))
    for j in range(n):
        step = NM_SIMPLEX_SCALE * width[j]
        simplex[j + 1, j] = np.clip(x0[j] + step, lower[j], upper[j])
        if simplex[j + 1, j] == x0[j]:  # step hit the wall; go the other way
            simplex[j + 1, j] = np.clip(x0[j] - step, lower[j], upper[j])
    fvals = np.array([ev(v) for v in simplex])

    def note_best():
        ev.step()
        simplex_trace.append(float(fvals.min()))

    note_best()
    n_stages = len(thresholds)
    for it in range(1, params.max_iters + 1):
        if not it % params.shift_every:
            # Threshold stage advances with run progress, so several
            # shifts are proposed per stage before the tolerance drops.
            stage = min(n_stages - 1, (n_stages * it) // (params.max_iters + 1))
            tau = float(thresholds[stage])
            if tau > 0.0:
                delta = rng.uniform(-1.0, 1.0, size=n) * params.shift_scale * width
                proposal = np.clip(simplex + delta, lower, upper)
                prop_f = np.array([ev(v) for v in proposal])
                old_best = float(fvals.min())
                new_best = float(prop_f.min())
                accepted = new_best <= old_best + tau
                events.append({
                    "iteration": it, "old_best": old_best, "new_best": new_best,
                    "threshold": tau, "accepted": bool(accepted),
                })
                if accepted:
                    simplex, fvals = proposal, prop_f
                note_best()
                continue

        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        centroid = simplex[:-1].mean(axis=0)
        xr = np.clip(centroid + _NM_REFLECT * (centroid - simplex[-1]), lower, upper)
        fr = ev(xr)
        if fr < fvals[0]:
            xe = np.clip(centroid + _NM_EXPAND * (xr - centroid), lower, upper)
            fe = ev(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = np.clip(centroid + _NM_CONTRACT * (xr - centroid), lower, upper)
            else:
                xc = np.clip(centroid + _NM_CONTRACT * (simplex[-1] - centroid), lower, upper)
            fc = ev(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + _NM_SHRINK * (simplex[i] - simplex[0])
                    fvals[i] = ev(simplex[i])
        note_best()


def nmta_optimize(objective, bounds, nmta_params: NMTAParams | None = None,
                  seed: int = 0, repair=None) -> CalibrationResult:
    """Minimize ``objective`` with Nelder-Mead plus threshold accepting.

    Deterministic in ``seed``. Shift-acceptance events are returned in
    ``details['events']``; the thresholds used in ``details['thresholds']``.
    """
    p = nmta_params or NMTAParams()
    ev = _Search(objective, bounds, repair, seed)
    lower, upper = ev.lower, ev.upper

    if p.thresholds is not None:
        taus = np.minimum.accumulate(np.asarray(p.thresholds, dtype=float))
    else:
        taus = build_thresholds(ev, p)
        ev.best_x, ev.best_f = None, np.inf  # a threshold sample is never the optimum

    events: list[dict] = []
    simplex_traces: list[list[float]] = []
    for _ in range(p.restarts):
        x0 = lower + ev.rng.random(len(lower)) * (upper - lower)
        simplex_traces.append([])
        _nm_run(ev, x0, p, taus, events, simplex_traces[-1])

    return ev.result(optimizer="nmta", thresholds=taus.tolist(), events=events,
                     simplex_best_traces=simplex_traces)

