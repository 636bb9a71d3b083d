"""Simulated paths and fitness values against pinned golden fingerprints.

The determinism tests compare one run with a second run, so a change that
alters every path would still pass them. These compare with fingerprints
written by ``tests/make_golden.py``: sha256 of all six SimulationOutput
arrays, ``float.hex`` of the fitness at fixed thetas, of the nine moments
of three fixed series and of two small optimizer runs on a closed-form
objective, and the message of every blow-up (its price and day), bit for
bit. The moments are pinned together with the ``MOMENTS_VERSION`` that
produced them.
"""

import json
import re

import numpy as np
import pytest

from day_driver import DayDriver
from farmerjoshi.calibration import ParameterSpace
from farmerjoshi.market import BLOCK_DAYS, BlowUpError, _block_days
from farmerjoshi.stats import MOMENTS_VERSION
from make_golden import (
    BLOCK_EDGE_DAYS,
    BLOCK_EDGE_PARAMETERS,
    BLOCK_EDGE_SEEDS,
    GOLDEN_FILE,
    PARAMETER_SETS,
    PATH_SEEDS,
    VARIANTS,
    blowup_cases,
    blowup_fingerprints,
    fitness_fingerprints,
    moment_fingerprints,
    optimizer_fingerprints,
    path_fingerprint,
    path_key,
)

GOLDEN = json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("set_name", sorted(PARAMETER_SETS))
@pytest.mark.parametrize("seed", PATH_SEEDS)
def test_path_matches_golden(variant, set_name, seed):
    assert path_fingerprint(variant, set_name, seed) == \
        GOLDEN["paths"][path_key(variant, set_name, seed)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_fitness_matches_golden(variant):
    expected = GOLDEN["fitness"][variant]
    assert len(expected) == 3
    assert fitness_fingerprints(variant) == expected


def test_golden_fitness_values_are_not_penalties():
    # A pinned penalty would pass however the simulator changed.
    for variant in VARIANTS:
        values = [float.fromhex(e["fitness"]) for e in GOLDEN["fitness"][variant]]
        assert all(np.isfinite(values)) and max(values) < 1e6
        assert len(GOLDEN["fitness"][variant][0]["theta"]) == ParameterSpace(variant).dim


def test_moments_match_golden():
    assert moment_fingerprints() == GOLDEN["moments"]


def test_golden_moments_carry_the_current_version():
    # Statistic values that change need a version bump (make_golden.py
    # --write refuses otherwise); a bump needs regenerated goldens.
    assert GOLDEN["moments_version"] == MOMENTS_VERSION


def test_optimizer_runs_match_golden():
    assert optimizer_fingerprints() == GOLDEN["optimizers"]


def test_golden_optimizer_runs_make_progress():
    # A run pinned at its first point would pass however the optimizer changed.
    for name, run in GOLDEN["optimizers"].items():
        trace = [float.fromhex(f) for f in run["trace"]]
        assert len(trace) >= 5 and trace[-1] < trace[0], name


def test_blowups_match_golden():
    assert blowup_fingerprints() == GOLDEN["blowups"]


def test_golden_block_edge_blowups_fall_on_their_day():
    # A blow-up on the last day of a noise block or the first of the next
    # is where a per-block check could misplace the first day.
    for (variant, seed), day in BLOCK_EDGE_SEEDS.items():
        assert _block_days(BLOCK_EDGE_PARAMETERS, variant == "adaptive", 1,
                           BLOCK_EDGE_DAYS) == BLOCK_DAYS
        message = GOLDEN["blowups"][f"{variant}/block_edge/{seed}"]
        assert re.search(rf"diverged at day {day} ", message), message


@pytest.mark.parametrize("key", sorted(GOLDEN["blowups"]))
def test_day_steps_raise_the_golden_blowup_on_its_day(key):
    params, variant, days, seed = blowup_cases()[key]
    state = DayDriver(params, variant, days, seed=seed)
    try:
        for _ in range(days):
            state.step()
    except BlowUpError as exc:
        outcome = str(exc)
        assert f"diverged at day {state.day} " in outcome
    else:
        outcome = "ok"
    assert outcome == GOLDEN["blowups"][key]
