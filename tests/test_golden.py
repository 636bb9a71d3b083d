"""Simulated paths and fitness values against pinned golden fingerprints.

The determinism tests compare one run with a second run, so a change that
alters every path would still pass them. These compare with fingerprints
written by ``tests/make_golden.py``: sha256 of all six SimulationOutput
arrays, ``float.hex`` of the fitness at fixed thetas and of the nine
moments of three fixed series, bit for bit.
"""

import json

import numpy as np
import pytest

from farmerjoshi.calibration import ParameterSpace
from make_golden import (
    GOLDEN_FILE,
    PARAMETER_SETS,
    PATH_SEEDS,
    VARIANTS,
    fitness_fingerprints,
    moment_fingerprints,
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
