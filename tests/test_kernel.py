"""The batched day kernel's internals: its threshold machine and its memory.

The golden paths cannot see a rule that differs from threshold_transition
only on a rare tie, so the kernel's transition is checked against it at
every boundary, in both layouts the kernel runs.
"""

import tracemalloc

import numpy as np
import pytest

from day_driver import threshold_transition
from farmerjoshi.market import (
    DEFAULT_PARAMETERS,
    _Positions,
    _Runs,
    _seed_streams,
    simulate,
    simulate_batch,
)

ENTRY = (0.1, 0.3)
#: Exit thresholds; 0.0 is the lower bound of tau_min in the calibration box.
EXIT = (0.0, 0.02, 0.045)
A = 1.5


def boundary_mispricings(T: float, tau: float) -> list[float]:
    """m at +-T and +-tau, at their nextafter neighbours, and at +-0.0."""
    points = [0.0, -0.0]
    for x in (T, -T, tau, -tau):
        points += [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
    return points


def boundary_table():
    """Rows (sign, m, T, tau, c) over every state and boundary mispricing."""
    rows = []
    for T in ENTRY:
        for tau in EXIT:
            c = A * (T - tau)
            rows += [(sign, m, T, tau, c) for sign in (-1, 0, 1)
                     for m in boundary_mispricings(T, tau)]
    return rows


@pytest.mark.parametrize("layout", [(2, -1), (2, 2, -1)], ids=["standard", "adaptive"])
def test_kernel_transition_equals_threshold_transition(layout):
    sign, m, T, tau, c = (np.array(col) for col in zip(*boundary_table()))
    sign = sign.astype(np.int8)
    shape = np.empty(len(m)).reshape(layout).shape
    positions = _Positions(T.reshape(shape), tau.reshape(shape), c.reshape(shape))
    positions.sides[...] = sign.reshape(shape), -sign.reshape(shape)
    positions.mispricing[...] = m.reshape(shape)
    out = np.empty(shape)
    positions.step(out)

    expected = np.array([threshold_transition(s * ci if s else 0.0, mi, Ti, taui, ci)
                         for s, mi, Ti, taui, ci in zip(sign, m, T, tau, c)])
    got = out.ravel()
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    # every flat position is +0.0, and the kept signs follow the positions
    assert not np.signbit(got[got == 0.0]).any()
    assert np.array_equal(positions.sides[0].ravel(), np.sign(expected).astype(np.int8))
    assert np.array_equal(positions.sides[1], -positions.sides[0])


@pytest.mark.parametrize("loc, scale", [(0.0, 0.01), (0.001, 0.02), (-0.3, 1.7),
                                        (0.0, 0.0), (0.2, 0.0)])
def test_in_place_normal_draws_equal_generator_normal(loc, scale, monkeypatch):
    # simulate_batch scales and shifts all rows' standard normals at once;
    # each row must still hold its own streams' Generator.normal draws, and
    # zero scale makes signed zeros, which the price recursion can carry
    params = DEFAULT_PARAMETERS.with_values(n_traders=30, mu_eta=loc, sigma_eta=scale,
                                            sigma_zeta=scale)
    seeds = (3, 4, 5)
    run = _Runs.run
    for variant in ("standard", "adaptive"):
        blocks = []

        def record(self, zeta, eta, u):
            blocks.append((zeta.copy(), eta.copy()))
            return run(self, zeta, eta, u)

        monkeypatch.setattr(_Runs, "run", record)
        simulate_batch(params, variant, 300, seeds=seeds)
        zeta = np.concatenate([z for z, _ in blocks], axis=1)
        eta = np.concatenate([e for _, e in blocks], axis=1)
        for i, seed in enumerate(seeds):
            _, z, e, _ = _seed_streams(seed)
            for got, expected in ((zeta[i], z.normal(0.0, scale, size=zeta.shape[1])),
                                  (eta[i], e.normal(loc, scale, size=eta.shape[1:]))):
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


def traced_peak(run) -> int:
    """Peak bytes allocated, as tracemalloc counts them, while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adaptive_run_keeps_bounded_memory():
    # The kernel keeps a window of 2 * horizon + 1 shadow rows and block
    # buffers within BLOCK_BYTES; a full shadow history would be 40 MB here.
    params = DEFAULT_PARAMETERS.with_values(n_traders=1000)
    assert traced_peak(lambda: simulate(params, "adaptive", 2500, seed=3)) < 12e6


def test_adaptive_batch_keeps_bounded_memory():
    # Twenty seeds, as `report` runs by default. The shadow window is 32 MB
    # here; 128-day block buffers would add 84 MB, and a slide copied
    # through a temporary another 16 MB.
    params = DEFAULT_PARAMETERS.with_values(n_traders=1000)
    peak = traced_peak(lambda: simulate_batch(params, "adaptive", 2500, seeds=range(20)))
    assert peak < 80e6
