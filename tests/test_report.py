import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from farmerjoshi.market import DEFAULT_PARAMETERS, simulate
from farmerjoshi.report import (
    _ndtri,
    acf_rows,
    moments_table_rows,
    price_band_rows,
    qq_rows,
    return_path_rows,
    strategy_series_rows,
)
from farmerjoshi.stats import MOMENT_NAMES


@pytest.fixture(scope="module")
def outputs():
    p = DEFAULT_PARAMETERS.with_values(n_traders=20)
    return [simulate(p, "adaptive", 300, p0=0.0, seed=100 + s) for s in range(4)]


#: An empirical log-price series shorter than the simulated paths.
EMP_LOG_PRICES = np.linspace(0.0, 1.0, 50)


class TestPriceBands:
    def test_single_simulation_bands_collapse(self, outputs):
        rows = list(price_band_rows(outputs[:1], EMP_LOG_PRICES))
        for row in rows[1:]:
            assert row[1] == row[2] == row[3] == row[4]

    def test_band_orders_and_length(self, outputs):
        rows = list(price_band_rows(outputs, EMP_LOG_PRICES))
        assert len(rows) == 1 + len(outputs[0].log_prices)
        for row in rows[1:]:
            assert float(row[1]) <= float(row[2]) <= float(row[3])

    def test_empirical_column_appended(self, outputs):
        rows = list(price_band_rows(outputs, EMP_LOG_PRICES))
        assert rows[0][-1] == "empirical"
        assert float(rows[1][-1]) == 0.0
        assert rows[60][-1] == ""  # beyond the empirical length


class TestReturnPaths:
    def test_shape(self, outputs, clustered_returns):
        rows = list(return_path_rows(outputs, clustered_returns))
        assert len(rows) == 1 + len(outputs[0].log_returns)
        assert rows[0][-1] == "empirical"

    def test_single_simulation_bands_collapse(self, outputs, clustered_returns):
        rows = list(return_path_rows(outputs[:1], clustered_returns))
        for row in rows[1:]:
            assert row[1] == row[2] == row[3]


class TestAcfRows:
    def test_length_equals_max_lag(self, outputs, clustered_returns):
        rows = list(acf_rows(outputs, clustered_returns, max_lag=17))
        assert len(rows) == 18
        assert rows[1][0] == 1 and rows[-1][0] == 17

    def test_bartlett_band_value(self, outputs, clustered_returns):
        rows = list(acf_rows(outputs, clustered_returns, max_lag=3))
        band = float(rows[1][-1])
        assert band == pytest.approx(1.96 / np.sqrt(len(outputs[0].log_returns)))


class TestQqRows:
    def test_point_count_and_monotonicity(self, outputs, clustered_returns):
        rows = list(qq_rows(outputs, clustered_returns, points=25))
        assert len(rows) == 26
        theo = [float(r[1]) for r in rows[1:]]
        emp = [float(r[2]) for r in rows[1:]]
        assert theo == sorted(theo)
        assert emp == sorted(emp)

    @pytest.mark.parametrize("points", [7, 49, 99, 199])
    def test_normal_quantiles_equal_scipy_stats(self, outputs, clustered_returns, points):
        rows = list(qq_rows(outputs, clustered_returns, points=points))[1:]
        probs = np.array([float(r[0]) for r in rows])
        assert [float(r[1]) for r in rows] == norm.ppf(probs).tolist()


def test_ndtri_port_equals_scipy_special():
    rng = np.random.default_rng(20)
    edge = math.exp(-2.0)  # where the central approximation hands over to the tails
    probs = np.concatenate([
        rng.random(100_000),
        10.0 ** -rng.uniform(0.0, 300.0, 20_000),  # deep lower tail, down to 1e-300
        1.0 - rng.random(20_000) * 1e-16,  # within 1e-16 of 1
        [0.0, 0.5, 1.0, edge, 1.0 - edge],
        np.nextafter(edge, [0.0, 1.0]),
        np.nextafter(1.0 - edge, [0.0, 1.0]),
    ])
    assert [_ndtri(p) for p in probs.tolist()] == ndtri(probs).tolist()


class TestStrategySeries:
    def test_counts_sum_to_n(self, outputs):
        rows = list(strategy_series_rows(outputs[0]))
        n = DEFAULT_PARAMETERS.with_values(n_traders=20).n_traders
        for row in rows[1:]:
            assert row[1] + row[2] == n


class TestMomentsTable:
    def test_stubbed_constant_vectors_zero_width(self):
        mv = np.array([0.0, 1.0, 0.5, 0.2, 0.55, 0.1, -12.0, 0.9, 3.0])
        rows = list(moments_table_rows(np.tile(mv, (100, 1)), mv))
        assert len(rows) == 1 + len(MOMENT_NAMES)
        # width is zero up to percentile-interpolation rounding noise
        for row in rows[1:]:
            lo, hi, mean = float(row[2]), float(row[3]), float(row[1])
            assert hi - lo == pytest.approx(0.0, abs=1e-12)
            assert lo == pytest.approx(mean, rel=1e-12, abs=1e-12)

    def test_empirical_column(self):
        arr = np.array([0.0, 1.0, 0.5, 0.2, 0.55, 0.1, -12.0, 0.9, 3.0])
        sims = np.array([arr + 0.01 * k for k in range(5)])
        rows = list(moments_table_rows(sims, arr))
        for i, row in enumerate(rows[1:]):
            assert row[0] == MOMENT_NAMES[i]
            assert float(row[4]) == arr[i]
