import os
import re

import numpy as np
import pytest

from farmerjoshi import weighting
from farmerjoshi.data_io import ReturnSeries
from farmerjoshi.stats import MOMENTS_VERSION
from farmerjoshi.weighting import (
    WeightingError,
    WeightMatrix,
    _bootstrap_indices,
    cache_key,
    cached_weight_matrix,
    estimate_weight_matrix,
    moving_block_bootstrap,
    weight_from_covariance,
)


class StubStarts:
    def __init__(self, starts):
        self.starts = list(starts)

    def integers(self, low, high, size):
        assert size == len(self.starts)
        return np.array(self.starts)


class TestMovingBlockBootstrap:
    def test_full_length_block_reproduces_series(self, clustered_returns):
        n = len(clustered_returns)
        rep = moving_block_bootstrap(clustered_returns, block_len=n, seed=1)
        assert np.array_equal(rep.values, clustered_returns.values)

    def test_stubbed_starts_hand_trace(self):
        r = np.array([10.0, 11.0, 12.0, 13.0])
        idx = _bootstrap_indices(4, 2, StubStarts([1, 0]))
        assert r[idx].tolist() == [11.0, 12.0, 10.0, 11.0]

    def test_same_seed_identical(self, clustered_returns):
        a = moving_block_bootstrap(clustered_returns, 50, seed=9)
        b = moving_block_bootstrap(clustered_returns, 50, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_block_longer_than_series(self):
        with pytest.raises(WeightingError, match="exceeds"):
            moving_block_bootstrap(ReturnSeries(np.zeros(5)), 6, seed=0)

    def test_block_too_short(self):
        with pytest.raises(WeightingError):
            moving_block_bootstrap(ReturnSeries(np.zeros(5)), 1, seed=0)

    def test_length_preserved_and_values_from_source(self, clustered_returns):
        rep = moving_block_bootstrap(clustered_returns, 100, seed=3)
        assert len(rep) == len(clustered_returns)
        assert np.all(np.isin(rep.values, clustered_returns.values))


class TestWeightFromCovariance:
    def test_identity(self):
        w, report = weight_from_covariance(np.eye(9))
        assert np.allclose(w, np.eye(9))
        assert report["inversion"] == "inverse"

    def test_reciprocal_diagonal(self):
        diag = np.array([4.0, 1.0, 2.0, 0.5, 1.0, 1.0, 9.0, 1.0, 0.25])
        w, _ = weight_from_covariance(np.diag(diag))
        assert np.allclose(np.diag(w), 1.0 / diag)

    def test_monotone_in_variance(self):
        base = np.ones(9)
        inflated = base.copy()
        inflated[4] = 25.0
        w_base, _ = weight_from_covariance(np.diag(base))
        w_infl, _ = weight_from_covariance(np.diag(inflated))
        assert w_infl[4, 4] < w_base[4, 4]
        for i in range(9):
            if i != 4:
                assert w_infl[i, i] == pytest.approx(w_base[i, i])

    def test_singular_covariance_uses_pseudo_inverse(self):
        cov = np.outer(np.arange(1.0, 10.0), np.arange(1.0, 10.0))
        w, report = weight_from_covariance(cov)
        assert report["inversion"] == "pseudo-inverse"
        assert np.all(np.isfinite(w))


class TestEstimateWeightMatrix:
    def test_properties_on_clustered_series(self, clustered_returns):
        wm = estimate_weight_matrix(clustered_returns, block_len=50,
                                    replicates=40, seed=7)
        m = wm.entries
        assert m.shape == (9, 9)
        assert np.max(np.abs(m - m.T)) <= 1e-10
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-8 * max(eig.max(), 1.0)
        assert wm.metadata["replicates"] == 40
        assert wm.metadata["failed_replicates"] == 0
        assert wm.metadata["moments_version"] == MOMENTS_VERSION

    def test_deterministic_under_seed(self, clustered_returns):
        a = estimate_weight_matrix(clustered_returns, 50, 12, seed=3)
        b = estimate_weight_matrix(clustered_returns, 50, 12, seed=3)
        assert np.array_equal(a.entries, b.entries)

    def test_quadratic_form_nonnegative(self, clustered_returns):
        wm = estimate_weight_matrix(clustered_returns, 50, 20, seed=5)
        rng = np.random.default_rng(0)
        lam_max = np.linalg.eigvalsh(wm.entries).max()
        for _ in range(25):
            x = rng.standard_normal(9)
            assert x @ wm.entries @ x >= -1e-8 * (x @ x) * lam_max

    def test_too_few_replicates(self, clustered_returns):
        with pytest.raises(WeightingError, match="replicates"):
            estimate_weight_matrix(clustered_returns, 50, replicates=5, seed=0)

    def test_json_roundtrip(self, clustered_returns, tmp_path):
        wm = estimate_weight_matrix(clustered_returns, 50, 12, seed=2)
        path = tmp_path / "w.json"
        wm.save(path)
        again = WeightMatrix.load(path)
        assert np.array_equal(wm.entries, again.entries)
        assert wm.metadata == again.metadata

    def test_asymmetric_matrix_rejected(self):
        bad = np.eye(9)
        bad[0, 1] = 1e-6
        with pytest.raises(WeightingError, match="asymmetric"):
            WeightMatrix(entries=bad)


class TestCache:
    def test_cache_key_changes_with_inputs(self, clustered_returns):
        k1 = cache_key(clustered_returns, 100, 500, 0)
        k2 = cache_key(clustered_returns, 100, 500, 1)
        k3 = cache_key(ReturnSeries(clustered_returns.values[:-1]), 100, 500, 0)
        assert len({k1, k2, k3}) == 3

    def test_cache_key_changes_with_moments_version(self, clustered_returns,
                                                    monkeypatch):
        current = cache_key(clustered_returns, 100, 500, 0)
        monkeypatch.setattr(weighting, "MOMENTS_VERSION", MOMENTS_VERSION - 1)
        assert cache_key(clustered_returns, 100, 500, 0) != current

    def test_cached_roundtrip(self, clustered_returns, tmp_path):
        wm1 = cached_weight_matrix(clustered_returns, tmp_path, 50, 12, seed=4)
        files = list(tmp_path.glob("weights-*.json"))
        assert len(files) == 1
        wm2 = cached_weight_matrix(clustered_returns, tmp_path, 50, 12, seed=4)
        assert np.array_equal(wm1.entries, wm2.entries)
        assert list(tmp_path.glob("weights-*.json")) == files

    @pytest.mark.parametrize("damage", [b'{"entries": [[0.5, ', b"\xff\xfe{}"],
                             ids=["truncated", "not-utf8"])
    def test_damaged_cache_file_is_named_then_rebuilt(self, clustered_returns, tmp_path,
                                                     damage):
        wm = cached_weight_matrix(clustered_returns, tmp_path, 50, 12, seed=4)
        (path,) = tmp_path.glob("weights-*.json")
        good = path.read_bytes()
        path.write_bytes(damage)
        with pytest.raises(WeightingError, match=re.escape(str(path))):
            WeightMatrix.load(path)
        rebuilt = cached_weight_matrix(clustered_returns, tmp_path, 50, 12, seed=4)
        assert np.array_equal(rebuilt.entries, wm.entries)
        assert path.read_bytes() == good

    def test_failed_save_leaves_no_cache_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        wm = WeightMatrix(entries=np.eye(9))
        with pytest.raises(OSError, match="disk full"):
            wm.save(tmp_path / "weights-0123.json")
        assert list(tmp_path.glob("weights-*.json")) == []
