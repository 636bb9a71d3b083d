"""Moment-covariance estimation by moving block bootstrap, and the
inverse-covariance weight matrix used by the calibration objective.

Replicates are overlapping-start blocks (no circular wrap): block starts
are drawn uniformly from 0..n-block_len, ceil(n/block_len) blocks are
concatenated and the result truncated to the original length. The KS
entry of each replicate's moment vector is computed against the original
series so its bootstrap variance is estimable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from farmerjoshi.data_io import ReturnSeries, write_atomic
from farmerjoshi.stats import MOMENTS_VERSION, N_MOMENTS, StatisticError, moment_vector

#: Condition number above which the covariance is pseudo-inverted.
CONDITION_CUTOFF = 1e12

#: Default bootstrap settings (block length per the calibration recipe;
#: replicate count recorded in metadata).
DEFAULT_BLOCK_LEN = 100
DEFAULT_REPLICATES = 1000


class WeightingError(RuntimeError):
    """Raised when the bootstrap covariance cannot be estimated."""


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric PSD weight matrix with its estimation metadata."""

    entries: np.ndarray  # (k, k)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise WeightingError(f"weight matrix must be square, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise WeightingError("weight matrix entries must be finite")
        asym = float(np.max(np.abs(entries - entries.T)))
        if asym > 1e-10:
            raise WeightingError(f"weight matrix asymmetric by {asym:.3e}")
        eig = np.linalg.eigvalsh(entries)
        lam_max = float(max(eig.max(), 0.0))
        if eig.min() < -1e-8 * max(lam_max, 1.0):
            raise WeightingError(f"weight matrix not PSD: min eigenvalue {eig.min():.3e}")

    @classmethod
    def from_doc(cls, doc: dict) -> "WeightMatrix":
        """The matrix of a parsed :meth:`save` document."""
        try:
            return cls(entries=np.array(doc["entries"]), metadata=doc["metadata"])
        except (KeyError, TypeError, ValueError):
            raise WeightingError("weight matrix JSON needs a numeric 'entries' matrix "
                                 "and a 'metadata' object") from None

    def save(self, path) -> None:
        write_atomic(path, json.dumps(
            {"entries": self.entries.tolist(), "metadata": self.metadata}, sort_keys=True))

    @classmethod
    def load(cls, path) -> "WeightMatrix":
        """The matrix :meth:`save` wrote to ``path``; a damaged file is a
        WeightingError naming it."""
        try:
            return cls.from_doc(json.loads(Path(path).read_text()))
        except (ValueError, WeightingError) as exc:  # ValueError: bad JSON or UTF-8
            raise WeightingError(f"weight matrix file {path}: {exc}") from None


def _bootstrap_indices(n: int, block_len: int, rng) -> np.ndarray:
    n_blocks = math.ceil(n / block_len)
    starts = rng.integers(0, n - block_len + 1, size=n_blocks)
    idx = (np.asarray(starts)[:, None] + np.arange(block_len)[None, :]).ravel()
    return idx[:n]


def moving_block_bootstrap(r, block_len: int, seed: int) -> ReturnSeries:
    """One bootstrap replicate of a return series."""
    values = np.asarray(getattr(r, "values", r), dtype=float)
    n = len(values)
    if block_len < 2:
        raise WeightingError("block_len must be >= 2")
    if block_len > n:
        raise WeightingError(f"block_len {block_len} exceeds series length {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return ReturnSeries(values=values[_bootstrap_indices(n, block_len, rng)])


def weight_from_covariance(cov: np.ndarray) -> tuple[np.ndarray, dict]:
    """Invert a moment covariance, falling back to the pseudo-inverse.

    Returns the symmetrized inverse and a conditioning report.
    """
    cov = np.asarray(cov, dtype=float)
    cond = float(np.linalg.cond(cov))
    if math.isfinite(cond) and cond <= CONDITION_CUTOFF:
        w = np.linalg.inv(cov)
        report = {"condition_number": cond, "inversion": "inverse"}
    else:
        w = np.linalg.pinv(cov, rcond=1.0 / CONDITION_CUTOFF)
        report = {
            "condition_number": cond,
            "inversion": "pseudo-inverse",
            "rcond_cutoff": 1.0 / CONDITION_CUTOFF,
        }
    return (w + w.T) / 2.0, report


def estimate_weight_matrix(r_emp, block_len: int = DEFAULT_BLOCK_LEN,
                           replicates: int = DEFAULT_REPLICATES,
                           seed: int = 0) -> WeightMatrix:
    """Bootstrap the moment covariance of a return series and invert it.

    Replicates whose moment computation fails are dropped and counted;
    more than 20% failures aborts.
    """
    if replicates < N_MOMENTS + 1:
        raise WeightingError(f"need at least {N_MOMENTS + 1} replicates")
    rep_seeds = np.random.SeedSequence(seed).generate_state(replicates)
    draws = []
    failures = 0
    for s in rep_seeds:
        replicate = moving_block_bootstrap(r_emp, block_len, int(s))
        try:
            draws.append(moment_vector(replicate, r_emp).as_array())
        except StatisticError:
            failures += 1
    if failures > 0.2 * replicates:
        raise WeightingError(
            f"{failures}/{replicates} bootstrap replicates failed moment computation"
        )
    cov = np.cov(np.asarray(draws), rowvar=False, ddof=1)
    entries, report = weight_from_covariance(cov)
    meta = {
        "block_len": int(block_len),
        "replicates": int(replicates),
        "replicates_used": int(replicates - failures),
        "failed_replicates": int(failures),
        "seed": int(seed),
        "moments_version": MOMENTS_VERSION,
        **report,
    }
    return WeightMatrix(entries=entries, metadata=meta)


def cache_key(r_emp, block_len: int, replicates: int, seed: int) -> str:
    """Stable disk-cache key for a weight matrix estimation.

    It hashes the statistic conventions' version with the inputs, so a
    matrix cached under other conventions is never reused.
    """
    values = np.asarray(getattr(r_emp, "values", r_emp), dtype=float)
    h = hashlib.sha256()
    h.update(values.tobytes())
    h.update(f"|{block_len}|{replicates}|{seed}|moments-v{MOMENTS_VERSION}".encode())
    return h.hexdigest()[:24]


def cache_path(cache_dir, r_emp, block_len: int, replicates: int, seed: int) -> Path:
    """The cache file of a weight matrix estimation; creates ``cache_dir``."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    return cache_dir / f"weights-{cache_key(r_emp, block_len, replicates, seed)}.json"


def cached_weight_matrix(r_emp, cache_dir, block_len: int = DEFAULT_BLOCK_LEN,
                         replicates: int = DEFAULT_REPLICATES,
                         seed: int = 0) -> WeightMatrix:
    """Load a weight matrix from cache or estimate and cache it; a damaged
    cache file counts as a miss and is replaced."""
    path = cache_path(cache_dir, r_emp, block_len, replicates, seed)
    if path.exists():
        try:
            return WeightMatrix.load(path)
        except WeightingError:
            pass
    wm = estimate_weight_matrix(r_emp, block_len, replicates, seed)
    wm.save(path)
    return wm
