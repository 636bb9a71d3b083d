"""Ingestion of daily closing-price CSVs and conversion to log returns.

Input format: two-column CSV ``date,close`` with ISO-8601 dates and a
header row. Missing calendar days are not imputed; the series is treated
as consecutive trading days. ``write_atomic`` is the one file write that
every command output and the weight-matrix cache go through.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


#: Numbers each ``write_atomic`` call of this process, for its temporary name.
_WRITE_IDS = itertools.count()


class PriceDataError(ValueError):
    """Raised when a price file or series violates the input contract."""


@dataclass(frozen=True)
class PriceSeries:
    """Dated strictly-positive closing prices with strictly increasing dates."""

    dates: np.ndarray  # datetime64[D], shape (n,)
    closes: np.ndarray  # float64, shape (n,)

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "closes", closes)
        if dates.ndim != 1 or closes.ndim != 1 or len(dates) != len(closes):
            raise PriceDataError("dates and closes must be 1-d and equal length")
        if len(closes) < 2:
            raise PriceDataError("fewer than 2 valid rows")
        if not np.all(np.isfinite(closes)) or np.any(closes <= 0):
            raise PriceDataError("closes must be finite and strictly positive")
        if np.any(np.diff(dates) <= np.timedelta64(0, "D")):
            raise PriceDataError("non-increasing dates")

    def __len__(self) -> int:
        return len(self.closes)

    def to_csv(self, path) -> None:
        """Write the series back out in the same two-column format."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "close"])
            writer.writerows(zip(np.datetime_as_string(self.dates, unit="D").tolist(),
                                 self.closes.tolist()))


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns of a closing-price series, one fewer entry than prices."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise PriceDataError("returns must be 1-d")
        if not np.all(np.isfinite(values)):
            raise PriceDataError("returns must be finite")

    def __len__(self) -> int:
        return len(self.values)


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename, so
    readers see the old file or the whole new one, never a partial one. The
    one place that creates a directory: ``path``'s parents, if need be.

    The temporary name is the process's and the call's own, so concurrent
    writes to one path never share it; a failed write leaves no temporary.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_WRITE_IDS)}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_price_series(path) -> PriceSeries:
    """Load and validate a ``date,close`` CSV.

    Any unparsable, non-finite or non-positive row is an error naming the
    offending row (1-based, counting the header as row 1).
    """
    path = Path(path)
    if not path.exists():
        raise PriceDataError(f"price file not found: {path}")
    dates: list[np.datetime64] = []
    closes: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PriceDataError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header[:2]] != ["date", "close"]:
            raise PriceDataError(f"{path}: expected header 'date,close', got {header!r}")
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise PriceDataError(f"{path}: row {i}: expected 2 columns, got {len(row)}")
            try:
                date = np.datetime64(row[0].strip(), "D")
            except ValueError:
                raise PriceDataError(f"{path}: row {i}: bad date {row[0]!r}") from None
            try:
                close = float(row[1])
            except ValueError:
                raise PriceDataError(f"{path}: row {i}: non-numeric close {row[1]!r}") from None
            if not math.isfinite(close) or close <= 0:
                reason = "non-positive" if math.isfinite(close) else "non-finite"
                raise PriceDataError(f"{path}: row {i}: {reason} close {row[1]!r}")
            dates.append(date)
            closes.append(close)
    try:
        return PriceSeries(dates=np.array(dates), closes=np.array(closes))
    except PriceDataError as exc:
        raise PriceDataError(f"{path}: {exc}") from None


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """First differences of log closes: values[i] = ln(closes[i+1]) - ln(closes[i])."""
    return ReturnSeries(values=np.diff(np.log(prices.closes)))
