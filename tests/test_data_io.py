import csv
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farmerjoshi.data_io import (
    PriceDataError,
    PriceSeries,
    ReturnSeries,
    load_price_series,
    log_returns,
    write_atomic,
)


class TestLoadPriceSeries:
    def test_minimal_valid_file(self, price_csv):
        series = load_price_series(price_csv([100.0, 110.0]))
        assert len(series) == 2
        assert series.closes.tolist() == [100.0, 110.0]

    def test_negative_close_names_row(self, price_csv):
        path = price_csv([100.0, -5.0, 104.0])
        with pytest.raises(PriceDataError, match="row 3"):
            load_price_series(path)

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("date,close\n2015-01-01,100\n2015-01-01,101\n")
        with pytest.raises(PriceDataError, match="non-increasing dates"):
            load_price_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PriceDataError, match="not found"):
            load_price_series(tmp_path / "absent.csv")

    @pytest.mark.parametrize("close, reason", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
        ("0", "non-positive"), ("-5", "non-positive"),
    ])
    def test_bad_close_names_row_and_reason(self, close, reason, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"date,close\n2015-01-01,100\n2015-01-02,{close}\n")
        with pytest.raises(PriceDataError, match=re.escape(f"row 3: {reason} close '{close}'")):
            load_price_series(path)

    def test_non_numeric_close_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,close\n2015-01-01,100\n2015-01-02,oops\n")
        with pytest.raises(PriceDataError, match="row 3"):
            load_price_series(path)

    def test_bad_date_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,close\n2015-01-01,100\nnot-a-date,101\n")
        with pytest.raises(PriceDataError, match="row 3"):
            load_price_series(path)

    def test_too_few_rows(self, price_csv):
        with pytest.raises(PriceDataError, match="fewer than 2"):
            load_price_series(price_csv([100.0]))

    @pytest.mark.parametrize("text, expected", [
        ("", "empty file"),
        ("date,close\n2015-01-01,100\n2015-01-02\n", "row 3: expected 2 columns, got 1"),
    ], ids=["empty", "one-column-row"])
    def test_malformed_file_rejected(self, text, expected, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(PriceDataError, match=expected):
            load_price_series(path)

    def test_blank_rows_skipped(self, price_csv, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("date,close\n2015-01-01,100\n\n , \n2015-01-02,101\n")
        series = load_price_series(path)
        plain = load_price_series(price_csv([100.0, 101.0]))
        assert np.array_equal(series.dates, plain.dates)
        assert np.array_equal(series.closes, plain.closes)

    def test_header_required(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("2015-01-01,100\n2015-01-02,101\n")
        with pytest.raises(PriceDataError, match="header"):
            load_price_series(path)

    def test_roundtrip_idempotent(self, price_csv, tmp_path):
        series = load_price_series(price_csv([100.0, 101.5, 99.25, 107.125]))
        out = tmp_path / "again.csv"
        series.to_csv(out)
        again = load_price_series(out)
        assert np.array_equal(series.dates, again.dates)
        assert np.array_equal(series.closes, again.closes)

    def test_to_csv_bytes_equal_a_per_row_writer(self, tmp_path):
        # The dates cross 1970-01-01 and two 29 Februaries; the closes take
        # both of repr's notations.
        dates = np.concatenate([np.datetime64("1969-12-20") + np.arange(25),
                                np.datetime64("2000-02-27") + np.arange(4),
                                np.datetime64("2024-02-28") + np.arange(3)])
        closes = np.random.default_rng(0).lognormal(3.0, 1.0, len(dates))
        closes[:4] = [1e-7, 1e22, 0.1, 123456789.0]
        series = PriceSeries(dates=dates, closes=closes)
        series.to_csv(tmp_path / "series.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "close"])
            for d, c in zip(series.dates, series.closes):
                writer.writerow([np.datetime_as_string(d, unit="D"), repr(float(c))])
        assert ((tmp_path / "series.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())


class TestWriteAtomic:
    def test_a_write_completed_inside_another_leaves_the_outer_whole(self, tmp_path,
                                                                     monkeypatch):
        # Another writer to the same path finishes between this call's write
        # and its rename, as two runs sharing a cache directory can.
        target = tmp_path / "out.txt"
        write_text = Path.write_text

        def nested(self, text):
            written = write_text(self, text)
            if text == "A":
                write_atomic(target, "B")
            return written

        monkeypatch.setattr(Path, "write_text", nested)
        write_atomic(target, "A")
        assert target.read_text() == "A"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_a_failed_rename_leaves_no_temporary(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_atomic(tmp_path / "out.txt", "A")
        assert list(tmp_path.iterdir()) == []


class TestValidation:
    def test_nonpositive_close_rejected(self):
        dates = np.array(["2015-01-01", "2015-01-02"], dtype="datetime64[D]")
        with pytest.raises(PriceDataError):
            PriceSeries(dates=dates, closes=np.array([1.0, 0.0]))

    def test_nonfinite_return_rejected(self):
        with pytest.raises(PriceDataError):
            ReturnSeries(values=np.array([0.0, np.nan]))


class TestLogReturns:
    def test_constant_price(self):
        dates = np.datetime64("2015-01-01") + np.arange(3)
        series = PriceSeries(dates=dates, closes=np.array([100.0, 100.0, 100.0]))
        assert log_returns(series).values.tolist() == [0.0, 0.0]

    def test_e_fold_move(self):
        dates = np.datetime64("2015-01-01") + np.arange(2)
        series = PriceSeries(dates=dates, closes=np.array([100.0, 100.0 * math.e]))
        assert log_returns(series).values == pytest.approx([1.0], abs=1e-14)

    def test_direct_log_evaluation(self):
        dates = np.datetime64("2015-01-01") + np.arange(3)
        series = PriceSeries(dates=dates, closes=np.array([100.0, 110.0, 99.0]))
        expected = [math.log(1.1), math.log(99.0 / 110.0)]
        assert log_returns(series).values == pytest.approx(expected, rel=1e-15)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_cumsum_exp_recovers_closes(self, closes):
        dates = np.datetime64("2000-01-01") + np.arange(len(closes))
        series = PriceSeries(dates=dates, closes=np.array(closes))
        r = log_returns(series).values
        rebuilt = closes[0] * np.exp(np.cumsum(r))
        assert np.allclose(rebuilt, closes[1:], rtol=1e-12)
