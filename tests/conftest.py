import farmerjoshi  # noqa: F401  (first: it sets the BLAS thread count before numpy loads)
import numpy as np
import pytest

from farmerjoshi.data_io import ReturnSeries

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, name: str, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion."""
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def garch_returns(n: int, seed: int, alpha: float = 0.12, beta: float = 0.85,
                  omega: float = 2e-6, df: float | None = 5.0) -> np.ndarray:
    """Volatility-clustered synthetic daily returns for test inputs."""
    rng = np.random.default_rng(seed)
    if df is None:
        z = rng.standard_normal(n)
    else:
        z = rng.standard_t(df=df, size=n) / np.sqrt(df / (df - 2.0))
    r = np.empty(n)
    s2 = omega / (1.0 - alpha - beta)
    for t in range(n):
        r[t] = np.sqrt(s2) * z[t]
        s2 = omega + alpha * r[t] ** 2 + beta * s2
    return r


@pytest.fixture(scope="session")
def clustered_returns() -> ReturnSeries:
    """A 600-day clustered return series for mid-cost tests."""
    return ReturnSeries(garch_returns(600, seed=321))


@pytest.fixture()
def price_csv(tmp_path):
    """Factory writing a date,close CSV and returning its path."""
    def write(closes, name="prices.csv", start="2015-01-01"):
        path = tmp_path / name
        dates = np.datetime64(start) + np.arange(len(closes))
        lines = ["date,close"]
        lines += [f"{d},{c}" for d, c in zip(dates, closes)]
        path.write_text("\n".join(lines) + "\n")
        return path
    return write


@pytest.fixture(scope="session")
def empirical_csv_session(tmp_path_factory):
    """A 600-day clustered price CSV shared across CLI tests."""
    path = tmp_path_factory.mktemp("data") / "empirical.csv"
    r = garch_returns(600, seed=321)
    closes = 100.0 * np.exp(np.cumsum(r))
    dates = np.datetime64("2015-01-01") + np.arange(len(closes))
    lines = ["date,close"]
    lines += [f"{d},{repr(float(c))}" for d, c in zip(dates, closes)]
    path.write_text("\n".join(lines) + "\n")
    return path
