import dataclasses
import json

import numpy as np
import pytest

from farmerjoshi import calibration, cli, weighting
from farmerjoshi.cli import main
from farmerjoshi.data_io import load_price_series, log_returns
from farmerjoshi.market import DEFAULT_PARAMETERS
from farmerjoshi.optimize import GAParams, NMTAParams
from farmerjoshi.stats import MIN_OBSERVATIONS, N_MOMENTS, StatisticError, moment_vector
from farmerjoshi.weighting import WeightMatrix, cached_weight_matrix


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_csv_bytes(path):
    return path.read_bytes()


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestSimulateCommand:
    def test_deterministic_byte_identical(self, outdir, tmp_path):
        assert run_cli("simulate", "--variant", "adaptive", "--seed", 7,
                       "--days", 400, "--out", outdir) == 0
        first = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert run_cli("simulate", "--variant", "adaptive", "--seed", 7,
                       "--days", 400, "--out", outdir) == 0
        second = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert first == second
        assert "simulation.csv" in first and "summary.json" in first

    def test_days_zero_usage_error(self, outdir):
        assert run_cli("simulate", "--days", 0, "--out", outdir) == 2

    def test_missing_empirical_exit_2(self, outdir, capsys):
        code = run_cli("simulate", "--days", 300, "--empirical", "/no/such.csv",
                       "--out", outdir)
        assert code == 2
        assert "/no/such.csv" in capsys.readouterr().err
        # the series is read before the simulation, so nothing is written
        assert not outdir.exists()

    def test_summary_contains_moments(self, outdir):
        assert run_cli("simulate", "--days", 400, "--seed", 3, "--out", outdir) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["moments"] is not None
        assert doc["moments"]["ks_stat"] == 0.0
        assert doc["meta"]["config_hash"]

    def test_param_overrides(self, outdir):
        assert run_cli("simulate", "--days", 50, "--set", "n_traders=12",
                       "--set", "sigma_zeta=0.0", "--out", outdir) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["parameters"]["n_traders"] == 12
        assert doc["parameters"]["sigma_zeta"] == 0.0

    def test_unknown_param_override(self, outdir):
        assert run_cli("simulate", "--days", 50, "--set", "bogus=1",
                       "--out", outdir) == 2

    def test_config_file_with_flag_override(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 60, "seed": 9, "variant": "standard"}))
        assert run_cli("simulate", "--config", cfg, "--days", 80,
                       "--out", outdir) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["days"] == 80  # flag wins
        assert doc["variant"] == "standard"  # from config file

    def test_unknown_config_key(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dayz": 60}))
        assert run_cli("simulate", "--config", cfg, "--out", outdir) == 2

    def test_config_value_parsed_as_the_flag(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": "50"}))
        assert run_cli("simulate", "--config", cfg, "--out", outdir) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["days"] == 50

    def test_command_line_set_replaces_config_set(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 50, "set": ["n_traders=12", "lam=20"]}))
        assert run_cli("simulate", "--config", cfg, "--out", outdir) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert (doc["parameters"]["n_traders"], doc["parameters"]["lam"]) == (12, 20)
        assert run_cli("simulate", "--config", cfg, "--set", "lam=30",
                       "--out", outdir) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["parameters"]["lam"] == 30
        assert doc["parameters"]["n_traders"] == DEFAULT_PARAMETERS.n_traders


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory, empirical_csv_session):
    """A tiny end-to-end calibration shared by report/surface tests."""
    out = tmp_path_factory.mktemp("calib")
    code = main([
        "calibrate", "--empirical", str(empirical_csv_session),
        "--variant", "adaptive", "--optimizer", "ga",
        "--bootstrap-replicates", "40", "--block-len", "50",
        "--population", "6", "--generations", "2",
        "--objective-sims", "1", "--sim-days", "300",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    return out


class TestCalibrateCommand:
    def test_end_to_end_smoke(self, calibrated):
        doc = json.loads((calibrated / "calibration.json").read_text())
        assert doc["optimizer"] == "ga"
        assert np.isfinite(doc["fitness"])
        assert set(doc["theta"]) == set(
            ["n_traders", "lam", "a", "d_min", "d_max", "mu_eta", "sigma_eta",
             "sigma_zeta", "T_min", "T_max", "tau_min", "tau_max", "v_min",
             "v_max", "gamma", "horizon"])
        assert doc["objective"]["weight_metadata"]["replicates"] == 40
        trace = (calibrated / "fitness_trace.csv").read_text()
        assert trace.count("\n") >= 4

    def test_weights_cache_shared_with_library(self, calibrated, empirical_csv_session):
        cache = calibrated / "weights-cache"
        files = sorted(cache.glob("weights-*.json"))
        assert len(files) == 1
        emp = log_returns(load_price_series(empirical_csv_session))
        wm = cached_weight_matrix(emp, cache, block_len=50, replicates=40, seed=0)
        assert sorted(cache.glob("weights-*.json")) == files
        assert wm.metadata["replicates"] == 40

    def test_damaged_cache_is_rebuilt(self, calibrated, tmp_path, empirical_csv_session):
        (good,) = (calibrated / "weights-cache").glob("weights-*.json")
        damaged = tmp_path / "cache" / good.name
        damaged.parent.mkdir()
        damaged.write_text(good.read_text()[:40])
        assert run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--variant", "adaptive", "--cache-dir", damaged.parent,
                       "--bootstrap-replicates", 40, "--block-len", 50,
                       "--population", 6, "--generations", 1, "--objective-sims", 1,
                       "--sim-days", 300, "--seed", 3, "--out", tmp_path / "out") == 0
        assert damaged.read_text() == good.read_text()

    @pytest.mark.parametrize("flags, expected", [
        (("--population", 3), "GA settings: population must be >= 4"),
        (("--generations", -1), "GA settings: generations must be >= 0"),
        (("--restarts", 0), "NMTA settings: restarts must be >= 1"),
        (("--max-iters", -1), "NMTA settings: max_iters must be >= 0"),
        (("--threshold-samples", -1), "NMTA settings: threshold_samples must be >= 1"),
        # plain Nelder-Mead is --thresholds 0 alone
        (("--threshold-samples", 0), "NMTA settings: threshold_samples must be >= 1"),
        (("--shift-every", 0), "NMTA settings: shift_every must be >= 1"),
        (("--thresholds", "nan"), "NMTA settings: thresholds must be a non-empty sequence"),
        (("--thresholds=-1",), "NMTA settings: thresholds must be a non-empty sequence"),
    ], ids=["population-3", "generations-minus-1", "restarts-0", "max-iters-minus-1",
            "threshold-samples-minus-1", "threshold-samples-0", "shift-every-0",
            "thresholds-nan", "thresholds-negative"])
    def test_bad_ga_settings_exit_2_before_any_work(self, flags, expected,
                                                    empirical_csv_session, outdir, capsys):
        code = run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--bootstrap-replicates", 40, "--block-len", 50,
                       "--generations", 1, *flags, "--out", outdir)
        assert code == 2
        assert expected in capsys.readouterr().err
        assert not (outdir / "weights-cache").exists()

    @pytest.mark.parametrize("flags, with_empirical", [
        (("--population", 3), True),
        (("--thresholds", "a,b"), True),
        ((), False),
        # the removed switch is an ambiguous prefix of two bootstrap flags
        (("--bootstrap",), True),
    ], ids=["population-3", "thresholds-not-numbers", "no-empirical", "bootstrap-switch"])
    def test_usage_error_creates_no_output_directory(self, flags, with_empirical,
                                                     empirical_csv_session, outdir):
        empirical = ("--empirical", empirical_csv_session) if with_empirical else ()
        code = run_cli("calibrate", *empirical, "--bootstrap-replicates", 40,
                       "--block-len", 50, *flags, "--out", outdir)
        assert code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("flags, expected", [
        (("--objective-sims", 0), "replications must be >= 1"),
        (("--block-len", 1), "block_len must be >= 2"),
        (("--block-len", 5000), "block_len 5000 exceeds series length 599"),
        (("--bootstrap-replicates", 5), f"need at least {N_MOMENTS + 1} replicates"),
    ], ids=["objective-sims-0", "block-len-1", "block-len-above-series", "replicates-5"])
    def test_bad_objective_or_bootstrap_settings_exit_2_before_any_replicate(
            self, flags, expected, empirical_csv_session, outdir, capsys, monkeypatch):
        monkeypatch.setattr(weighting, "moment_vector", None)  # never reached
        code = run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--bootstrap-replicates", 40, "--block-len", 50, "--population", 4,
                       "--generations", 1, "--objective-sims", 1, "--sim-days", 300, *flags,
                       "--out", outdir)
        assert code == 2
        assert expected in capsys.readouterr().err
        assert not (outdir / "weights-cache").exists()

    def test_failed_bootstrap_estimate_exits_1(self, empirical_csv_session, outdir,
                                               capsys, monkeypatch):
        def moment_vector(replicate, emp):
            raise StatisticError("zero variance", component="adf")

        monkeypatch.setattr(weighting, "moment_vector", moment_vector)
        code = run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--bootstrap-replicates", 40, "--block-len", 50, "--out", outdir)
        assert code == 1
        assert "40/40 bootstrap replicates failed" in capsys.readouterr().err

    def test_unknown_optimizer_usage_error(self, empirical_csv_session, outdir, capsys):
        # plain Nelder-Mead is `--optimizer nmta --thresholds 0`, not an optimizer of its own
        for optimizer in ("gradient", "nm"):
            code = run_cli("calibrate", "--empirical", empirical_csv_session,
                           "--optimizer", optimizer, "--out", outdir)
            assert code == 2, optimizer
            assert f"invalid choice: '{optimizer}'" in capsys.readouterr().err

    @pytest.mark.parametrize("replications", [-5, 0, 1])
    def test_replications_below_2_exit_2_before_any_output(
            self, replications, empirical_csv_session, outdir, capsys):
        code = run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--replications", replications, "--out", outdir)
        assert code == 2
        assert "--replications must be at least 2" in capsys.readouterr().err
        assert not outdir.exists()

    def test_replications_summary_table(self, empirical_csv_session, calibrated,
                                        tmp_path):
        out = tmp_path / "rep"
        code = main(["calibrate", "--empirical", str(empirical_csv_session),
                     "--variant", "adaptive", "--optimizer", "ga",
                     "--cache-dir", str(calibrated / "weights-cache"),
                     "--block-len", "50", "--bootstrap-replicates", "40",
                     "--population", "6", "--generations", "1",
                     "--objective-sims", "1", "--sim-days", "300",
                     "--replications", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        lines = [ln for ln in (out / "replication_summary.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "parameter,point,lower_95,upper_95"
        assert lines[-1].startswith("fitness,")
        assert len(lines) == 1 + 16 + 1
        doc = json.loads((out / "calibration.json").read_text())
        assert set(doc) == {"meta", "optimizer", "variant", "theta", "fitness",
                            "evaluations", "optimizer_seed", "objective"}
        # calibration.json holds the run the summary's point column reports
        point = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert doc["theta"] == {name: point[name] for name in doc["theta"]}
        assert doc["fitness"] == point["fitness"]


@pytest.mark.parametrize("flag, content, expected", [
    ("--config", "{not json", "input.json"),
    ("--params", "{not json", "input.json"),
    ("--bounds", None, "input.json"),
    ("--bounds", "{not json", "input.json"),
    ("--bounds", '{"lamda": [1, 2]}', "lamda"),
    ("--weights", "{not json", "input.json"),
    ("--calibration", "{not json", "input.json"),
    # valid JSON of the wrong shape
    ("--config", "5", "input.json"),
    ("--config", '["days"]', "input.json"),
    ("--bounds", "[1, 2]", "input.json"),
    ("--bounds", '{"lam": 5}', "bounds for lam"),
    # rejected before any weight matrix is read or built
    ("--bounds", '{"lam": [50, 5]}', "bounds for lam"),
    ("--bounds", '{"d_min": [30, 40], "d_max": [10, 20]}', "bounds forbid d_min <= d_max"),
    ("--bounds", '{"horizon": [5.5, 100]}', "bounds for horizon must be integers"),
    ("--calibration", '{"theta": 5, "variant": "adaptive"}', "input.json"),
    # model parameters that are not numbers
    ("--params", '{"lam": "x"}', "lam"),
    ("--calibration", '{"theta": {"lam": "x"}, "variant": "adaptive"}', "lam"),
    ("--calibration", '{"theta": {"n_traders": "10"}, "variant": "adaptive"}', "n_traders"),
])
def test_bad_json_input_usage_error(flag, content, expected, empirical_csv_session,
                                    tmp_path, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    command = {"--params": "simulate", "--calibration": "report"}.get(flag, "calibrate")
    code = run_cli(command, flag, path, "--empirical", empirical_csv_session,
                   "--out", tmp_path / "out")
    assert code == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("argv, weights, expected", [
    (["calibrate", "--weights"], {"metadata": {}}, "w.json"),
    (["calibrate", "--weights"], {"entries": [[1, 2], [3, 4]], "metadata": {}}, "w.json"),
    (["calibrate", "--weights"], {"entries": [[1, 0], [0, 1]], "metadata": {}},
     "weight matrix is (2, 2)"),
    (["calibrate", "--weights"], {"entries": [[1, 0]], "metadata": {}}, "must be square"),
    (["calibrate", "--weights"], {"entries": [[float("nan")]], "metadata": {}},
     "must be finite"),
    (["calibrate", "--weights"], {"entries": [[1, 2], [2, 1]], "metadata": {}}, "not PSD"),
    (["simulate", "--set", "lam=abc"], None, "--set"),
    (["simulate", "--set", "lam"], None, "--set expects name=value, got 'lam'"),
    # the flag is read before any weight matrix is read or built
    (["calibrate", "--thresholds", "abc"], None, "--thresholds"),
    (["report"], None, "--calibration FILE is required"),
    (["surface", "--x", "a"], None, "--x and --y parameter names are required"),
], ids=["weights-no-entries", "weights-asymmetric", "weights-wrong-shape",
        "weights-not-square", "weights-not-finite", "weights-not-psd",
        "set-not-a-number", "set-without-value", "thresholds-not-numbers",
        "report-without-calibration", "surface-without-y"])
def test_bad_input_usage_error(argv, weights, expected, empirical_csv_session,
                               tmp_path, capsys):
    if weights is not None:
        path = tmp_path / "w.json"
        path.write_text(json.dumps(weights))
        argv = [*argv, path]
    code = run_cli(*argv, "--empirical", empirical_csv_session, "--out", tmp_path / "out")
    assert code == 2
    assert expected in capsys.readouterr().err


COMMANDS = ("simulate", "calibrate", "report", "surface")


#: One argv per command, its resolved config and that config's hash, which
#: every output's ``meta`` block carries.
RESOLVED = {
    "simulate": (["simulate", "--days", "50", "--set", "lam=20"], {
        "days": 50, "empirical": None, "out": None, "p0": 0.0, "params": None,
        "seed": 0, "set": ["lam=20"], "variant": "adaptive"}, "9a49c9168efaf9b2"),
    "calibrate": (["calibrate", "--empirical", "e.csv", "--optimizer", "nmta",
                   "--thresholds", "0.5,0"], {
        "block_len": 100, "bootstrap_replicates": 1000,
        "bootstrap_seed": 0, "bounds": None, "cache_dir": None,
        "empirical": "e.csv", "generations": 100, "max_iters": 250,
        "objective_seed": 0, "objective_sims": 10,
        "optimizer": "nmta", "out": None, "population": 40,
        "replications": None, "restarts": 1, "seed": 0, "shift_every": 10,
        "shift_scale": 0.15, "sim_days": None, "threshold_samples": 100,
        "thresholds": "0.5,0", "variant": "adaptive", "weights": None},
        "42efc8551dac38a9"),
    "report": (["report", "--calibration", "c.json", "--empirical", "e.csv"], {
        "calibration": "c.json", "days": None, "empirical": "e.csv", "max_lag": 50,
        "out": None, "qq_points": 99, "seed": 0, "simulations": 20},
        "e2a37e43daf1a41d"),
    "surface": (["surface", "--empirical", "e.csv", "--x", "lam", "--y", "a",
                 "--variant", "standard"], {
        "block_len": 100, "bootstrap_replicates": 1000,
        "bootstrap_seed": 0, "bounds": None, "cache_dir": None, "calibration": None,
        "empirical": "e.csv", "grid": "10x10", "objective_seed": 0,
        "objective_sims": 10, "out": None, "seed": 0,
        "sim_days": None, "variant": "standard", "weights": None, "x": "lam",
        "y": "a"}, "6a41378b7a3a1530"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_resolved_config_pinned(command):
    argv, expected, digest = RESOLVED[command]
    _, resolved = cli._resolve(argv)
    assert resolved == expected
    assert cli.config_hash(resolved) == digest


def test_every_search_setting_is_a_calibrate_flag():
    # a searcher setting that no flag sets is a knob of the library alone
    flags = vars(cli.build_parser().parse_args(["calibrate"]))
    fields = {f.name for params in (GAParams, NMTAParams) for f in dataclasses.fields(params)}
    assert sorted(fields - set(flags)) == []


@pytest.mark.parametrize("command, flag", [
    *((command, "--seed") for command in COMMANDS),
    *((command, flag) for command in ("calibrate", "surface")
      for flag in ("--objective-seed", "--bootstrap-seed")),
])
def test_negative_seed_exits_2_before_any_output(command, flag, empirical_csv_session,
                                                 tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(command, flag, -1, "--empirical", empirical_csv_session, "--out", out)
    assert code == 2
    assert f"argument {flag}: invalid non_negative_int value: '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_empirical_series_exit_2(price_csv, tmp_path, capsys):
    # every command that reads the empirical moments rejects the series before
    # any weight matrix is read or built, or any simulation is run
    weights = tmp_path / "w.json"
    WeightMatrix(np.eye(N_MOMENTS)).save(weights)
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps({"variant": "adaptive", "theta": {}}))
    bootstrap = ("--bootstrap-replicates", 12, "--block-len", 50)
    cases = {
        "calibrate-weights": ("calibrate", "--weights", weights),
        "calibrate-bootstrap": ("calibrate", *bootstrap),
        "surface-bootstrap": ("surface", "--x", "lam", "--y", "a", *bootstrap),
        "report": ("report", "--calibration", calibration),
    }
    empirical = price_csv([100.0] * 300)
    for name, args in cases.items():
        out = tmp_path / name
        assert run_cli(*args, "--empirical", empirical, "--out", out) == 2, name
        assert "empirical series too degenerate to calibrate" in capsys.readouterr().err, name
        assert not (out / "weights-cache").exists(), name


@pytest.mark.parametrize("command", COMMANDS)
def test_config_file_equals_flags(command, tmp_path):
    # a config file of the argv's non-default values resolves as the argv does
    argv, expected, digest = RESOLVED[command]
    _, defaults = cli._resolve([command])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in expected.items() if v != defaults[k]}))
    _, resolved = cli._resolve([command, "--config", str(cfg)])
    assert resolved == expected
    assert cli.config_hash(resolved) == digest


@pytest.mark.parametrize("command, value, expected", [
    ("simulate", {"days": 50.7}, "--days"),
    ("simulate", {"variant": "adaptiv"}, "--variant"),
    ("surface", {"x": "lamda", "y": "a"}, "--x"),
    # the removed switch is not a key, and a JSON true is no value of --population
    ("calibrate", {"bootstrap": True}, "unknown config keys: ['bootstrap']"),
    ("calibrate", {"population": True}, "argument --population: invalid int value: 'True'"),
])
def test_config_value_rejected_as_the_flag(command, value, expected, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(value))
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
    assert expected in capsys.readouterr().err


class TestReportCommand:
    def test_report_files(self, calibrated, empirical_csv_session, tmp_path):
        out = tmp_path / "rep"
        code = main(["report", "--calibration", str(calibrated / "calibration.json"),
                     "--empirical", str(empirical_csv_session),
                     "--simulations", "3", "--days", "300", "--max-lag", "15",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"price_paths.csv", "return_paths.csv", "acf.csv", "qq.csv",
                "strategy_series.csv", "moments_table.csv"} <= names
        acf_lines = [ln for ln in (out / "acf.csv").read_text().splitlines()
                     if not ln.startswith("#")]
        assert len(acf_lines) == 16  # header + 15 lags

    def test_single_simulation_bands_collapse(self, calibrated,
                                              empirical_csv_session, tmp_path):
        out = tmp_path / "rep1"
        code = main(["report", "--calibration", str(calibrated / "calibration.json"),
                     "--empirical", str(empirical_csv_session),
                     "--simulations", "1", "--days", "300", "--out", str(out)])
        assert code == 0
        lines = [ln for ln in (out / "price_paths.csv").read_text().splitlines()
                 if not ln.startswith("#")][1:]
        for ln in lines:
            _, lo, med, hi, p0, _ = ln.split(",")
            assert lo == med == hi == p0

    def test_too_few_days_rejected_before_any_table(self, calibrated, empirical_csv_session,
                                                    outdir, capsys):
        for days in (MIN_OBSERVATIONS - 1, 0):  # 0 is a length, not "the empirical length"
            code = run_cli("report", "--calibration", calibrated / "calibration.json",
                           "--empirical", empirical_csv_session, "--simulations", 2,
                           "--days", days, "--out", outdir)
            assert code == 2, days
            assert f"at least {MIN_OBSERVATIONS}" in capsys.readouterr().err, days
            assert not outdir.exists(), days

    @pytest.mark.parametrize("flags, expected", [
        (("--max-lag", 0), "--max-lag must be at least 1 and below 599"),
        (("--max-lag", 599), "--max-lag must be at least 1 and below 599"),
        (("--max-lag", 700), "--max-lag must be at least 1 and below 599"),
        (("--days", 300, "--max-lag", 300), "--max-lag must be at least 1 and below 300"),
        (("--qq-points", 0), "--qq-points must be >= 1"),
        (("--qq-points", -3), "--qq-points must be >= 1"),
        (("--simulations", 0), "--simulations must be >= 1"),
    ])
    def test_bad_table_sizes_rejected_before_any_table(self, flags, expected, calibrated,
                                                       empirical_csv_session, outdir, capsys):
        code = run_cli("report", "--calibration", calibrated / "calibration.json",
                       "--empirical", empirical_csv_session, "--simulations", 2,
                       *flags, "--out", outdir)
        assert code == 2
        assert expected in capsys.readouterr().err
        assert not outdir.exists()

    def test_failing_path_statistic_writes_no_table(self, calibrated, empirical_csv_session,
                                                    outdir, monkeypatch, capsys):
        simulated = []

        def moment_vector(r_sim, r_emp):
            if r_sim is not r_emp:
                simulated.append(r_sim)
                if len(simulated) == 2:
                    raise StatisticError("zero variance", component="adf")
            return real_moment_vector(r_sim, r_emp)

        real_moment_vector = calibration.moment_vector
        monkeypatch.setattr(calibration, "moment_vector", moment_vector)
        code = run_cli("report", "--calibration", calibrated / "calibration.json",
                       "--empirical", empirical_csv_session, "--simulations", 3,
                       "--days", 300, "--out", outdir)
        assert code == 1
        assert "zero variance" in capsys.readouterr().err
        # every path is classified before the first failure is raised
        assert len(simulated) == 3
        assert not outdir.exists()

    def test_missing_calibration_usage_error(self, empirical_csv_session, outdir):
        assert run_cli("report", "--calibration", "/none.json",
                       "--empirical", empirical_csv_session, "--out", outdir) == 2


class TestSurfaceCommand:
    def test_grid_rows_and_determinism(self, calibrated, empirical_csv_session,
                                       tmp_path):
        out = tmp_path / "surf"
        args = ["surface", "--empirical", str(empirical_csv_session),
                "--variant", "adaptive",
                "--cache-dir", str(calibrated / "weights-cache"),
                "--block-len", "50", "--bootstrap-replicates", "40",
                "--objective-sims", "1", "--sim-days", "300",
                "--x", "a", "--y", "n_traders", "--grid", "3x3",
                "--out", str(out)]
        assert main(args) == 0
        body = [ln for ln in (out / "surface.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert body[0] == "a,n_traders,fitness"
        assert len(body) == 1 + 9
        first = (out / "surface.csv").read_bytes()
        assert main(args) == 0
        assert (out / "surface.csv").read_bytes() == first

    def test_calibration_supplies_the_base_theta(self, calibrated, empirical_csv_session,
                                                 tmp_path):
        out = tmp_path / "surf"
        assert run_cli("surface", "--empirical", empirical_csv_session,
                       "--variant", "adaptive", "--cache-dir", calibrated / "weights-cache",
                       "--block-len", 50, "--bootstrap-replicates", 40,
                       "--objective-sims", 1, "--sim-days", 300,
                       "--x", "lam", "--y", "a", "--grid", "2x2",
                       "--calibration", calibrated / "calibration.json", "--out", out) == 0
        rows = [ln.split(",") for ln in (out / "surface.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 4
        prices = load_price_series(empirical_csv_session)
        emp = log_returns(prices)
        space = calibration.ParameterSpace("adaptive")
        cfg = calibration.ObjectiveConfig(
            space=space, empirical_returns=emp,
            empirical_moments=moment_vector(emp, emp).as_array(),
            weight=cached_weight_matrix(emp, calibrated / "weights-cache",
                                        block_len=50, replicates=40, seed=0),
            replications=1, sim_days=300, p0=float(np.log(prices.closes[0])))
        theta = json.loads((calibrated / "calibration.json").read_text())["theta"]
        base = space.repair(np.array([theta[name] for name in space.names]))
        for x, y, f in rows:
            point = base.copy()
            point[space.index("lam")], point[space.index("a")] = float(x), float(y)
            assert float(f) == calibration.fitness(space.repair(point), cfg)

    def test_calibration_of_another_variant_exits_2(self, calibrated, empirical_csv_session,
                                                    outdir, capsys):
        code = run_cli("surface", "--empirical", empirical_csv_session,
                       "--variant", "standard", "--block-len", 50,
                       "--bootstrap-replicates", 40, "--objective-sims", 1, "--sim-days", 300,
                       "--x", "lam", "--y", "a", "--grid", "2x2",
                       "--calibration", calibrated / "calibration.json", "--out", outdir)
        assert code == 2
        err = capsys.readouterr().err
        assert "adaptive calibration" in err and "--variant standard" in err
        # rejected before any weight matrix is read or built
        assert not outdir.exists()

    def test_parameter_typo_lists_names(self, calibrated, empirical_csv_session,
                                        tmp_path, capsys):
        out = tmp_path / "surf2"
        code = main(["surface", "--empirical", str(empirical_csv_session),
                     "--cache-dir", str(calibrated / "weights-cache"),
                     "--block-len", "50", "--bootstrap-replicates", "40",
                     "--objective-sims", "1", "--sim-days", "300",
                     "--x", "liquidity", "--y", "a", "--grid", "2x2",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "lam" in err and "n_traders" in err

    @pytest.mark.parametrize("flags, expected", [
        (("--grid", "tenxten"), "bad --grid spec"),
        (("--grid", "3x3x7"), "bad --grid spec"),
        (("--grid", "1x3"), "grid must be at least 2x2"),
        (("--y", "a"), "surface parameters must differ"),
        # the standard variant never reads gamma, so it has no gamma axis
        (("--variant", "standard", "--x", "gamma"), "unknown parameter 'gamma'"),
    ], ids=["tenxten", "3x3x7", "1x3", "x-equals-y", "standard-gamma"])
    def test_bad_grid_spec(self, flags, expected, empirical_csv_session, outdir, capsys):
        code = run_cli("surface", "--empirical", empirical_csv_session,
                       "--block-len", 50, "--bootstrap-replicates", 40,
                       "--objective-sims", 1, "--sim-days", 300,
                       "--x", "a", "--y", "lam", "--grid", "3x3", *flags, "--out", outdir)
        assert code == 2
        assert expected in capsys.readouterr().err
        # rejected before any weight matrix is read or built
        assert not (outdir / "weights-cache").exists()


@pytest.mark.parametrize("command, flags", [
    ("calibrate", ["--population", 6, "--generations", 1]),
    ("surface", ["--x", "a", "--y", "lam", "--grid", "2x2"]),
], ids=["calibrate", "surface"])
def test_too_few_sim_days_rejected_before_any_simulation(command, flags, calibrated,
                                                         empirical_csv_session, outdir,
                                                         capsys):
    for sim_days in (MIN_OBSERVATIONS - 1, 0):  # 0 is a length, not "the empirical length"
        code = run_cli(command, "--empirical", empirical_csv_session,
                       "--cache-dir", calibrated / "weights-cache",
                       "--block-len", 50, "--bootstrap-replicates", 40, "--objective-sims", 1,
                       "--sim-days", sim_days, *flags, "--out", outdir)
        assert code == 2, sim_days
        assert f"at least {MIN_OBSERVATIONS}" in capsys.readouterr().err, sim_days
        assert not outdir.exists(), sim_days


class TestOutputDirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("FARMERJOSHI_OUT", str(target))
        assert run_cli("simulate", "--days", 30, "--seed", 1) == 0
        assert (target / "simulation.csv").exists()
