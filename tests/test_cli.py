import json

import numpy as np
import pytest

from farmerjoshi import cli
from farmerjoshi.cli import main
from farmerjoshi.data_io import load_price_series, log_returns
from farmerjoshi.market import DEFAULT_PARAMETERS, BlowUpError
from farmerjoshi.weighting import cached_weight_matrix


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
        "--bootstrap", "--bootstrap-replicates", "40", "--block-len", "50",
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

    def test_missing_weights_without_bootstrap(self, empirical_csv_session, outdir):
        code = run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--out", outdir, "--optimizer", "ga")
        assert code == 2

    def test_damaged_cache_exits_2_and_bootstrap_rebuilds_it(self, calibrated, tmp_path,
                                                             empirical_csv_session, capsys):
        (good,) = (calibrated / "weights-cache").glob("weights-*.json")
        damaged = tmp_path / "cache" / good.name
        damaged.parent.mkdir()
        damaged.write_text(good.read_text()[:40])
        args = ["calibrate", "--empirical", empirical_csv_session, "--variant", "adaptive",
                "--cache-dir", damaged.parent, "--bootstrap-replicates", 40,
                "--block-len", 50, "--population", 6, "--generations", 1,
                "--objective-sims", 1, "--sim-days", 300, "--seed", 3]
        assert run_cli(*args, "--out", tmp_path / "a") == 2
        assert str(damaged) in capsys.readouterr().err
        assert run_cli(*args, "--bootstrap", "--out", tmp_path / "b") == 0
        assert damaged.read_text() == good.read_text()

    def test_unknown_optimizer_usage_error(self, empirical_csv_session, outdir):
        code = run_cli("calibrate", "--empirical", empirical_csv_session,
                       "--optimizer", "gradient", "--out", outdir)
        assert code == 2

    def test_nmta_zero_thresholds_equals_plain_nm(self, empirical_csv_session,
                                                  calibrated, tmp_path):
        common = ["--empirical", str(empirical_csv_session),
                  "--variant", "adaptive",
                  "--cache-dir", str(calibrated / "weights-cache"),
                  "--block-len", "50", "--bootstrap-replicates", "40",
                  "--objective-sims", "1", "--sim-days", "300",
                  "--max-iters", "25", "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["calibrate", *common, "--optimizer", "nmta",
                     "--thresholds", "0", "--out", str(out_a)]) == 0
        assert main(["calibrate", *common, "--optimizer", "nm",
                     "--out", str(out_b)]) == 0
        trace_a = (out_a / "fitness_trace.csv").read_text()
        trace_b = (out_b / "fitness_trace.csv").read_text()
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert strip(trace_a) == strip(trace_b)
        doc_a = json.loads((out_a / "calibration.json").read_text())
        doc_b = json.loads((out_b / "calibration.json").read_text())
        assert doc_a["theta"] == doc_b["theta"]

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
        assert doc["replication_failures"] == [] and doc["runs_succeeded"] == 2

    def test_replication_failures_written(self, empirical_csv_session, calibrated,
                                          tmp_path, monkeypatch):
        real, seeds = cli.run_optimizer, []

        def run_optimizer(optimizer, objective, space, seed, **kwargs):
            seeds.append(seed)
            if len(seeds) == 1:
                raise BlowUpError(f"log price 60.0 diverged at day 3 (stub, seed {seed})")
            return real(optimizer, objective, space, seed, **kwargs)

        monkeypatch.setattr(cli, "run_optimizer", run_optimizer)
        out = tmp_path / "rep"
        code = main(["calibrate", "--empirical", str(empirical_csv_session),
                     "--variant", "standard", "--optimizer", "ga",
                     "--cache-dir", str(calibrated / "weights-cache"),
                     "--block-len", "50", "--bootstrap-replicates", "40",
                     "--population", "4", "--generations", "1",
                     "--objective-sims", "1", "--sim-days", "300",
                     "--replications", "3", "--seed", "5", "--out", str(out)])
        assert code == 0 and len(seeds) == 3
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["replication_failures"] == [{
            "seed": seeds[0], "error": "BlowUpError",
            "message": f"log price 60.0 diverged at day 3 (stub, seed {seeds[0]})"}]
        assert doc["runs_succeeded"] == 2

    def test_replication_failures_written_when_too_few_succeed(
            self, empirical_csv_session, calibrated, tmp_path, monkeypatch, capsys):
        seeds = []

        def run_optimizer(optimizer, objective, space, seed, **kwargs):
            seeds.append(seed)
            raise BlowUpError(f"log price 60.0 diverged at day 3 (stub, seed {seed})")

        monkeypatch.setattr(cli, "run_optimizer", run_optimizer)
        out = tmp_path / "rep"
        code = main(["calibrate", "--empirical", str(empirical_csv_session),
                     "--variant", "standard", "--optimizer", "ga",
                     "--cache-dir", str(calibrated / "weights-cache"),
                     "--block-len", "50", "--bootstrap-replicates", "40",
                     "--objective-sims", "1", "--sim-days", "300",
                     "--replications", "3", "--seed", "5", "--out", str(out)])
        assert code == 1 and len(seeds) == 3
        assert "only 0/3 calibration runs succeeded" in capsys.readouterr().err
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["runs_succeeded"] == 0
        assert [f["seed"] for f in doc["replication_failures"]] == seeds
        assert {f["error"] for f in doc["replication_failures"]} == {"BlowUpError"}
        assert doc["objective"]["replications"] == 1 and "theta" not in doc
        assert not (out / "replication_summary.csv").exists()


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
    # rejected before the missing weight matrix is looked for
    ("--bounds", '{"lam": [50, 5]}', "bounds for lam"),
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
    (["simulate", "--set", "lam=abc"], None, "--set"),
    # no weight matrix is cached: the flag is read before the matrix is looked for
    (["calibrate", "--thresholds", "abc"], None, "--thresholds"),
], ids=["weights-no-entries", "weights-asymmetric", "weights-wrong-shape",
        "set-not-a-number", "thresholds-not-numbers"])
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
        "block_len": 100, "bootstrap": False, "bootstrap_replicates": 1000,
        "bootstrap_seed": 0, "bounds": None, "cache_dir": None, "crossover_rate": 0.8,
        "elites": 1, "empirical": "e.csv", "generations": 100, "max_iters": 250,
        "mutation_scale": 0.1, "objective_seed": 0, "objective_sims": 10,
        "optimizer": "nmta", "out": None, "penalty": 1e12, "population": 40,
        "replications": None, "restarts": 1, "seed": 0, "shift_every": 10,
        "shift_scale": 0.15, "sim_days": None, "threshold_samples": 100,
        "thresholds": "0.5,0", "variant": "adaptive", "weights": None},
        "05d9ab80cce72998"),
    "report": (["report", "--calibration", "c.json", "--empirical", "e.csv"], {
        "calibration": "c.json", "days": None, "empirical": "e.csv", "max_lag": 50,
        "out": None, "qq_points": 99, "seed": 0, "simulations": 20},
        "e2a37e43daf1a41d"),
    "surface": (["surface", "--empirical", "e.csv", "--x", "lam", "--y", "a",
                 "--variant", "standard"], {
        "block_len": 100, "bootstrap": False, "bootstrap_replicates": 1000,
        "bootstrap_seed": 0, "bounds": None, "cache_dir": None, "calibration": None,
        "empirical": "e.csv", "grid": "10x10", "objective_seed": 0,
        "objective_sims": 10, "out": None, "penalty": 1e12, "seed": 0,
        "sim_days": None, "variant": "standard", "weights": None, "x": "lam",
        "y": "a"}, "35dac5453155c8d3"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_resolved_config_pinned(command):
    argv, expected, digest = RESOLVED[command]
    _, resolved = cli._resolve(argv)
    assert resolved == expected
    assert cli.config_hash(resolved) == digest


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

    def test_bad_grid_spec(self, calibrated, empirical_csv_session, tmp_path):
        code = main(["surface", "--empirical", str(empirical_csv_session),
                     "--cache-dir", str(calibrated / "weights-cache"),
                     "--block-len", "50", "--bootstrap-replicates", "40",
                     "--objective-sims", "1", "--sim-days", "300",
                     "--x", "a", "--y", "lam", "--grid", "tenxten",
                     "--out", str(tmp_path / "s3")])
        assert code == 2


class TestOutputDirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("FARMERJOSHI_OUT", str(target))
        assert run_cli("simulate", "--days", 30, "--seed", 1) == 0
        assert (target / "simulation.csv").exists()
