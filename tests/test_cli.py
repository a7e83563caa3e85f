import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import ifalign
from ifalign import cli
from ifalign import io as ifio
from ifalign.simulate import ScenarioConfig, simulation_sensor_defaults


@pytest.fixture()
def short_config(tmp_path):
    cfg = ScenarioConfig(duration_s=8.0)
    errors = simulation_sensor_defaults(seed=21)
    path = tmp_path / "scenario.yaml"
    ifio.save_config(path, cfg, errors)
    return path


class TestSimulateVerb:
    def test_writes_logs(self, short_config, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate", "--config", str(short_config), "--out", str(out)]
        )
        assert rc == 0
        for name in ("imu.csv", "gps.csv", "truth.csv", "scenario_used.yaml"):
            assert (out / name).exists()
        t, dtheta, dv = ifio.read_imu(out / "imu.csv")
        assert t.size == 800  # 8 s at 100 Hz

    def test_gps_interval_flag(self, short_config, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate", "--config", str(short_config), "--out", str(out),
             "--gps-interval", "0.5"]
        )
        assert rc == 0
        t, v, p = ifio.read_gps(out / "gps.csv")
        assert t.size == 17  # 8 s at 2 Hz inclusive

    @pytest.mark.parametrize("interval", ["0", "-0.5"])
    def test_gps_interval_must_be_positive(self, interval, short_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(short_config), "--out", str(out),
                       "--gps-interval", interval])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stride must be a positive multiple")
        assert err.count("\n") == 1
        assert not out.exists()


class TestAlignVerb:
    def test_simulation_mode_both_methods(self, short_config, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = cli.main(
            ["align", "--config", str(short_config), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "report_vif.csv").exists()
        assert (out / "report_pif.csv").exists()
        text = capsys.readouterr().out
        assert "[vif]" in text and "[pif]" in text

    def test_replay_mode(self, short_config, tmp_path):
        logs = tmp_path / "logs"
        cli.main(["simulate", "--config", str(short_config), "--out", str(logs)])
        rc = cli.main(
            [
                "align",
                "--method", "vif",
                "--imu", str(logs / "imu.csv"),
                "--gps", str(logs / "gps.csv"),
                "--truth", str(logs / "truth.csv"),
                "--out", str(tmp_path / "rep"),
            ]
        )
        assert rc == 0
        report = (tmp_path / "rep" / "report_vif.csv").read_text()
        assert "yaw_err_deg" in report

    def test_empty_gps_log_exit_code(self, short_config, tmp_path, capsys):
        logs = tmp_path / "logs"
        cli.main(["simulate", "--config", str(short_config), "--out", str(logs)])
        (logs / "gps.csv").write_text(ifio.GPS_HEADER + "\n")
        rc = cli.main(["align", "--imu", str(logs / "imu.csv"),
                       "--gps", str(logs / "gps.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: GPS log holds no fixes\n"

    def test_format_error_exit_code(self, tmp_path):
        bad = tmp_path / "imu.csv"
        bad.write_text("garbage\n")
        gps = tmp_path / "gps.csv"
        gps.write_text(ifio.GPS_HEADER + "\n0,0.5,0,0,0,0,0\n")
        rc = cli.main(
            ["align", "--method", "vif", "--imu", str(bad), "--gps", str(gps)]
        )
        assert rc == 2

    def test_determinism_bitwise_reports(self, short_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(
                ["align", "--config", str(short_config), "--method", "vif",
                 "--out", str(out), "--seed", "9"]
            )
            outs.append((out / "report_vif.csv").read_bytes())
        assert outs[0] == outs[1]


class TestMonteCarloVerb:
    def test_small_batch(self, short_config, tmp_path, capsys):
        rc = cli.main(
            ["montecarlo", "--config", str(short_config), "--runs", "3",
             "--method", "vif", "--epochs", "5,8", "--jobs", "1",
             "--out", str(tmp_path / "mc")]
        )
        assert rc == 0
        assert (tmp_path / "mc" / "montecarlo_vif.csv").exists()
        assert "method=vif" in capsys.readouterr().out


    def test_summary_csv_bytes(self, tmp_path):
        from ifalign.harness import McSummary

        summary = McSummary(
            method="vif", epochs=np.array([10.0, 300.0]),
            mean_deg=np.array([[1 / 7, -0.0, 2e-9], [-3.5, 1e3, 0.125]]),
            three_sigma_deg=np.array([[29.2105908, 0.5, 1e-17], [0.1, 0.2, 0.116263]]),
            n_runs=100, failed=[],
        )
        cli._write_summary_csv(tmp_path / "mc.csv", summary)
        assert (tmp_path / "mc.csv").read_text() == (
            "epoch_s,roll_mean_deg,roll_3sigma_deg,pitch_mean_deg,pitch_3sigma_deg,"
            "yaw_mean_deg,yaw_3sigma_deg\n"
            "10,0.142857142857,29.2105908,-0,0.5,2e-09,1e-17\n"
            "300,-3.5,0.1,1000,0.2,0.125,0.116263\n"
        )


class TestOracleVerb:
    def test_reference_output(self, short_config, capsys):
        rc = cli.main(
            ["oracle", "--config", str(short_config), "--t-end", "2.0",
             "--substep", "0.01", "--richardson"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "alpha_v" in text and "substep halving" in text

    @pytest.mark.parametrize("substep", ["0", "-0.01"])
    def test_substep_must_be_positive(self, substep, short_config, capsys):
        rc = cli.main(["oracle", "--config", str(short_config), "--t-end", "0.1",
                       "--substep", substep])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: substep must be positive")
        assert err.count("\n") == 1

    def test_negative_end_is_refused(self, short_config, capsys):
        rc = cli.main(["oracle", "--config", str(short_config), "--t-end", "-1",
                       "--substep", "0.01"])
        assert rc == 2
        assert capsys.readouterr().err == "error: t_end must not be negative, got -1 s\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["montecarlo", "--jobs", "0"],
        ["montecarlo", "--runs", "1"],
        ["montecarlo", "--epochs", "5,abc"],
        ["montecarlo", "--duration", "10", "--runs", "2", "--epochs", "5.5"],
        ["montecarlo", "--duration", "10", "--runs", "2", "--epochs", "5,20"],
        ["align", "--duration", "1", "--report-interval", "0.03"],
        ["align", "--duration", "1", "--report-interval", "2"],
    ],
    ids=["mc-jobs-0", "mc-runs-1", "mc-epochs-abc", "mc-epoch-off-grid",
         "mc-epoch-after-end", "align-report-interval", "align-no-report-row"],
)
def test_invalid_argument_value_exit_code(argv, monkeypatch, capsys):
    from ifalign import harness

    def no_pool(*args, **kwargs):
        raise AssertionError("an invalid argument must not start a process")

    def no_truth(*args, **kwargs):
        raise AssertionError("an invalid Monte-Carlo epoch must not generate the truth")

    monkeypatch.setattr(harness, "_process_pool", no_pool)
    monkeypatch.setattr(harness, "generate_truth", no_truth)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("verb", ["align", "montecarlo"])
def test_negative_seed_exit_code(verb, monkeypatch, capsys):
    from ifalign import harness

    def no_work(*args, **kwargs):
        raise AssertionError("a negative seed must be refused before any run")

    monkeypatch.setattr(harness, "_mc_run", no_work)
    monkeypatch.setattr(harness, "generate_truth", no_work)
    monkeypatch.setattr(cli, "generate_truth", no_work)
    assert cli.main([verb, "--seed", "-1", "--duration", "10"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


@pytest.mark.parametrize("verb", ["simulate", "align"])
def test_negative_run_index_exit_code(verb, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a negative run index must be refused before any run")

    monkeypatch.setattr(cli, "generate_truth", no_work)
    argv = [verb, "--run-index", "-1", "--duration", "10"]
    if verb == "simulate":
        argv += ["--out", str(tmp_path / "logs")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: run index must be nonnegative\n"


@pytest.mark.parametrize(
    "argv, value",
    [
        (["align", "--duration", "2", "--report-interval", "inf"], "inf"),
        (["align", "--duration", "2", "--report-interval", "nan"], "nan"),
        (["montecarlo", "--duration", "2", "--runs", "2", "--epochs", "1,inf"], "inf"),
        (["montecarlo", "--duration", "2", "--runs", "2", "--epochs", "1,nan"], "nan"),
    ],
    ids=["align-report-inf", "align-report-nan", "mc-epoch-inf", "mc-epoch-nan"],
)
def test_non_finite_report_interval_or_epoch_exit_code(argv, value, monkeypatch, capsys):
    from ifalign import harness

    def no_work(*args, **kwargs):
        raise AssertionError("a non-finite epoch must be refused before any run")

    monkeypatch.setattr(harness, "_mc_run", no_work)
    monkeypatch.setattr(harness, "generate_truth", no_work)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{value} s" in err


@pytest.mark.parametrize(
    "text, key",
    [
        ("scenario: {durationn_s: 10}", "scenario.durationn_s"),
        ("sensors: {lever_arm_m: 1.0}", "sensors.lever_arm_m"),
        ("sensors: {lever_arm_m: [1, 2]}", "lever_arm_m"),
        ("scenario: {attitude: {roll: 5}}", "scenario.attitude.roll"),
        ("scenario: [1, 2]", "scenario"),
        ("sensors: {seed: -1}", "sensors"),
    ],
    ids=["unknown-key", "arm-scalar", "arm-two-elements", "profile-scalar",
         "section-list", "negative-seed"],
)
def test_invalid_config_exit_code(text, key, tmp_path, monkeypatch, capsys):
    from ifalign import harness

    def no_truth(*args, **kwargs):
        raise AssertionError("an invalid config must not generate the truth")

    monkeypatch.setattr(harness, "generate_truth", no_truth)
    monkeypatch.setattr(cli, "generate_truth", no_truth)
    path = tmp_path / "scenario.yaml"
    path.write_text(text + "\n")
    assert cli.main(["align", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


@pytest.mark.parametrize("flag", ["--config", "--imu"])
def test_missing_file_exit_code(flag, tmp_path, capsys):
    gps = tmp_path / "gps.csv"
    gps.write_text(ifio.GPS_HEADER + "\n0,0.5,0,0,0,0,0\n")
    missing = tmp_path / "missing.file"
    argv = ["align", flag, str(missing)] + (["--gps", str(gps)] if flag == "--imu" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


@pytest.mark.parametrize("flag", ["--imu", "--gps"])
def test_replay_log_without_its_partner_exit_code(flag, tmp_path, capsys):
    assert cli.main(["align", flag, str(tmp_path / "log.csv")]) == 2
    assert capsys.readouterr().err == "error: --imu and --gps must be given together\n"


def test_non_ascii_log_byte_exit_code(tmp_path, capsys):
    imu, gps = tmp_path / "imu.csv", tmp_path / "gps.csv"
    imu.write_bytes((ifio.IMU_HEADER + "\n0.01,0,0,0,0,0,0\n0.02,0,").encode("ascii")
                    + b"\xc3\xa9,0,0,0,0\n")
    gps.write_text(ifio.GPS_HEADER + "\n0,0.5,0,0,0,0,0\n")
    assert cli.main(["align", "--imu", str(imu), "--gps", str(gps)]) == 2
    assert capsys.readouterr().err == (
        f"error: {imu}: line 3: non-ASCII byte 0xc3 at column 8\n"
    )


def test_partial_config_is_default_plus_its_keys(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("scenario: {duration_s: 4}\n")
    assert cli.main(["align", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["align", "--duration", "4", "--out", str(tmp_path / "b")]) == 0
    for method in ("vif", "pif"):
        name = f"report_{method}.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_console_entry_point(tmp_path):
    # the subprocess imports the same ifalign as this process
    src = str(Path(ifalign.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    rc = subprocess.run(
        [sys.executable, "-m", "ifalign.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert rc.returncode == 0
    assert "montecarlo" in rc.stdout
