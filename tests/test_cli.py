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


BAD_INPUTS = [
    ("empty-gps", "gps.csv", "GPS log holds no fixes"),
    ("nan-gps-velocity", "gps.csv", "GPS fix at t=2 s is not finite"),
    ("gps-gap", "gps.csv", "GPS gap of 3.000 s exceeds 2.0 s"),
    ("short-gps-span", "gps.csv", "GPS span [0.0, 7.0] does not cover [0.0, 8.0]"),
    ("truth-grid", "truth.csv", "truth log grid does not match the update grid"),
    ("interval", "imu.csv",
     "IMU sample period 0.01 s is incompatible with update interval 0.04 s"),
    ("config-key", "bad.yaml", "unknown key scenario.durationn_s"),
    ("nan-imu", "imu.csv", "line 501: IMU increment is not finite"),
    ("rotation-too-large", "imu.csv", "line 300: angular increment exceeds 0.1 rad over "
     "the update interval of this line and line 301"),
    ("nan-truth-quaternion", "truth.csv", "quaternion at t=2 s has norm nan, not 1"),
]


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

    def test_replay_from_non_ascii_path_writes_the_report(self, short_config, tmp_path):
        # the report keeps every row and stays ASCII: the paths in its
        # header escape their non-ASCII characters
        logs = tmp_path / "l\u00f6gs"
        cli.main(["simulate", "--config", str(short_config), "--out", str(logs)])
        argv = ["align", "--method", "vif", "--imu", str(logs / "imu.csv"),
                "--gps", str(logs / "gps.csv"), "--out", str(tmp_path / "rep")]
        assert cli.main(argv) == 0
        lines = (tmp_path / "rep" / "report_vif.csv").read_bytes().decode("ascii").splitlines()
        escaped = str(logs).replace("\u00f6", "\\xf6")
        assert f"# imu_path={escaped}/imu.csv" in lines
        assert f"# gps_path={escaped}/gps.csv" in lines
        assert sum(not line.startswith(("#", "t_s")) for line in lines) == 8

    @pytest.mark.parametrize("case, file, message", BAD_INPUTS,
                             ids=[case for case, _, _ in BAD_INPUTS])
    def test_bad_input_names_the_file(self, case, file, message, short_config,
                                      tmp_path, capsys):
        logs = tmp_path / "logs"
        cli.main(["simulate", "--config", str(short_config), "--out", str(logs)])
        capsys.readouterr()
        argv = ["align", "--imu", str(logs / "imu.csv"), "--gps", str(logs / "gps.csv")]
        t, v, p = ifio.read_gps(logs / "gps.csv")
        if case == "empty-gps":
            (logs / "gps.csv").write_text(ifio.GPS_HEADER + "\n")
        elif case == "nan-gps-velocity":
            v[100, 0] = np.nan
            ifio.write_gps(logs / "gps.csv", t, v, p)
        elif case in ("gps-gap", "short-gps-span"):
            keep = (t <= 7.0) if case == "short-gps-span" else (t <= 1.0) | (t >= 4.0)
            ifio.write_gps(logs / "gps.csv", t[keep], v[keep], p[keep])
        elif case == "truth-grid":
            rows = (logs / "truth.csv").read_text().splitlines()
            (logs / "truth.csv").write_text("\n".join(rows[:-1]) + "\n")
            argv += ["--truth", str(logs / "truth.csv")]
        elif case == "interval":
            argv += ["--interval", "0.04"]
        elif case in ("nan-imu", "rotation-too-large"):
            lines = (logs / "imu.csv").read_text().splitlines()
            # dtheta_y on line 501, or on line 301, the second sample of the
            # interval of lines 300 and 301
            i, value = (500, "nan") if case == "nan-imu" else (300, "0.2")
            fields = lines[i].split(",")
            fields[2] = value
            lines[i] = ",".join(fields)
            (logs / "imu.csv").write_text("\n".join(lines) + "\n")
        elif case == "nan-truth-quaternion":
            t_truth, q, v_truth, p_truth = ifio.read_truth(logs / "truth.csv")
            q[100, 0] = np.nan  # q_s at t=2 s
            ifio.write_truth(logs / "truth.csv", t_truth, q, v_truth, p_truth)
            argv += ["--truth", str(logs / "truth.csv")]
        else:
            (logs / "bad.yaml").write_text("scenario: {durationn_s: 10}\n")
            argv = ["align", "--config", str(logs / "bad.yaml")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {logs / file}: {message}\n"

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


    def test_methods_share_one_truth(self, short_config, tmp_path, monkeypatch):
        from ifalign import harness
        from ifalign.harness import monte_carlo

        cfg, errors = ifio.load_config(short_config)
        alone = {method: monte_carlo(cfg, errors, 3, method, epochs=[5.0, 8.0], jobs=1)
                 for method in ("vif", "pif")}
        calls, generate_truth = [], cli.generate_truth

        def counted(cfg):
            calls.append(cfg)
            return generate_truth(cfg)

        monkeypatch.setattr(cli, "generate_truth", counted)
        monkeypatch.setattr(harness, "generate_truth", counted)
        out = tmp_path / "mc"
        assert cli.main(["montecarlo", "--config", str(short_config), "--runs", "3",
                         "--epochs", "5,8", "--jobs", "1", "--out", str(out)]) == 0
        assert calls == [cfg]
        for method, summary in alone.items():
            cli._write_summary_csv(tmp_path / f"alone_{method}.csv", summary)
            assert (out / f"montecarlo_{method}.csv").read_bytes() == (
                tmp_path / f"alone_{method}.csv").read_bytes()

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


@pytest.mark.parametrize("argv, message", [
    (["--runs", "1"], "Monte-Carlo needs at least two runs"),
    (["--jobs", "0"], "Monte-Carlo needs at least one job"),
    (["--duration", "10", "--epochs", "5.5"],
     "epoch 5.5 s is not a report row: rows are every 1 s up to 10 s"),
], ids=["runs-1", "jobs-0", "epoch-off-grid"])
def test_montecarlo_values_checked_before_the_truth(argv, message, monkeypatch, capsys):
    def no_truth(*args, **kwargs):
        raise AssertionError("a bad Monte-Carlo value must be refused before the truth")

    monkeypatch.setattr(cli, "generate_truth", no_truth)
    assert cli.main(["montecarlo", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("verb, text, message", [
    ("simulate", "scenario: {duration_s: 2, latitude_deg: .nan}",
     "scenario: latitude_deg must be finite, got nan"),
    ("simulate", "scenario: {attitude: {roll: {period_s: .inf}}}",
     "scenario.attitude.roll: period_s must be finite, got inf"),
    ("align", "sensors: {accel_bias_ug: .inf}", "sensors: accel_bias_ug must be finite, got inf"),
], ids=["nan-latitude", "inf-period", "inf-bias"])
def test_non_finite_config_value_exit_code(verb, text, message, tmp_path, capsys):
    # named by its key before anything is simulated or written
    path = tmp_path / "nan.yaml"
    path.write_text(text + "\n")
    out = tmp_path / "out"
    assert cli.main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


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


def test_truth_without_replay_logs_exit_code(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a truth log without replay logs must not simulate")

    monkeypatch.setattr(cli, "generate_truth", no_work)
    argv = ["align", "--truth", str(tmp_path / "truth.csv"), "--duration", "2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --truth needs --imu and --gps\n"


def test_non_ascii_log_byte_exit_code(tmp_path, capsys):
    imu, gps = tmp_path / "imu.csv", tmp_path / "gps.csv"
    imu.write_bytes((ifio.IMU_HEADER + "\n0.01,0,0,0,0,0,0\n0.02,0,").encode("ascii")
                    + b"\xc3\xa9,0,0,0,0\n")
    gps.write_text(ifio.GPS_HEADER + "\n0,0.5,0,0,0,0,0\n")
    assert cli.main(["align", "--imu", str(imu), "--gps", str(gps)]) == 2
    assert capsys.readouterr().err == (
        f"error: {imu}: line 3: non-ASCII byte 0xc3 at column 8\n"
    )


def test_non_ascii_config_byte_exit_code(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_bytes(b"scenario: {height_m: 1\xc3\xa9}\n")
    assert cli.main(["align", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 1: non-ASCII byte 0xc3 at column 23\n"
    )


def test_truth_quaternion_not_unit_exit_code(tmp_path, capsys):
    logs = tmp_path / "logs"
    assert cli.main(["simulate", "--duration", "4", "--seed", "3", "--out", str(logs)]) == 0
    truth = logs / "truth.csv"
    t, q, v, p = ifio.read_truth(truth)
    ifio.write_truth(truth, t, 2.0 * q, v, p)
    capsys.readouterr()
    argv = ["align", "--imu", str(logs / "imu.csv"), "--gps", str(logs / "gps.csv"),
            "--truth", str(truth)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {truth}: quaternion at t=0 s has norm 2, not 1\n"
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
