import math
from dataclasses import replace

import numpy as np
import pytest

from ifalign import io as ifio
from ifalign.errors import FormatError, GapError, RateMismatch
from ifalign.simulate import (
    ScenarioConfig,
    SensorErrors,
    SineProfile,
    generate_truth,
    gps_fixes,
    sample_imu,
    simulation_sensor_defaults,
)


@pytest.fixture(scope="module")
def tiny_truth():
    return generate_truth(ScenarioConfig(duration_s=2.0))


def test_write_csv_bytes_equal_per_value_format(tmp_path):
    columns = [
        np.array([0.0, -0.0, 1.0 / 3.0, 1e-17]),
        np.array([[2.5e300, math.nan], [-math.inf, 123456789012345.0],
                  [7.0, -1e-300], [0.1, 2.0 / 3.0]]),
    ]
    path = tmp_path / "table.csv"
    ifio.write_csv(path, "a,b,c", columns, preamble="# note\n")
    per_value = "".join(
        ",".join("%.12g" % x for x in row) + "\n"
        for row in np.column_stack(columns).tolist()
    )
    assert path.read_bytes() == ("# note\na,b,c\n" + per_value).encode("ascii")
    assert path.read_text().splitlines()[2] == "0,2.5e+300,nan"


class TestSensorCsvRoundTrip:
    def test_imu(self, tiny_truth, tmp_path):
        dtheta, dv = sample_imu(tiny_truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * tiny_truth.cfg.sample_dt
        path = tmp_path / "imu.csv"
        ifio.write_imu(path, t_end, dtheta, dv)
        t2, dtheta2, dv2 = ifio.read_imu(path)
        np.testing.assert_allclose(t2, t_end, rtol=1e-11)
        np.testing.assert_allclose(dtheta2, dtheta, rtol=1e-11, atol=1e-22)
        np.testing.assert_allclose(dv2, dv, rtol=1e-11, atol=1e-22)

    def test_gps(self, tiny_truth, tmp_path):
        t, v, p = gps_fixes(tiny_truth)
        path = tmp_path / "gps.csv"
        ifio.write_gps(path, t, v, p)
        t2, v2, p2 = ifio.read_gps(path)
        np.testing.assert_allclose(v2, v, rtol=1e-11, atol=1e-22)
        np.testing.assert_allclose(p2, p, rtol=1e-11, atol=1e-22)

    def test_truth(self, tiny_truth, tmp_path):
        from ifalign.attitude import dcm_to_quat

        idx = tiny_truth.update_indices()
        q = dcm_to_quat(tiny_truth.c_b_n[idx])
        path = tmp_path / "truth.csv"
        ifio.write_truth(path, tiny_truth.t[idx], q, tiny_truth.v[idx], tiny_truth.p[idx])
        t2, q2, v2, p2 = ifio.read_truth(path)
        np.testing.assert_allclose(q2, q, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(p2, tiny_truth.p[idx], rtol=1e-11, atol=1e-22)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,header\n")
        with pytest.raises(FormatError) as err:
            ifio.read_imu(path)
        assert err.value.line == 1

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(ifio.IMU_HEADER + "\n0.01,0,0,0,0,0,0\n0.02,x,0,0,0,0,0\n")
        with pytest.raises(FormatError) as err:
            ifio.read_imu(path)
        assert err.value.line == 3

    def test_malformed_row_after_blank_lines_reports_its_own_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(ifio.IMU_HEADER + "\n0.01,0,0,0,0,0,0\n\n  \n0.02,0,0,0,0,1e,0\n")
        with pytest.raises(FormatError) as err:
            ifio.read_imu(path)
        assert err.value.line == 5

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(ifio.IMU_HEADER + "\n\n0.01,1,2,3,4,5,6\n\n0.02,7,8,9,10,11,12\n\n")
        t, dtheta, dv = ifio.read_imu(path)
        assert t.tolist() == [0.01, 0.02]
        assert dtheta.tolist() == [[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]]
        assert dv.tolist() == [[4.0, 5.0, 6.0], [10.0, 11.0, 12.0]]

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(ifio.IMU_HEADER + "\n0.01,0,0\n")
        with pytest.raises(FormatError) as err:
            ifio.read_imu(path)
        assert err.value.line == 2

    def test_non_ascii_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(
            (ifio.IMU_HEADER + "\n0.01,0,0,0,0,0,0\n0.02,0,").encode("ascii")
            + b"\xc3\xa9,0,0,0,0\n"
        )
        with pytest.raises(FormatError) as err:
            ifio.read_imu(path)
        assert (err.value.path, err.value.line) == (path, 3)
        assert str(err.value) == f"{path}: line 3: non-ASCII byte 0xc3 at column 8"

    def test_non_ascii_header_names_line_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t_end_s\xb0," + ifio.IMU_HEADER[8:].encode("ascii") + b"\n")
        with pytest.raises(FormatError, match="line 1: non-ASCII byte 0xb0") as err:
            ifio.read_imu(path)
        assert err.value.line == 1


def _line_loop(path, n_cols):
    """The reference reading: every data line through the line loop."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        fh.readline()
        return ifio._parse_lines(fh, path, n_cols)


def _outcome(read, path, n_cols):
    """``(shape, bytes)`` of the array ``read`` returns, or the line of its
    :class:`FormatError`."""
    try:
        data = read(path, n_cols)
    except FormatError as err:
        return err.line
    return data.shape, data.tobytes()


_INF, _NAN = math.inf, math.nan


class TestIngestFastPath:
    """``_read_csv`` parses with ``np.loadtxt`` and falls back to the line
    loop: either way it gives the loop's array or the loop's error line."""

    @pytest.mark.filterwarnings("error")  # a header-only log warns in loadtxt
    @pytest.mark.parametrize("body, expected", [
        ("1,2,3\n\n4,5,6\n\n", [[1, 2, 3], [4, 5, 6]]),
        ("\n1,2,3\n", [[1, 2, 3]]),
        ("1,2,3\n \t \n4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
        ("1,2,3\r\n4,5,6\r\n", [[1, 2, 3], [4, 5, 6]]),
        (" 1 , 2,3 \n", [[1, 2, 3]]),
        ("1,2,3,\n", 2),
        ("1,2,3\n# note\n4,5,6\n", 3),
        ("1_0,2,3\n", [[10, 2, 3]]),
        ("nan,inf,-inf\n-nan,Infinity,1e999\n", [[_NAN, _INF, -_INF], [-_NAN, _INF, _INF]]),
        ("1,2,3\n4,5\n", 3),
        ("1,2\n3,4\n", 2),
        ("1,2,3\n4,x,6\n", 3),
        ("", []),
        ("\n\n", []),
    ], ids=["blank-lines", "leading-blank-line", "whitespace-line", "crlf",
            "spaces-around-fields", "trailing-comma", "hash-line", "underscore",
            "nan-inf", "short-row", "narrow-rows", "bad-numeral", "header-only",
            "header-and-blank-lines"])
    def test_same_as_line_loop(self, body, expected, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(("a,b,c\n" + body).encode("ascii"))

        def fast(path, n_cols):
            return ifio._read_csv(path, "a,b,c", n_cols)

        outcome = _outcome(fast, path, 3)
        assert outcome == _outcome(_line_loop, path, 3)
        if isinstance(expected, int):
            assert outcome == expected
        else:
            want = np.array(expected, dtype=float).reshape(-1, 3)
            assert outcome == (want.shape, want.tobytes())

    def test_simulated_logs_bitwise(self, tmp_path):
        from ifalign import cli

        out = tmp_path / "logs"
        assert cli.main(["simulate", "--out", str(out), "--duration", "4",
                         "--gps-interval", "0.5"]) == 0
        for name, reader, n_cols in (("imu", ifio.read_imu, 7),
                                     ("gps", ifio.read_gps, 7),
                                     ("truth", ifio.read_truth, 11)):
            loop = _line_loop(out / f"{name}.csv", n_cols)
            header = getattr(ifio, f"{name.upper()}_HEADER")
            data = ifio._read_csv(out / f"{name}.csv", header, n_cols)
            assert data.shape == loop.shape and data.shape[0] > 0
            assert data.tobytes() == loop.tobytes(), name
            assert reader(out / f"{name}.csv")[0].tobytes() == loop[:, 0].tobytes()


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(duration_s=50.0, vel_mean_mps=(10.0, 1.0, -3.0))
        errors = simulation_sensor_defaults(seed=99)
        path = tmp_path / "scenario.yaml"
        ifio.save_config(path, cfg, errors)
        cfg2, errors2 = ifio.load_config(path)
        assert cfg2 == cfg
        assert errors2 == errors

    def test_default_yaml_matches_code_defaults(self):
        from importlib.resources import files

        path = files("ifalign.data") / "default_scenario.yaml"
        import yaml

        doc = yaml.safe_load(path.read_text())
        cfg, errors = ifio.config_from_dict(doc)
        assert cfg == ScenarioConfig()
        assert errors == simulation_sensor_defaults()
        # every key written out: omitted keys would fall back unnoticed
        assert doc == ifio.config_to_dict(ScenarioConfig(), simulation_sensor_defaults())

    def test_omitted_keys_take_the_defaults(self):
        assert ifio.config_from_dict({}) == (ScenarioConfig(), simulation_sensor_defaults())
        loaded = ifio.config_from_dict({
            "scenario": {"duration_s": 10, "attitude": {"roll": {"amplitude": 5}}},
            "sensors": {"seed": 4, "lever_arm_m": [1, 0, 0]},
        })
        expected = (
            ScenarioConfig(duration_s=10.0, roll=SineProfile(5.0, 90.0, 0.0)),
            replace(simulation_sensor_defaults(seed=4), lever_arm_m=(1.0, 0.0, 0.0)),
        )
        assert loaded == expected
        # integers in the document are read as the floats they stand for
        assert ifio.config_hash(*loaded) == ifio.config_hash(*expected)

    @pytest.mark.parametrize("doc, message", [
        ({"scenario": {"durationn_s": 10}}, "unknown key scenario.durationn_s"),
        ({"scenario": {"attitude": {"rol": {}}}}, "unknown key scenario.attitude.rol"),
        ({"sensor": {}}, "unknown key sensor"),
        ({"scenario": [1, 2]}, "scenario must be a mapping"),
        ({"scenario": {"attitude": {"roll": 5}}}, "scenario.attitude.roll must be a mapping"),
        ({"sensors": {"lever_arm_m": 1.0}}, "sensors.lever_arm_m must be a list"),
        ({"sensors": {"lever_arm_m": [1, "x", 0]}}, r"sensors.lever_arm_m\[1\] must be a number"),
        ({"sensors": {"lever_arm_m": [1, 2]}}, "sensors: lever_arm_m must be three"),
        ({"sensors": {"seed": 1.5}}, "sensors.seed must be an integer"),
        ({"sensors": {"accel_bias_ug": True}}, "sensors.accel_bias_ug must be a number"),
        ({"scenario": {"duration_s": "ten"}}, "scenario.duration_s must be a number"),
        ({"scenario": {"duration_s": -1}}, "scenario: duration must be positive"),
        ({"scenario": {"duration_s": math.inf}}, "scenario: duration must be positive"),
        ({"scenario": {"substep_s": 0.001}}, "unknown key scenario.substep_s"),
        (None, "config must be a mapping"),
        ({"scenario": {"imu_rate_hz": 100.0}}, "unknown key scenario.imu_rate_hz"),
    ])
    def test_bad_document_names_the_key(self, doc, message):
        with pytest.raises(FormatError, match=message):
            ifio.config_from_dict(doc)

    def test_yaml_exponent_without_dot(self, tmp_path):
        # YAML 1.1 reads 1e-3 as a string; it is still the number it spells
        path = tmp_path / "scenario.yaml"
        path.write_text("scenario: {height_m: 1e-3}\n")
        assert ifio.load_config(path)[0].height_m == 0.001

    def test_hash_is_stable(self):
        # digests pinned once scenario.imu_rate_hz left the schema: each is
        # the digest of the previous document with that one key deleted
        from ifalign.simulate import turning_scenario

        assert ifio.config_hash(
            ScenarioConfig(), simulation_sensor_defaults()
        ) == "75bcd047c037d3e1"
        assert ifio.config_hash(
            turning_scenario(30.0), SensorErrors(lever_arm_m=(1.0, 0.0, 0.0), seed=4)
        ) == "ab52d65354f542bd"
        assert ifio.config_hash(
            ScenarioConfig(duration_s=50.0, vel_mean_mps=(10.0, 1.0, -3.0)),
            simulation_sensor_defaults(99),
        ) == "fb6972036e31e708"

    def test_hash_reads_values_as_their_field_types(self, tmp_path):
        # integers where the fields are floats hash like the floats, and
        # like the same config saved and loaded back
        typed = (
            ScenarioConfig(duration_s=50.0, vel_mean_mps=(10.0, 1.0, -3.0),
                           roll=SineProfile(15.0, 90.0, 0.0)),
            replace(simulation_sensor_defaults(99), lever_arm_m=(1.0, 0.0, 0.0)),
        )
        untyped = (
            ScenarioConfig(duration_s=50, vel_mean_mps=(10, 1, -3),
                           roll=SineProfile(15, 90, 0)),
            replace(simulation_sensor_defaults(99), lever_arm_m=(1, 0, 0),
                    accel_bias_ug=50),
        )
        ifio.save_config(tmp_path / "untyped.yaml", *untyped)
        loaded = ifio.load_config(tmp_path / "untyped.yaml")
        assert loaded == typed
        assert ifio.config_hash(*untyped) == ifio.config_hash(*typed)
        assert ifio.config_hash(*loaded) == ifio.config_hash(*typed)

    def test_config_hash_and_pool_modules_load_on_first_use(self, tmp_path):
        # a run that reads, saves and hashes no config and starts no pool
        # loads none of their modules, nor numpy.random; each config call
        # then works on first use, the default digest is unchanged, and a
        # pool's forked worker finds numpy.random already loaded
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ifalign

        code = (
            "import sys\n"
            "import ifalign\n"
            "from ifalign import io\n"
            "from ifalign.simulate import ScenarioConfig, generate_truth\n"
            "out = sys.argv[1]\n"
            "truth = generate_truth(ScenarioConfig(duration_s=2.0))\n"
            "data = ifalign.AlignmentData.from_simulation(truth)\n"
            "ifalign.run_alignment(data, 'vif').write_csv(out + '/report.csv')\n"
            "lazy = ['yaml', 'json', 'hashlib', '_hashlib', 'multiprocessing',\n"
            "        'concurrent.futures.process', 'numpy.random']\n"
            "early = [name for name in lazy if name in sys.modules]\n"
            "assert not early, f'imported: {early}'\n"
            "defaults = io.config_from_dict({})\n"
            "assert io.config_hash(*defaults) == '75bcd047c037d3e1'\n"
            "io.save_config(out + '/scenario.yaml', *defaults)\n"
            "assert io.load_config(out + '/scenario.yaml') == defaults\n"
            "def loaded(name):\n"
            "    return name in sys.modules\n"
            "with ifalign.harness._process_pool(1) as pool:\n"
            "    assert pool.submit(loaded, 'numpy.random').result(), 'not inherited'\n"
        )
        src = str(Path(ifalign.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stderr

    def test_hash_changes_with_config(self):
        cfg = ScenarioConfig()
        errors = simulation_sensor_defaults()
        h1 = ifio.config_hash(cfg, errors)
        h2 = ifio.config_hash(ScenarioConfig(duration_s=60.0), errors)
        assert h1 != h2
        assert h1 == ifio.config_hash(ScenarioConfig(), simulation_sensor_defaults())


class TestInterpolation:
    def test_identity_at_fix_times(self):
        t = np.arange(11) * 0.5
        v = np.random.default_rng(1).standard_normal((11, 3))
        p = np.random.default_rng(2).standard_normal((11, 3)) * 0.01
        v2, p2 = ifio.interpolate_fixes(t, v, p, t)
        np.testing.assert_allclose(v2, v, atol=1e-15)
        np.testing.assert_allclose(p2, p, atol=1e-15)

    def test_linear_midpoints(self):
        t = np.array([0.0, 1.0])
        v = np.array([[0.0, 0.0, 0.0], [2.0, -4.0, 6.0]])
        p = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, 100.0]])
        grid = np.array([0.5])
        v2, p2 = ifio.interpolate_fixes(t, v, p, grid)
        np.testing.assert_allclose(v2[0], [1.0, -2.0, 3.0])
        np.testing.assert_allclose(p2[0], [0.1, 0.05, 50.0])

    def test_longitude_wrap(self):
        # crossing the dateline: interpolation must go the short way
        t = np.array([0.0, 1.0])
        v = np.zeros((2, 3))
        p = np.array([[math.pi - 0.01, 0.5, 0.0], [-math.pi + 0.01, 0.5, 0.0]])
        v2, p2 = ifio.interpolate_fixes(t, v, p, np.array([0.5]))
        assert abs(p2[0, 0]) == pytest.approx(math.pi, abs=1e-12)

    def test_gap_detection(self):
        t = np.array([0.0, 0.5, 3.5, 4.0])
        v = np.zeros((4, 3))
        p = np.zeros((4, 3))
        with pytest.raises(GapError):
            ifio.interpolate_fixes(t, v, p, np.array([0.0, 4.0]))

    def test_coverage_required(self):
        t = np.array([0.5, 1.0])
        with pytest.raises(GapError):
            ifio.interpolate_fixes(t, np.zeros((2, 3)), np.zeros((2, 3)),
                                   np.array([0.0, 1.0]))

    def test_empty_log_rejected(self):
        with pytest.raises(GapError, match="GPS log holds no fixes"):
            ifio.interpolate_fixes(np.empty(0), np.empty((0, 3)), np.empty((0, 3)),
                                   np.array([0.0, 0.5]))

    def test_non_monotone_rejected(self):
        t = np.array([0.0, 0.5, 0.5])
        with pytest.raises(FormatError):
            ifio.interpolate_fixes(t, np.zeros((3, 3)), np.zeros((3, 3)),
                                   np.array([0.0, 0.5]))


class TestIngest:
    def _write_logs(self, truth, tmp_path, gps_stride=None):
        dtheta, dv = sample_imu(truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        t, v, p = gps_fixes(truth, stride_s=gps_stride)
        ifio.write_gps(tmp_path / "gps.csv", t, v, p)
        return tmp_path / "imu.csv", tmp_path / "gps.csv"

    def test_round_trip_at_endpoints(self, tiny_truth, tmp_path):
        imu_path, gps_path = self._write_logs(tiny_truth, tmp_path)
        dtheta, dv, fix_t, fix_v, fix_p = ifio.ingest_logs(
            imu_path, gps_path, tiny_truth.cfg.update_interval_s
        )
        idx = tiny_truth.update_indices()
        assert fix_t.size == idx.size
        np.testing.assert_allclose(fix_v, tiny_truth.v[idx], rtol=1e-10, atol=1e-12)

    def test_2hz_interpolation_counts(self, tmp_path):
        truth = generate_truth(ScenarioConfig(duration_s=4.0))
        imu_path, gps_path = self._write_logs(truth, tmp_path, gps_stride=0.5)
        dtheta, dv, fix_t, fix_v, fix_p = ifio.ingest_logs(
            imu_path, gps_path, truth.cfg.update_interval_s
        )
        # 25 update endpoints per 0.5 s gap; endpoints exact
        assert fix_t.size == truth.cfg.n_updates + 1
        idx = truth.update_indices()
        on_fix = np.isclose(fix_t % 0.5, 0.0, atol=1e-9)
        np.testing.assert_allclose(
            fix_v[on_fix], truth.v[idx][on_fix], rtol=1e-10, atol=1e-12
        )

    def test_rate_mismatch(self, tiny_truth, tmp_path):
        imu_path, gps_path = self._write_logs(tiny_truth, tmp_path)
        with pytest.raises(RateMismatch):
            ifio.ingest_logs(imu_path, gps_path, 0.05)

    def test_irregular_imu_rejected(self, tmp_path, tiny_truth):
        imu_path, gps_path = self._write_logs(tiny_truth, tmp_path)
        rows = imu_path.read_text().splitlines()
        rows[3] = rows[3].replace(rows[3].split(",")[0], "0.031")
        imu_path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RateMismatch):
            ifio.ingest_logs(imu_path, gps_path, tiny_truth.cfg.update_interval_s)
