import math
from dataclasses import replace

import numpy as np
import pytest

from ifalign import earth
from ifalign.attitude import rotation_angle
from ifalign.errors import PolarSingularity
from ifalign.oracle import NavigationReference
from ifalign.simulate import (
    ScenarioConfig,
    SensorErrors,
    SineProfile,
    generate_truth,
    gps_fixes,
    run_rng,
    sample_imu,
    simulation_sensor_defaults,
    turning_scenario,
)

D2R = math.pi / 180.0


class TestConfigValidation:
    def test_update_interval_must_be_positive_and_finite(self):
        for interval in (0.0, -0.02, math.nan, math.inf):
            with pytest.raises(ValueError, match="update interval"):
                ScenarioConfig(update_interval_s=interval)
        cfg = ScenarioConfig(duration_s=1.0, update_interval_s=0.04)
        assert cfg.sample_dt == 0.02 and cfg.n_samples == 50

    def test_duration_must_tile_updates(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.03)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SensorErrors(gps_vel_sigma_mps=-0.1)

    def test_negative_seed_rejected(self):
        # not numpy's "expected non-negative integer" at the first draw
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            SensorErrors(seed=-1)

    def test_negative_run_index_rejected(self):
        with pytest.raises(ValueError, match="^run index must be nonnegative$"):
            run_rng(0, -1)

    @pytest.mark.parametrize("vector", [(1.0, 2.0), 1.0, (1.0, math.nan, 0.0)],
                             ids=["two-elements", "scalar", "nan"])
    def test_vectors_must_be_three_finite_numbers(self, vector):
        with pytest.raises(ValueError, match="lever_arm_m"):
            SensorErrors(lever_arm_m=vector)
        with pytest.raises(ValueError, match="vel_mean_mps"):
            ScenarioConfig(vel_mean_mps=vector)

    def test_profile_needs_period(self):
        with pytest.raises(ValueError):
            SineProfile(amplitude=1.0, period_s=0.0)


class TestStaticTruth:
    def test_static_gyro_measures_earth_rate(self, static_truth):
        # stationary vehicle with identity attitude: body rate equals the
        # earth rate resolved in the nav frame, specific force the gravity
        # reaction.
        w_expected, _, g_n = earth.kinematics_n(static_truth.v[0], static_truth.p[0])
        np.testing.assert_allclose(
            static_truth.omega_ib_b[0], w_expected, rtol=1e-12
        )
        f_expected = -g_n
        np.testing.assert_allclose(static_truth.f_b[0], f_expected, rtol=1e-12)

    def test_static_stays_put(self, static_truth):
        np.testing.assert_allclose(static_truth.p[-1], static_truth.p[0], atol=1e-12)
        np.testing.assert_allclose(static_truth.v, 0.0, atol=1e-15)


class TestTruthKinematics:
    def test_northward_motion_advances_latitude(self):
        cfg = ScenarioConfig(
            duration_s=10.0,
            roll=SineProfile(0.0), pitch=SineProfile(0.0), yaw=SineProfile(0.0),
            vel_mean_mps=(100.0, 0.0, 0.0),
            vel_north=SineProfile(0.0), vel_up=SineProfile(0.0), vel_east=SineProfile(0.0),
        )
        truth = generate_truth(cfg)
        r_n, _, _ = earth._radii(np.sin(cfg.p0[1]) ** 2)
        expected = cfg.p0[1] + 100.0 * 10.0 / (r_n + 0.0)
        assert truth.p[-1, 1] == pytest.approx(expected, rel=1e-6)

    def test_position_spline_built_on_first_use(self):
        # truth synthesis neither builds the spline nor imports scipy; the
        # first position() call does both and interpolates the grid
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ifalign

        code = (
            "import sys\n"
            "from ifalign.simulate import ScenarioConfig, generate_truth\n"
            "truth = generate_truth(ScenarioConfig(duration_s=2.0))\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n"
            "k = int(round(0.775 / truth.cfg.grid_dt))\n"
            "assert abs(truth.position(truth.t[k]) - truth.p[k]).max() == 0.0\n"
            "assert 'scipy.interpolate' in sys.modules\n"
        )
        src = str(Path(ifalign.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("name", ["short_truth", "static_truth"])
    def test_kinematics_reproduces_the_grid(self, name, request):
        # the grid arrays and kinematics(t) share one derivation
        truth = request.getfixturevalue(name)
        idx = np.r_[np.arange(0, truth.t.size, 997), truth.t.size - 1]
        kinematics = truth.kinematics(truth.t[idx])
        for field in ("c_b_n", "v", "p", "omega_ib_b", "f_b", "omega_in_n"):
            grid = getattr(truth, field)
            np.testing.assert_allclose(kinematics[field], grid[idx], rtol=1e-15,
                                       atol=1e-15 * np.abs(grid).max(), err_msg=field)

    def test_polar_crossing_rejected(self):
        cfg = ScenarioConfig(
            latitude_deg=89.85,
            duration_s=10.0,
            roll=SineProfile(0.0), pitch=SineProfile(0.0), yaw=SineProfile(0.0),
            vel_mean_mps=(1000.0, 0.0, 0.0),
            vel_north=SineProfile(0.0), vel_up=SineProfile(0.0), vel_east=SineProfile(0.0),
        )
        with pytest.raises(PolarSingularity):
            generate_truth(cfg)

    def test_body_rate_matches_attitude_derivative(self, short_truth):
        # finite-difference the true attitude across one grid step and
        # compare with the emitted body rate
        dt = short_truth.cfg.grid_dt
        i = int(round(5.0 / dt))
        c0 = short_truth.c_b_n[i - 1]
        c1 = short_truth.c_b_n[i + 1]
        w_nb_skew = short_truth.c_b_n[i].T @ (c1 - c0) / (2.0 * dt)
        w_nb = np.array([w_nb_skew[2, 1], w_nb_skew[0, 2], w_nb_skew[1, 0]])
        w_in_b = short_truth.c_b_n[i].T @ short_truth.omega_in_n[i]
        np.testing.assert_allclose(
            short_truth.omega_ib_b[i], w_nb + w_in_b, atol=5e-8
        )

    def test_reintegration_self_consistency(self, short_truth):
        # Propagating the navigation rate equations from the emitted angular
        # rate and specific force must reproduce the emitted trajectory.
        ref = NavigationReference(short_truth, substep=0.001)
        worst = ref.deviations(short_truth.cfg.duration_s, check_every=1.0)
        assert worst["attitude_rad"] < 1e-8
        assert worst["velocity_mps"] < 1e-8
        assert worst["position_rad_m"] < 1e-8


class TestImuSampling:
    def test_zero_errors_match_fine_integrals(self, short_truth):
        # Simpson on the sample's grid nodes vs an independent trapezoid on
        # a 200-panel evaluation of the model
        dtheta, dv = sample_imu(short_truth)
        cfg = short_truth.cfg
        i = 37  # arbitrary sample
        t0, t1 = i * cfg.sample_dt, (i + 1) * cfg.sample_dt
        ts = np.linspace(t0, t1, 201)
        kinematics = short_truth.kinematics(ts)
        w = kinematics["omega_ib_b"]
        f = kinematics["f_b"]
        dt = (t1 - t0) / 200
        np.testing.assert_allclose(
            dtheta[i], np.sum(0.5 * dt * (w[1:] + w[:-1]), axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            dv[i], np.sum(0.5 * dt * (f[1:] + f[:-1]), axis=0), atol=5e-10
        )

    def test_constant_drift_accumulates(self, static_truth):
        errs = SensorErrors(gyro_drift_deg_h=0.01)
        dtheta_clean, _ = sample_imu(static_truth)
        dtheta, _ = sample_imu(static_truth, errs)
        total_extra = np.sum(dtheta - dtheta_clean, axis=0)
        # 0.01 deg/h for the 20 s span
        expected = 0.01 * D2R / 3600.0 * static_truth.cfg.duration_s
        np.testing.assert_allclose(total_extra, expected, rtol=1e-10)

    def test_noise_accumulation_variance(self, static_truth, rng):
        errs = SensorErrors(gyro_noise_deg_h_sqrt_hz=10.0)
        dtheta_clean, _ = sample_imu(static_truth)
        n_trials = 64
        sums = []
        for _ in range(n_trials):
            dtheta, _ = sample_imu(static_truth, errs, rng)
            sums.append(np.sum(dtheta - dtheta_clean, axis=0))
        sums = np.array(sums)
        n_samples = static_truth.cfg.n_samples
        sigma = 10.0 * D2R / 3600.0 * math.sqrt(static_truth.cfg.sample_dt)
        expected_var = n_samples * sigma ** 2
        measured = np.var(sums, axis=0, ddof=1)
        # 64 trials x 3 axes: allow a generous band around the white-noise law
        assert np.all(measured > 0.5 * expected_var)
        assert np.all(measured < 1.7 * expected_var)

    def test_noise_requires_rng(self, static_truth):
        with pytest.raises(ValueError):
            sample_imu(static_truth, SensorErrors(accel_noise_ug_sqrt_hz=1.0))

    @pytest.mark.parametrize("cfg, bound", [(ScenarioConfig(), 1e-14),
                                            (turning_scenario(120.0), 2e-12)],
                             ids=["default-300s", "turning-120s"])
    def test_increments_match_fine_simpson_of_kinematics(self, cfg, bound):
        # one Simpson panel pair per sample on the truth grid against a
        # 10-panel (1 ms) composite Simpson of kinematics(t) over each sample
        truth = generate_truth(cfg)
        n, n_sub = cfg.n_samples, 10
        h = cfg.sample_dt / n_sub
        kinematics = truth.kinematics(np.arange(n * n_sub + 1) * h)
        weights = np.ones(n_sub + 1)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        weights *= h / 3.0
        for increment, name in zip(sample_imu(truth), ("omega_ib_b", "f_b")):
            rate = kinematics[name]
            fine = sum(w * rate[j:j + n * n_sub:n_sub] for j, w in enumerate(weights))
            rel = np.linalg.norm(increment - fine, axis=1) / np.linalg.norm(fine, axis=1)
            assert rel.max() <= bound, name


class TestGps:
    def test_no_errors_equals_truth(self, short_truth):
        t, v, p = gps_fixes(short_truth)
        idx = short_truth.update_indices()
        np.testing.assert_array_equal(v, short_truth.v[idx])
        np.testing.assert_array_equal(p, short_truth.p[idx])

    def test_static_lever_arm_position_only(self, static_truth):
        # no rotation relative to Earth: velocity offset vanishes, position
        # offset is the lever arm resolved in the nav frame
        errs = SensorErrors(lever_arm_m=(1.0, 1.0, 1.0))
        t, v, p = gps_fixes(static_truth, errs)
        np.testing.assert_allclose(v[0], static_truth.v[0], atol=1e-9)
        lever_n = static_truth.c_b_n[0] @ np.array([1.0, 1.0, 1.0])
        r_n, r_e, _ = earth._radii(np.sin(static_truth.p[0, 1]) ** 2)
        expected = static_truth.p[0] + np.array(
            [
                lever_n[2] / ((r_e + 0.0) * math.cos(static_truth.p[0, 1])),
                lever_n[0] / (r_n + 0.0),
                lever_n[1],
            ]
        )
        np.testing.assert_allclose(p[0], expected, rtol=1e-9)

    def test_turning_lever_arm_velocity(self):
        # yaw rotation at ~0.1 rad/s: the antenna sweeps at |w x l|
        period = 2.0 * math.pi / 0.1
        cfg = ScenarioConfig(
            duration_s=10.0,
            roll=SineProfile(0.0), pitch=SineProfile(0.0),
            yaw=SineProfile(amplitude=40.0, period_s=period, phase_deg=0.0),
            vel_mean_mps=(0.0, 0.0, 0.0),
            vel_north=SineProfile(0.0), vel_up=SineProfile(0.0), vel_east=SineProfile(0.0),
        )
        truth = generate_truth(cfg)
        errs = SensorErrors(lever_arm_m=(1.0, 0.0, 0.0))
        t, v, p = gps_fixes(truth, errs)
        # at t=0 the yaw rate is 40 deg * 0.1 / 1 rad... amplitude*w*cos(0)
        yaw_rate = 40.0 * D2R * 0.1
        # body turn axis is Up; velocity offset = C (w x l)
        w_eb_b = truth.omega_ib_b[0] - truth.c_b_n[0].T @ earth.kinematics_n(
            truth.v[0], truth.p[0]
        )[1]
        expected_speed = np.linalg.norm(np.cross(w_eb_b, [1.0, 0.0, 0.0]))
        assert expected_speed == pytest.approx(yaw_rate, rel=1e-6)
        assert np.linalg.norm(v[0] - truth.v[0]) == pytest.approx(
            expected_speed, rel=1e-6
        )

    def test_antenna_velocity_matches_position_derivative(self):
        # cross-check the lever-arm velocity against a finite difference of
        # the antenna position across grid steps
        cfg = ScenarioConfig(duration_s=2.0)
        truth = generate_truth(cfg)
        errs = SensorErrors(lever_arm_m=(1.0, 1.0, 1.0))
        dt = cfg.grid_dt
        i = int(round(0.5 / dt))
        _, fix_v, fix_p = gps_fixes(truth, errs, stride_s=dt)
        p_prev, p_next = fix_p[i - 1], fix_p[i + 1]
        # convert curvilinear positions to local meters around sample i
        r_n, r_e, _ = earth._radii(np.sin(truth.p[i, 1]) ** 2)
        lat, h = truth.p[i, 1], truth.p[i, 2]
        def to_m(p):
            return np.array(
                [
                    (p[1] - truth.p[i, 1]) * (r_n + h),
                    p[2] - truth.p[i, 2],
                    (p[0] - truth.p[i, 0]) * (r_e + h) * math.cos(lat),
                ]
            )
        v_fd = (to_m(p_next) - to_m(p_prev)) / (2.0 * dt)
        np.testing.assert_allclose(v_fd, fix_v[i], atol=2e-4)

    def test_lever_arm_velocity_matches_ecef_derivative(self):
        # the antenna's ground velocity is the rate of the arm in the
        # Earth-fixed frame, C_n^e C_b^n l, resolved back into the nav frame
        truth = generate_truth(ScenarioConfig(duration_s=60.0))
        lever = np.array([1.0, 1.0, 1.0])
        _, fix_v, _ = gps_fixes(truth, SensorErrors(lever_arm_m=tuple(lever)))
        idx = truth.update_indices()
        dt = 0.001
        t = truth.t[idx[1:-1]]
        before, after = truth.kinematics(t - dt), truth.kinematics(t + dt)

        def arm_e(kin, j):
            return earth.nav_to_ecef_dcm(kin["p"][j]) @ kin["c_b_n"][j] @ lever

        worst = 0.0
        for k, i in enumerate(idx[1:-1], start=1):
            rate_e = (arm_e(after, k - 1) - arm_e(before, k - 1)) / (2.0 * dt)
            rate_n = earth.nav_to_ecef_dcm(truth.p[i]).T @ rate_e
            worst = max(worst, np.max(np.abs(fix_v[k] - truth.v[i] - rate_n)))
        assert worst < 1e-9

    def test_noise_is_seed_deterministic(self, short_truth):
        errs = simulation_sensor_defaults(seed=42)
        t1, v1, p1 = gps_fixes(short_truth, errs, run_rng(42, 3))
        t2, v2, p2 = gps_fixes(short_truth, errs, run_rng(42, 3))
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(p1, p2)

    def test_antenna_fixes_computed_once_per_lever_arm(self, short_truth):
        errs = simulation_sensor_defaults(seed=42)
        clean = short_truth.antenna_fixes(errs.lever_arm_m)
        assert short_truth.antenna_fixes(list(errs.lever_arm_m)) is clean
        assert short_truth.antenna_fixes((0.0, 0.0, 0.0)) is not clean
        assert not any(column.flags.writeable for column in clean)
        # every call draws its noise on fresh arrays, on top of the kept fixes
        t, v, p = gps_fixes(short_truth, errs, run_rng(42, 3))
        assert all(a.flags.writeable and not np.shares_memory(a, b)
                   for a, b in zip((t, v, p), clean))
        quiet = replace(errs, gps_vel_sigma_mps=0.0, gps_pos_sigma_m=0.0)
        for a, b in zip(gps_fixes(short_truth, quiet), clean):
            assert a.tobytes() == b.tobytes()
        assert gps_fixes(short_truth, errs, run_rng(42, 3))[1].tobytes() == v.tobytes()

    def test_gps_stride(self, short_truth):
        t, v, p = gps_fixes(short_truth, stride_s=0.5)
        assert t[1] - t[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("stride", [0.0, -0.5, 0.003, math.inf, math.nan])
    def test_gps_stride_must_be_a_positive_grid_multiple(self, short_truth, stride):
        with pytest.raises(ValueError, match="positive multiple of the 0.005 s"):
            gps_fixes(short_truth, stride_s=stride)

    def test_lever_effect_increases_transient_error(self):
        # enabling the lever arm on the same seed must increase the peak
        # transient yaw error when the vehicle turns
        from ifalign.harness import AlignmentData, run_alignment
        truth = generate_truth(turning_scenario(duration_s=60.0))
        errors = simulation_sensor_defaults(seed=5)
        peaks = {}
        for tag, ec in (("lever", errors), ("none", errors.without_lever_arm())):
            data = AlignmentData.from_simulation(truth, ec, run_rng(5, 0))
            rep = run_alignment(data, "vif", report_interval_s=1.0)
            mask = rep.t >= 5.0
            peaks[tag] = np.nanmax(np.abs(rep.err_deg[mask, 2]))
        assert peaks["lever"] > peaks["none"]
