import numpy as np
import pytest

from ifalign import io as ifio
from ifalign.harness import (
    AlignmentData,
    attitude_error_deg,
    monte_carlo,
    run_alignment,
)
from ifalign.simulate import (
    ScenarioConfig,
    generate_truth,
    run_rng,
    simulation_sensor_defaults,
)


@pytest.fixture(scope="module")
def mc_truth():
    return generate_truth(ScenarioConfig(duration_s=30.0))


class TestRunAlignment:
    def test_ideal_run_report(self, short_truth):
        data = AlignmentData.from_simulation(short_truth)
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        assert rep.t[-1] == pytest.approx(short_truth.cfg.duration_s)
        assert rep.err_deg is not None
        assert np.all(np.abs(rep.err_deg[-1]) < 0.05)
        assert not rep.degenerate[-1]
        assert np.all(np.diff(rep.k_eigenvalues) >= 0.0)
        # angle columns wrapped
        finite = np.isfinite(rep.est_deg)
        assert np.all(np.abs(rep.est_deg[finite]) <= 180.0)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_k_eigenvalues_are_those_of_the_solved_matrix(self, method, short_truth):
        from ifalign.align import make_aligner
        from ifalign.quest import jacobi_eigh4

        data = AlignmentData.from_simulation(short_truth)
        rep = run_alignment(data, method, report_interval_s=1.0)
        al = make_aligner(method, data.fix_v[0], data.fix_p[0], data.T)
        for k in range(data.n_updates):
            al.update(data.interval(k), data.fix(k), data.fix(k + 1))
        expected, _ = jacobi_eigh4(al.solved_matrix())
        np.testing.assert_array_equal(rep.k_eigenvalues, expected)

    def test_replay_mode_has_no_error_columns(self, short_truth, tmp_path):
        from ifalign.simulate import gps_fixes, sample_imu

        dtheta, dv = sample_imu(short_truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * short_truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        t, v, p = gps_fixes(short_truth)
        ifio.write_gps(tmp_path / "gps.csv", t, v, p)
        data = AlignmentData.from_logs(
            tmp_path / "imu.csv", tmp_path / "gps.csv",
            short_truth.cfg.update_interval_s,
        )
        rep = run_alignment(data, "pif", report_interval_s=1.0)
        assert rep.err_deg is None
        assert np.isfinite(rep.est_deg[-1]).all()

    def test_replay_equals_in_memory_at_print_precision(self, short_truth, tmp_path):
        from ifalign.simulate import gps_fixes, sample_imu

        data_mem = AlignmentData.from_simulation(short_truth)
        dtheta, dv = sample_imu(short_truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * short_truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        t, v, p = gps_fixes(short_truth)
        ifio.write_gps(tmp_path / "gps.csv", t, v, p)
        data_file = AlignmentData.from_logs(
            tmp_path / "imu.csv", tmp_path / "gps.csv",
            short_truth.cfg.update_interval_s,
        )
        rep_mem = run_alignment(data_mem, "vif", report_interval_s=1.0)
        rep_file = run_alignment(data_file, "vif", report_interval_s=1.0)
        # the eigenvector is ill-conditioned in the first seconds (small
        # spectral gap), which amplifies the 12-digit file truncation there
        np.testing.assert_allclose(
            rep_file.est_deg, rep_mem.est_deg, atol=1e-4
        )
        settled = rep_mem.t >= 5.0
        np.testing.assert_allclose(
            rep_file.est_deg[settled], rep_mem.est_deg[settled], atol=1e-7
        )

    def test_report_interval_must_tile(self, short_truth):
        data = AlignmentData.from_simulation(short_truth)
        with pytest.raises(ValueError):
            run_alignment(data, "vif", report_interval_s=0.03)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_report_rows_independent_of_report_interval(self, method, short_truth):
        # the solve is a pure function of the folded state, so a dense report
        # grid holds the sparse grid's rows bitwise at whole seconds
        data = AlignmentData.from_simulation(short_truth)
        sparse = run_alignment(data, method, report_interval_s=1.0)
        dense = run_alignment(data, method, report_interval_s=data.T)
        stride = int(round(1.0 / data.T))
        at_seconds = slice(stride - 1, None, stride)
        np.testing.assert_array_equal(dense.t[at_seconds], sparse.t)
        np.testing.assert_array_equal(dense.degenerate[at_seconds], sparse.degenerate)
        for key in ("est_deg", "err_deg"):
            rows = getattr(dense, key)[at_seconds]
            assert rows.tobytes() == getattr(sparse, key).tobytes(), key
        assert dense.k_eigenvalues.tobytes() == sparse.k_eigenvalues.tobytes()

    def test_errors_at_requires_grid_epoch(self, short_truth):
        data = AlignmentData.from_simulation(short_truth)
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        with pytest.raises(ValueError):
            rep.errors_at([1.5])
        out = rep.errors_at([1.0, 20.0])
        assert out.shape == (2, 3)

    def test_report_csv_round_trip_bytes(self, short_truth, tmp_path):
        data = AlignmentData.from_simulation(
            short_truth, metadata={"seed": 1, "config_hash": "abc"}
        )
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        rep.write_csv(tmp_path / "r1.csv")
        rep2 = run_alignment(data, "vif", report_interval_s=1.0)
        rep2.write_csv(tmp_path / "r2.csv")
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


class TestOracleDrift:
    def test_accumulator_drift_vs_oracle_over_300s(self):
        # perfect sensors: recursive accumulators vs the fine-step reference
        # integrator over the full default duration
        from ifalign.align import make_aligner
        from ifalign.oracle import AlignmentReference

        truth = generate_truth(ScenarioConfig())
        data = AlignmentData.from_simulation(truth)
        ref = AlignmentReference(truth.model, substep=0.005).run(300.0)
        for method, a_key, b_key in (
            ("vif", "alpha_v", "beta_v"),
            ("pif", "alpha_p", "beta_p"),
        ):
            al = make_aligner(method, data.fix_v[0], data.fix_p[0], data.T)
            for k in range(data.n_updates):
                al.update(data.interval(k), data.fix(k), data.fix(k + 1))
            rel_a = np.linalg.norm(al.alpha - ref[a_key][-1]) / np.linalg.norm(
                ref[a_key][-1]
            )
            rel_b = np.linalg.norm(al.beta - ref[b_key][-1]) / np.linalg.norm(
                ref[b_key][-1]
            )
            assert rel_a < 1e-6, f"{method} alpha drift {rel_a:.2e}"
            assert rel_b < 1e-6, f"{method} beta drift {rel_b:.2e}"


class TestAttitudeError:
    def test_zero_for_identical(self):
        c = np.eye(3)
        np.testing.assert_allclose(attitude_error_deg(c, c), np.zeros(3))

    def test_small_yaw_offset(self):
        from ifalign.attitude import euler_to_dcm

        c_true = euler_to_dcm(np.array([0.1, 0.2, 0.3]))
        c_est = euler_to_dcm(np.array([0.1, 0.2, 0.3 + 1e-4]))
        err = attitude_error_deg(c_est, c_true)
        assert err[2] == pytest.approx(np.degrees(1e-4), rel=1e-3)


class TestMonteCarlo:
    def test_determinism_and_job_invariance(self, mc_truth):
        errors = simulation_sensor_defaults(seed=3)
        cfg = mc_truth.cfg
        s1 = monte_carlo(cfg, errors, 4, "vif", epochs=[30.0], jobs=1, truth=mc_truth)
        s2 = monte_carlo(cfg, errors, 4, "vif", epochs=[30.0], jobs=2, truth=mc_truth)
        np.testing.assert_array_equal(s1.mean_deg, s2.mean_deg)
        np.testing.assert_array_equal(s1.three_sigma_deg, s2.three_sigma_deg)

    def test_zero_noise_zero_scatter(self, mc_truth):
        from ifalign.simulate import SensorErrors

        errors = SensorErrors(seed=1)
        s = monte_carlo(mc_truth.cfg, errors, 3, "vif", epochs=[30.0], jobs=1,
                        truth=mc_truth)
        np.testing.assert_allclose(s.three_sigma_deg, 0.0, atol=1e-12)

    def test_requires_two_runs(self, mc_truth):
        errors = simulation_sensor_defaults(seed=3)
        with pytest.raises(ValueError):
            monte_carlo(mc_truth.cfg, errors, 1, "vif", epochs=[30.0], truth=mc_truth)

    def test_pool_bounded_by_runs_and_jobs_checked(self, mc_truth, monkeypatch):
        from ifalign import harness

        workers = []

        class RecordingExecutor:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingExecutor)
        errors = simulation_sensor_defaults(seed=3)
        cfg = mc_truth.cfg
        pooled = monte_carlo(cfg, errors, 3, "vif", epochs=[30.0], jobs=64, truth=mc_truth)
        assert workers == [3]
        serial = monte_carlo(cfg, errors, 3, "vif", epochs=[30.0], jobs=1, truth=mc_truth)
        assert workers == [3]
        np.testing.assert_array_equal(pooled.three_sigma_deg, serial.three_sigma_deg)
        for jobs in (0, -2):
            with pytest.raises(ValueError):
                monte_carlo(cfg, errors, 3, "vif", epochs=[30.0], jobs=jobs, truth=mc_truth)
        assert workers == [3]

    def test_summary_table_format(self, mc_truth):
        errors = simulation_sensor_defaults(seed=3)
        s = monte_carlo(mc_truth.cfg, errors, 3, "vif", epochs=[10.0, 30.0],
                        jobs=1, truth=mc_truth)
        table = s.format_table()
        assert "method=vif" in table
        assert "10.0" in table and "30.0" in table
