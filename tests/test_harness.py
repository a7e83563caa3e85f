import gc
import math
import re
from copy import copy
from types import SimpleNamespace

import numpy as np
import pytest

from ifalign import io as ifio
from ifalign.attitude import dcm_to_euler, matmul3
from ifalign.errors import FormatError
from ifalign.harness import (
    AlignmentData,
    RAD2DEG,
    McSummary,
    RunReport,
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

        data = AlignmentData.from_simulation(short_truth)
        rep = run_alignment(data, method, report_interval_s=1.0)
        al = make_aligner(method, data.T)
        for k in range(data.n_updates):
            al.update(data.interval(k), data.fix(k), data.fix(k + 1))
        expected = np.linalg.eigh(np.reshape(al.solved_matrix(), (4, 4)))[0]
        np.testing.assert_array_equal(rep.k_eigenvalues, expected)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_last_row_lambda_min_is_the_first_k_eigenvalue(self, method, short_truth):
        # the last update is a report row, and the spectrum comes from the
        # rows' own solve: bitwise the same smallest eigenvalue
        from ifalign.align import make_aligner

        data = AlignmentData.from_simulation(
            short_truth, simulation_sensor_defaults(7), run_rng(7, 0)
        )
        rep = run_alignment(data, method, report_interval_s=1.0)
        al = make_aligner(method, data.T)
        for k in range(data.n_updates):
            al.update(data.interval(k), data.fix(k), data.fix(k + 1))
        assert rep.t[-1] == data.fix_t[-1] and not rep.degenerate[-1]
        assert al.estimate().lambda_min.hex() == rep.k_eigenvalues[0].hex()

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_rows_equal_the_array_functions(self, method, short_truth):
        # run_alignment keeps each row on floats; recompute it through the
        # public array functions
        from ifalign.align import make_aligner
        from ifalign.attitude import compose_attitude, dcm_to_euler, quat_to_dcm
        from ifalign.errors import DegenerateSpectrum

        data = AlignmentData.from_simulation(
            short_truth, simulation_sensor_defaults(5), run_rng(5, 0)
        )
        rep = run_alignment(data, method, report_interval_s=data.T)
        al = make_aligner(method, data.T)
        est, err, degenerate = [], [], []
        for k in range(data.n_updates):
            al.update(data.interval(k), data.fix(k), data.fix(k + 1))
            try:
                q = al.estimate().q
            except DegenerateSpectrum:
                est.append(np.full(3, np.nan))
                err.append(np.full(3, np.nan))
                degenerate.append(True)
                continue
            c = np.reshape(
                compose_attitude(
                    np.reshape(al.c_nav, (3, 3)).T.ravel().tolist(),
                    np.ravel(quat_to_dcm(q)).tolist(),
                    al.c_body,
                ),
                (3, 3),
            )
            est.append(np.array(dcm_to_euler(c.ravel().tolist())) * RAD2DEG)
            err.append(np.array(dcm_to_euler(
                np.ravel(c @ data.truth_c_b_n[k + 1].T).tolist()
            )) * RAD2DEG)
            degenerate.append(False)
        est, err, degenerate = np.array(est), np.array(err), np.array(degenerate)
        assert degenerate.any() and not degenerate.all()
        assert rep.degenerate.tobytes() == degenerate.tobytes()
        assert rep.est_deg[~degenerate].tobytes() == est[~degenerate].tobytes()
        assert np.isnan(rep.est_deg[degenerate]).all()
        assert np.isnan(rep.err_deg[degenerate]).all()
        np.testing.assert_allclose(rep.err_deg, err, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_err_rows_are_the_float_error_of_c_b_n(self, method, short_truth):
        # each solved err_deg row is dcm_to_euler(matmul3(c_b_n, truth.T)) in
        # degrees, bitwise, and each est_deg row dcm_to_euler(c_b_n)
        from ifalign.align import make_aligner
        from ifalign.attitude import dcm_to_euler, matmul3
        from ifalign.errors import DegenerateSpectrum

        data = AlignmentData.from_simulation(
            short_truth, simulation_sensor_defaults(5), run_rng(5, 0)
        )
        rep = run_alignment(data, method, report_interval_s=0.5)
        stride = int(round(0.5 / data.T))
        al = make_aligner(method, data.T)
        est, err = [], []
        for k in range(data.n_updates):
            al.update(data.interval(k), data.fix(k), data.fix(k + 1))
            if (k + 1) % stride:
                continue
            try:
                c_b_n = al.estimate().c_b_n
            except DegenerateSpectrum:
                continue
            truth_row = data.truth_c_b_n[k + 1]
            est.append(dcm_to_euler(c_b_n))
            err.append(dcm_to_euler(matmul3(c_b_n, truth_row.T.ravel().tolist())))
        solved = ~rep.degenerate
        assert len(err) == solved.sum() > 0
        assert rep.est_deg[solved].tobytes() == (np.array(est) * RAD2DEG).tobytes()
        assert rep.err_deg[solved].tobytes() == (np.array(err) * RAD2DEG).tobytes()

    def test_errors_at_needs_error_columns(self, short_truth):
        # the same stream without a truth, as replay mode builds it
        sim = AlignmentData.from_simulation(short_truth)
        data = AlignmentData(
            T=sim.T, dtheta=sim.dtheta, dv=sim.dv,
            fix_t=sim.fix_t, fix_v=sim.fix_v, fix_p=sim.fix_p,
        )
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        assert rep.err_deg is None
        with pytest.raises(ValueError, match="no error columns"):
            rep.errors_at([1.0])

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

    def test_replay_truth_matches_in_memory_truth(self, short_truth, tmp_path):
        # the truth log's quaternions become body-to-nav DCMs, one per fix
        from ifalign.attitude import dcm_to_quat
        from ifalign.simulate import gps_fixes, sample_imu

        data_mem = AlignmentData.from_simulation(short_truth)
        dtheta, dv = sample_imu(short_truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * short_truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        ifio.write_gps(tmp_path / "gps.csv", *gps_fixes(short_truth))
        idx = short_truth.update_indices()
        q = dcm_to_quat(short_truth.c_b_n[idx])
        ifio.write_truth(
            tmp_path / "truth.csv", short_truth.t[idx], q, short_truth.v[idx],
            short_truth.p[idx],
        )
        data_file = AlignmentData.from_logs(
            tmp_path / "imu.csv", tmp_path / "gps.csv",
            short_truth.cfg.update_interval_s, truth_path=tmp_path / "truth.csv",
        )
        assert data_file.truth_c_b_n.shape == data_mem.truth_c_b_n.shape
        np.testing.assert_allclose(data_file.truth_c_b_n, data_mem.truth_c_b_n, atol=1e-10)

    def test_report_interval_must_tile(self, short_truth):
        data = AlignmentData.from_simulation(short_truth)
        with pytest.raises(ValueError):
            run_alignment(data, "vif", report_interval_s=0.03)

    @pytest.mark.parametrize("interval", [math.inf, math.nan], ids=["inf", "nan"])
    def test_report_interval_must_be_finite(self, interval, short_truth):
        # not an OverflowError, or numpy's "cannot convert float NaN to integer"
        data = AlignmentData.from_simulation(short_truth)
        with pytest.raises(ValueError, match=f"^report interval {interval:g} s is not a positive"):
            run_alignment(data, "vif", report_interval_s=interval)

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
        data = AlignmentData.from_simulation(short_truth)
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        rep.write_csv(tmp_path / "r1.csv", seed=1, config_hash="abc")
        rep2 = run_alignment(data, "vif", report_interval_s=1.0)
        rep2.write_csv(tmp_path / "r2.csv", seed=1, config_hash="abc")
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


    def test_report_csv_bytes_of_a_fixed_report(self, tmp_path):
        # the rows print with %.12g, NaN and negative zero included, with
        # and without the truth columns, under the caller's provenance and
        # the report's method, sorted by key
        nan = float("nan")
        report = RunReport(
            method="pif", t=np.array([0.5, 1.0, 1.5]),
            est_deg=np.array([[nan, nan, nan], [1.0 / 3.0, -0.0, 1e-20],
                              [-179.99999999999, 2.5, 123456789.123456789]]),
            err_deg=np.array([[nan, nan, nan], [-2.0 / 3.0, 0.0, -1e-13],
                              [7e-5, -45.0, 0.1 + 0.2]]),
            degenerate=np.array([True, False, False]),
            k_eigenvalues=np.array([0.0, 1.5, 2.25e3, 4e6]),
        )
        preamble = (
            "# ifalign run report\n# config_hash=abc\n# method=pif\n# seed=3\n"
            "# k_eigenvalues=0,1.5,2250,4000000\n"
        )
        report.write_csv(tmp_path / "r.csv", seed=3, config_hash="abc")
        assert (tmp_path / "r.csv").read_text() == preamble + (
            "t_s,roll_est_deg,pitch_est_deg,yaw_est_deg,"
            "roll_err_deg,pitch_err_deg,yaw_err_deg,degenerate\n"
            "0.5,nan,nan,nan,nan,nan,nan,1\n"
            "1,0.333333333333,-0,1e-20,-0.666666666667,0,-1e-13,0\n"
            "1.5,-180,2.5,123456789.123,7e-05,-45,0.3,0\n"
        )
        report.err_deg = None
        report.write_csv(tmp_path / "r.csv", seed=3, config_hash="abc")
        assert (tmp_path / "r.csv").read_text() == preamble + (
            "t_s,roll_est_deg,pitch_est_deg,yaw_est_deg,degenerate\n"
            "0.5,nan,nan,nan,1\n"
            "1,0.333333333333,-0,1e-20,0\n"
            "1.5,-180,2.5,123456789.123,0\n"
        )

    def test_k_eigenvalues_printed_to_solve_precision(self, tmp_path):
        # eigh is accurate to about eps * max|lambda| absolute (1e-5 here):
        # two solvers that differ by 2e-9 relative on lambda_min (as Jacobi
        # and LAPACK did) print the same header, which stays within a few
        # times that accuracy of the values
        eigenvalues = np.array([27.41837123456, 3.1e3, 8.2e6, 4.7e10])
        other = eigenvalues * np.array([1.0 + 2e-9, 1.0, 1.0, 1.0])

        def header(values):
            report = RunReport(
                method="vif", t=np.array([1.0]), est_deg=np.zeros((1, 3)),
                err_deg=None, degenerate=np.zeros(1, dtype=bool),
                k_eigenvalues=values,
            )
            report.write_csv(tmp_path / "r.csv")
            lines = (tmp_path / "r.csv").read_text().splitlines()
            return next(line for line in lines if line.startswith("# k_eigenvalues="))

        assert header(eigenvalues) == header(other)
        assert header(eigenvalues) == "# k_eigenvalues=27.4184,3100,8200000,47000000000"
        printed = np.array([float(x) for x in header(eigenvalues).split("=")[1].split(",")])
        resolution = np.finfo(float).eps * 4.7e10
        assert np.max(np.abs(printed - eigenvalues)) <= 5.0 * resolution


def test_results_compare_by_identity(short_data):
    # array fields make a field-wise == ambiguous; these compare as objects
    summary = McSummary("vif", np.array([5.0]), np.zeros((1, 3)), np.zeros((1, 3)), 2, [])
    for x in (short_data, run_alignment(short_data, "vif"), summary):
        assert x == x
        assert x != copy(x)


class TestAlignmentDataValidation:
    """IMU and fix rows are checked once, when the data object is built."""

    @staticmethod
    def arrays(truth):
        from ifalign.simulate import gps_fixes, sample_imu

        dtheta, dv = sample_imu(truth)
        fix_t, fix_v, fix_p = gps_fixes(truth)
        return dict(T=truth.cfg.update_interval_s, dtheta=dtheta, dv=dv,
                    fix_t=fix_t, fix_v=fix_v, fix_p=fix_p)

    def test_valid_rows_become_intervals_and_fixes(self, short_truth):
        from ifalign.align import aid_fix
        from ifalign.increments import (
            body_rotvec, double_integral_increment, imu_interval, sculling_increment,
        )

        data = AlignmentData(**self.arrays(short_truth))
        # every fix is (t, v, p): a float and two 3-tuples of floats equal
        # to its rows, as aid_fix builds it from them
        for k in range(data.n_updates + 1):
            fix = data.fix(k)
            assert type(fix) is tuple and len(fix) == 3
            t, v, p = fix
            assert type(t) is float and t == data.fix_t[k]
            for got, row in ((v, data.fix_v[k]), (p, data.fix_p[k])):
                assert type(got) is tuple and got == tuple(row.tolist())
                assert all(type(x) is float for x in got)
            assert aid_fix(data.fix_t[k], data.fix_v[k], data.fix_p[k]) == fix
        # every interval is its four rows as one flat 12-tuple of floats,
        # and the kernels read it as they read one built from the vectors
        for k in range(data.n_updates):
            interval = data.interval(k)
            rows = (data.dtheta[2 * k], data.dtheta[2 * k + 1],
                    data.dv[2 * k], data.dv[2 * k + 1])
            assert type(interval) is tuple and len(interval) == 12
            assert all(type(x) is float for x in interval)
            assert interval == sum((tuple(row.tolist()) for row in rows), ())
            built = imu_interval(*rows)
            assert built == interval
            assert sculling_increment(interval) == sculling_increment(built)
            assert body_rotvec(interval) == body_rotvec(built)
            assert (double_integral_increment(interval, data.T)
                    == double_integral_increment(built, data.T))

    @pytest.mark.parametrize("case", ["nan_dtheta", "inf_dv", "coning_at_bound",
                                      "coning_above_bound", "nan_fix"])
    def test_bad_rows_rejected_at_construction(self, case, short_truth):
        arrays = self.arrays(short_truth)
        dtheta, dv = arrays["dtheta"], arrays["dv"]
        if case == "nan_dtheta":
            dtheta[101, 2] = np.nan
        elif case == "inf_dv":
            dv[6, 0] = np.inf
        elif case == "coning_at_bound":
            # |dtheta1 + dtheta2| == 0.1 rad exactly
            dtheta[40], dtheta[41] = [0.05, 0.0, 0.0], [0.05, 0.0, 0.0]
        elif case == "coning_above_bound":
            dtheta[41] = [0.0, 0.0, 0.12]
        else:
            arrays["fix_v"][3, 1] = np.nan
        with pytest.raises(ValueError, match="finite|0.1 rad"):
            AlignmentData(**arrays)

    @pytest.mark.parametrize("T", [0.0, -0.02, float("nan"), float("inf")])
    def test_update_interval_must_be_positive_and_finite(self, T, short_truth):
        arrays = self.arrays(short_truth)
        arrays["T"] = T
        with pytest.raises(ValueError, match="update interval T must be positive and finite"):
            AlignmentData(**arrays)

    @pytest.mark.parametrize("case, k", [("shifted", 149), ("reversed", 0), ("coarser_T", 0)])
    def test_fix_times_must_advance_by_T(self, case, k, short_truth):
        # refused when built, not after the aligner has folded k updates
        arrays = self.arrays(short_truth)
        if case == "shifted":
            arrays["fix_t"][150:] += 0.01
        elif case == "reversed":
            arrays["fix_t"] = arrays["fix_t"][::-1].copy()
        else:
            arrays["T"] = 0.03
        t = arrays["fix_t"].tolist()
        message = (
            f"fix times must advance by the update interval of {arrays['T']} s, "
            f"got {t[k]} -> {t[k + 1]} at fixes {k} and {k + 1}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AlignmentData(**arrays)

    @pytest.mark.parametrize("case", ["imu_short", "imu_odd", "fix_v_short", "fix_p_2d"])
    def test_row_counts_must_match_fixes(self, case, short_truth):
        arrays = self.arrays(short_truth)
        if case == "imu_short":
            arrays["dtheta"] = arrays["dtheta"][:-2]
            arrays["dv"] = arrays["dv"][:-2]
        elif case == "imu_odd":
            arrays["dtheta"] = arrays["dtheta"][:-1]
        elif case == "fix_v_short":
            arrays["fix_v"] = arrays["fix_v"][:-1]
        else:
            arrays["fix_p"] = arrays["fix_p"][:, :2]
        with pytest.raises(ValueError):
            AlignmentData(**arrays)

    @pytest.mark.parametrize("case", ["nan_dtheta", "coning_above_bound"])
    def test_bad_log_rows_rejected_at_ingest(self, case, short_truth, tmp_path):
        from ifalign.simulate import gps_fixes, sample_imu

        dtheta, dv = sample_imu(short_truth)
        if case == "nan_dtheta":
            dtheta[333, 1] = np.nan
        else:
            dtheta[332] = [0.0, 0.11, 0.0]
        t_end = (np.arange(dtheta.shape[0]) + 1) * short_truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        ifio.write_gps(tmp_path / "gps.csv", *gps_fixes(short_truth))
        # each names the IMU log and its file lines: row 333 is line 335, and
        # the interval of rows 332 and 333 is lines 334 and 335
        match = (r"imu\.csv: line 335: IMU increment is not finite$" if case == "nan_dtheta"
                 else r"imu\.csv: line 334: angular increment exceeds 0\.1 rad over the "
                 r"update interval of this line and line 335$")
        with pytest.raises(FormatError, match=match):
            AlignmentData.from_logs(
                tmp_path / "imu.csv", tmp_path / "gps.csv",
                short_truth.cfg.update_interval_s,
            )


    @pytest.mark.parametrize("case", ["one_row_short", "single_dcm", "nan"])
    def test_truth_checked_at_construction(self, case, short_truth):
        arrays = self.arrays(short_truth)
        truth = short_truth.c_b_n[short_truth.update_indices()]
        if case == "one_row_short":
            truth = truth[:-1]
        elif case == "single_dcm":
            truth = truth[0]
        else:
            truth[7, 1, 2] = np.nan
        n_fixes = arrays["fix_t"].size
        with pytest.raises(ValueError, match=rf"\(N\+1, 3, 3\) = \({n_fixes}, 3, 3\)"):
            AlignmentData(**arrays, truth_c_b_n=truth)

    def test_truth_log_checked_at_ingest(self, short_truth, tmp_path):
        from ifalign.attitude import dcm_to_quat
        from ifalign.simulate import gps_fixes, sample_imu

        dtheta, dv = sample_imu(short_truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * short_truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        ifio.write_gps(tmp_path / "gps.csv", *gps_fixes(short_truth))
        idx = short_truth.update_indices()
        q = dcm_to_quat(short_truth.c_b_n[idx])
        q[12, 0] = np.nan
        ifio.write_truth(tmp_path / "truth.csv", short_truth.t[idx], q,
                         short_truth.v[idx], short_truth.p[idx])
        with pytest.raises(FormatError,
                           match=r"truth\.csv: quaternion at t=0\.24 s has norm nan, not 1$"):
            AlignmentData.from_logs(
                tmp_path / "imu.csv", tmp_path / "gps.csv",
                short_truth.cfg.update_interval_s, truth_path=tmp_path / "truth.csv",
            )


    @pytest.mark.parametrize("scale, row, norm", [
        (2.0, None, "2"), (1.0 + 2e-6, 12, "1.000002"), (1.0 + 5e-7, 12, None),
    ], ids=["doubled", "just-off", "within-tolerance"])
    def test_truth_quaternion_must_be_unit(self, scale, row, norm, short_truth, tmp_path):
        from ifalign.attitude import dcm_to_quat
        from ifalign.simulate import gps_fixes, sample_imu

        dtheta, dv = sample_imu(short_truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * short_truth.cfg.sample_dt
        ifio.write_imu(tmp_path / "imu.csv", t_end, dtheta, dv)
        ifio.write_gps(tmp_path / "gps.csv", *gps_fixes(short_truth))
        idx = short_truth.update_indices()
        q = dcm_to_quat(short_truth.c_b_n[idx])
        q[slice(None) if row is None else row] *= scale
        truth_path = tmp_path / "truth.csv"
        ifio.write_truth(truth_path, short_truth.t[idx], q, short_truth.v[idx],
                         short_truth.p[idx])
        args = (tmp_path / "imu.csv", tmp_path / "gps.csv", short_truth.cfg.update_interval_s)
        if norm is None:
            assert AlignmentData.from_logs(*args, truth_path=truth_path).n_updates == 1000
            return
        with pytest.raises(FormatError) as err:
            AlignmentData.from_logs(*args, truth_path=truth_path)
        t = 0.0 if row is None else short_truth.t[idx[row]]
        assert err.value.path == truth_path
        assert str(err.value) == f"{truth_path}: quaternion at t={t:g} s has norm {norm}, not 1"


class TestQuietBuild:
    """The interval and fix objects are built with the cyclic collector paused."""

    @pytest.fixture(scope="class")
    def arrays(self):
        truth = generate_truth(ScenarioConfig(duration_s=60.0))
        return dict(TestAlignmentDataValidation.arrays(truth),
                    truth_c_b_n=truth.c_b_n[truth.update_indices()])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled, arrays):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            AlignmentData(**arrays)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_state_restored_after_a_failed_build(self, arrays, monkeypatch):
        from ifalign import harness

        def broken(*columns):
            raise RuntimeError("build failed")

        # the paused block zips the intervals and fixes from the columns
        monkeypatch.setattr(harness, "zip", broken, raising=False)
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            AlignmentData(**arrays)
        assert gc.isenabled()

    def test_no_collection_during_the_build(self, arrays):
        assert gc.isenabled()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            data = AlignmentData(**arrays)
        finally:
            gc.callbacks.remove(count)
        assert data.n_updates == 3000
        assert starts == []


class TestOracleDrift:
    def test_accumulator_drift_vs_oracle_over_300s(self):
        # perfect sensors: recursive accumulators vs the fine-step reference
        # integrator over the full default duration
        from ifalign.align import make_aligner
        from ifalign.oracle import AlignmentReference

        truth = generate_truth(ScenarioConfig())
        data = AlignmentData.from_simulation(truth)
        ref = AlignmentReference(truth, substep=0.005).run(300.0)
        for method, a_key, b_key in (
            ("vif", "alpha_v", "beta_v"),
            ("pif", "alpha_p", "beta_p"),
        ):
            al = make_aligner(method, data.T)
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
    @staticmethod
    def error_deg(c_est, c_true):
        # run_alignment's error row: the Euler angles of C_est @ C_true^T
        return np.array(
            dcm_to_euler(matmul3(c_est.ravel().tolist(), c_true.T.ravel().tolist()))
        ) * RAD2DEG

    def test_zero_for_identical(self):
        c = np.eye(3)
        np.testing.assert_allclose(self.error_deg(c, c), np.zeros(3))

    def test_small_yaw_offset(self):
        from ifalign.attitude import euler_to_dcm

        c_true = euler_to_dcm(np.array([0.1, 0.2, 0.3]))
        c_est = euler_to_dcm(np.array([0.1, 0.2, 0.3 + 1e-4]))
        err = self.error_deg(c_est, c_true)
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

    @pytest.mark.parametrize("duration", [10.0, 40.0], ids=["shorter", "longer"])
    def test_truth_must_be_that_of_cfg(self, duration, mc_truth, monkeypatch):
        # refused before any run, whether the truth is shorter than cfg or longer
        from ifalign import harness

        def no_run(run_index):
            raise AssertionError("a mismatched truth must not start a run")

        monkeypatch.setattr(harness, "_mc_run", no_run)
        cfg = ScenarioConfig(duration_s=duration)
        errors = simulation_sensor_defaults(seed=3)
        with pytest.raises(ValueError, match="^the truth was generated from another scenario"):
            monte_carlo(cfg, errors, 2, "vif", epochs=[10.0], jobs=1, truth=mc_truth)

    def test_truth_of_an_equal_scenario_typed_as_a_list(self, mc_truth):
        # the config keeps its vectors as float tuples, so a list-typed
        # equal scenario is the truth's own and gives the same summary
        errors = simulation_sensor_defaults(seed=3)
        cfg = ScenarioConfig(duration_s=30.0, vel_mean_mps=[120, 0, 0])
        s = monte_carlo(cfg, errors, 2, "vif", epochs=[30.0], jobs=1, truth=mc_truth)
        expected = monte_carlo(mc_truth.cfg, errors, 2, "vif", epochs=[30.0], jobs=1,
                               truth=mc_truth)
        np.testing.assert_array_equal(s.three_sigma_deg, expected.three_sigma_deg)

    def test_requires_two_runs(self, mc_truth):
        errors = simulation_sensor_defaults(seed=3)
        with pytest.raises(ValueError):
            monte_carlo(mc_truth.cfg, errors, 1, "vif", epochs=[30.0], truth=mc_truth)

    def test_pool_bounded_by_runs_and_jobs_checked(self, mc_truth, monkeypatch):
        from ifalign import harness

        workers = []

        class RecordingExecutor:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers, mp_context=None):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "_process_pool", RecordingExecutor)
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

    def test_default_jobs_are_the_cpus_this_process_may_run_on(self, mc_truth, monkeypatch):
        import os

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

        monkeypatch.setattr(harness, "_process_pool", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the host, not the mask
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        errors = simulation_sensor_defaults(seed=3)
        cfg = mc_truth.cfg
        pooled = monte_carlo(cfg, errors, 4, "vif", epochs=[30.0], truth=mc_truth)
        assert workers == [3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2})
        serial = monte_carlo(cfg, errors, 4, "vif", epochs=[30.0], truth=mc_truth)
        assert workers == [3]  # one CPU: the serial path, no pool
        assert pooled.mean_deg.tobytes() == serial.mean_deg.tobytes()
        assert pooled.three_sigma_deg.tobytes() == serial.three_sigma_deg.tobytes()

    def test_pool_forks_under_any_default_start_method(self):
        # workers find the truth only in the forked parent's memory
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ifalign

        code = (
            "import multiprocessing\n"
            "from ifalign.harness import monte_carlo\n"
            "from ifalign.simulate import ScenarioConfig, simulation_sensor_defaults\n"
            "multiprocessing.set_start_method('forkserver')\n"
            "summary = monte_carlo(ScenarioConfig(duration_s=4.0),\n"
            "                      simulation_sensor_defaults(3), 2, 'vif',\n"
            "                      epochs=[4.0], jobs=2)\n"
            "assert summary.n_runs == 2 and not summary.failed, summary.failed\n"
        )
        src = str(Path(ifalign.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr

    def test_default_epochs_end_at_the_last_report_row(self, short_truth):
        # a 20 s run: the default epochs up to 20 s, not a 300 s epoch
        # that is no report row
        errors = simulation_sensor_defaults(seed=3)
        s = monte_carlo(short_truth.cfg, errors, 2, "vif", jobs=1, truth=short_truth)
        assert s.epochs.tolist() == [5.0, 10.0, 20.0]
        assert s.n_runs == 2 and not s.failed
        with pytest.raises(ValueError, match="epoch 30 s is not a report row"):
            monte_carlo(short_truth.cfg, errors, 2, "vif", epochs=[30.0], jobs=1,
                        truth=short_truth)

    @pytest.mark.parametrize("epoch", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_epoch_rejected(self, epoch, short_truth):
        errors = simulation_sensor_defaults(seed=3)
        with pytest.raises(ValueError, match=f"^epoch {epoch:g} s is not a report row"):
            monte_carlo(short_truth.cfg, errors, 2, "vif", epochs=[5.0, epoch], jobs=1,
                        truth=short_truth)

    def test_runs_read_the_report_rows_of_the_epochs(self, short_truth, monkeypatch):
        # the epochs become 1 s report-row indices once, and a run reads
        # those rows: the errors that errors_at gives at the epochs
        from ifalign import harness

        errors = simulation_sensor_defaults(seed=3)
        harness._MC_CONTEXT["batch"] = short_truth, errors, "vif", [4, 19]
        try:
            index, errs, message = harness._mc_run(1)
        finally:
            harness._MC_CONTEXT.clear()
        assert (index, message) == (1, None)
        data = AlignmentData.from_simulation(short_truth, errors, run_rng(3, 1))
        want = run_alignment(data, "vif").errors_at([5.0, 20.0])
        assert errs.tobytes() == want.tobytes()

        seen = []

        def no_run(run_index):
            rows = harness._MC_CONTEXT["batch"][3]
            seen.append(rows)
            return run_index, np.zeros((len(rows), 3)), None

        monkeypatch.setattr(harness, "_mc_run", no_run)
        monte_carlo(short_truth.cfg, errors, 2, "vif", jobs=1, truth=short_truth)
        assert seen == [[4, 9, 19]] * 2

    def test_default_epochs_of_a_300_s_run(self, monkeypatch):
        from ifalign import harness

        def no_run(run_index):
            return run_index, np.zeros((len(harness._MC_CONTEXT["batch"][3]), 3)), None

        monkeypatch.setattr(harness, "_mc_run", no_run)
        for duration, epochs in ((300.0, harness.DEFAULT_EPOCHS),
                                 (120.0, (5.0, 10.0, 20.0, 60.0, 100.0, 120.0))):
            cfg = ScenarioConfig(duration_s=duration)  # a stand-in truth of that scenario
            truth = SimpleNamespace(cfg=cfg, antenna_fixes=lambda lever_arm_m: None)
            s = monte_carlo(cfg, simulation_sensor_defaults(), 2, "vif", jobs=1, truth=truth)
            assert tuple(s.epochs.tolist()) == epochs

    @staticmethod
    def _fail_runs(monkeypatch, failures):
        """Run ``i`` of a batch fails as ``failures[i]`` says: with the
        exception that run_alignment raises, or with NaN errors for "nan"."""
        from ifalign import harness

        real_rng, real_run = harness.run_rng, harness.run_alignment
        current = []  # the index of this process's current run

        def run_rng(seed, run_index):
            current[:] = [run_index]
            return real_rng(seed, run_index)

        def run_alignment(data, method):
            failure = failures.get(current[0])
            if isinstance(failure, Exception):
                raise failure
            report = real_run(data, method)
            if failure == "nan":
                report.err_deg[:] = np.nan
            return report

        monkeypatch.setattr(harness, "run_rng", run_rng)
        monkeypatch.setattr(harness, "run_alignment", run_alignment)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_runs_are_excluded_and_listed(self, jobs, mc_truth, monkeypatch):
        from ifalign.errors import NotARotation

        self._fail_runs(monkeypatch, {1: np.linalg.LinAlgError("K is not finite"),
                                      3: NotARotation("not orthonormal"), 4: "nan"})
        errors = simulation_sensor_defaults(seed=3)
        s = monte_carlo(mc_truth.cfg, errors, 6, "vif", epochs=[30.0], jobs=jobs,
                        truth=mc_truth)
        assert s.failed == [
            (1, "LinAlgError: K is not finite"),
            (3, "NotARotation: not orthonormal"),
            (4, "DegenerateSpectrum: degenerate estimate at a requested epoch"),
        ]
        assert s.format_table().splitlines()[-1] == f"excluded runs: {s.failed}"
        # the statistics are those of the runs that completed
        kept = np.stack([
            run_alignment(AlignmentData.from_simulation(mc_truth, errors, run_rng(3, i)),
                          "vif").errors_at([30.0])
            for i in (0, 2, 5)
        ])
        assert s.n_runs == 3
        assert s.mean_deg.tobytes() == kept.mean(axis=0).tobytes()
        assert s.three_sigma_deg.tobytes() == (3.0 * kept.std(axis=0, ddof=1)).tobytes()

    def test_fewer_than_two_completed_runs(self, mc_truth, monkeypatch):
        from ifalign.errors import DegenerateSpectrum

        self._fail_runs(monkeypatch, {0: ValueError("no such epoch")})
        errors = simulation_sensor_defaults(seed=3)
        with pytest.raises(DegenerateSpectrum,
                           match="^fewer than two Monte-Carlo runs completed$"):
            monte_carlo(mc_truth.cfg, errors, 2, "vif", epochs=[30.0], jobs=1,
                        truth=mc_truth)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_programming_error_is_not_a_failed_run(self, jobs, mc_truth, monkeypatch):
        # it stops the batch instead of being summarized away
        self._fail_runs(monkeypatch, {1: TypeError("bug in run 1")})
        errors = simulation_sensor_defaults(seed=3)
        with pytest.raises(TypeError, match="^bug in run 1$"):
            monte_carlo(mc_truth.cfg, errors, 3, "vif", epochs=[30.0], jobs=jobs,
                        truth=mc_truth)

    def test_summary_table_format(self, mc_truth):
        errors = simulation_sensor_defaults(seed=3)
        s = monte_carlo(mc_truth.cfg, errors, 3, "vif", epochs=[10.0, 30.0],
                        jobs=1, truth=mc_truth)
        table = s.format_table()
        assert "method=vif" in table
        assert "10.0" in table and "30.0" in table
