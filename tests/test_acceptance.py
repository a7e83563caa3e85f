"""Acceptance suite: one test (or test group) per criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavy shared artifacts (300 s truth, ideal-sensor runs, the 100-run
Monte-Carlo batches) are session fixtures so each is computed once.
"""

import math
import time

import numpy as np
import pytest

from ifalign import io as ifio
from ifalign import oracle
from ifalign.align import make_aligner
from ifalign.attitude import quat_multiply, rotvec_to_dcm
from ifalign.errors import DegenerateSpectrum
from ifalign.harness import AlignmentData, monte_carlo, run_alignment
from ifalign.increments import (
    body_rotvec,
    double_integral_increment,
    imu_interval,
    sculling_increment,
)
from ifalign.quest import accumulate, optimal_quaternion
from ifalign.simulate import (
    ScenarioConfig,
    generate_truth,
    run_rng,
    simulation_sensor_defaults,
    turning_scenario,
)

MC_RUNS = 100
MC_SEED = 0


def report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="session")
def default_truth():
    return generate_truth(ScenarioConfig())


@pytest.fixture(scope="session")
def ideal_runs(default_truth):
    """Criterion-1 artifact: ideal-sensor 300 s runs of both aligners."""
    t0 = time.perf_counter()
    data = AlignmentData.from_simulation(default_truth)
    reports = {
        method: run_alignment(data, method, report_interval_s=1.0)
        for method in ("vif", "pif")
    }
    elapsed = time.perf_counter() - t0
    return reports, elapsed, data


@pytest.fixture(scope="session")
def mc_summaries(default_truth):
    """Criterion-2 artifact: 100-run Monte-Carlo batches for both methods."""
    errors = simulation_sensor_defaults(seed=MC_SEED)
    t0 = time.perf_counter()
    out = {
        method: monte_carlo(
            default_truth.cfg, errors, MC_RUNS, method, epochs=[300.0],
            truth=default_truth,
        )
        for method in ("vif", "pif")
    }
    elapsed = time.perf_counter() - t0
    return out, elapsed


class TestCriterion1IdealSensors:
    def test_errors_negligible_after_convergence(self, ideal_runs):
        reports, elapsed, _ = ideal_runs
        worst = {}
        for method, rep in reports.items():
            late = rep.err_deg[rep.t >= 60.0]
            assert not np.any(rep.degenerate[rep.t >= 60.0])
            worst[method] = float(np.max(np.abs(late)))
            assert worst[method] < 0.01, f"{method} ideal-sensor error too large"
        report(
            "1 PASS ideal sensors: max|err| t>=60s "
            f"vif {worst['vif']:.2e} deg, pif {worst['pif']:.2e} deg"
        )

    def test_runtime_budget(self, ideal_runs):
        _, elapsed, _ = ideal_runs
        assert elapsed < 10.0, f"ideal-sensor runs took {elapsed:.1f} s"
        report(f"1 PASS runtime: both aligners in {elapsed:.1f} s (< 10 s)")


class TestCriterion2MonteCarlo:
    def test_vif_yaw_band(self, mc_summaries):
        summaries, _ = mc_summaries
        mean = summaries["vif"].mean_deg[0, 2]
        sigma3 = summaries["vif"].three_sigma_deg[0, 2]
        assert abs(mean) <= 0.1, f"vif yaw mean {mean:+.4f} deg"
        assert 0.1 <= sigma3 <= 0.5, f"vif yaw 3sigma {sigma3:.4f} deg"
        report(f"2 PASS vif yaw at 300s: {mean:+.4f} +- {sigma3:.4f} deg (100 runs)")

    def test_pif_yaw_band(self, mc_summaries):
        summaries, _ = mc_summaries
        mean = summaries["pif"].mean_deg[0, 2]
        sigma3 = summaries["pif"].three_sigma_deg[0, 2]
        assert abs(mean) <= 0.1, f"pif yaw mean {mean:+.4f} deg"
        assert 0.05 <= sigma3 <= 0.3, f"pif yaw 3sigma {sigma3:.4f} deg"
        report(f"2 PASS pif yaw at 300s: {mean:+.4f} +- {sigma3:.4f} deg (100 runs)")

    def test_scatter_ordering(self, mc_summaries):
        summaries, _ = mc_summaries
        vif3 = summaries["vif"].three_sigma_deg[0, 2]
        pif3 = summaries["pif"].three_sigma_deg[0, 2]
        line = f"2 scatter ordering: pif 3sigma {pif3:.4f} vs vif 3sigma {vif3:.4f}"
        if pif3 < vif3:
            report(line + " PASS")
        else:
            report(line + " FAIL")
        assert pif3 < vif3, (
            "position-form scatter is not below velocity-form scatter. With the"
            " initial velocity solved inside both fits, the remaining yaw"
            " scatter comes mostly from accelerometer white noise, and vif's"
            " 3sigma is 15-19% below pif's on seeds 0-2 (measured yaw 3sigma"
            " pif/vif: 0.144/0.116 deg at seed 0 with 100 runs, 0.180/0.151 at"
            " seed 1 and 0.144/0.123 at seed 2 with 48 runs); see CHANGES.md"
        )

    def test_runtime_budget(self, mc_summaries):
        _, elapsed = mc_summaries
        assert elapsed < 300.0, f"Monte-Carlo batches took {elapsed:.0f} s"
        report(f"2 PASS runtime: 2 x {MC_RUNS} runs in {elapsed:.0f} s (< 300 s)")


class TestCriterion3LeverArm:
    # mean error curves over a small batch with identical run seeds for the
    # lever-on and lever-off arms: the white-noise contribution averages
    # down while the deterministic lever transient survives, which is the
    # comparison the mean-error figures make
    N_RUNS = 16

    @pytest.fixture(scope="class")
    def lever_peaks(self):
        truth = generate_truth(turning_scenario(duration_s=120.0))
        errors = simulation_sensor_defaults(seed=MC_SEED)
        peaks = {}
        for method in ("vif", "pif"):
            for tag, errs in (("lever", errors), ("none", errors.without_lever_arm())):
                acc = None
                for i in range(self.N_RUNS):
                    data = AlignmentData.from_simulation(
                        truth, errs, run_rng(errs.seed, i)
                    )
                    rep = run_alignment(data, method, report_interval_s=1.0)
                    yaw = rep.err_deg[:, 2]
                    acc = yaw if acc is None else acc + yaw
                mean_curve = acc / self.N_RUNS
                window = rep.t >= 10.0
                peaks[method, tag] = float(np.nanmax(np.abs(mean_curve[window])))
        return peaks

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_lever_amplifies_transient(self, lever_peaks, method):
        with_lever = lever_peaks[method, "lever"]
        without = lever_peaks[method, "none"]
        ratio = with_lever / without
        assert ratio >= 1.5, (
            f"{method}: lever peak {with_lever:.3f} vs {without:.3f} deg"
        )
        report(
            f"3 PASS {method} lever-arm effect: peak mean yaw {with_lever:.3f} deg"
            f" vs {without:.3f} deg without (x{ratio:.1f})"
        )


class TestCriterion4TwoSampleKernels:
    @staticmethod
    def _interval_from(omega_fn, f_fn, t0, T, n=2000):
        halves = []
        for a, b in ((t0, t0 + T / 2.0), (t0 + T / 2.0, t0 + T)):
            ts = np.linspace(a, b, n + 1)
            w = np.asarray(omega_fn(ts), dtype=float)
            f = np.asarray(f_fn(ts), dtype=float)
            dt = (b - a) / n
            halves.append(
                (
                    np.sum(0.5 * dt * (w[1:] + w[:-1]), axis=0),
                    np.sum(0.5 * dt * (f[1:] + f[:-1]), axis=0),
                )
            )
        (dth1, dv1), (dth2, dv2) = halves
        return imu_interval(dtheta1=dth1, dtheta2=dth2, dv1=dv1, dv2=dv2)

    def test_linear_profiles_match_oracle(self):
        T = 0.02
        a_w = np.array([0.8, -0.5, 0.3])
        b_w = np.array([0.05, 0.3, -0.2])
        a_f = np.array([-30.0, 12.0, 8.0])
        b_f = np.array([2.0, 9.8, -1.5])

        def omega_fn(t):
            return np.asarray(t, dtype=float)[..., None] * a_w + b_w

        def f_fn(t):
            return np.asarray(t, dtype=float)[..., None] * a_f + b_f

        iv = self._interval_from(omega_fn, f_fn, 0.0, T)
        ref1 = oracle.rotated_velocity_integral(omega_fn, f_fn, 0.0, T, n=10000)
        rel1 = np.linalg.norm(sculling_increment(iv) - ref1) / np.linalg.norm(ref1)
        assert rel1 < 1e-9
        ref2 = oracle.rotated_velocity_double_integral(omega_fn, f_fn, 0.0, T, n=10000)
        rel2 = np.linalg.norm(
            double_integral_increment(iv, T) - ref2
        ) / np.linalg.norm(ref2)
        assert rel2 < 1e-9
        report(
            f"4 PASS linear profiles: velocity kernel rel {rel1:.1e}, "
            f"double-integral kernel rel {rel2:.1e} (< 1e-9)"
        )

    def test_sinusoid_halving_ratios(self):
        def omega_fn(t):
            t = np.asarray(t, dtype=float)
            return np.stack(
                [
                    0.25 * np.sin(2.0 * math.pi * t / 0.9 + 0.4),
                    0.30 * np.cos(2.0 * math.pi * t / 1.3),
                    0.20 * np.sin(2.0 * math.pi * t / 0.7 + 1.1),
                ],
                axis=-1,
            )

        def f_fn(t):
            t = np.asarray(t, dtype=float)
            return np.stack(
                [
                    4.0 * np.sin(2.0 * math.pi * t / 1.1 + 0.9),
                    9.8 + 2.0 * np.cos(2.0 * math.pi * t / 0.8),
                    3.0 * np.sin(2.0 * math.pi * t / 1.7 + 0.2),
                ],
                axis=-1,
            )

        ratios = {}
        for name, kernel, reference in (
            ("velocity", sculling_increment,
             lambda a, b: oracle.rotated_velocity_integral(
                 omega_fn, f_fn, a, b, n=20000, exact_rotation=True)),
            ("double-integral", None,
             lambda a, b: oracle.rotated_velocity_double_integral(
                 omega_fn, f_fn, a, b, n=20000, exact_rotation=True)),
        ):
            errs = []
            for T in (0.04, 0.02, 0.01):
                iv = self._interval_from(omega_fn, f_fn, 0.1, T, n=4000)
                if name == "velocity":
                    approx = sculling_increment(iv)
                else:
                    approx = double_integral_increment(iv, T)
                errs.append(np.linalg.norm(approx - reference(0.1, 0.1 + T)))
            ratios[name] = (errs[0] / errs[1], errs[1] / errs[2])
            assert ratios[name][0] >= 7.5 and ratios[name][1] >= 7.5, name
        report(
            "4 PASS halving ratios: velocity "
            f"{ratios['velocity'][0]:.1f}/{ratios['velocity'][1]:.1f}, "
            f"double-integral {ratios['double-integral'][0]:.1f}/"
            f"{ratios['double-integral'][1]:.1f} (>= 7.5)"
        )


class TestCriterion5FormulaResiduals:
    def test_residuals_with_true_attitude(self, default_truth, ideal_runs):
        _, _, data = ideal_runs
        c0 = default_truth.c_b_n[0]
        residuals = {}
        for method, bound in (("vif", 1e-4), ("pif", 1e-2)):
            al = make_aligner(method, data.T)
            for k in range(data.n_updates):
                al.update(data.interval(k), data.fix(k), data.fix(k + 1))
            residuals[method] = float(np.linalg.norm(c0 @ al.alpha - al.beta))
            assert residuals[method] < bound, f"{method} residual {residuals[method]}"
        report(
            f"5 PASS residuals over 300 s: velocity form {residuals['vif']:.2e} m/s"
            f" (< 1e-4), position form {residuals['pif']:.2e} m (< 1e-2)"
        )


class TestCriterion6EigenSolver:
    def test_residual_invariant_on_random_accumulations(self):
        rng = np.random.default_rng(123)
        checked = 0
        worst = 0.0
        while checked < 10 ** 4:
            K = (0.0,) * 16
            for _ in range(int(rng.integers(2, 6))):
                K = accumulate(K, rng.standard_normal(3), rng.standard_normal(3))
            try:
                q, lam = optimal_quaternion(K)
            except DegenerateSpectrum:
                continue
            K = np.reshape(K, (4, 4))
            r = np.linalg.norm(np.subtract(K @ q, np.multiply(lam, q)))
            bound = 1e-10 * max(1.0, np.trace(K))
            worst = max(worst, r / bound)
            assert r < bound
            checked += 1
        report(
            f"6 PASS eigen residuals: 1e4 random accumulations, worst residual"
            f" at {worst:.3f} of the 1e-10*max(1,trace) bound"
        )

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(321)
        worst = 0.0
        for _ in range(200):
            phi = rng.uniform(-2.5, 2.5, 3)
            c_b_n0 = np.reshape(rotvec_to_dcm(phi), (3, 3))
            from ifalign.attitude import dcm_to_quat

            q_true = dcm_to_quat(c_b_n0)
            K = (0.0,) * 16
            for _ in range(8):
                alpha = rng.standard_normal(3)
                K = accumulate(K, alpha, c_b_n0 @ alpha)
            q, _ = optimal_quaternion(K)
            dq = quat_multiply(np.array(q), np.array([q_true[0], *(-q_true[1:])]))
            angle = 2.0 * math.atan2(np.linalg.norm(dq[1:]), abs(dq[0]))
            worst = max(worst, angle)
            assert angle < 1e-9
        report(
            f"6 PASS noiseless recovery: worst rotation-angle error {worst:.2e} rad"
            " over 200 random attitudes (< 1e-9)"
        )


class TestCriterion7ReplayInterpolation:
    @pytest.fixture(scope="class")
    def replay_runs(self, tmp_path_factory):
        # 100 s ideal-sensor scenario exported to files with 2 Hz GPS, then
        # ingested with linear interpolation; compared against
        # endpoint-exact aiding
        outdir = tmp_path_factory.mktemp("replay")
        cfg = ScenarioConfig(duration_s=100.0)
        truth = generate_truth(cfg)
        from ifalign.simulate import gps_fixes, sample_imu

        dtheta, dv = sample_imu(truth)
        t_end = (np.arange(dtheta.shape[0]) + 1) * cfg.sample_dt
        ifio.write_imu(outdir / "imu.csv", t_end, dtheta, dv)
        t2, v2, p2 = gps_fixes(truth, stride_s=0.5)
        ifio.write_gps(outdir / "gps2hz.csv", t2, v2, p2)

        data_interp = AlignmentData.from_logs(
            outdir / "imu.csv", outdir / "gps2hz.csv", cfg.update_interval_s
        )
        idx = truth.update_indices()
        data_interp.truth_c_b_n = truth.c_b_n[idx]
        data_exact = AlignmentData.from_simulation(truth)
        out = {}
        for method in ("vif", "pif"):
            rep_i = run_alignment(data_interp, method, report_interval_s=1.0)
            rep_e = run_alignment(data_exact, method, report_interval_s=1.0)
            out[method] = (rep_i.errors_at([100.0])[0], rep_e.errors_at([100.0])[0])
        return out

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_graceful_interpolation_degradation(self, replay_runs, method):
        err_interp, err_exact = replay_runs[method]
        extra = abs(err_interp[2] - err_exact[2])
        assert extra < 0.1, f"{method} extra yaw error {extra:.3f} deg"
        # criterion-1-level accuracy, allowing the 0.1 deg interpolation budget
        assert abs(err_interp[2]) < 0.11
        report(
            f"7 PASS {method} 2 Hz replay: yaw err {err_interp[2]:+.4f} deg at"
            f" 100 s, {extra:.2e} deg from endpoint-exact aiding (< 0.1)"
        )


class TestCriterion8Determinism:
    def test_bitwise_identical_reports(self, tmp_path):
        cfg = ScenarioConfig(duration_s=30.0)
        truth = generate_truth(cfg)
        errors = simulation_sensor_defaults(seed=77)
        blobs = []
        for attempt in range(2):
            data = AlignmentData.from_simulation(
                truth, errors, run_rng(errors.seed, 0),
                metadata={"seed": errors.seed, "config_hash": "fixed"},
            )
            rep = run_alignment(data, "vif", report_interval_s=1.0)
            path = tmp_path / f"rep{attempt}.csv"
            rep.write_csv(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        report("8 PASS determinism: repeated run reports are bitwise identical")

    def test_monte_carlo_repeatable(self):
        cfg = ScenarioConfig(duration_s=30.0)
        truth = generate_truth(cfg)
        errors = simulation_sensor_defaults(seed=77)
        s1 = monte_carlo(cfg, errors, 4, "pif", epochs=[30.0], jobs=2, truth=truth)
        s2 = monte_carlo(cfg, errors, 4, "pif", epochs=[30.0], jobs=1, truth=truth)
        assert np.array_equal(s1.mean_deg, s2.mean_deg)
        assert np.array_equal(s1.three_sigma_deg, s2.three_sigma_deg)
        report("8 PASS determinism: Monte-Carlo summary independent of scheduling")
