import json
import math

import numpy as np
import pytest

from ifalign.align import (
    AidFix,
    PositionIntegrationAligner,
    VelocityIntegrationAligner,
    make_aligner,
)
from ifalign.attitude import cross3, quat_to_dcm, rotation_angle, rotvec_to_dcm
from ifalign.errors import DegenerateSpectrum
from ifalign.harness import AlignmentData
from ifalign.increments import (
    body_rotvec,
    double_integral_increment,
    sculling_increment,
)
from ifalign import earth


def drive(aligner, data, n=None, collect=None):
    """Fold the first n updates; returns the final estimate (or None)."""
    n = data.n_updates if n is None else n
    for k in range(n):
        aligner.update(data.interval(k), data.fix(k), data.fix(k + 1))
        if collect is not None:
            collect(k, aligner)
    return estimate_or_none(aligner)


def estimate_or_none(aligner):
    try:
        return aligner.estimate()
    except DegenerateSpectrum:
        return None


@pytest.fixture(scope="module")
def short_data(short_truth):
    return AlignmentData.from_simulation(short_truth)


@pytest.fixture(scope="module")
def static_data(static_truth):
    return AlignmentData.from_simulation(static_truth)


class TestInit:
    @pytest.mark.parametrize("cls", [VelocityIntegrationAligner, PositionIntegrationAligner])
    def test_zeroed_state(self, cls):
        al = cls(np.zeros(3), np.array([0.0, 0.5, 0.0]), 0.02)
        assert al.M == 0
        np.testing.assert_array_equal(al.K, np.zeros((4, 4)))
        np.testing.assert_array_equal(al.c_nav, np.eye(3))
        np.testing.assert_array_equal(al.c_body, np.eye(3))
        np.testing.assert_array_equal(al.alpha, np.zeros(3))

    @pytest.mark.parametrize("cls", [VelocityIntegrationAligner, PositionIntegrationAligner])
    def test_rejects_nonpositive_interval(self, cls):
        with pytest.raises(ValueError):
            cls(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            cls(np.zeros(3), np.zeros(3), -0.02)

    def test_factory(self):
        assert isinstance(
            make_aligner("vif", np.zeros(3), np.zeros(3), 0.02),
            VelocityIntegrationAligner,
        )
        assert isinstance(
            make_aligner("pif", np.zeros(3), np.zeros(3), 0.02),
            PositionIntegrationAligner,
        )
        with pytest.raises(ValueError):
            make_aligner("xyz", np.zeros(3), np.zeros(3), 0.02)

    def test_pif_extra_accumulators_zero(self):
        al = PositionIntegrationAligner(np.zeros(3), np.zeros(3), 0.02)
        for name in ("alpha", "beta", "s_body", "s_nav_v", "s_nav_g", "u_r", "u_v", "u_g",
                     "t_alpha", "t_beta"):
            np.testing.assert_array_equal(getattr(al, name), np.zeros(3))
        assert al.t_sq == 0.0


class TestSerialization:
    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_json_round_trip_preserves_state_and_future(self, method, short_data):
        al = make_aligner(method, short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        drive(al, short_data, n=100)
        blob = json.dumps(al.to_dict())
        al2 = type(al).from_dict(json.loads(blob))
        assert al2.M == al.M
        assert al2.T == al.T
        # every declared state field, bitwise
        for name in ("v0", "p0", "c_nav", "c_body", "K", *al.STATE):
            original, restored = getattr(al, name), getattr(al2, name)
            assert np.shape(restored) == np.shape(original), name
            assert np.asarray(restored).tobytes() == np.asarray(original).tobytes(), name
        np.testing.assert_array_equal(al2.solved_matrix(), al.solved_matrix())
        # identical subsequent evolution and estimates, bitwise
        estimates = []
        for copy in (al, al2):
            qs = []
            for k in range(100, 150):
                copy.update(
                    short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
                )
                qs.append(copy.estimate().q)
            estimates.append(np.array(qs))
        np.testing.assert_array_equal(al.K, al2.K)
        np.testing.assert_array_equal(al.alpha, al2.alpha)
        np.testing.assert_array_equal(estimates[0], estimates[1])

    def test_kind_checked(self, short_data):
        al = make_aligner("vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        with pytest.raises(ValueError):
            PositionIntegrationAligner.from_dict(al.to_dict())


class TestGuards:
    def test_fix_spacing_checked(self, short_data):
        al = make_aligner("vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        bad = AidFix(t=0.5, v=short_data.fix_v[1], p=short_data.fix_p[1])
        with pytest.raises(ValueError):
            al.update(short_data.interval(0), short_data.fix(0), bad)

    def test_polar_fix_rejected(self, short_data):
        from ifalign.errors import PolarSingularity

        al = make_aligner("vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        polar = AidFix(
            t=short_data.fix_t[0],
            v=short_data.fix_v[0],
            p=np.array([0.0, math.pi / 2.0, 0.0]),
        )
        nxt = short_data.fix(1)
        with pytest.raises(PolarSingularity):
            al.update(short_data.interval(0), polar, nxt)

    def test_update_folds_and_estimate_raises_until_observable(self, short_data):
        al = make_aligner("vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        assert al.update(short_data.interval(0), short_data.fix(0), short_data.fix(1)) is None
        assert al.M == 1
        with pytest.raises(DegenerateSpectrum):
            al.estimate()
        # the caller keeps feeding; a few maneuvering updates make the
        # attitude observable
        for k in range(1, 50):
            al.update(short_data.interval(k), short_data.fix(k), short_data.fix(k + 1))
        assert al.M == 50
        assert al.estimate() is not None

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_estimate_is_pure(self, method, short_data):
        al = make_aligner(method, short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        drive(al, short_data, n=150)
        before = {name: np.copy(getattr(al, name)) for name in ("K", *al.STATE)}
        first, second = al.estimate(), al.estimate()
        assert first.q.tobytes() == second.q.tobytes()
        assert first.lambda_min == second.lambda_min
        assert first.c_b_n.tobytes() == second.c_b_n.tobytes()
        assert al.M == 150
        for name, value in before.items():
            assert getattr(al, name).tobytes() == value.tobytes(), name


class TestStaticCase:
    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_static_residual_with_true_attitude(self, method, static_truth, static_data):
        # stationary vehicle, ideal sensors: the accumulated pair satisfies
        # the defining identity with the true (identity) initial attitude
        al = make_aligner(
            method, static_data.fix_v[0], static_data.fix_p[0], static_data.T
        )
        drive(al, static_data)
        c0 = static_truth.c_b_n[0]
        assert np.linalg.norm(c0 @ al.alpha - al.beta) < 1e-9

    def test_static_estimate_recovers_attitude(self, static_truth, static_data):
        al = make_aligner("vif", static_data.fix_v[0], static_data.fix_p[0], static_data.T)
        est = drive(al, static_data)
        # gravity pins the level axes; yaw stays weakly observable under
        # earth-rate only, so compare the full attitude loosely and the
        # level directions tightly
        err = est.c_b_n @ static_truth.c_b_n[-1].T
        assert abs(err[1, 1] - 1.0) < 1e-6  # up axis aligned


class TestManeuveringRun:
    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_converges_with_perfect_sensors(self, method, short_truth, short_data):
        al = make_aligner(method, short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        est = drive(al, short_data)
        err = rotation_angle(est.c_b_n @ short_truth.c_b_n[-1].T)
        assert err < 1e-4  # rad; well-observable after 20 s of maneuvers

    def test_vif_residual_growth_bound(self, short_truth, short_data):
        al = make_aligner(
            "vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        drive(al, short_data)
        c0 = short_truth.c_b_n[0]
        residual = np.linalg.norm(c0 @ al.alpha - al.beta)
        # 1e-4 (m/s) per 100 s discretization budget, 20 s elapsed
        assert residual < 1e-4 * 20.0 / 100.0

    def test_pif_residual_growth_bound(self, short_truth, short_data):
        al = make_aligner(
            "pif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        drive(al, short_data)
        c0 = short_truth.c_b_n[0]
        residual = np.linalg.norm(c0 @ al.alpha - al.beta)
        # linear-in-t discretization budget: 1e-2 m over 300 s
        assert residual < 1e-2 * 20.0 / 300.0

    def test_time_origin_invariance(self, short_data):
        # same increments and fixes, times relabeled by a constant offset:
        # bitwise-identical estimates
        a1 = make_aligner("vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        a2 = make_aligner("vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T)
        last1 = last2 = None
        for k in range(200):
            iv = short_data.interval(k)
            f0, f1 = short_data.fix(k), short_data.fix(k + 1)
            shifted0 = AidFix(t=f0.t + 7.5, v=f0.v, p=f0.p)
            shifted1 = AidFix(t=f1.t + 7.5, v=f1.v, p=f1.p)
            a1.update(iv, f0, f1)
            a2.update(iv, shifted0, shifted1)
        np.testing.assert_array_equal(a1.estimate().q, a2.estimate().q)
        np.testing.assert_array_equal(a1.K, a2.K)

    def test_chains_match_oracle(self, short_truth, short_data):
        from ifalign.oracle import AlignmentReference

        al = make_aligner(
            "vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        drive(al, short_data)
        ref = AlignmentReference(short_truth.model, substep=0.005).run(
            short_truth.cfg.duration_s
        )
        assert rotation_angle(al.c_body @ ref["c_body"][-1].T) < 1e-7
        assert rotation_angle(al.c_nav @ ref["c_nav"][-1].T) < 1e-7

    def test_accumulators_match_oracle(self, short_truth, short_data):
        from ifalign.oracle import AlignmentReference

        vif = make_aligner(
            "vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        pif = make_aligner(
            "pif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        drive(vif, short_data)
        drive(pif, short_data)
        ref = AlignmentReference(short_truth.model, substep=0.005).run(
            short_truth.cfg.duration_s
        )
        for al, a_key, b_key in ((vif, "alpha_v", "beta_v"), (pif, "alpha_p", "beta_p")):
            scale = max(1.0, np.linalg.norm(ref[a_key][-1]))
            assert np.linalg.norm(al.alpha - ref[a_key][-1]) / scale < 1e-6
            scale_b = max(1.0, np.linalg.norm(ref[b_key][-1]))
            assert np.linalg.norm(al.beta - ref[b_key][-1]) / scale_b < 1e-6

    def test_pif_beta_is_integral_of_vif_beta(self, short_data):
        # the position-form observation vector is the running time-integral
        # of the velocity-form one; trapezoidal cross-check
        vif = make_aligner(
            "vif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        pif = make_aligner(
            "pif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        integral = np.zeros(3)
        prev = np.zeros(3)
        for k in range(short_data.n_updates):
            iv, f0, f1 = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            for al in (vif, pif):
                al.update(iv, f0, f1)
            integral = integral + 0.5 * short_data.T * (prev + vif.beta)
            prev = vif.beta.copy()
        assert np.linalg.norm(pif.beta - integral) < 1e-4 * max(
            1.0, np.linalg.norm(pif.beta)
        )


class TestPifPrefixSums:
    def test_accumulators_equal_direct_double_sums(self, short_data):
        # Re-derive alpha_p, u_v, u_g at the final step by the literal
        # nested double summation over stored per-interval quantities and
        # compare with the O(1)-per-step recursion.
        n = 120
        al = make_aligner(
            "pif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        T = short_data.T
        c_body_hist = []   # C_{b(t_k)}^{b(0)} for k = 0..n-1 (pre-update values)
        c_nav_hist = []
        scull_hist = []
        dbl_hist = []
        vbr_hist = []      # per-interval nav bracket for u_v prefix
        gbr_hist = []
        tail_v_hist = []
        tail_g_hist = []
        u_r_hist = []
        for k in range(n):
            iv, f0, f1 = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            omega_ie, omega_in, g_n = earth.aiding_kinematics(f0.v, f0.p)
            c_body_hist.append(al.c_body.copy())
            c_nav_hist.append(al.c_nav.copy())
            scull_hist.append(sculling_increment(iv))
            dbl_hist.append(double_integral_increment(iv, T))
            w0 = cross3(omega_ie, f0.v)
            w1 = cross3(omega_ie, f1.v)
            vbr_hist.append(
                (T / 2.0) * (w0 + w1)
                + (T * T / 6.0) * cross3(omega_in, w0)
                + (T * T / 3.0) * cross3(omega_in, w1)
            )
            gbr_hist.append(T * g_n + (T * T / 2.0) * cross3(omega_in, g_n))
            tail_v_hist.append(
                (T * T / 3.0) * w0
                + (T * T / 6.0) * w1
                + (T ** 3 / 12.0) * (cross3(omega_in, w0) + cross3(omega_in, w1))
            )
            tail_g_hist.append((T * T / 2.0) * g_n + (T ** 3 / 6.0) * cross3(omega_in, g_n))
            u_r_hist.append(
                (T / 2.0) * (f0.v + f1.v)
                + (T * T / 6.0) * cross3(omega_in, f0.v)
                + (T * T / 3.0) * cross3(omega_in, f1.v)
            )
            al.update(iv, f0, f1)

        # direct double sums (Table-style O(M^2) evaluation)
        alpha_direct = np.zeros(3)
        u_v_direct = np.zeros(3)
        u_g_direct = np.zeros(3)
        for k in range(n):
            inner = np.zeros(3)
            inner_v = np.zeros(3)
            inner_g = np.zeros(3)
            for m in range(k):
                inner = inner + c_body_hist[m] @ scull_hist[m]
                inner_v = inner_v + c_nav_hist[m] @ vbr_hist[m]
                inner_g = inner_g + c_nav_hist[m] @ gbr_hist[m]
            alpha_direct = alpha_direct + T * inner + c_body_hist[k] @ dbl_hist[k]
            u_v_direct = u_v_direct + T * inner_v + c_nav_hist[k] @ tail_v_hist[k]
            u_g_direct = u_g_direct + T * inner_g + c_nav_hist[k] @ tail_g_hist[k]

        assert np.linalg.norm(al.alpha - alpha_direct) <= 1e-12 * max(
            1.0, np.linalg.norm(alpha_direct)
        )
        assert np.linalg.norm(al.u_v - u_v_direct) <= 1e-12 * max(
            1.0, np.linalg.norm(u_v_direct)
        )
        assert np.linalg.norm(al.u_g - u_g_direct) <= 1e-12 * max(
            1.0, np.linalg.norm(u_g_direct)
        )

    def test_scaling_exact_pairs_by_time_preserves_estimate(self):
        # dividing both sides of the position-form relation by elapsed time
        # must not change the argmin when the pairs are exactly consistent
        from ifalign.quest import accumulate, optimal_quaternion

        c0 = rotvec_to_dcm(np.array([0.4, -0.9, 1.3]))
        K_plain = np.zeros((4, 4))
        K_scaled = np.zeros((4, 4))
        for m in range(1, 40):
            t_m = 0.5 * m
            alpha = np.array(
                [math.sin(0.3 * t_m), 0.01 * t_m ** 2, math.cos(0.2 * t_m)]
            )
            beta = c0 @ alpha
            K_plain = accumulate(K_plain, alpha, beta)
            K_scaled = accumulate(K_scaled, alpha / t_m, beta / t_m)
        q_plain, _ = optimal_quaternion(K_plain)
        q_scaled, _ = optimal_quaternion(K_scaled)
        assert min(
            np.linalg.norm(q_plain - q_scaled), np.linalg.norm(q_plain + q_scaled)
        ) < 1e-9

    def test_scaling_real_pairs_stays_within_discretization(self, short_data):
        # on simulated perfect-sensor data the two weightings differ only at
        # the discretization level of the recursions
        from ifalign.quest import accumulate, optimal_quaternion

        al = make_aligner(
            "pif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        K_scaled = np.zeros((4, 4))
        for k in range(short_data.n_updates):
            iv, f0, f1 = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            al.update(iv, f0, f1)
            t_m = (k + 1) * short_data.T
            K_scaled = accumulate(K_scaled, al.alpha / t_m, al.beta / t_m)
        q_plain, _ = optimal_quaternion(al.K)
        q_scaled, _ = optimal_quaternion(K_scaled)
        assert min(
            np.linalg.norm(q_plain - q_scaled), np.linalg.norm(q_plain + q_scaled)
        ) < 1e-5


class TestPifInitialVelocity:
    def test_solved_matrix_minimizes_out_velocity_correction(self, short_data, rng):
        # q^T solved_matrix q must equal min over w of
        # sum_k |C alpha_k - beta_k + t_k w|^2, evaluated from the pair history
        al = make_aligner(
            "pif", short_data.fix_v[0], short_data.fix_p[0], short_data.T
        )
        pairs = []
        drive(al, short_data, n=300,
              collect=lambda k, a: pairs.append((a.t, a.alpha.copy(), a.beta.copy())))
        t = np.array([p[0] for p in pairs])
        alpha = np.array([p[1] for p in pairs])
        beta = np.array([p[2] for p in pairs])
        solved = al.solved_matrix()
        for _ in range(5):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            resid = alpha @ quat_to_dcm(q) - beta     # rows: C alpha_k - beta_k
            plain = np.sum(resid ** 2)
            ramp = t @ resid
            expected = plain - ramp @ ramp / (t @ t)
            assert q @ al.K @ q == pytest.approx(plain, rel=1e-10)
            assert q @ solved @ q == pytest.approx(expected, rel=1e-8, abs=1e-12 * plain)

    def test_estimate_independent_of_initial_velocity_argument(self, short_data):
        # the v0 argument only shifts beta by a ramp t*dv, which the fit
        # absorbs: identical q at every solved report row (rounding is
        # amplified by the small eigen gap of the first seconds)
        stride = 50
        dv = np.array([0.3, -0.2, 0.25])
        base = make_aligner("pif", short_data.fix_v[0], short_data.fix_p[0],
                            short_data.T)
        shifted = make_aligner("pif", short_data.fix_v[0] + dv, short_data.fix_p[0],
                               short_data.T)
        solved = 0
        for k in range(short_data.n_updates):
            for al in (base, shifted):
                al.update(short_data.interval(k), short_data.fix(k), short_data.fix(k + 1))
            if (k + 1) % stride != 0:
                continue
            ests = [estimate_or_none(al) for al in (base, shifted)]
            assert (ests[0] is None) == (ests[1] is None), f"row at update {k + 1}"
            if ests[0] is not None:
                np.testing.assert_allclose(ests[0].q, ests[1].q, rtol=0.0, atol=1e-7)
                solved += 1
        assert solved >= short_data.n_updates // stride - 1
        assert not np.allclose(base.beta, shifted.beta)

    def test_single_pair_is_degenerate(self, short_data):
        # one pair is fitted exactly by the velocity correction alone, so the
        # attitude is unobservable whatever v0 is
        for dv in (np.zeros(3), np.array([0.3, -0.2, 0.25])):
            al = make_aligner("pif", short_data.fix_v[0] + dv, short_data.fix_p[0],
                              short_data.T)
            al.update(short_data.interval(0), short_data.fix(0), short_data.fix(1))
            with pytest.raises(DegenerateSpectrum):
                al.estimate()
            np.testing.assert_array_equal(al.solved_matrix(), np.zeros((4, 4)))


class TestHeadingDecay:
    def test_yaw_error_decays_with_maneuvers(self):
        # noisy 60 s run: yaw error at 60 s below the 10 s level
        from ifalign.harness import run_alignment
        from ifalign.simulate import (
            ScenarioConfig,
            generate_truth,
            run_rng,
            simulation_sensor_defaults,
        )

        cfg = ScenarioConfig(duration_s=60.0)
        truth = generate_truth(cfg)
        errors = simulation_sensor_defaults(seed=11)
        data = AlignmentData.from_simulation(truth, errors, run_rng(11, 0))
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        yaw = np.abs(rep.err_deg[:, 2])
        at10 = yaw[rep.t == 10.0][0]
        at60 = yaw[rep.t == 60.0][0]
        assert at60 < at10
