import math

import numpy as np
import pytest

from ifalign import earth, oracle
from ifalign.attitude import (
    quat_multiply,
    quat_to_dcm,
    rotation_angle,
    rotvec_to_dcm,
)


def constant_profiles(w, f):
    def omega_fn(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(w, t.shape + (3,)).copy()

    def f_fn(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(f, t.shape + (3,)).copy()

    return omega_fn, f_fn


class TestKernelReferences:
    def test_constant_rate_closed_form(self):
        # linearized rotated integral for constant omega, f over [0, T]:
        # T f + (T^2/2) omega x f
        w = np.array([0.05, -0.02, 0.03])
        f = np.array([1.0, 9.8, -0.5])
        T = 0.02
        omega_fn, f_fn = constant_profiles(w, f)
        ref = oracle.rotated_velocity_integral(omega_fn, f_fn, 0.0, T, n=4000)
        expected = T * f + (T ** 2 / 2.0) * np.cross(w, f)
        np.testing.assert_allclose(ref, expected, rtol=1e-10)

    def test_constant_rate_double_integral_closed_form(self):
        # (T^2/2) f + (T^3/6) omega x f
        w = np.array([0.05, -0.02, 0.03])
        f = np.array([1.0, 9.8, -0.5])
        T = 0.02
        omega_fn, f_fn = constant_profiles(w, f)
        ref = oracle.rotated_velocity_double_integral(omega_fn, f_fn, 0.0, T, n=4000)
        expected = (T ** 2 / 2.0) * f + (T ** 3 / 6.0) * np.cross(w, f)
        np.testing.assert_allclose(ref, expected, rtol=1e-8)

    def test_exact_rotation_references_are_pinned(self):
        # half a second of a fast linear rate and force: figures of the
        # references with the RK4 attitude, as first computed, to 1e-15
        def omega_fn(t):
            t = np.asarray(t, dtype=float)[..., None]
            return t * np.array([0.8, -0.5, 0.3]) + np.array([0.5, 1.2, -0.9])

        def f_fn(t):
            t = np.asarray(t, dtype=float)[..., None]
            return t * np.array([-30.0, 12.0, 8.0]) + np.array([2.0, 9.8, -1.5])

        single = oracle.rotated_velocity_integral(
            omega_fn, f_fn, 0.1, 0.6, n=2000, exact_rotation=True)
        double = oracle.rotated_velocity_double_integral(
            omega_fn, f_fn, 0.1, 0.6, n=2000, exact_rotation=True)
        np.testing.assert_allclose(
            single, [-1.8805254946560608, 7.295491154352754, 3.0890847228163314],
            rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            double, [-0.41375389555748665, 1.6818883463229788, 0.42955408238348464],
            rtol=1e-15, atol=0.0)

    def test_rotation_vector_reference_constant_rate(self):
        w = np.array([0.3, -0.4, 0.5])
        omega_fn, _ = constant_profiles(w, np.zeros(3))
        phi = oracle.rotation_vector_reference(omega_fn, 0.0, 0.5, n=500)
        np.testing.assert_allclose(phi, 0.5 * w, atol=1e-12)

    def test_rotation_vector_reference_beyond_half_turn(self):
        # a 4 rad turn reads as 4 - 2 pi about the same axis: |phi| <= pi
        u = np.array([1.0, -2.0, 2.0]) / 3.0
        omega_fn, _ = constant_profiles(4.0 * u, np.zeros(3))
        phi = oracle.rotation_vector_reference(omega_fn, 0.0, 1.0, n=2000)
        np.testing.assert_allclose(phi, (4.0 - 2.0 * math.pi) * u, rtol=0.0, atol=1e-12)
        assert np.linalg.norm(phi) <= math.pi

    def test_rotation_vector_reference_small_turn(self):
        # 1e-7 rad keeps its digits (acos of the scalar part lost 1.2% here)
        w = 1e-7 * np.array([1.0, -2.0, 2.0]) / 3.0
        omega_fn, _ = constant_profiles(w, np.zeros(3))
        phi = oracle.rotation_vector_reference(omega_fn, 0.0, 1.0, n=100)
        np.testing.assert_allclose(phi, w, rtol=1e-12, atol=0.0)

    def test_attitude_chain_matches_rodrigues_for_constant_rate(self):
        w = np.array([0.1, 0.2, -0.15])
        omega_fn, _ = constant_profiles(w, np.zeros(3))
        h, n = 0.01, 100  # the 101-point grid over [0, 1]
        q, _ = oracle._attitude_chain(omega_fn(oracle._stage_times(h, n)), h, (1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(
            quat_to_dcm(q[-1]), np.reshape(rotvec_to_dcm(w), (3, 3)), atol=1e-10
        )


def stepwise_reference(truth, h, t_end, epochs):
    """The per-step RK4 of the 23-state ``y`` that ``AlignmentReference.run``
    replaced: four derivative calls on numpy vectors per step.  It is the
    written-out spec the block-wise run is checked against."""
    n_steps = int(round(t_end / h))
    epoch_steps = {int(round(e / h)) for e in epochs}
    stage = truth.kinematics(oracle._stage_times(h, n_steps))
    w_ib, w_in, f_b, v = (stage[name] for name in ("omega_ib_b", "omega_in_n", "f_b", "v"))
    omega_ie, _, g_n = earth.kinematics_n(v, stage["p"])
    x = np.cross(omega_ie, v) - g_n

    def quat_rate(q, w):
        return 0.5 * quat_multiply(q, np.array([0.0, w[0], w[1], w[2]]))

    def derivative(s, y):
        c_b = quat_to_dcm(y[0:4] / np.linalg.norm(y[0:4]))   # C_{b(t)}^{b(0)}
        c_n = quat_to_dcm(y[4:8] / np.linalg.norm(y[4:8]))   # C_{n(t)}^{n(0)}
        return np.concatenate([
            quat_rate(y[0:4], w_ib[s]), quat_rate(y[4:8], w_in[s]),
            c_b @ f_b[s],    # alpha_v
            c_n @ x[s],      # I_x
            y[8:11],         # alpha_p
            y[11:14],        # J_x
            c_n @ v[s],      # U_r
        ])

    y = np.zeros(23)
    y[0] = y[4] = 1.0
    out = {name: [] for name in
           ("t", "alpha_v", "beta_v", "alpha_p", "beta_p", "c_body", "c_nav")}
    for k in range(n_steps + 1):
        if k:
            s = 2 * (k - 1)
            k1 = derivative(s, y)
            k2 = derivative(s + 1, y + 0.5 * h * k1)
            k3 = derivative(s + 1, y + 0.5 * h * k2)
            k4 = derivative(s + 2, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[0:4] /= np.linalg.norm(y[0:4])
            y[4:8] /= np.linalg.norm(y[4:8])
        if k not in epoch_steps:
            continue
        t = k * h
        c_n = quat_to_dcm(y[4:8] / np.linalg.norm(y[4:8]))
        out["t"].append(t)
        out["alpha_v"].append(y[8:11].copy())
        out["beta_v"].append(c_n @ v[2 * k] - v[0] + y[11:14])
        out["alpha_p"].append(y[14:17].copy())
        out["beta_p"].append(y[20:23] - t * v[0] + y[17:20])
        out["c_body"].append(quat_to_dcm(y[0:4] / np.linalg.norm(y[0:4])))
        out["c_nav"].append(c_n)
    return {name: np.array(series) for name, series in out.items()}


class TestAlignmentReference:
    def test_defining_identity_holds(self, short_truth):
        # C_b^n(0) alpha == beta for both integral forms, by construction
        ref = oracle.AlignmentReference(short_truth, substep=0.005).run(10.0)
        c0 = short_truth.c_b_n[0]
        assert np.linalg.norm(c0 @ ref["alpha_v"][-1] - ref["beta_v"][-1]) < 1e-9
        assert np.linalg.norm(c0 @ ref["alpha_p"][-1] - ref["beta_p"][-1]) < 1e-8

    def test_richardson_convergence(self, short_truth):
        change = oracle.richardson_check(short_truth, 5.0, 0.004)
        assert change < 1e-10

    def test_epoch_grid(self, short_truth):
        ref = oracle.AlignmentReference(short_truth, substep=0.005).run(
            2.0, epochs=[1.0, 2.0]
        )
        np.testing.assert_allclose(ref["t"], [1.0, 2.0])
        assert ref["alpha_v"].shape == (2, 3)

    def test_matches_the_stepwise_rk4_across_blocks(self, short_truth, monkeypatch):
        # 200 steps in blocks of 64: epochs at the start, inside a block and
        # on a block boundary, so both chains and all five sums cross blocks
        monkeypatch.setattr(oracle, "_BLOCK_STEPS", 64)
        epochs = [0.0, 0.37, 0.64, 1.28, 1.5, 2.0]
        got = oracle.AlignmentReference(short_truth, substep=0.01).run(2.0, epochs)
        want = stepwise_reference(short_truth, 0.01, 2.0, epochs)
        assert got.keys() == want.keys()
        assert np.array_equal(got["t"], want["t"])
        for name in want:
            assert got[name].shape == want[name].shape, name
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(got[name] - want[name])) <= 1e-13 * scale, name

    def test_rejects_negative_end_and_epochs_outside_the_run(self, short_truth):
        ref = oracle.AlignmentReference(short_truth, substep=0.01)
        with pytest.raises(ValueError, match="t_end must not be negative"):
            ref.run(-1.0)
        for epochs in ([0.5, 1.5], [-0.5]):
            with pytest.raises(ValueError, match=r"epochs must lie in \[0, t_end\]"):
                ref.run(1.0, epochs=epochs)

    def test_rejects_off_grid_epochs(self, short_truth):
        with pytest.raises(ValueError):
            oracle.AlignmentReference(short_truth, substep=0.004).run(
                1.0, epochs=[0.35]
            )

    @pytest.mark.parametrize("cls", [oracle.AlignmentReference, oracle.NavigationReference])
    @pytest.mark.parametrize("substep", [0.0, -0.01, math.nan])
    def test_rejects_step_that_is_not_positive(self, cls, substep, short_truth):
        with pytest.raises(ValueError, match="substep must be positive"):
            cls(short_truth, substep=substep)


class TestAttitudeComposition:
    def test_compose_matches_truth_over_10s(self, short_truth):
        # current attitude from the chain product with the true initial
        # attitude vs the true attitude at t
        from ifalign.attitude import compose_attitude

        ref = oracle.AlignmentReference(short_truth, substep=0.002).run(10.0)
        c0 = short_truth.c_b_n[0]
        composed = compose_attitude(
            np.ravel(ref["c_nav"][-1].T).tolist(), np.ravel(c0).tolist(),
            np.ravel(ref["c_body"][-1]).tolist(),
        )
        idx = int(round(10.0 / short_truth.cfg.grid_dt))
        assert rotation_angle(np.reshape(composed, (3, 3)) @ short_truth.c_b_n[idx].T) < 1e-8


class TestNavigationReference:
    def test_static_consistency(self, static_truth):
        dev = oracle.NavigationReference(static_truth, substep=0.002).deviations(
            5.0, check_every=1.0
        )
        assert dev["attitude_rad"] < 1e-10
        assert dev["velocity_mps"] < 1e-10
        assert dev["position_rad_m"] < 1e-10

    def test_rejects_negative_end(self, short_truth):
        with pytest.raises(ValueError, match="t_end must not be negative"):
            oracle.NavigationReference(short_truth, substep=0.01).deviations(-1.0)

    def test_rejects_off_grid_end(self, short_truth):
        # 1.0049 s would round to 100 steps of 0.01 s and integrate to 1.0 s
        ref = oracle.NavigationReference(short_truth, substep=0.01)
        with pytest.raises(ValueError, match="t_end must be a multiple of the substep"):
            ref.deviations(1.0049)
