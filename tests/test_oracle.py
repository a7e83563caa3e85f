import math

import numpy as np
import pytest

from ifalign import oracle
from ifalign.attitude import rotation_angle, rotvec_to_dcm


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

    def test_rotation_vector_reference_constant_rate(self):
        w = np.array([0.3, -0.4, 0.5])
        omega_fn, _ = constant_profiles(w, np.zeros(3))
        phi = oracle.rotation_vector_reference(omega_fn, 0.0, 0.5, n=500)
        np.testing.assert_allclose(phi, 0.5 * w, atol=1e-12)

    def test_chain_dcms_match_rodrigues_for_constant_rate(self):
        w = np.array([0.1, 0.2, -0.15])
        omega_fn, _ = constant_profiles(w, np.zeros(3))
        ts = np.linspace(0.0, 1.0, 101)
        chains = oracle._chain_dcms(omega_fn, ts)
        np.testing.assert_allclose(chains[-1], rotvec_to_dcm(w), atol=1e-10)


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
        composed = compose_attitude(ref["c_nav"][-1].T, c0, ref["c_body"][-1])
        idx = int(round(10.0 / short_truth.cfg.grid_dt))
        assert rotation_angle(composed @ short_truth.c_b_n[idx].T) < 1e-8


class TestNavigationReference:
    def test_static_consistency(self, static_truth):
        dev = oracle.NavigationReference(static_truth, substep=0.002).deviations(
            5.0, check_every=1.0
        )
        assert dev["attitude_rad"] < 1e-10
        assert dev["velocity_mps"] < 1e-10
        assert dev["position_rad_m"] < 1e-10
