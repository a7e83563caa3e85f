import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifalign import oracle
from ifalign.attitude import cross3, rotation_angle, rotvec_to_dcm
from ifalign.increments import (
    body_rotvec,
    check_increments,
    double_integral_increment,
    imu_interval,
    sculling_increment,
)


def small_vectors(scale=0.02):
    return st.tuples(
        st.floats(-scale, scale), st.floats(-scale, scale), st.floats(-scale, scale)
    ).map(np.array)


def make_interval(omega_fn, f_fn, t0, T, n=2000):
    """Increments over [t0, t0+T] by fine trapezoid integration per half."""
    halves = []
    for a, b in ((t0, t0 + T / 2.0), (t0 + T / 2.0, t0 + T)):
        ts = np.linspace(a, b, n + 1)
        w = np.asarray(omega_fn(ts), dtype=float)
        f = np.asarray(f_fn(ts), dtype=float)
        dt = (b - a) / n
        dth = np.sum(0.5 * dt * (w[1:] + w[:-1]), axis=0)
        dv = np.sum(0.5 * dt * (f[1:] + f[:-1]), axis=0)
        halves.append((dth, dv))
    (dth1, dv1), (dth2, dv2) = halves
    return imu_interval(dtheta1=dth1, dtheta2=dth2, dv1=dv1, dv2=dv2)


def linear_profiles(a_w, b_w, a_f, b_f):
    def omega_fn(t):
        t = np.asarray(t, dtype=float)[..., None]
        return t * a_w + b_w

    def f_fn(t):
        t = np.asarray(t, dtype=float)[..., None]
        return t * a_f + b_f

    return omega_fn, f_fn


def sinusoid_profiles():
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

    return omega_fn, f_fn


class TestImuInterval:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            imu_interval(np.array([np.nan, 0, 0]), np.zeros(3), np.zeros(3), np.zeros(3))

    def test_rejects_large_rotation(self):
        with pytest.raises(ValueError):
            imu_interval(
                np.array([0.06, 0, 0]), np.array([0.06, 0, 0]),
                np.zeros(3), np.zeros(3),
            )

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            imu_interval(np.zeros(2), np.zeros(3), np.zeros(3), np.zeros(3))

    def test_floats_are_one_flat_row(self):
        rows = [np.array([1e-3, 2e-3, 3e-3]) * (i + 1) for i in range(4)]
        iv = imu_interval(*rows)
        assert iv == sum((tuple(row.tolist()) for row in rows), ())
        assert all(type(x) is float for x in iv)

    def test_ragged_rows_name_the_argument(self):
        # not numpy's "inhomogeneous shape" message
        with pytest.raises(ValueError, match=r"^dtheta1 must be three numbers"):
            imu_interval([0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^dv2 must be three numbers"):
            imu_interval(np.zeros(3), np.zeros(3), np.zeros(3), [0.0, [0.0], 0.0])


class TestCheckIncrements:
    @pytest.mark.parametrize("case, rows, message", [
        ("nan-dv", (5,), "finite"), ("inf-dtheta", (2,), "finite"),
        ("rotation", (6, 7), "0.1 rad"),
    ], ids=["nan-dv", "inf-dtheta", "rotation"])
    def test_error_names_the_sample_row(self, case, rows, message):
        # for a rotation the rows are the interval's two samples
        dtheta, dv = np.full((10, 3), 1e-3), np.full((10, 3), 0.1)
        if case == "nan-dv":
            dv[5, 1] = np.nan
        elif case == "inf-dtheta":
            dtheta[2, 0] = np.inf
        else:
            dtheta[7] = [0.0, 0.0, 0.1]
        with pytest.raises(ValueError, match=message) as err:
            check_increments(dtheta, dv)
        assert err.value.rows == rows


class TestSculling:
    def test_no_rotation_is_plain_sum(self):
        iv = imu_interval(
            np.zeros(3), np.zeros(3), np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])
        )
        np.testing.assert_allclose(sculling_increment(iv), [0.5, 0.7, 0.9])

    @given(small_vectors(0.02), small_vectors(0.1))
    @settings(max_examples=40, deadline=None)
    def test_constant_rates_reproduce_exact_integral(self, theta, v):
        # For constant omega and f over [0, T]: dtheta1 = dtheta2 = omega T/2
        # and the exact rotated integral is T f + (T^2/2) omega x f, i.e.
        # 2v + 2 theta x v in increment variables.  The two-sample formula
        # must reproduce it identically.
        iv = imu_interval(theta, theta, v, v)
        expected = 2.0 * v + 2.0 * cross3(theta, v)
        np.testing.assert_allclose(sculling_increment(iv), expected, atol=1e-18)

    def test_linear_profiles_match_symbolic_integral(self):
        # Linear rates: the closed-form integral of the linearized rotation
        # model, evaluated term by term.
        T = 0.02
        a_w = np.array([0.8, -0.5, 0.3])
        b_w = np.array([0.05, 0.3, -0.2])
        a_f = np.array([-30.0, 12.0, 8.0])
        b_f = np.array([2.0, 9.8, -1.5])
        dth1 = (T ** 2 / 8.0) * a_w + (T / 2.0) * b_w
        dth2 = (3.0 * T ** 2 / 8.0) * a_w + (T / 2.0) * b_w
        dv1 = (T ** 2 / 8.0) * a_f + (T / 2.0) * b_f
        dv2 = (3.0 * T ** 2 / 8.0) * a_f + (T / 2.0) * b_f
        iv = imu_interval(dth1, dth2, dv1, dv2)
        exact = (
            T * b_f
            + (T ** 2 / 2.0) * (a_f + cross3(b_w, b_f))
            + (T ** 3 / 3.0) * (0.5 * cross3(a_w, b_f) + cross3(b_w, a_f))
            + (T ** 4 / 8.0) * cross3(a_w, a_f)
        )
        np.testing.assert_allclose(sculling_increment(iv), exact, rtol=1e-13)

    def test_linear_profiles_match_oracle(self):
        T = 0.02
        omega_fn, f_fn = linear_profiles(
            np.array([0.8, -0.5, 0.3]),
            np.array([0.05, 0.3, -0.2]),
            np.array([-30.0, 12.0, 8.0]),
            np.array([2.0, 9.8, -1.5]),
        )
        iv = make_interval(omega_fn, f_fn, 0.0, T)
        ref = oracle.rotated_velocity_integral(omega_fn, f_fn, 0.0, T, n=10000)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(sculling_increment(iv) - ref) < 1e-9 * scale

    def test_third_order_convergence(self):
        omega_fn, f_fn = sinusoid_profiles()
        errs = []
        for T in (0.04, 0.02, 0.01):
            iv = make_interval(omega_fn, f_fn, 0.1, T, n=4000)
            ref = oracle.rotated_velocity_integral(
                omega_fn, f_fn, 0.1, 0.1 + T, n=20000, exact_rotation=True
            )
            errs.append(np.linalg.norm(sculling_increment(iv) - ref))
        assert errs[0] / errs[1] >= 7.5
        assert errs[1] / errs[2] >= 7.5

    @given(small_vectors(0.01), small_vectors(0.01), small_vectors(0.05), small_vectors(0.05))
    @settings(max_examples=30, deadline=None)
    def test_swap_preserves_leading_sum(self, th1, th2, v1, v2):
        fwd = np.array(sculling_increment(imu_interval(th1, th2, v1, v2)))
        rev = np.array(sculling_increment(imu_interval(th2, th1, v2, v1)))
        # cross terms flip with the swap; the symmetric part is the plain sum
        # plus the half-sum cross correction, which both orderings share.
        shared = v1 + v2 + 0.5 * cross3(th1 + th2, v1 + v2)
        np.testing.assert_allclose(0.5 * (fwd + rev), shared, atol=1e-15)


class TestDoubleIntegral:
    def test_constant_force_no_rotation(self):
        T = 0.02
        f = np.array([1.0, -2.0, 3.0])
        iv = imu_interval(np.zeros(3), np.zeros(3), f * T / 2.0, f * T / 2.0)
        np.testing.assert_allclose(
            double_integral_increment(iv, T), f * T ** 2 / 2.0, rtol=1e-13
        )

    def test_zero_velocity_increments(self):
        iv = imu_interval(
            np.array([0.01, 0.0, 0.0]), np.array([0.0, 0.01, 0.0]),
            np.zeros(3), np.zeros(3),
        )
        np.testing.assert_allclose(double_integral_increment(iv, 0.02), np.zeros(3))

    def test_rejects_nonpositive_interval(self):
        iv = imu_interval(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            double_integral_increment(iv, 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_interval(self, T):
        iv = imu_interval(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        message = f"^update interval T must be positive and finite, got {T}$"
        with pytest.raises(ValueError, match=message):
            double_integral_increment(iv, T)

    def test_linear_profiles_match_symbolic_integral(self):
        T = 0.02
        a_w = np.array([0.8, -0.5, 0.3])
        b_w = np.array([0.05, 0.3, -0.2])
        a_f = np.array([-30.0, 12.0, 8.0])
        b_f = np.array([2.0, 9.8, -1.5])
        dth1 = (T ** 2 / 8.0) * a_w + (T / 2.0) * b_w
        dth2 = (3.0 * T ** 2 / 8.0) * a_w + (T / 2.0) * b_w
        dv1 = (T ** 2 / 8.0) * a_f + (T / 2.0) * b_f
        dv2 = (3.0 * T ** 2 / 8.0) * a_f + (T / 2.0) * b_f
        iv = imu_interval(dth1, dth2, dv1, dv2)
        exact = (
            (T ** 2 / 2.0) * b_f
            + (T ** 3 / 6.0) * (a_f + cross3(b_w, b_f))
            + (T ** 4 / 12.0) * (0.5 * cross3(a_w, b_f) + cross3(b_w, a_f))
            + (T ** 5 / 40.0) * cross3(a_w, a_f)
        )
        np.testing.assert_allclose(double_integral_increment(iv, T), exact, rtol=1e-13)

    def test_linear_profiles_match_oracle(self):
        T = 0.02
        omega_fn, f_fn = linear_profiles(
            np.array([0.8, -0.5, 0.3]),
            np.array([0.05, 0.3, -0.2]),
            np.array([-30.0, 12.0, 8.0]),
            np.array([2.0, 9.8, -1.5]),
        )
        iv = make_interval(omega_fn, f_fn, 0.0, T)
        ref = oracle.rotated_velocity_double_integral(omega_fn, f_fn, 0.0, T, n=10000)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(double_integral_increment(iv, T) - ref) < 1e-9 * scale

    def test_third_order_convergence(self):
        omega_fn, f_fn = sinusoid_profiles()
        errs = []
        for T in (0.04, 0.02, 0.01):
            iv = make_interval(omega_fn, f_fn, 0.1, T, n=4000)
            ref = oracle.rotated_velocity_double_integral(
                omega_fn, f_fn, 0.1, 0.1 + T, n=20000, exact_rotation=True
            )
            errs.append(np.linalg.norm(double_integral_increment(iv, T) - ref))
        assert errs[0] / errs[1] >= 7.5
        assert errs[1] / errs[2] >= 7.5


class TestBodyRotvec:
    def test_equal_halves(self):
        th = np.array([0.01, -0.02, 0.005])
        iv = imu_interval(th, th, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(body_rotvec(iv), 2.0 * th)

    # |th| stays below 0.1 rad / 3: the two samples' rotation, at most three
    # times it, must stay under the 0.1 rad bound of one interval
    @given(small_vectors(0.019), st.floats(0.1, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_parallel_rotations_sum(self, th, factor):
        iv = imu_interval(th, factor * th, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(body_rotvec(iv), (1.0 + factor) * th, atol=1e-18)

    def test_coning_motion_convergence(self):
        # classic coning: the rate vector sweeps a cone, the worst case for
        # attitude integration.
        cone = 0.02
        rate = 2.0 * math.pi / 0.6

        def omega_fn(t):
            t = np.asarray(t, dtype=float)
            return np.stack(
                [
                    -rate * cone * np.sin(rate * t),
                    rate * cone * np.cos(rate * t),
                    np.full_like(t, rate * cone * cone / 2.0),
                ],
                axis=-1,
            )

        errs = []
        for T in (0.04, 0.02, 0.01):
            iv = make_interval(omega_fn, lambda t: np.zeros(np.shape(t) + (3,)), 0.0, T, n=4000)
            c_approx = np.reshape(rotvec_to_dcm(body_rotvec(iv)), (3, 3))
            ref = oracle.rotation_vector_reference(omega_fn, 0.0, T, n=4000)
            errs.append(rotation_angle(c_approx @ np.reshape(rotvec_to_dcm(ref), (3, 3)).T))
        assert errs[0] / errs[1] >= 7.5
        assert errs[1] / errs[2] >= 7.5

    @given(small_vectors(0.02), small_vectors(0.02))
    @settings(max_examples=30, deadline=None)
    def test_swap_preserves_leading_sum(self, th1, th2):
        fwd = np.array(body_rotvec(imu_interval(th1, th2, np.zeros(3), np.zeros(3))))
        rev = np.array(body_rotvec(imu_interval(th2, th1, np.zeros(3), np.zeros(3))))
        np.testing.assert_allclose(0.5 * (fwd + rev), th1 + th2, atol=1e-18)


class TestFloatKernels:
    """The kernels run on Python floats; they must round like the vector formulas."""

    @given(
        small_vectors(0.02), small_vectors(0.02), small_vectors(0.5), small_vectors(0.5)
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_numpy_vector_formulas(self, th1, th2, v1, v2):
        iv = imu_interval(th1, th2, v1, v2)
        T = 0.02
        sculling = (
            v1 + v2
            + 0.5 * np.cross(th1 + th2, v1 + v2)
            + (2.0 / 3.0) * (np.cross(th1, v2) + np.cross(v1, th2))
        )
        double = (T / 30.0) * (
            25.0 * v1 + 5.0 * v2
            + 12.0 * np.cross(th1, v1) + 8.0 * np.cross(th1, v2)
            + 2.0 * np.cross(v1, th2) + 2.0 * np.cross(th2, v2)
        )
        coning = th1 + th2 + (2.0 / 3.0) * np.cross(th1, th2)
        for got, expected in (
            (sculling_increment(iv), sculling),
            (double_integral_increment(iv, T), double),
            (body_rotvec(iv), coning),
        ):
            assert type(got) is tuple and all(type(x) is float for x in got)
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(cross3(th1, v1), np.cross(th1, v1))
