import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from ifalign import attitude
from ifalign.errors import GimbalProximityWarning, NotARotation


def unit_quaternions():
    return (
        st.tuples(
            st.floats(-1.0, 1.0),
            st.floats(-1.0, 1.0),
            st.floats(-1.0, 1.0),
            st.floats(-1.0, 1.0),
        )
        .map(np.array)
        .filter(lambda q: np.linalg.norm(q) > 1e-3)
        .map(lambda q: q / np.linalg.norm(q))
    )


def rotation_vectors(max_norm=3.0):
    return (
        st.tuples(
            st.floats(-max_norm, max_norm),
            st.floats(-max_norm, max_norm),
            st.floats(-max_norm, max_norm),
        )
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) < math.pi)
    )


def assert_valid_dcm(c):
    assert np.linalg.norm(c.T @ c - np.eye(3)) < 1e-10
    assert abs(np.linalg.det(c) - 1.0) < 1e-10


class TestRotvecToDcm:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(
            np.reshape(attitude.rotvec_to_dcm(np.zeros(3)), (3, 3)), np.eye(3)
        )

    def test_quarter_turn_about_north(self):
        # Right-hand rule about axis 0 maps Up (axis 1) to East (axis 2).
        c = np.reshape(attitude.rotvec_to_dcm(np.array([math.pi / 2.0, 0.0, 0.0])), (3, 3))
        np.testing.assert_allclose(c @ np.array([0.0, 1.0, 0.0]),
                                   [0.0, 0.0, 1.0], atol=1e-15)

    @given(rotation_vectors())
    @settings(max_examples=50, deadline=None)
    def test_orthonormal_and_inverse(self, phi):
        c = np.reshape(attitude.rotvec_to_dcm(phi), (3, 3))
        assert_valid_dcm(c)
        np.testing.assert_allclose(
            c @ np.reshape(attitude.rotvec_to_dcm(-phi), (3, 3)), np.eye(3), atol=1e-12
        )

    @given(rotation_vectors())
    @settings(max_examples=50, deadline=None)
    def test_matches_scipy(self, phi):
        # scipy Rotation is the active rotation, same as ours.
        expected = Rotation.from_rotvec(phi).as_matrix()
        np.testing.assert_allclose(
            np.reshape(attitude.rotvec_to_dcm(phi), (3, 3)), expected, atol=1e-13
        )

    def test_branch_boundary_continuity(self):
        direction = np.array([1.0, -2.0, 2.0]) / 3.0
        phi = 1e-7 * direction
        closed = np.array(attitude.rotvec_to_dcm(phi * (1.0 + 1e-12)))
        series = np.array(attitude.rotvec_to_dcm(phi * (1.0 - 1e-12)))
        assert np.max(np.abs(closed - series)) < 1e-14


class TestQuatDcm:
    def test_identity(self):
        np.testing.assert_allclose(
            attitude.quat_to_dcm(np.array([1.0, 0.0, 0.0, 0.0])), np.eye(3)
        )

    def test_half_turn_about_first_axis(self):
        c = attitude.quat_to_dcm(np.array([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(c, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_dcm_to_quat_identity(self):
        np.testing.assert_allclose(
            attitude.dcm_to_quat(np.eye(3)), [1.0, 0.0, 0.0, 0.0]
        )

    def test_dcm_to_quat_half_turn(self):
        q = attitude.dcm_to_quat(np.diag([1.0, -1.0, -1.0]))
        np.testing.assert_allclose(np.abs(q), [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    @given(unit_quaternions())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, q):
        c = attitude.quat_to_dcm(q)
        assert_valid_dcm(c)
        q_back = attitude.dcm_to_quat(c)
        assert min(
            np.linalg.norm(q_back - q), np.linalg.norm(q_back + q)
        ) < 1e-12
        np.testing.assert_allclose(attitude.quat_to_dcm(q_back), c, atol=1e-12)

    @given(unit_quaternions())
    @settings(max_examples=30, deadline=None)
    def test_double_cover(self, q):
        np.testing.assert_allclose(
            attitude.quat_to_dcm(q), attitude.quat_to_dcm(-q), atol=1e-15
        )

    @pytest.mark.parametrize("phi", [
        [1e-9, -2e-9, 3e-9],
        [0.3, -0.4, 0.5],
        [-2.0, 1.0, 0.5],
        [3.1, 0.05, -0.02],
        [0.0, 0.0, math.pi],
    ], ids=["tiny", "small", "large", "near-half-turn", "half-turn"])
    def test_scipy_parity(self, phi):
        # one convention, SciPy's: quat_to_dcm, dcm_to_quat and rotvec_to_dcm
        # all give (or read) the matrix of Rotation for the same rotation
        rot = Rotation.from_rotvec(phi)
        c = rot.as_matrix()
        x, y, z, s = rot.as_quat()
        q = np.array([s, x, y, z])
        np.testing.assert_allclose(attitude.quat_to_dcm(q), c, rtol=0.0, atol=1e-15)
        x, y, z, s = Rotation.from_matrix(c).as_quat()
        theirs = np.array([s, x, y, z])
        ours = attitude.dcm_to_quat(c)
        assert min(np.max(np.abs(ours - theirs)), np.max(np.abs(ours + theirs))) <= 1e-15
        np.testing.assert_allclose(
            np.reshape(attitude.rotvec_to_dcm(phi), (3, 3)), c, rtol=0.0, atol=1e-15
        )

    def test_stack_equals_rows_bitwise(self):
        # one call on an (N, 4) stack computes what N single calls do
        rng = np.random.default_rng(11)
        q = rng.standard_normal((50, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        stacked = attitude.quat_to_dcm(q)
        assert stacked.shape == (50, 3, 3)
        rows = np.stack([attitude.quat_to_dcm(row) for row in q])
        assert stacked.tobytes() == rows.tobytes()

    def test_not_a_rotation(self):
        with pytest.raises(NotARotation):
            attitude.dcm_to_quat(np.diag([1.0, 1.0, 1.1]))
        with pytest.raises(NotARotation):
            attitude.dcm_to_quat(np.diag([1.0, 1.0, -1.0]))


def _shepperd_case(dcm):
    """The Shepperd branch ``dcm_to_quat`` picks: 0 for the trace, 1 + i for
    the diagonal entry i."""
    return int(np.argmax([np.trace(dcm), *np.diag(dcm)]))


def _scipy_quat(dcm):
    """The canonical quaternion of ``dcm`` by scipy, scalar first."""
    x, y, z, s = Rotation.from_matrix(dcm).as_quat()
    q = np.array([s, x, y, z])
    return -q if q[np.flatnonzero(q)[0]] < 0.0 else q


class TestDcmToQuatStack:
    # near identity, then near 180 deg about each axis: one per branch
    BRANCH_ROTVECS = [
        np.array([1e-3, -2e-3, 3e-3]),
        (math.pi - 1e-2) * np.array([1.0, 0.02, -0.03]) / np.linalg.norm([1.0, 0.02, -0.03]),
        (math.pi - 1e-2) * np.array([0.03, 1.0, 0.02]) / np.linalg.norm([0.03, 1.0, 0.02]),
        (math.pi - 1e-2) * np.array([-0.02, 0.03, 1.0]) / np.linalg.norm([-0.02, 0.03, 1.0]),
    ]

    @pytest.mark.parametrize("case", range(4))
    def test_each_shepperd_branch(self, case):
        dcm = Rotation.from_rotvec(self.BRANCH_ROTVECS[case]).as_matrix()
        assert _shepperd_case(dcm) == case
        q = attitude.dcm_to_quat(dcm)
        np.testing.assert_allclose(q, _scipy_quat(dcm), rtol=0.0, atol=1e-15)
        assert np.max(np.abs(attitude.quat_to_dcm(q) - dcm)) <= 1e-15

    def test_exact_half_turn_takes_the_canonical_sign(self):
        # 180 deg about (-0.6, 0.8, 0): the r11 branch gives x < 0 and s == 0,
        # so the sign flips to make x, the first nonzero component, positive
        u = np.array([-0.6, 0.8, 0.0])
        dcm = 2.0 * np.outer(u, u) - np.eye(3)
        assert _shepperd_case(dcm) == 2
        q = attitude.dcm_to_quat(dcm)
        assert q[0] == 0.0 and q[1] > 0.0
        np.testing.assert_allclose(q, [0.0, 0.6, -0.8, 0.0], rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(
            attitude.dcm_to_quat(np.diag([-1.0, -1.0, 1.0])), [0.0, 0.0, 0.0, 1.0]
        )

    def test_stack_equals_rows_bitwise_and_round_trips(self):
        rng = np.random.default_rng(5)
        dcm = Rotation.random(300, random_state=5).as_matrix()
        # rows near each branch, and exact half turns
        dcm[:40] = Rotation.from_rotvec(
            self.BRANCH_ROTVECS[0] * rng.uniform(0.0, 1.0, (40, 1))).as_matrix()
        for i, rotvec in enumerate(self.BRANCH_ROTVECS[1:]):
            dcm[40 + 20 * i:60 + 20 * i] = Rotation.from_rotvec(
                rotvec + rng.uniform(-1e-3, 1e-3, (20, 3))).as_matrix()
        dcm[100:103] = [np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                                            [-1.0, -1.0, 1.0])]
        assert {_shepperd_case(m) for m in dcm} == {0, 1, 2, 3}
        stacked = attitude.dcm_to_quat(dcm)
        assert stacked.shape == (300, 4)
        rows = np.stack([attitude.dcm_to_quat(m) for m in dcm])
        assert stacked.tobytes() == rows.tobytes()
        assert np.max(np.abs(attitude.quat_to_dcm(stacked) - dcm)) <= 1e-15

    def test_shapes(self):
        dcm = Rotation.random(10, random_state=2).as_matrix()
        assert attitude.dcm_to_quat(dcm[0]).shape == (4,)
        grid = attitude.dcm_to_quat(dcm.reshape(2, 5, 3, 3))
        assert grid.shape == (2, 5, 4)
        assert grid.reshape(10, 4).tobytes() == attitude.dcm_to_quat(dcm).tobytes()
        assert attitude.dcm_to_quat(np.empty((0, 3, 3))).shape == (0, 4)
        with pytest.raises(ValueError, match="3, 3"):
            attitude.dcm_to_quat(np.eye(4)[:3])

    def test_not_a_rotation_names_its_index(self):
        dcm = np.stack([np.eye(3)] * 6)
        dcm[3] = np.diag([1.0, 1.0, -1.0])
        dcm[5] = np.diag([1.0, 1.0, 1.1])
        with pytest.raises(NotARotation, match="matrix at index 3 is not"):
            attitude.dcm_to_quat(dcm)
        with pytest.raises(NotARotation, match="matrix at index 1, 0 is not"):
            attitude.dcm_to_quat(dcm.reshape(2, 3, 3, 3))
        dcm[3] = np.nan
        with pytest.raises(NotARotation, match="matrix at index 3 is not"):
            attitude.dcm_to_quat(dcm)
        with pytest.raises(NotARotation, match="^matrix is not"):
            attitude.dcm_to_quat(dcm[3])


class TestQuatMulMatrices:
    def test_identity_quaternion(self):
        qplus, qminus = attitude.quat_mul_matrices(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(qplus, np.eye(4))
        np.testing.assert_allclose(qminus, np.eye(4))

    @given(unit_quaternions(), unit_quaternions())
    @settings(max_examples=50, deadline=None)
    def test_qplus_is_hamilton_product(self, q1, q2):
        qplus, _ = attitude.quat_mul_matrices(q1)
        expected = attitude.quat_multiply(q1, q2)
        np.testing.assert_allclose(qplus @ q2, expected, atol=1e-13)

    @given(unit_quaternions(), unit_quaternions())
    @settings(max_examples=50, deadline=None)
    def test_qminus_is_reversed_product(self, q1, q2):
        _, qminus = attitude.quat_mul_matrices(q2)
        expected = attitude.quat_multiply(q1, q2)
        np.testing.assert_allclose(qminus @ q1, expected, atol=1e-13)

    @given(unit_quaternions(), rotation_vectors())
    @settings(max_examples=60, deadline=None)
    def test_residual_operator_annihilates_matching_pairs(self, q, alpha):
        # With beta = quat_to_dcm(q) @ alpha, ([beta+]-[alpha-]) q = 0.
        beta = attitude.quat_to_dcm(q) @ alpha
        bplus, _ = attitude.quat_mul_matrices(np.array([0.0, *beta]))
        _, aminus = attitude.quat_mul_matrices(np.array([0.0, *alpha]))
        residual = (bplus - aminus) @ q
        assert np.linalg.norm(residual) < 1e-12


class TestComposeAttitude:
    EYE = np.eye(3).ravel().tolist()

    def test_all_identity(self):
        np.testing.assert_allclose(
            np.reshape(attitude.compose_attitude(self.EYE, self.EYE, self.EYE), (3, 3)),
            np.eye(3),
        )

    def test_initial_instant_returns_initial_attitude(self):
        c0 = attitude.rotvec_to_dcm(np.array([0.3, -0.2, 0.7]))
        np.testing.assert_allclose(
            attitude.compose_attitude(self.EYE, c0, self.EYE), c0
        )

    def test_repairs_drifted_product(self):
        c0 = np.reshape(attitude.rotvec_to_dcm(np.array([0.3, -0.2, 0.7])), (3, 3))
        drifted = c0 + 1e-7 * np.ones((3, 3))
        out = attitude.compose_attitude(self.EYE, np.ravel(drifted).tolist(), self.EYE)
        assert_valid_dcm(np.reshape(out, (3, 3)))

    def test_repairs_drift_in_any_gram_entry(self):
        # C^T C - I has six distinct entries; a drift of 1e-6 in any one of
        # them (a column stretched, or tilted toward another) is repaired
        c0 = np.reshape(attitude.rotvec_to_dcm(np.array([0.3, -0.2, 0.7])), (3, 3))
        for i in range(3):
            for j in range(i, 3):
                drifted = c0.copy()
                if i == j:
                    drifted[:, i] *= 1.0 + 1e-6
                else:
                    drifted[:, i] += 1e-6 * c0[:, j]
                out = attitude.compose_attitude(self.EYE, np.ravel(drifted).tolist(), self.EYE)
                assert_valid_dcm(np.reshape(out, (3, 3)))

    @staticmethod
    def assert_flat_float_tuple(c):
        assert type(c) is tuple and len(c) == 9
        assert all(type(x) is float for x in c)

    def test_returns_the_float_product(self):
        # no drift: the product of the three factors on floats, as is
        c_nav = attitude.rotvec_to_dcm([0.01, 0.02, -0.03])
        c0 = attitude.rotvec_to_dcm([0.3, -0.2, 0.7])
        c_body = attitude.rotvec_to_dcm([-0.1, 0.05, 0.2])
        out = attitude.compose_attitude(c_nav, c0, c_body)
        self.assert_flat_float_tuple(out)
        assert out == attitude.matmul3(attitude.matmul3(c_nav, c0), c_body)

    def test_repair_is_the_polar_factor_of_the_product(self):
        c_nav = attitude.rotvec_to_dcm([0.01, 0.02, -0.03])
        c_body = attitude.rotvec_to_dcm([-0.1, 0.05, 0.2])
        drifted = np.reshape(attitude.rotvec_to_dcm([0.3, -0.2, 0.7]), (3, 3)) + 1e-7
        out = attitude.compose_attitude(c_nav, drifted.ravel().tolist(), c_body)
        self.assert_flat_float_tuple(out)
        product = attitude.matmul3(attitude.matmul3(c_nav, drifted.ravel().tolist()), c_body)
        expected = attitude.orthonormalize(np.reshape(product, (3, 3)))
        assert np.array(out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_repair_boundary(self, column):
        # a column scaled by 1 + e moves its diagonal Gram entry by about 2e:
        # 0.8e-9 is kept as the product, 1.2e-9 repaired to the polar factor
        c0 = np.reshape(attitude.rotvec_to_dcm([0.3, -0.2, 0.7]), (3, 3))
        for scale, repaired in ((1.0 + 0.4e-9, False), (1.0 + 0.6e-9, True)):
            drifted = c0.copy()
            drifted[:, column] *= scale
            product = attitude.matmul3(
                attitude.matmul3(self.EYE, drifted.ravel().tolist()), self.EYE)
            out = attitude.compose_attitude(self.EYE, drifted.ravel().tolist(), self.EYE)
            self.assert_flat_float_tuple(out)
            expected = (attitude.orthonormalize(np.reshape(product, (3, 3))).ravel()
                        if repaired else np.array(product))
            assert np.array(out).tobytes() == expected.tobytes()
            assert (out != product) is repaired

    @pytest.mark.parametrize("factor", [0, 1, 2])
    def test_nan_factor_gives_the_nan_product(self, factor):
        # a NaN residual never calls for the repair, whose SVD would raise
        factors = [self.EYE] * 3
        factors[factor] = [math.nan] * 9
        out = attitude.compose_attitude(*factors)
        self.assert_flat_float_tuple(out)
        assert all(map(math.isnan, out))


class TestEuler:
    def test_identity(self):
        np.testing.assert_allclose(attitude.dcm_to_euler(np.eye(3).ravel().tolist()), np.zeros(3))
        np.testing.assert_allclose(attitude.euler_to_dcm(np.zeros(3)), np.eye(3))

    def test_heading_definition(self):
        # yaw = +90 deg maps the body north axis to nav east.
        c = attitude.euler_to_dcm(np.array([0.0, 0.0, math.pi / 2.0]))
        np.testing.assert_allclose(
            c @ np.array([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15
        )

    def test_pitch_definition(self):
        # positive pitch raises the nose: body north gains an Up component.
        c = attitude.euler_to_dcm(np.array([0.0, 0.2, 0.0]))
        assert (c @ np.array([1.0, 0.0, 0.0]))[1] > 0.0

    def test_roll_definition(self):
        # positive roll banks right: body up tips toward east.
        c = attitude.euler_to_dcm(np.array([0.2, 0.0, 0.0]))
        assert (c @ np.array([0.0, 1.0, 0.0]))[2] > 0.0

    def test_matches_scipy_sequence(self):
        # Our sequence is intrinsic rotations about Up (-yaw), then the new
        # East (pitch), then the new North (roll).
        rng = np.random.default_rng(3)
        for _ in range(20):
            roll, yaw = rng.uniform(-math.pi, math.pi, 2)
            pitch = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
            ours = attitude.euler_to_dcm(np.array([roll, pitch, yaw]))
            theirs = Rotation.from_euler("YZX", [-yaw, pitch, roll]).as_matrix()
            np.testing.assert_allclose(ours, theirs, atol=1e-13)

    @given(
        st.floats(-math.pi + 1e-6, math.pi),
        st.floats(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4),
        st.floats(-math.pi + 1e-6, math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, roll, pitch, yaw):
        angles = np.array([roll, pitch, yaw])
        back = attitude.dcm_to_euler(np.ravel(attitude.euler_to_dcm(angles)).tolist())
        # compare through the DCMs to avoid wrap equivalences
        np.testing.assert_allclose(
            attitude.euler_to_dcm(back), attitude.euler_to_dcm(angles), atol=1e-10
        )
        np.testing.assert_allclose(back, angles, atol=1e-10)

    def test_stack_equals_rows_bitwise(self):
        # one call on an (N, 3) stack computes what N single calls do
        rng = np.random.default_rng(12)
        angles = rng.uniform(-math.pi, math.pi, (50, 3))
        stacked = attitude.euler_to_dcm(angles)
        assert stacked.shape == (50, 3, 3)
        rows = np.stack([attitude.euler_to_dcm(row) for row in angles])
        assert stacked.tobytes() == rows.tobytes()

    def test_gimbal_warning(self):
        c = attitude.euler_to_dcm(np.array([0.1, math.pi / 2.0, 0.0]))
        with pytest.warns(GimbalProximityWarning):
            attitude.dcm_to_euler(c.ravel().tolist())

    def test_nan_gives_nan_pitch_without_warning(self):
        # max(-1.0, nan) is -1.0: the clamp must not turn a NaN into -90 deg
        with warnings.catch_warnings():
            warnings.simplefilter("error", GimbalProximityWarning)
            angles = attitude.dcm_to_euler([math.nan] * 9)
        assert all(math.isnan(x) for x in angles)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pitch_term_beyond_one_is_clamped(self, sign):
        dcm = [1.0, 0.0, 0.0, sign * (1.0 + 1e-12), 1.0, 0.0, 0.0, 0.0, 1.0]
        with pytest.warns(GimbalProximityWarning):
            assert attitude.dcm_to_euler(dcm)[1] == sign * (math.pi / 2.0)

    @staticmethod
    def assert_three_floats(angles):
        assert type(angles) is tuple and len(angles) == 3
        assert all(type(x) is float for x in angles)

    def test_returns_three_floats(self):
        angles = [0.1, -0.2, 0.3]
        c = attitude.euler_to_dcm(np.array(angles))
        for dcm in (c.ravel().tolist(), tuple(c.ravel().tolist())):
            back = attitude.dcm_to_euler(dcm)
            self.assert_three_floats(back)
            np.testing.assert_allclose(back, angles, atol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gimbal_warning_within_1e_6_of_vertical(self, sign):
        near = attitude.euler_to_dcm(np.array([0.1, sign * (math.pi / 2 - 5e-7), 0.2]))
        with pytest.warns(GimbalProximityWarning):
            self.assert_three_floats(attitude.dcm_to_euler(near.ravel().tolist()))
        clear = attitude.euler_to_dcm(np.array([0.1, sign * (math.pi / 2 - 2e-6), 0.2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GimbalProximityWarning)
            self.assert_three_floats(attitude.dcm_to_euler(clear.ravel().tolist()))


class TestHelpers:
    @given(rotation_vectors())
    @settings(max_examples=40, deadline=None)
    def test_rotation_angle(self, phi):
        c = np.reshape(attitude.rotvec_to_dcm(phi), (3, 3))
        assert attitude.rotation_angle(c) == pytest.approx(
            np.linalg.norm(phi), abs=1e-7
        )

    @pytest.mark.parametrize("q, flips", [
        ([-1.0, 0.0, 0.0, 0.0], True),
        ([0.0, -0.6, 0.8, 0.0], True),   # the first nonzero component decides
        ([-0.0, 0.6, -0.8, 0.0], False),
        ([1.0, -1.0, 0.0, 0.0], False),
    ])
    def test_flips_sign(self, q, flips):
        assert attitude.flips_sign(q) is flips
