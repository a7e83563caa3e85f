"""Rotation algebra: quaternions, DCMs, rotation vectors and Euler angles.

Conventions
-----------
* Quaternions are scalar-first 4-vectors ``q = [s, x, y, z]`` with the
  canonical sign ``s >= 0`` (first nonzero component positive when s == 0).
* :func:`quat_to_dcm` returns the matrix that resolves navigation-frame
  vectors in the body frame, i.e. ``C such that C @ v_nav = v_body`` for the
  attitude encoded by ``q``.  The body-to-nav matrix is its transpose.
* Euler angles are (roll, pitch, yaw) for the North-Up-East frame: yaw about
  Up (positive turning North toward East), pitch about the rotated East
  (positive nose up), roll about the twice-rotated North (positive right
  wing down).
"""

import math
import warnings

import numpy as np

from .errors import GimbalProximityWarning, NotARotation

_SMALL_ANGLE = 1e-7
_ORTHO_TOL = 1e-10
_REPAIR_TOL = 1e-9


def skew(v):
    """3x3 skew-symmetric matrix such that ``skew(a) @ b == cross(a, b)``."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def cross_floats(a, b):
    """Cross product of two 3-sequences of Python floats, as a tuple.

    The per-update kernels work on Python floats: for 3-vectors, arithmetic
    on them costs several times less than numpy calls and rounds the same.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def cross3(a, b):
    """Cross product of two 3-vectors (faster than np.cross for scalars)."""
    return np.array(
        cross_floats(
            a.tolist() if type(a) is np.ndarray else a,
            b.tolist() if type(b) is np.ndarray else b,
        )
    )


def rotvec_to_dcm(phi):
    """Rodrigues formula mapping a rotation vector to a DCM.

    For ``|phi| < 1e-7`` the sin/cos coefficients are replaced by their
    two-term series so the 0/0 limit is exact; the two branches agree to
    1e-14 at the switch point.
    """
    x, y, z = np.asarray(phi, dtype=float).tolist()
    angle2 = x * x + y * y + z * z
    if angle2 < _SMALL_ANGLE ** 2:
        a = 1.0 - angle2 / 6.0
        b = 0.5 - angle2 / 24.0
    else:
        angle = math.sqrt(angle2)
        a = math.sin(angle) / angle
        b = (1.0 - math.cos(angle)) / angle2
    # I + a*skew(phi) + b*skew(phi)^2 written out componentwise.
    bxy = b * x * y
    bxz = b * x * z
    byz = b * y * z
    return np.array(
        [
            [1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y],
            [bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x],
            [bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def dcm_to_rotvec(dcm):
    """Rotation vector phi with ``rotvec_to_dcm(phi) == dcm``, ``|phi| <= pi``.

    The quaternion convention here encodes the transposed matrix, hence the
    sign flip on the vector part.  The angle comes from atan2 of the vector
    part against the scalar part: acos of the scalar part alone loses about
    half the digits for small rotations (1.2% at 1e-7 rad).
    """
    q = dcm_to_quat(dcm)
    norm_eta = np.linalg.norm(q[1:])
    if norm_eta < 1e-300:
        return np.zeros(3)
    angle = 2.0 * math.atan2(norm_eta, q[0])
    return -q[1:] * (angle / norm_eta)


def rotation_angle(dcm):
    """Magnitude of the rotation a DCM represents, in radians.

    Uses atan2 of the skew part against the trace, which keeps full
    precision for small rotations where acos of the trace saturates.
    """
    s = 0.5 * math.sqrt(
        (dcm[2, 1] - dcm[1, 2]) ** 2
        + (dcm[0, 2] - dcm[2, 0]) ** 2
        + (dcm[1, 0] - dcm[0, 1]) ** 2
    )
    c = 0.5 * (np.trace(dcm) - 1.0)
    return math.atan2(s, c)


def quat_canonical(q):
    """Flip the sign so that s >= 0 (first nonzero component positive at s=0)."""
    for component in q:
        if component > 0.0:
            return q
        if component < 0.0:
            return -q
    return q


def quat_normalize(q):
    """Unit-norm, canonical-sign copy of ``q``."""
    return quat_canonical(np.asarray(q, dtype=float) / np.linalg.norm(q))


def quat_multiply(q1, q2):
    """Hamilton product ``q1 (x) q2``."""
    s1, v1 = q1[0], q1[1:]
    s2, v2 = q2[0], q2[1:]
    s = s1 * s2 - v1 @ v2
    v = s1 * v2 + s2 * v1 + cross3(v1, v2)
    return np.array([s, v[0], v[1], v[2]])


def quat_mul_matrices(q):
    """Left and right quaternion-multiplication matrices.

    ``qplus(p) @ r == p (x) r`` and ``qminus(r) @ p == p (x) r``.  The
    argument need not be a unit quaternion; 3-vectors embedded as
    ``[0, v]`` are the common use in the alignment residual operator.
    """
    s = q[0]
    x, y, z = q[1], q[2], q[3]
    qplus = np.array(
        [
            [s, -x, -y, -z],
            [x, s, -z, y],
            [y, z, s, -x],
            [z, -y, x, s],
        ]
    )
    qminus = np.array(
        [
            [s, -x, -y, -z],
            [x, s, z, -y],
            [y, -z, s, x],
            [z, y, -x, s],
        ]
    )
    return qplus, qminus


def quat_to_dcm(q):
    """Nav-to-body DCM encoded by a unit quaternion.

    ``(s^2 - eta.eta) I + 2 eta eta^T - 2 s skew(eta)``; the transpose is the
    body-to-nav attitude matrix.
    """
    s = q[0]
    eta = np.asarray(q[1:], dtype=float)
    return (
        (s * s - eta @ eta) * np.eye(3)
        + 2.0 * np.outer(eta, eta)
        - 2.0 * s * skew(eta)
    )


def dcm_to_quat(dcm, tol=1e-6):
    """Quaternion with ``quat_to_dcm(q) == dcm``, canonical sign.

    Uses Shepperd's branch selection (largest of the four squared
    components) for numerical stability.

    Raises
    ------
    NotARotation
        If the matrix violates orthonormality or det=+1 beyond ``tol``.
    """
    dcm = np.asarray(dcm, dtype=float)
    if (
        np.max(np.abs(dcm.T @ dcm - np.eye(3))) > tol
        or abs(np.linalg.det(dcm) - 1.0) > tol
    ):
        raise NotARotation("matrix is not orthonormal with unit determinant")

    # quat_to_dcm(q) equals the classic body-to-nav matrix R(q) transposed,
    # so recover R = dcm.T and invert the standard formula.
    r = dcm.T
    tr = np.trace(r)
    candidates = np.array([tr, r[0, 0], r[1, 1], r[2, 2]])
    case = int(np.argmax(candidates))
    if case == 0:
        s = 0.5 * np.sqrt(1.0 + tr)
        f = 0.25 / s
        q = np.array(
            [
                s,
                f * (r[2, 1] - r[1, 2]),
                f * (r[0, 2] - r[2, 0]),
                f * (r[1, 0] - r[0, 1]),
            ]
        )
    else:
        i = case - 1
        j = (i + 1) % 3
        k = (i + 2) % 3
        x = 0.5 * np.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k])
        f = 0.25 / x
        q = np.empty(4)
        q[0] = f * (r[k, j] - r[j, k])
        q[1 + i] = x
        q[1 + j] = f * (r[j, i] + r[i, j])
        q[1 + k] = f * (r[k, i] + r[i, k])
    return quat_normalize(q)


def orthonormalize(dcm):
    """Nearest rotation matrix in the Frobenius sense (polar factor)."""
    u, _, vt = np.linalg.svd(dcm)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def compose_attitude(c_n0_to_nt, c_b_to_n0, c_bt_to_b0):
    """Current body-to-nav attitude from the two chains and the initial attitude.

    ``C_b^n(t) = C_n0^nt @ C_b^n(0) @ C_bt^b0``.  The product is repaired by
    symmetric orthogonalization only if orthonormality drift exceeds 1e-9,
    so accumulation bugs stay visible in tests.
    """
    c = c_n0_to_nt @ c_b_to_n0 @ c_bt_to_b0
    drift = np.max(np.abs(c.T @ c - np.eye(3)))
    if drift > _REPAIR_TOL:
        c = orthonormalize(c)
    return c


def euler_to_dcm(angles):
    """Body-to-nav DCM from (roll, pitch, yaw) in radians."""
    roll, pitch, yaw = angles
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    return np.array(
        [
            [cy * cp, -cy * sp * cr - sy * sr, cy * sp * sr - sy * cr],
            [sp, cp * cr, -cp * sr],
            [sy * cp, -sy * sp * cr + cy * sr, sy * sp * sr + cy * cr],
        ]
    )


def dcm_to_euler(dcm):
    """(roll, pitch, yaw) of a body-to-nav DCM.

    Emits :class:`GimbalProximityWarning` (never fails) when pitch is within
    1e-6 rad of +-90 deg, where the roll/yaw split degenerates.
    """
    sp = min(1.0, max(-1.0, dcm[1, 0]))
    pitch = np.arcsin(sp)
    if abs(pitch) > np.pi / 2.0 - 1e-6:
        warnings.warn(
            "pitch within 1e-6 rad of +-90 deg; roll and yaw are not separable",
            GimbalProximityWarning,
            stacklevel=2,
        )
    roll = np.arctan2(-dcm[1, 2], dcm[1, 1])
    yaw = np.arctan2(dcm[2, 0], dcm[0, 0])
    return np.array([roll, pitch, yaw])


def wrap_angle(angle):
    """Wrap an angle (radians) to (-pi, pi]."""
    wrapped = np.mod(-np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi)
    return -(wrapped - np.pi)
