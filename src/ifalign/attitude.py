"""Rotation algebra: quaternions, DCMs, rotation vectors and Euler angles.

Conventions
-----------
* Quaternions are scalar-first 4-vectors ``q = [s, x, y, z]`` with the
  canonical sign ``s >= 0`` (first nonzero component positive when s == 0).
* Every attitude matrix is body-to-nav, ``C_b^n @ v_body = v_nav``:
  :func:`quat_to_dcm` returns the Hamilton matrix ``R(q) = C_b^n``, as
  :func:`rotvec_to_dcm` and SciPy's ``Rotation`` do.
* Euler angles are (roll, pitch, yaw) for the North-Up-East frame: yaw about
  Up (positive turning North toward East), pitch about the rotated East
  (positive nose up), roll about the twice-rotated North (positive right
  wing down).

The per-update and report-row paths work on Python floats: a vector is a
3-tuple, a quaternion a 4-tuple, and a 3x3 or 4x4 matrix its flat
row-major tuple of 9 or 16 of them (the layout :func:`quat_dcm_entries`
returns).  For objects this small, arithmetic on floats costs several
times less than numpy calls and rounds the same.  The row-level entries
(:func:`compose_attitude`, :func:`dcm_to_euler`,
:func:`ifalign.quest.optimal_quaternion`) take only that flat layout.
"""

import math
import warnings

import numpy as np

from .errors import GimbalProximityWarning, NotARotation

_SMALL_ANGLE = 1e-7
_REPAIR_TOL = 1e-9
_GIMBAL_PITCH = math.pi / 2.0 - 1e-6  # |pitch| beyond which dcm_to_euler warns
ROTATION_TOL = 1e-6  # allowed error of a DCM's C^T C and det, and of a quaternion's norm


def cross_floats(a, b):
    """Cross product of two 3-sequences of Python floats, as a tuple."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def matmul3(a, b):
    """Product of two 3x3 matrices given as flat row-major 9-sequences of
    floats, as a flat 9-tuple."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (
        a00 * b00 + a01 * b10 + a02 * b20,
        a00 * b01 + a01 * b11 + a02 * b21,
        a00 * b02 + a01 * b12 + a02 * b22,
        a10 * b00 + a11 * b10 + a12 * b20,
        a10 * b01 + a11 * b11 + a12 * b21,
        a10 * b02 + a11 * b12 + a12 * b22,
        a20 * b00 + a21 * b10 + a22 * b20,
        a20 * b01 + a21 * b11 + a22 * b21,
        a20 * b02 + a21 * b12 + a22 * b22,
    )


def cross3(a, b):
    """Cross product of two 3-vectors (faster than np.cross for scalars)."""
    return np.array(cross_floats(a, b))


def rotvec_to_dcm(phi):
    """Rodrigues formula mapping a rotation vector to a DCM.

    ``phi`` is a 3-sequence of Python floats; the DCM comes back as its
    flat row-major 9-tuple of floats.  For ``|phi| < 1e-7`` the sin/cos
    coefficients are replaced by their two-term series so the 0/0 limit is
    exact; the two branches agree to 1e-14 at the switch point.
    """
    x, y, z = phi
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
    return (
        1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y,
        bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x,
        bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y),
    )


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


def flips_sign(q):
    """Whether the canonical sign of ``q`` is the opposite one: its first
    nonzero component is negative."""
    for component in q:
        if component > 0.0:
            return False
        if component < 0.0:
            return True
    return False


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
    ``[0, v]`` are the common use in the alignment residual operator.  A
    ``(4, N)`` column stack gives ``(4, 4, N)`` matrices, one per column.
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


def quat_dcm_entries(s, x, y, z):
    """The nine entries of :func:`quat_to_dcm`, row by row, as a flat tuple.

    ``(s^2 - eta.eta) I + 2 eta eta^T + 2 s skew(eta)``, written out
    component-wise with arithmetic only, so the components may be Python
    floats or numpy columns.
    """
    ss = s * s - (x * x + y * y + z * z)
    xx, yy, zz = 2.0 * x * x, 2.0 * y * y, 2.0 * z * z
    xy, xz, yz = 2.0 * x * y, 2.0 * x * z, 2.0 * y * z
    sx, sy, sz = 2.0 * s * x, 2.0 * s * y, 2.0 * s * z
    return (
        ss + xx, xy - sz, xz + sy,
        xy + sz, ss + yy, yz - sx,
        xz - sy, yz + sx, ss + zz,
    )


def quat_to_dcm(q):
    """Body-to-nav DCM ``R(q)`` encoded by a unit quaternion, or one per row
    of an ``(N, 4)`` stack (shape ``(N, 3, 3)``).

    :func:`quat_dcm_entries` on the stack's columns; a single quaternion is
    a stack of one, so every quaternion takes the same operations.
    """
    q = np.asarray(q, dtype=float)
    entries = quat_dcm_entries(*np.moveaxis(q, -1, 0))
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


def dcm_to_quat(dcm):
    """Quaternion with ``quat_to_dcm(q) == dcm``, canonical sign; a
    ``(..., 3, 3)`` stack gives one per matrix, shape ``(..., 4)``.

    Uses Shepperd's branch selection (largest of the four squared
    components) for numerical stability.  A single matrix is a stack of
    one, so every matrix takes the same operations: all four branches run
    on the stack and each row keeps its own.

    Raises
    ------
    NotARotation
        If a matrix violates orthonormality or det=+1 beyond
        :data:`ROTATION_TOL` (or is not finite); a stack names the first
        such index.
    """
    dcm = np.asarray(dcm, dtype=float)
    if dcm.shape[-2:] != (3, 3):
        raise ValueError(f"expected a (..., 3, 3) array, got shape {dcm.shape}")
    r = dcm.reshape(-1, 3, 3)
    with np.errstate(invalid="ignore"):  # a NaN entry fails the check quietly
        ortho = np.max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)), axis=(-2, -1))
        bad = ~((ortho <= ROTATION_TOL) & (np.abs(np.linalg.det(r) - 1.0) <= ROTATION_TOL))
    if bad.any():
        where = "matrix" if dcm.ndim == 2 else "matrix at index " + ", ".join(
            str(int(i)) for i in np.unravel_index(np.argmax(bad), dcm.shape[:-2])
        )
        raise NotARotation(f"{where} is not orthonormal with unit determinant")

    tr = np.trace(r, axis1=-2, axis2=-1)
    case = np.argmax(np.column_stack([tr, np.diagonal(r, 0, -2, -1)]), axis=-1)
    q = np.empty((4, len(r), 4))  # each branch's quaternion of each matrix
    with np.errstate(divide="ignore", invalid="ignore"):  # the branches not picked
        q[0, :, 0] = s = 0.5 * np.sqrt(1.0 + tr)
        f0 = 0.25 / s
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            x = 0.5 * np.sqrt(1.0 + r[:, i, i] - r[:, j, j] - r[:, k, k])
            f = 0.25 / x
            skew = r[:, k, j] - r[:, j, k]
            q[0, :, 1 + i] = f0 * skew
            q[1 + i, :, 0] = f * skew
            q[1 + i, :, 1 + i] = x
            q[1 + i, :, 1 + j] = f * (r[:, j, i] + r[:, i, j])
            q[1 + i, :, 1 + k] = f * (r[:, k, i] + r[:, i, k])
    rows = np.arange(len(r))
    q = q[case, rows]
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    q[q[rows, np.argmax(q != 0.0, axis=-1)] < 0.0] *= -1.0  # first nonzero positive
    return q.reshape(dcm.shape[:-2] + (4,))


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

    ``C_b^n(t) = C_n0^nt @ C_b^n(0) @ C_bt^b0``, computed on Python floats
    (each factor a flat row-major 9-sequence of floats) and returned as a
    flat row-major 9-tuple of floats; reshape it to ``(3, 3)`` where an
    array is needed.  The product is repaired by symmetric
    orthogonalization (on numpy) only if orthonormality drift
    ``max|C^T C - I|`` exceeds 1e-9, so accumulation bugs stay visible in
    tests.
    """
    c = matmul3(matmul3(c_n0_to_nt, c_b_to_n0), c_bt_to_b0)
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = c
    tol = _REPAIR_TOL
    # the six distinct entries of C^T C - I, each tested as |r| > tol; a NaN
    # entry fails both comparisons, so a NaN product is returned as it is
    r0 = c00 * c00 + c10 * c10 + c20 * c20 - 1.0
    r1 = c01 * c01 + c11 * c11 + c21 * c21 - 1.0
    r2 = c02 * c02 + c12 * c12 + c22 * c22 - 1.0
    r3 = c00 * c01 + c10 * c11 + c20 * c21
    r4 = c00 * c02 + c10 * c12 + c20 * c22
    r5 = c01 * c02 + c11 * c12 + c21 * c22
    if (r0 > tol or r0 < -tol or r1 > tol or r1 < -tol or r2 > tol or r2 < -tol
            or r3 > tol or r3 < -tol or r4 > tol or r4 < -tol or r5 > tol or r5 < -tol):
        return tuple(orthonormalize(np.reshape(c, (3, 3))).ravel().tolist())
    return c


def euler_to_dcm(angles):
    """Body-to-nav DCM from (roll, pitch, yaw) in radians, or one per row of
    an ``(N, 3)`` stack (shape ``(N, 3, 3)``), with the same operations on
    each."""
    return _euler_dcm_trig(angles)[0]


def _euler_dcm_trig(angles):
    """:func:`euler_to_dcm` of ``angles``, and the ``(cos, sin)`` pairs of
    roll and pitch it was built from, as ``c, (cr, sr, cp, sp)``."""
    angles = np.asarray(angles, dtype=float)
    roll, pitch, yaw = np.moveaxis(angles, -1, 0)
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    cysp, sysp = cy * sp, sy * sp
    c = np.empty(angles.shape[:-1] + (3, 3))
    c[..., 0, 0] = cy * cp
    c[..., 0, 1] = -cysp * cr - sy * sr
    c[..., 0, 2] = cysp * sr - sy * cr
    c[..., 1, 0] = sp
    c[..., 1, 1] = cp * cr
    c[..., 1, 2] = -cp * sr
    c[..., 2, 0] = sy * cp
    c[..., 2, 1] = -sysp * cr + cy * sr
    c[..., 2, 2] = sysp * sr + cy * cr
    return c, (cr, sr, cp, sp)


def dcm_to_euler(dcm):
    """(roll, pitch, yaw) of a body-to-nav DCM given as a flat row-major
    9-sequence of floats, computed on Python floats and returned as a
    3-tuple of them.

    Emits :class:`GimbalProximityWarning` (never fails) when pitch is within
    1e-6 rad of +-90 deg, where the roll/yaw split degenerates.  A NaN
    ``dcm[3]`` gives a NaN pitch and no warning.
    """
    c00, _, _, c10, c11, c12, c20, _, _ = dcm
    pitch = math.asin(min(max(c10, -1.0), 1.0))  # NaN-preserving clamp
    if abs(pitch) > _GIMBAL_PITCH:
        warnings.warn(
            "pitch within 1e-6 rad of +-90 deg; roll and yaw are not separable",
            GimbalProximityWarning,
            stacklevel=2,
        )
    return (math.atan2(-c12, c11), pitch, math.atan2(c20, c00))
