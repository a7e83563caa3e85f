"""Two-sample compensation of the incremental attitude/velocity integrals.

An update interval ``[t_k, t_k + T]`` is covered by two equal IMU samples.
From the four increments the closed forms below approximate, to third order
in ``T`` for smooth rates:

* the rotation-compensated velocity integral (sculling correction),
* its nested double integral over the interval,
* the body-frame rotation vector (coning correction).

All three are exact when angular rate and specific force vary linearly in
time over the interval.  The kernels read an interval's increments as
Python floats and return 3-tuples of floats: for 3-vectors, arithmetic on
Python floats costs several times less than numpy calls and rounds the
same.  Each kernel is written out component-wise, one expression per
component: a comprehension would build a list (and, before Python 3.12, a
frame) per vector.  :func:`check_increments` validates increment rows
once, where they enter the program.
"""

import numpy as np

from .attitude import cross_floats

_CONING_BOUND = 0.1  # rad; sanity bound for one update interval


def check_increments(dtheta, dv):
    """Validate IMU increment rows as consecutive update intervals.

    ``dtheta`` and ``dv`` hold one row per IMU sample, two samples per
    update interval.  Returns both as float64 arrays of shape ``(2N, 3)``.

    Raises
    ------
    ValueError
        If the two are not ``(2N, 3)`` arrays of one shape, if an increment
        is not finite, or if the rotation ``|dtheta1 + dtheta2|`` of an
        interval reaches 0.1 rad.
    """
    dtheta = np.asarray(dtheta, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if dtheta.ndim != 2 or dtheta.shape[1] != 3 or dtheta.shape[0] % 2 or dv.shape != dtheta.shape:
        raise ValueError(
            f"increments must be two (2N, 3) arrays, got {dtheta.shape} and {dv.shape}"
        )
    finite = np.isfinite(dtheta).all(axis=1) & np.isfinite(dv).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"increments must be finite (row {np.argmin(finite)} is not)"
        )
    angle = dtheta[0::2] + dtheta[1::2]
    too_large = np.sum(angle * angle, axis=1) >= _CONING_BOUND ** 2
    if too_large.any():
        raise ValueError(
            "angular increment exceeds 0.1 rad over one update interval "
            f"(interval {np.argmax(too_large)})"
        )
    return dtheta, dv


def as_float3(value, name):
    """A 3-vector as a tuple of Python floats; ValueError naming ``name``
    (and the expected shape) for anything else."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != (3,):
        raise ValueError(
            f"{name} must be a 3-vector of shape (3,), got "
            + ("a ragged sequence" if array is None else f"shape {array.shape}")
        )
    return tuple(array.tolist())


class ImuInterval:
    """Gyro/accelerometer increments over the two halves of one update interval.

    ``ImuInterval(dtheta1, dtheta2, dv1, dv2)`` checks that each argument is
    a 3-vector and validates the rows with :func:`check_increments`.
    ``floats`` holds the four increments as 3-tuples of Python floats, which
    is what the kernels read; the array attributes are built from it on
    access.

    Attributes
    ----------
    dtheta1, dtheta2 : ndarray, shape (3,)
        Incremental angles (rad) integrated over the first/second half.
    dv1, dv2 : ndarray, shape (3,)
        Incremental velocities (m/s) integrated over the first/second half.
    floats : tuple
        ``(dtheta1, dtheta2, dv1, dv2)`` as 3-tuples of Python floats.
    """

    __slots__ = ("floats",)

    def __init__(self, dtheta1, dtheta2, dv1, dv2):
        self.floats = tuple(
            as_float3(value, name)
            for value, name in zip(
                (dtheta1, dtheta2, dv1, dv2), ("dtheta1", "dtheta2", "dv1", "dv2")
            )
        )
        check_increments(self.floats[:2], self.floats[2:])

    @classmethod
    def from_floats(cls, dtheta1, dtheta2, dv1, dv2):
        """An interval from float 3-tuples that already passed
        :func:`check_increments`; they are neither copied nor checked."""
        interval = cls.__new__(cls)
        interval.floats = (dtheta1, dtheta2, dv1, dv2)
        return interval

    dtheta1 = property(lambda self: np.array(self.floats[0]))
    dtheta2 = property(lambda self: np.array(self.floats[1]))
    dv1 = property(lambda self: np.array(self.floats[2]))
    dv2 = property(lambda self: np.array(self.floats[3]))


def sculling_increment(interval):
    """Rotation-compensated velocity increment over one update interval.

    ``dv1 + dv2 + (dtheta1 + dtheta2) x (dv1 + dv2) / 2
    + 2 (dtheta1 x dv2 + dv1 x dtheta2) / 3``
    """
    dth1, dth2, dv1, dv2 = interval.floats
    p0, p1, p2 = dth1
    q0, q1, q2 = dth2
    a0, a1, a2 = dv1
    b0, b1, b2 = dv2
    r0, r1, r2 = cross_floats((p0 + q0, p1 + q1, p2 + q2), (a0 + b0, a1 + b1, a2 + b2))
    c0, c1, c2 = cross_floats(dth1, dv2)
    d0, d1, d2 = cross_floats(dv1, dth2)
    k = 2.0 / 3.0
    return (
        a0 + b0 + 0.5 * r0 + k * (c0 + d0),
        a1 + b1 + 0.5 * r1 + k * (c1 + d1),
        a2 + b2 + 0.5 * r2 + k * (c2 + d2),
    )


def double_integral_increment(interval, T):
    """Nested double integral of the rotated specific force over one interval.

    ``(T/30) (25 dv1 + 5 dv2 + 12 dtheta1 x dv1 + 8 dtheta1 x dv2
    + 2 dv1 x dtheta2 + 2 dtheta2 x dv2)``
    """
    if T <= 0.0:
        raise ValueError("update interval T must be positive")
    dth1, dth2, dv1, dv2 = interval.floats
    a0, a1, a2 = dv1
    b0, b1, b2 = dv2
    c0, c1, c2 = cross_floats(dth1, dv1)
    d0, d1, d2 = cross_floats(dth1, dv2)
    e0, e1, e2 = cross_floats(dv1, dth2)
    f0, f1, f2 = cross_floats(dth2, dv2)
    scale = T / 30.0
    return (
        scale * (25.0 * a0 + 5.0 * b0 + 12.0 * c0 + 8.0 * d0 + 2.0 * e0 + 2.0 * f0),
        scale * (25.0 * a1 + 5.0 * b1 + 12.0 * c1 + 8.0 * d1 + 2.0 * e1 + 2.0 * f1),
        scale * (25.0 * a2 + 5.0 * b2 + 12.0 * c2 + 8.0 * d2 + 2.0 * e2 + 2.0 * f2),
    )


def body_rotvec(interval):
    """Body rotation vector with the two-sample coning correction.

    ``dtheta1 + dtheta2 + 2 (dtheta1 x dtheta2) / 3``
    """
    dth1, dth2, _, _ = interval.floats
    a0, a1, a2 = dth1
    b0, b1, b2 = dth2
    c0, c1, c2 = cross_floats(dth1, dth2)
    k = 2.0 / 3.0
    return (a0 + b0 + k * c0, a1 + b1 + k * c1, a2 + b2 + k * c2)
