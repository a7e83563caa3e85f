"""Two-sample compensation of the incremental attitude/velocity integrals.

An update interval ``[t_k, t_k + T]`` is covered by two equal IMU samples.
From the four increments the closed forms below approximate, to third order
in ``T`` for smooth rates:

* the rotation-compensated velocity integral (sculling correction),
* its nested double integral over the interval,
* the body-frame rotation vector (coning correction).

All three are exact when angular rate and specific force vary linearly in
time over the interval.  An interval is the flat 12-tuple of Python floats
``dtheta1, dtheta2, dv1, dv2`` (:func:`imu_interval` builds a checked
one); the kernels read it and return 3-tuples of floats: for 3-vectors,
arithmetic on Python floats costs several times less than numpy calls and
rounds the same.  Each kernel is written out component-wise, one
expression per component: a comprehension would build a list (and, before
Python 3.12, a frame) per vector.  :func:`check_increments` validates
increment rows once, where they enter the program.
"""

import math

import numpy as np

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
        interval reaches 0.1 rad.  In the last two cases its ``rows`` are
        the offending sample's row, or the interval's two for a rotation.
    """
    dtheta = np.asarray(dtheta, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if dtheta.ndim != 2 or dtheta.shape[1] != 3 or dtheta.shape[0] % 2 or dv.shape != dtheta.shape:
        raise ValueError(
            f"increments must be two (2N, 3) arrays, got {dtheta.shape} and {dv.shape}"
        )
    finite = np.isfinite(dtheta).all(axis=1) & np.isfinite(dv).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise _row_error(f"increments must be finite (row {row} is not)", (row,))
    angle = dtheta[0::2] + dtheta[1::2]
    too_large = np.sum(angle * angle, axis=1) >= _CONING_BOUND ** 2
    if too_large.any():
        k = int(np.argmax(too_large))
        raise _row_error(
            f"angular increment exceeds 0.1 rad over one update interval (interval {k})",
            (2 * k, 2 * k + 1),
        )
    return dtheta, dv


def _row_error(message, rows):
    """A ``ValueError`` whose ``rows`` name the IMU sample rows at fault."""
    error = ValueError(message)
    error.rows = rows
    return error


def as_float3(value, name):
    """A finite 3-vector as a tuple of Python floats; ValueError naming
    ``name`` for anything else."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != (3,):
        raise ValueError(
            f"{name} must be three numbers, got "
            + ("a ragged sequence" if array is None else f"shape {array.shape}")
        )
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return tuple(array.tolist())


def imu_interval(dtheta1, dtheta2, dv1, dv2):
    """One update interval as the 12-tuple of floats the kernels read.

    ``dtheta1``/``dtheta2`` are the incremental angles (rad) and
    ``dv1``/``dv2`` the incremental velocities (m/s) integrated over the
    first/second half of the interval.  Each must be a finite 3-vector, and
    the rows must pass :func:`check_increments` (``ValueError`` otherwise).
    Returns ``dtheta1 + dtheta2 + dv1 + dv2`` as one flat tuple of Python
    floats.
    """
    interval = (
        as_float3(dtheta1, "dtheta1") + as_float3(dtheta2, "dtheta2")
        + as_float3(dv1, "dv1") + as_float3(dv2, "dv2")
    )
    check_increments((interval[0:3], interval[3:6]), (interval[6:9], interval[9:12]))
    return interval


def sculling_increment(interval):
    """Rotation-compensated velocity increment over one update interval.

    ``dv1 + dv2 + (dtheta1 + dtheta2) x (dv1 + dv2) / 2
    + 2 (dtheta1 x dv2 + dv1 x dtheta2) / 3``
    """
    p0, p1, p2, q0, q1, q2, a0, a1, a2, b0, b1, b2 = interval
    s0, s1, s2 = p0 + q0, p1 + q1, p2 + q2
    u0, u1, u2 = a0 + b0, a1 + b1, a2 + b2
    k = 2.0 / 3.0
    return (
        u0 + 0.5 * (s1 * u2 - s2 * u1) + k * ((p1 * b2 - p2 * b1) + (a1 * q2 - a2 * q1)),
        u1 + 0.5 * (s2 * u0 - s0 * u2) + k * ((p2 * b0 - p0 * b2) + (a2 * q0 - a0 * q2)),
        u2 + 0.5 * (s0 * u1 - s1 * u0) + k * ((p0 * b1 - p1 * b0) + (a0 * q1 - a1 * q0)),
    )


def double_integral_increment(interval, T):
    """Nested double integral of the rotated specific force over one interval.

    ``(T/30) (25 dv1 + 5 dv2 + 12 dtheta1 x dv1 + 8 dtheta1 x dv2
    + 2 dv1 x dtheta2 + 2 dtheta2 x dv2)``
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"update interval T must be positive and finite, got {T!r}")
    p0, p1, p2, q0, q1, q2, a0, a1, a2, b0, b1, b2 = interval
    scale = T / 30.0
    return (
        scale * (25.0 * a0 + 5.0 * b0 + 12.0 * (p1 * a2 - p2 * a1) + 8.0 * (p1 * b2 - p2 * b1)
                 + 2.0 * (a1 * q2 - a2 * q1) + 2.0 * (q1 * b2 - q2 * b1)),
        scale * (25.0 * a1 + 5.0 * b1 + 12.0 * (p2 * a0 - p0 * a2) + 8.0 * (p2 * b0 - p0 * b2)
                 + 2.0 * (a2 * q0 - a0 * q2) + 2.0 * (q2 * b0 - q0 * b2)),
        scale * (25.0 * a2 + 5.0 * b2 + 12.0 * (p0 * a1 - p1 * a0) + 8.0 * (p0 * b1 - p1 * b0)
                 + 2.0 * (a0 * q1 - a1 * q0) + 2.0 * (q0 * b1 - q1 * b0)),
    )


def body_rotvec(interval):
    """Body rotation vector with the two-sample coning correction.

    ``dtheta1 + dtheta2 + 2 (dtheta1 x dtheta2) / 3``
    """
    a0, a1, a2, b0, b1, b2 = interval[:6]
    k = 2.0 / 3.0
    return (
        a0 + b0 + k * (a1 * b2 - a2 * b1),
        a1 + b1 + k * (a2 * b0 - a0 * b2),
        a2 + b2 + k * (a0 * b1 - a1 * b0),
    )
