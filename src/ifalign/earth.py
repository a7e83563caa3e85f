"""WGS-84 earth model and local-level-frame kinematics.

The navigation frame is North-Up-East throughout the package: axis 0 points
north, axis 1 up (away from the ellipsoid) and axis 2 east.  Curvilinear
position is the 3-vector ``p = [lon, lat, h]`` in radians/meters, ground
velocity the 3-vector ``v = [vN, vU, vE]`` in m/s.

All functions broadcast over leading dimensions, so ``lat`` may be a scalar
or an array and vector arguments may be ``(..., 3)``.
"""

import math

import numpy as np

from .errors import PolarSingularity

# WGS-84 defining constants
SEMI_MAJOR_AXIS = 6378137.0                 # m
FLATTENING = 1.0 / 298.257223563
ECCENTRICITY_SQ = FLATTENING * (2.0 - FLATTENING)
EARTH_RATE = 7.292115e-5                    # rad/s

# Somigliana normal gravity on the ellipsoid plus a linear free-air term.
GRAVITY_EQUATOR = 9.7803253359              # m/s^2
SOMIGLIANA_K = 1.931852652458e-3
FREE_AIR_GRADIENT = 3.086e-6                # (m/s^2)/m

_COS_LAT_MIN = 1e-9


def radii_of_curvature(lat):
    """Meridian and transverse curvature radii of the WGS-84 ellipsoid.

    Parameters
    ----------
    lat : float or ndarray
        Geodetic latitude in radians.

    Returns
    -------
    r_meridian, r_transverse : float or ndarray
        North-south and east-west radii of curvature in meters.
    """
    sin2 = np.sin(lat) ** 2
    t = 1.0 - ECCENTRICITY_SQ * sin2
    r_transverse = SEMI_MAJOR_AXIS / np.sqrt(t)
    r_meridian = SEMI_MAJOR_AXIS * (1.0 - ECCENTRICITY_SQ) / t ** 1.5
    return r_meridian, r_transverse


def curvature_matrix(p):
    """Matrix mapping ground velocity to curvilinear position rates.

    ``pdot = Rc @ v`` with ``p = [lon, lat, h]`` and ``v = [vN, vU, vE]``.

    Raises
    ------
    PolarSingularity
        If ``|cos(lat)| < 1e-9``; longitude rate is undefined at the poles.
    """
    lon, lat, h = p
    cos_lat = np.cos(lat)
    if abs(cos_lat) < _COS_LAT_MIN:
        raise PolarSingularity(f"curvature matrix undefined at latitude {lat!r}")
    r_n, r_e = radii_of_curvature(lat)
    return np.array(
        [
            [0.0, 0.0, 1.0 / ((r_e + h) * cos_lat)],
            [1.0 / (r_n + h), 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )


def earth_rate_n(lat):
    """Earth rotation rate resolved in the local North-Up-East frame (rad/s)."""
    lat = np.asarray(lat, dtype=float)
    return np.stack(
        [
            EARTH_RATE * np.cos(lat),
            EARTH_RATE * np.sin(lat),
            np.zeros_like(lat),
        ],
        axis=-1,
    )


def transport_rate_n(v, p):
    """Angular rate of the local-level frame relative to Earth (rad/s).

    Caused by translation over the curved ellipsoid; derived consistently
    with :func:`curvature_matrix` for the North-Up-East frame.
    """
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    lat = p[..., 1]
    h = p[..., 2]
    cos_lat = np.cos(lat)
    if np.any(np.abs(cos_lat) < _COS_LAT_MIN):
        raise PolarSingularity("transport rate undefined at the poles")
    r_n, r_e = radii_of_curvature(lat)
    v_n = v[..., 0]
    v_e = v[..., 2]
    return np.stack(
        [
            v_e / (r_e + h),
            v_e * np.tan(lat) / (r_e + h),
            -v_n / (r_n + h),
        ],
        axis=-1,
    )


def inertial_rate_n(v, p):
    """Angular rate of the navigation frame relative to inertial space (rad/s).

    Sum of the earth rate and the transport rate.
    """
    p = np.asarray(p, dtype=float)
    return earth_rate_n(p[..., 1]) + transport_rate_n(v, p)


def gravity_magnitude(lat, h=0.0):
    """Normal gravity (Somigliana) with a linear free-air height correction."""
    sin2 = np.sin(lat) ** 2
    g0 = GRAVITY_EQUATOR * (1.0 + SOMIGLIANA_K * sin2) / np.sqrt(
        1.0 - ECCENTRICITY_SQ * sin2
    )
    return g0 - FREE_AIR_GRADIENT * h


def gravity_n(p):
    """Gravity vector in the North-Up-East frame: ``[0, -g, 0]``."""
    p = np.asarray(p, dtype=float)
    lat = p[..., 1]
    h = p[..., 2]
    g = gravity_magnitude(lat, h)
    zero = np.zeros_like(g)
    return np.stack([zero, -g, zero], axis=-1)


def aiding_kinematics(v, p):
    """Earth rate, inertial rate and gravity at one aiding fix.

    Scalar fast path equivalent to ``earth_rate_n``, ``earth_rate_n +
    transport_rate_n`` and ``gravity_n`` (asserted equal in tests); the
    recursive aligners call this once per update.  Returns three 3-tuples
    of Python floats.
    """
    lat = float(p[1])
    h = float(p[2])
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    if abs(cos_lat) < _COS_LAT_MIN:
        raise PolarSingularity("transport rate undefined at the poles")
    sin2 = sin_lat * sin_lat
    t = 1.0 - ECCENTRICITY_SQ * sin2
    r_e = SEMI_MAJOR_AXIS / math.sqrt(t)
    r_n = SEMI_MAJOR_AXIS * (1.0 - ECCENTRICITY_SQ) / (t * math.sqrt(t))

    omega_ie = (EARTH_RATE * cos_lat, EARTH_RATE * sin_lat, 0.0)
    v_n, v_e = float(v[0]), float(v[2])
    omega_in = (
        omega_ie[0] + v_e / (r_e + h),
        omega_ie[1] + v_e * (sin_lat / cos_lat) / (r_e + h),
        -v_n / (r_n + h),
    )
    g = GRAVITY_EQUATOR * (1.0 + SOMIGLIANA_K * sin2) / math.sqrt(t) - (
        FREE_AIR_GRADIENT * h
    )
    return omega_ie, omega_in, (0.0, -g, 0.0)


def nav_to_ecef_dcm(p):
    """DCM from the North-Up-East frame to the Earth-fixed frame.

    Columns are the N, U, E unit vectors expressed in ECEF; used by tests to
    cross-check the transport rate against a finite-difference rotation.
    """
    lon, lat, _ = p
    sl, cl = np.sin(lat), np.cos(lat)
    so, co = np.sin(lon), np.cos(lon)
    north = np.array([-sl * co, -sl * so, cl])
    up = np.array([cl * co, cl * so, sl])
    east = np.array([-so, co, 0.0])
    return np.column_stack([north, up, east])


def wrap_longitude(lon):
    """Wrap an angle to (-pi, pi]."""
    wrapped = np.mod(-lon + np.pi, 2.0 * np.pi)
    return -(wrapped - np.pi)
