"""WGS-84 earth model and local-level-frame kinematics.

The navigation frame is North-Up-East throughout the package: axis 0 points
north, axis 1 up (away from the ellipsoid) and axis 2 east.  Curvilinear
position is the 3-vector ``p = [lon, lat, h]`` in radians/meters, ground
velocity the 3-vector ``v = [vN, vU, vE]`` in m/s.

Each formula (curvature radii, normal gravity, earth rate, transport rate)
is written once, component-wise, in ``_radii``, ``_earth_rate`` and
``_local_level``.  The per-update path calls them on Python floats through
:func:`aiding_kinematics`, which takes one fix and returns tuples of
floats.  :func:`kinematics_n`, :func:`earth_rate_n` and
:func:`curvilinear_rate` call them on numpy columns and broadcast over
leading dimensions: their arguments may be ``(3,)`` or ``(..., 3)``.
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


def _radii(sin2):
    """Meridian and transverse curvature radii from ``sin(lat)**2``, and
    the ``sqrt(1 - e^2 sin^2 lat)`` they share with normal gravity."""
    t = 1.0 - ECCENTRICITY_SQ * sin2
    root_t = t ** 0.5
    r_n = SEMI_MAJOR_AXIS * (1.0 - ECCENTRICITY_SQ) / (t * root_t)
    return r_n, SEMI_MAJOR_AXIS / root_t, root_t


def _earth_rate(sin_lat, cos_lat):
    """The earth rate as a North-Up-East 3-tuple of components."""
    return EARTH_RATE * cos_lat, EARTH_RATE * sin_lat, 0.0


def _local_level(sin_lat, cos_lat, h, v_n, v_e):
    """Normal gravity, earth rate and inertial rate.

    Arithmetic and ``** 0.5`` only (here and in :func:`_radii`), so the
    arguments may be Python floats or numpy columns.  Returns the gravity
    magnitude, then the earth and inertial (earth plus transport) rates as
    North-Up-East 3-tuples of components.
    """
    sin2 = sin_lat * sin_lat
    r_n, r_e, root_t = _radii(sin2)
    g = GRAVITY_EQUATOR * (1.0 + SOMIGLIANA_K * sin2) / root_t - FREE_AIR_GRADIENT * h
    omega_ie = _earth_rate(sin_lat, cos_lat)
    ie_n, ie_u, _ = omega_ie
    en_n = v_e / (r_e + h)
    en_u = v_e * (sin_lat / cos_lat) / (r_e + h)
    en_e = -v_n / (r_n + h)
    return g, omega_ie, (ie_n + en_n, ie_u + en_u, en_e)


def _off_pole(p):
    """Columns ``sin(lat)``, ``cos(lat)`` and ``h`` of positions ``p``.

    Raises :class:`PolarSingularity` if ``|cos(lat)| < 1e-9``, where the
    longitude and transport rates are undefined.
    """
    p = np.asarray(p, dtype=float)
    lat = p[..., 1]
    cos_lat = np.cos(lat)
    if np.any(np.abs(cos_lat) < _COS_LAT_MIN):
        raise PolarSingularity("longitude and transport rates undefined at the poles")
    return np.sin(lat), cos_lat, p[..., 2]


def _stack(components):
    """``(..., 3)`` array from three float-or-column components."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def curvilinear_rate(v, p):
    """Curvilinear position rate ``[lon', lat', h']`` of ground velocity ``v``.

    ``[vE / ((r_e + h) cos lat), vN / (r_n + h), vU]`` at positions ``p``;
    the same map turns N-U-E meter offsets into ``[dlon, dlat, dh]``.
    Raises :class:`PolarSingularity` within 1e-9 of the poles.
    """
    v = np.asarray(v, dtype=float)
    sin_lat, cos_lat, h = _off_pole(p)
    r_n, r_e, _ = _radii(sin_lat * sin_lat)
    return _stack((v[..., 2] / ((r_e + h) * cos_lat), v[..., 0] / (r_n + h), v[..., 1]))


def kinematics_n(v, p):
    """Earth rate, inertial rate and gravity as ``(..., 3)`` arrays.

    The column form of :func:`aiding_kinematics`.
    """
    v = np.asarray(v, dtype=float)
    g, omega_ie, omega_in = _local_level(*_off_pole(p), v[..., 0], v[..., 2])
    return _stack(omega_ie), _stack(omega_in), _stack((0.0, -g, 0.0))


def earth_rate_n(p):
    """Earth rate at positions ``p`` as a ``(..., 3)`` array: the earth-rate
    column of :func:`kinematics_n`, without the others."""
    sin_lat, cos_lat, _ = _off_pole(p)
    return _stack(_earth_rate(sin_lat, cos_lat))


def aiding_kinematics(v, p):
    """Earth rate, inertial rate and gravity at one aiding fix.

    The float form of :func:`kinematics_n`, which the recursive aligners
    call once per update with 3-sequences of Python floats.  Returns three
    3-tuples of floats.
    """
    _, lat, h = p
    v_n, _, v_e = v
    cos_lat = math.cos(lat)
    if abs(cos_lat) < _COS_LAT_MIN:
        raise PolarSingularity("transport rate undefined at the poles")
    g, omega_ie, omega_in = _local_level(math.sin(lat), cos_lat, h, v_n, v_e)
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
