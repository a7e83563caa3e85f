import math

import numpy as np
import pytest

from ifalign import earth
from ifalign.errors import PolarSingularity

D2R = math.pi / 180.0


def radii(lat):
    """Meridian and transverse curvature radii at latitude ``lat``."""
    r_n, r_e, _ = earth._radii(np.sin(lat) ** 2)
    return r_n, r_e


def at_rest(p):
    """Earth rate, inertial rate and gravity at rest at position ``p``."""
    return earth.kinematics_n(np.zeros(3), np.asarray(p, dtype=float))


def transport_rate(v, p):
    omega_ie, omega_in, _ = earth.kinematics_n(v, p)
    return omega_in - omega_ie


def pole_level(lat, h=0.0):
    # kinematics_n refuses the poles (the transport rate is undefined
    # there); at rest, the formula it runs is defined at any latitude
    g, omega_ie, _ = earth._local_level(np.sin(lat), np.cos(lat), h, 0.0, 0.0)
    return g, np.array(omega_ie)


class TestRadii:
    def test_equator_transverse_equals_semi_major(self):
        r_n, r_e = radii(0.0)
        assert r_e == pytest.approx(6378137.0, abs=1e-6)

    def test_equator_meridian(self):
        # a (1 - e^2), evaluated with the WGS-84 defining constants
        r_n, _ = radii(0.0)
        assert r_n == pytest.approx(6335439.3272928195, abs=1e-6)

    def test_polar_radii_equal(self):
        r_n, r_e = radii(math.pi / 2.0)
        expected = 6378137.0 / math.sqrt(1.0 - earth.ECCENTRICITY_SQ)
        assert r_n == pytest.approx(expected, rel=1e-12)
        assert r_e == pytest.approx(expected, rel=1e-12)

    def test_broadcasting(self):
        lats = np.linspace(-1.4, 1.4, 7)
        r_n, r_e = radii(lats)
        assert r_n.shape == lats.shape
        assert np.all(r_e >= r_n)


class TestCurvatureMatrix:
    # the curvature matrix Rc with pdot = Rc v, applied by curvilinear_rate
    def test_pure_climb_changes_only_height(self):
        pdot = earth.curvilinear_rate(np.array([0.0, 1.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(pdot, [0.0, 0.0, 1.0])

    def test_northward_motion_latitude_rate(self):
        p = np.array([0.0, 0.0, 0.0])
        r_n, _ = radii(0.0)
        pdot = earth.curvilinear_rate(np.array([r_n, 0.0, 0.0]), p)
        assert pdot[1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("lat_deg", [-80.0, -45.0, 0.0, 30.0, 60.0, 80.0])
    def test_inverse_pair(self, lat_deg):
        # the velocity that a position rate comes from, written out here;
        # one call maps all three columns (the rows of inverse.T)
        p = np.array([0.3, lat_deg * D2R, 1200.0])
        r_n, r_e = radii(p[1])
        inverse = np.array(
            [
                [0.0, r_n + p[2], 0.0],
                [0.0, 0.0, 1.0],
                [(r_e + p[2]) * math.cos(p[1]), 0.0, 0.0],
            ]
        )
        prod = earth.curvilinear_rate(inverse.T, p).T
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-12)

    def test_polar_rejection(self):
        with pytest.raises(PolarSingularity):
            earth.curvilinear_rate(np.zeros(3), np.array([0.0, math.pi / 2.0, 0.0]))


class TestEarthRate:
    def test_equator(self):
        np.testing.assert_allclose(
            at_rest([0.0, 0.0, 0.0])[0], [earth.EARTH_RATE, 0.0, 0.0], atol=1e-20
        )

    def test_pole(self):
        np.testing.assert_allclose(
            pole_level(math.pi / 2.0)[1],
            [0.0, earth.EARTH_RATE, 0.0],
            atol=1e-20,
        )

    def test_30deg(self):
        w = at_rest([0.0, 30.0 * D2R, 0.0])[0]
        np.testing.assert_allclose(
            w,
            [earth.EARTH_RATE * math.sqrt(3.0) / 2.0, earth.EARTH_RATE / 2.0, 0.0],
            rtol=1e-15,
        )

    def test_column_is_that_of_kinematics_n(self, rng):
        # earth_rate_n is kinematics_n's earth-rate column, bitwise, on a
        # stack of positions; it refuses the poles the same way
        p = np.column_stack([
            rng.uniform(-3.0, 3.0, 50), rng.uniform(-1.5, 1.5, 50), rng.uniform(-100, 9e3, 50)
        ])
        v = rng.uniform(-250.0, 250.0, (50, 3))
        got = earth.earth_rate_n(p)
        assert got.shape == (50, 3)
        assert got.tobytes() == earth.kinematics_n(v, p)[0].tobytes()
        with pytest.raises(PolarSingularity):
            earth.earth_rate_n(np.array([0.0, math.pi / 2.0, 0.0]))


class TestTransportRate:
    def test_zero_velocity(self):
        p = np.array([0.1, 0.5, 100.0])
        np.testing.assert_allclose(
            transport_rate(np.zeros(3), p), np.zeros(3), atol=1e-20
        )

    def test_vertical_motion_no_rotation(self):
        p = np.array([0.1, 0.5, 100.0])
        w = transport_rate(np.array([0.0, 50.0, 0.0]), p)
        np.testing.assert_allclose(w, np.zeros(3), atol=1e-20)

    def test_pure_north_motion(self):
        p = np.array([0.0, 0.6, 0.0])
        v = np.array([120.0, 0.0, 0.0])
        r_n, _ = radii(0.6)
        np.testing.assert_allclose(
            transport_rate(v, p), [0.0, 0.0, -120.0 / r_n], rtol=1e-12
        )

    @pytest.mark.parametrize("lat_deg", [-60.0, -30.0, 0.0, 30.0, 60.0])
    @pytest.mark.parametrize(
        "v", [(300.0, 0.0, 0.0), (0.0, 0.0, 300.0), (150.0, -30.0, 200.0)]
    )
    def test_matches_finite_difference_of_nav_frame(self, lat_deg, v):
        # Advance the position by pdot = Rc v over +-dt and difference the
        # analytic nav-to-ECEF DCM: skew(w_en) = C^T dC/dt.
        p = np.array([0.4, lat_deg * D2R, 500.0])
        v = np.array(v)
        dt = 1e-3
        pdot = earth.curvilinear_rate(v, p)
        c_mid = earth.nav_to_ecef_dcm(p)
        c_plus = earth.nav_to_ecef_dcm(p + pdot * dt)
        c_minus = earth.nav_to_ecef_dcm(p - pdot * dt)
        skew_w = c_mid.T @ (c_plus - c_minus) / (2.0 * dt)
        w_fd = np.array([skew_w[2, 1], skew_w[0, 2], skew_w[1, 0]])
        w = transport_rate(v, p)
        np.testing.assert_allclose(w, w_fd, atol=1e-8)

    def test_inertial_rate_is_sum(self):
        # the earth rate plus the transport rate, written out
        p = np.array([0.2, 0.7, 300.0])
        v = np.array([100.0, 5.0, -50.0])
        omega_ie, total, _ = earth.kinematics_n(v, p)
        r_n, r_e = radii(p[1])
        transport = [
            v[2] / (r_e + p[2]),
            v[2] * math.tan(p[1]) / (r_e + p[2]),
            -v[0] / (r_n + p[2]),
        ]
        np.testing.assert_allclose(total, omega_ie + transport)

    def test_inertial_rate_norm_bound(self):
        p = np.array([0.2, 0.7, 300.0])
        v = np.array([100.0, 5.0, -50.0])
        r_n, r_e = radii(p[1])
        bound = (
            earth.EARTH_RATE
            + np.linalg.norm(v) / (r_n + p[2])
            + abs(v[2] * math.tan(p[1])) / (r_e + p[2])
        )
        assert np.linalg.norm(earth.kinematics_n(v, p)[1]) <= bound


class TestGravity:
    def test_equatorial_value(self):
        g = -at_rest([0.0, 0.0, 0.0])[2][1]
        assert g == pytest.approx(9.7803253359, abs=1e-10)

    def test_direction_is_minus_up(self):
        g_vec = at_rest([0.3, 0.8, 2000.0])[2]
        assert g_vec[0] == 0.0 and g_vec[2] == 0.0
        assert g_vec[1] < 0.0

    @pytest.mark.parametrize("lat_deg", [-75.0, -10.0, 0.0, 30.0, 89.0])
    def test_free_air_sign(self, lat_deg):
        lat = lat_deg * D2R
        assert -at_rest([0.0, lat, 1000.0])[2][1] < -at_rest([0.0, lat, 0.0])[2][1]

    def test_poleward_increase(self):
        assert pole_level(math.pi / 2.0)[0] > pole_level(0.0)[0]


class TestAidingKinematics:
    @pytest.mark.parametrize("lat_deg", [-55.0, 0.0, 30.0, 72.0])
    def test_matches_reference_functions(self, lat_deg):
        # the float form against the column form, at several heights and
        # velocities with every component nonzero and of either sign
        for h, v in [
            (850.0, (123.0, -4.0, 67.0)),
            (0.0, (-80.0, 3.0, -150.0)),
            (-120.0, (40.0, -15.0, 250.0)),
            (11000.0, (-230.0, 25.0, 9.0)),
        ]:
            p = np.array([-0.8, lat_deg * D2R, h])
            v = np.array(v)
            floats = earth.aiding_kinematics(v, p)
            for one, column in zip(floats, earth.kinematics_n(v, p)):
                np.testing.assert_allclose(one, column, rtol=1e-15)

    def test_polar_rejection(self):
        with pytest.raises(PolarSingularity):
            earth.aiding_kinematics(np.zeros(3), np.array([0.0, math.pi / 2, 0.0]))


class TestWrapLongitude:
    @pytest.mark.parametrize(
        "lon, expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
         (1.5 * math.pi, -0.5 * math.pi), (2.0 * math.pi, 0.0)],
    )
    def test_values(self, lon, expected):
        assert earth.wrap_longitude(lon) == pytest.approx(expected, abs=1e-12)
