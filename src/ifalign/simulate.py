"""Kinematically-consistent trajectory synthesis and sensor models.

The truth trajectory is built from per-axis sinusoidal attitude and velocity
profiles.  It is sampled at the Simpson nodes of the IMU samples (each
sample's start, midpoint and end, a step of half the sample period).
Position is integrated from the velocity profile on that grid; angular rate
and specific force are derived by inverting the attitude and velocity rate
equations, so re-integrating the navigation equations from the synthesized
sensor streams reproduces the trajectory to integrator precision.

Sensor models: IMU increments as one Simpson panel pair of the true rates
per sample, plus constant bias and white increment noise; a GPS displaced
from the IMU by a body-frame lever arm, with white velocity/position noise.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import earth
from .attitude import _euler_dcm_trig
from .errors import PolarSingularity

D2R = math.pi / 180.0
G0 = 9.80665  # m/s^2, standard gravity used for microgravity units
DEG_PER_H = D2R / 3600.0  # deg/h -> rad/s


@dataclass(frozen=True)
class SineProfile:
    """One sinusoidal component: ``amplitude * sin(2 pi t / period + phase)``."""

    amplitude: float = 0.0
    period_s: float = 1.0
    phase_deg: float = 0.0

    def __post_init__(self):
        if self.amplitude != 0.0 and self.period_s <= 0.0:
            raise ValueError("period must be positive when amplitude is nonzero")

    def evaluate(self, t):
        """``(value, rate)`` at times ``t``, from one argument column."""
        t = np.asarray(t, dtype=float)
        if self.amplitude == 0.0:
            return np.zeros_like(t), np.zeros_like(t)
        w = 2.0 * math.pi / self.period_s
        arg = w * t + self.phase_deg * D2R
        return self.amplitude * np.sin(arg), self.amplitude * w * np.cos(arg)


def _check_vector3(name, value):
    if np.shape(value) != (3,) or not np.all(np.isfinite(np.asarray(value, dtype=float))):
        raise ValueError(f"{name} must be three finite numbers, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Truth-trajectory definition.

    Attitude profiles are in degrees, velocity in m/s, all periods/phases in
    seconds/degrees.  The IMU samples twice per update interval
    (``sample_dt``), and the truth grid step is half the sample period
    (``grid_dt``).
    """

    latitude_deg: float = 30.0
    longitude_deg: float = 0.0
    height_m: float = 0.0
    duration_s: float = 300.0
    update_interval_s: float = 0.02
    roll: SineProfile = field(default_factory=lambda: SineProfile(15.0, 90.0, 0.0))
    pitch: SineProfile = field(default_factory=lambda: SineProfile(10.0, 80.0, 70.0))
    yaw: SineProfile = field(default_factory=lambda: SineProfile(30.0, 140.0, 30.0))
    vel_mean_mps: tuple = (120.0, 0.0, 0.0)
    vel_north: SineProfile = field(default_factory=lambda: SineProfile(17.0, 210.0, 0.0))
    vel_up: SineProfile = field(default_factory=lambda: SineProfile(2.0, 50.0, 90.0))
    vel_east: SineProfile = field(default_factory=lambda: SineProfile(16.0, 190.0, 200.0))

    def __post_init__(self):
        _check_vector3("vel_mean_mps", self.vel_mean_mps)
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError("duration must be positive and finite")
        if not 0.0 < self.update_interval_s < math.inf:
            raise ValueError("update interval must be positive and finite")
        n_upd = self.duration_s / self.update_interval_s
        if abs(n_upd - round(n_upd)) > 1e-9:
            raise ValueError("duration must be a whole number of update intervals")

    @property
    def sample_dt(self):
        """IMU sample period (one half of the update interval), seconds."""
        return self.update_interval_s / 2.0

    @property
    def grid_dt(self):
        """Truth grid step: the Simpson node spacing of one IMU sample."""
        return self.sample_dt / 2.0

    @property
    def n_updates(self):
        return int(round(self.duration_s / self.update_interval_s))

    @property
    def n_samples(self):
        return 2 * self.n_updates

    @property
    def p0(self):
        return np.array(
            [self.longitude_deg * D2R, self.latitude_deg * D2R, self.height_m]
        )


@dataclass(frozen=True)
class SensorErrors:
    """IMU, GPS and installation error magnitudes.

    Sigma-valued fields are standard deviations.  The constant gyro drift
    and accelerometer bias are applied with the stated magnitude on every
    axis; noise is white and drawn per sample.
    """

    gyro_drift_deg_h: float = 0.0
    gyro_noise_deg_h_sqrt_hz: float = 0.0
    accel_bias_ug: float = 0.0
    accel_noise_ug_sqrt_hz: float = 0.0
    gps_vel_sigma_mps: float = 0.0
    gps_pos_sigma_m: float = 0.0
    lever_arm_m: tuple = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type in (float, int) and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")
        _check_vector3("lever_arm_m", self.lever_arm_m)

    def without_lever_arm(self):
        return replace(self, lever_arm_m=(0.0, 0.0, 0.0))


def simulation_sensor_defaults(seed=0):
    """Medium-grade IMU with single-point-GPS aiding and a 1 m lever arm."""
    return SensorErrors(
        gyro_drift_deg_h=0.01,
        gyro_noise_deg_h_sqrt_hz=0.1,
        accel_bias_ug=50.0,
        accel_noise_ug_sqrt_hz=500.0,
        gps_vel_sigma_mps=0.1,
        gps_pos_sigma_m=2.0,
        lever_arm_m=(1.0, 1.0, 1.0),
        seed=seed,
    )


def turning_scenario(duration_s=120.0):
    """Turn-rich variant of the default scenario.

    Fast attitude oscillation makes the GPS antenna sweep at several tenths
    of a m/s, which is what exposes the lever-arm error; used to reproduce
    the lever-on/lever-off comparison.  The body rates here are an order of
    magnitude above the default scenario's, so the two-sample recursions
    carry visibly larger discretization residuals -- this profile is for
    lever-arm studies, not for the residual checks.
    """
    return ScenarioConfig(
        duration_s=duration_s,
        roll=SineProfile(10.0, 12.0, 0.0),
        pitch=SineProfile(6.0, 9.0, 70.0),
        yaw=SineProfile(25.0, 18.0, 30.0),
        vel_mean_mps=(80.0, 0.0, 0.0),
        vel_north=SineProfile(15.0, 16.0, 0.0),
        vel_up=SineProfile(4.0, 11.0, 90.0),
        vel_east=SineProfile(15.0, 21.0, 230.0),
    )


def _simpson_pairs(y, dx):
    """Simpson integral over each panel pair ``[y[2i], y[2i+2]]`` (axis 0)."""
    return (dx / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])


def _cumquad0(y, dx):
    """Fourth-order cumulative quadrature starting at zero.

    Composite Simpson on sample pairs; odd points get the three-point
    half-panel rule.  The truth grid always has an even panel count.
    """
    out = np.empty_like(y)
    out[0] = 0.0
    pair = _simpson_pairs(y, dx)
    half = (dx / 12.0) * (5.0 * y[0:-2:2] + 8.0 * y[1:-1:2] - y[2::2])
    even = np.concatenate(([0.0], np.cumsum(pair)))
    out[2::2] = even[1:]
    out[1::2] = even[:-1] + half
    return out


def _stack(profiles, t):
    """Values and rates of three profiles at ``t``, as two ``(..., 3)`` stacks."""
    values, rates = zip(*(profile.evaluate(t) for profile in profiles))
    return np.stack(values, axis=-1), np.stack(rates, axis=-1)


class Truth:
    """Truth trajectory of a scenario, sampled at the IMU's Simpson nodes.

    Attitude and velocity are closed-form.  Position is integrated from the
    velocity on the grid ``t`` (``p``); between grid points a cubic spline
    interpolates it, so :meth:`kinematics` evaluates the truth at arbitrary
    times for the reference integrators.  Only those use the spline, so it
    (and scipy) is built on the first :meth:`position` call.  The grid
    ``t`` has ``4 * n_updates + 1`` rows, ``cfg.grid_dt`` apart; its
    arrays ``c_b_n`` (N, 3, 3), ``v`` (m/s), ``p`` ([lon, lat, h]),
    ``omega_ib_b``, ``omega_in_n`` (rad/s) and ``f_b`` (m/s^2), each
    (N, 3), come from the same derivation as :meth:`kinematics`.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.t = np.arange(4 * cfg.n_updates + 1) * cfg.grid_dt
        v, v_rate = self.velocity(self.t)
        p = _integrate_position(cfg, v)
        self._p_spline = None
        self._antenna = {}  # antenna_fixes by (stride, lever arm)
        vars(self).update(self._derive(self.t, v, v_rate, p))

    def _attitude(self, t):
        """Body-to-nav DCM ``(..., 3, 3)`` and body rate relative to the nav
        frame ``(..., 3)`` (rad/s) at ``t``, from the Euler angle profiles."""
        c = self.cfg
        euler, euler_rate = _stack((c.roll, c.pitch, c.yaw), t)
        euler, euler_rate = euler * D2R, euler_rate * D2R
        c_b_n, (cr, sr, cp, sp) = _euler_dcm_trig(euler)
        roll_d, pitch_d, yaw_d = np.moveaxis(euler_rate, -1, 0)
        omega_nb_b = np.stack(
            [
                roll_d - yaw_d * sp,
                pitch_d * sr - yaw_d * cr * cp,
                pitch_d * cr + yaw_d * sr * cp,
            ],
            axis=-1,
        )
        return c_b_n, omega_nb_b

    def velocity(self, t):
        """Velocity and its rate (m/s, m/s^2) at ``t``, as ``(..., 3)``."""
        c = self.cfg
        osc, v_rate = _stack((c.vel_north, c.vel_up, c.vel_east), t)
        return np.asarray(c.vel_mean_mps, dtype=float) + osc, v_rate

    def position(self, t):
        if self._p_spline is None:
            from scipy.interpolate import CubicSpline

            self._p_spline = CubicSpline(self.t, self.p, axis=0)
        return self._p_spline(t)

    def kinematics(self, t):
        """The truth at times ``t``: a dict of ``c_b_n``, ``v``, ``p``,
        ``omega_ib_b``, ``f_b`` and ``omega_in_n``, shaped like the grid
        arrays."""
        return self._derive(t, *self.velocity(t), self.position(t))

    def _derive(self, t, v, v_rate, p):
        """The one derivation of ``c_b_n``, ``omega_in_n``, ``omega_ib_b``
        and ``f_b``: the attitude and velocity rate equations solved for the
        body rate and the specific force.  ``v_rate`` is overwritten."""
        omega_ie, omega_in, g_n = earth.kinematics_n(v, p)
        # vdot + (2 w_ie + w_en) x v - g: the specific force in the nav frame,
        # formed in the rate's own array (lower peak memory)
        f_n = v_rate
        f_n += np.cross(omega_ie + omega_in, v)
        f_n -= g_n
        del omega_ie, g_n  # freed before the attitude columns

        c_b_n, omega_nb_b = self._attitude(t)
        c_n_b = np.swapaxes(c_b_n, -1, -2)
        return {
            "c_b_n": c_b_n,
            "v": v,
            "p": p,
            "omega_ib_b": omega_nb_b + np.einsum("...ij,...j->...i", c_n_b, omega_in),
            "f_b": np.einsum("...ij,...j->...i", c_n_b, f_n),
            "omega_in_n": omega_in,
        }

    def update_indices(self):
        """Grid indices of the update-interval endpoints."""
        return np.arange(self.cfg.n_updates + 1) * 4

    def antenna_fixes(self, lever_arm_m=(0.0, 0.0, 0.0), stride_s=None):
        """Noiseless fixes ``(t, v, p)`` of a GPS antenna displaced from the
        IMU by the body-frame ``lever_arm_m``, every ``stride_s`` seconds
        (default: at the update-interval endpoints).

        They depend on nothing but the truth and these two arguments, so
        each pair is computed once and kept, as read-only arrays: the runs
        of a Monte-Carlo batch draw their noise on top of one copy.
        """
        key = (stride_s, tuple(map(float, lever_arm_m)))
        fixes = self._antenna.get(key)
        if fixes is not None:
            return fixes
        if stride_s is None:
            idx = self.update_indices()
        else:
            step = stride_s / self.cfg.grid_dt
            if not 0.5 <= step < math.inf or abs(step - round(step)) > 1e-9:
                raise ValueError(
                    f"stride must be a positive multiple of the {self.cfg.grid_dt:g} s "
                    "truth grid step"
                )
            idx = np.arange(0, self.t.size, int(round(step)))
        t, v, p = self.t[idx], self.v[idx], self.p[idx]
        lever = np.asarray(key[1])
        if np.any(lever != 0.0):
            arm_n, vel_off = _lever_arm_offsets(self, idx, lever)
            p = p + earth.curvilinear_rate(arm_n, p)
            v = v + vel_off
        for column in (t, v, p):
            column.flags.writeable = False
        self._antenna[key] = t, v, p
        return t, v, p


def _integrate_position(cfg, v):
    """Fixed-point integration of the curvilinear position rates.

    The rates depend on latitude and height only: height integrates
    directly, latitude is iterated, and longitude integrates the last rate.
    """
    dt = cfg.grid_dt
    v = np.asfortranarray(v)  # contiguous columns for the column arithmetic
    p = np.empty_like(v)
    p[:] = cfg.p0
    p[:, 2] += _cumquad0(v[:, 1], dt)
    for _ in range(4):
        rate = earth.curvilinear_rate(v, p)
        lat = cfg.p0[1] + _cumquad0(rate[:, 1], dt)
        shift = np.max(np.abs(lat - p[:, 1]))
        p[:, 1] = lat
        if shift < 1e-15:
            break
    p[:, 0] += _cumquad0(rate[:, 0], dt)
    if np.any(np.abs(p[:, 1]) > 89.9 * D2R):
        raise PolarSingularity("trajectory crosses 89.9 deg latitude")
    return np.ascontiguousarray(p)


def generate_truth(cfg):
    """Evaluate the truth trajectory of a scenario on its grid."""
    return Truth(cfg)


def sample_imu(truth, errors=None, rng=None):
    """Synthesize IMU increments, one row per sample (half update interval).

    Each increment is the Simpson integral of the true rate over the
    sample's three grid nodes.  Returns ``(dtheta, dv)`` arrays of shape
    (n_samples, 3).  With ``errors`` given, adds the constant per-axis bias plus white increment
    noise with per-sample sigma ``density * sqrt(sample_dt)``; the random
    draws consume ``rng`` in the order gyro then accelerometer.
    """
    cfg = truth.cfg
    dtheta = _simpson_pairs(truth.omega_ib_b, cfg.grid_dt)
    dv = _simpson_pairs(truth.f_b, cfg.grid_dt)

    if errors is not None:
        dt = cfg.sample_dt
        gyro_bias = errors.gyro_drift_deg_h * DEG_PER_H
        accel_bias = errors.accel_bias_ug * 1e-6 * G0
        dtheta = dtheta + gyro_bias * dt
        dv = dv + accel_bias * dt
        gyro_sigma = errors.gyro_noise_deg_h_sqrt_hz * DEG_PER_H * math.sqrt(dt)
        accel_sigma = errors.accel_noise_ug_sqrt_hz * 1e-6 * G0 * math.sqrt(dt)
        if gyro_sigma > 0.0 or accel_sigma > 0.0:
            if rng is None:
                raise ValueError("rng is required when noise densities are nonzero")
            dtheta = dtheta + gyro_sigma * rng.standard_normal(dtheta.shape)
            dv = dv + accel_sigma * rng.standard_normal(dv.shape)
    return dtheta, dv


def _lever_arm_offsets(truth, idx, lever):
    """Nav-frame position offset and velocity offset ``C (omega_eb x l)`` of
    the GPS antenna, with ``omega_eb = omega_ib - C^T omega_ie``."""
    c_b_n = truth.c_b_n[idx]
    omega_ie = earth.kinematics_n(truth.v[idx], truth.p[idx])[0]
    arm_n = np.einsum("nij,j->ni", c_b_n, lever)
    omega_eb_b = truth.omega_ib_b[idx] - np.einsum("nji,nj->ni", c_b_n, omega_ie)
    vel_off = np.einsum("nij,nj->ni", c_b_n, np.cross(omega_eb_b, lever))
    return arm_n, vel_off


def gps_fixes(truth, errors=None, rng=None, stride_s=None):
    """GPS velocity/position stream at a fixed cadence.

    By default fixes land exactly on the update-interval endpoints.  The
    antenna is displaced from the IMU by the lever arm of ``errors``
    (:meth:`Truth.antenna_fixes`); white noise is drawn from ``rng``
    (velocity first, then position, applied in N-U-E meters and converted
    through the local curvature).

    Returns ``(t, v, p)`` arrays with one row per fix.
    """
    lever = (0.0, 0.0, 0.0) if errors is None else errors.lever_arm_m
    t, v, p = (column.copy() for column in truth.antenna_fixes(lever, stride_s))
    noisy = errors is not None and (
        errors.gps_vel_sigma_mps > 0.0 or errors.gps_pos_sigma_m > 0.0
    )
    if noisy:
        if rng is None:
            raise ValueError("rng is required when GPS noise is nonzero")
        v += errors.gps_vel_sigma_mps * rng.standard_normal(v.shape)
        pos_noise = errors.gps_pos_sigma_m * rng.standard_normal(p.shape)
        p += earth.curvilinear_rate(pos_noise, p)
    return t, v, p


def run_rng(seed, run_index=0):
    """Deterministic generator for one Monte-Carlo run."""
    if run_index < 0:
        raise ValueError("run index must be nonnegative")
    return np.random.default_rng([int(seed), int(run_index)])
