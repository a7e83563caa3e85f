"""Kinematically-consistent trajectory synthesis and sensor models.

The truth trajectory is built from per-axis sinusoidal attitude and velocity
profiles.  Position is integrated from the velocity profile on a fine
substep grid; angular rate and specific force are then derived by inverting
the attitude and velocity rate equations, so re-integrating the navigation
equations from the synthesized sensor streams reproduces the trajectory to
integrator precision.

Sensor models: IMU increments as fine-grid integrals of the true rates plus
constant bias and white increment noise; a GPS displaced from the IMU by a
body-frame lever arm, with white velocity/position noise.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import earth
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

    def value(self, t):
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        w = 2.0 * math.pi / self.period_s
        return self.amplitude * np.sin(w * np.asarray(t, dtype=float) + self.phase_deg * D2R)

    def rate(self, t):
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        w = 2.0 * math.pi / self.period_s
        return self.amplitude * w * np.cos(w * np.asarray(t, dtype=float) + self.phase_deg * D2R)


@dataclass(frozen=True)
class ScenarioConfig:
    """Truth-trajectory definition.

    Attitude profiles are in degrees, velocity in m/s, all periods/phases in
    seconds/degrees.  ``imu_rate_hz * update_interval_s`` must equal 2 (two
    IMU samples per update interval), and the substep must divide the IMU
    sample period into an even number of panels.
    """

    latitude_deg: float = 30.0
    longitude_deg: float = 0.0
    height_m: float = 0.0
    roll: SineProfile = field(default_factory=lambda: SineProfile(15.0, 90.0, 0.0))
    pitch: SineProfile = field(default_factory=lambda: SineProfile(10.0, 80.0, 70.0))
    yaw: SineProfile = field(default_factory=lambda: SineProfile(30.0, 140.0, 30.0))
    vel_mean_mps: tuple = (120.0, 0.0, 0.0)
    vel_north: SineProfile = field(default_factory=lambda: SineProfile(17.0, 210.0, 0.0))
    vel_up: SineProfile = field(default_factory=lambda: SineProfile(2.0, 50.0, 90.0))
    vel_east: SineProfile = field(default_factory=lambda: SineProfile(16.0, 190.0, 200.0))
    duration_s: float = 300.0
    imu_rate_hz: float = 100.0
    update_interval_s: float = 0.02
    substep_s: float = 0.001

    def __post_init__(self):
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if abs(self.imu_rate_hz * self.update_interval_s - 2.0) > 1e-9:
            raise ValueError(
                "imu_rate_hz * update_interval_s must be 2 (two samples per update)"
            )
        n_sub = self.sample_dt / self.substep_s
        if abs(n_sub - round(n_sub)) > 1e-9 or round(n_sub) < 2 or round(n_sub) % 2:
            raise ValueError(
                "substep must divide the IMU sample period into an even panel count"
            )
        n_upd = self.duration_s / self.update_interval_s
        if abs(n_upd - round(n_upd)) > 1e-9:
            raise ValueError("duration must be a whole number of update intervals")

    @property
    def sample_dt(self):
        """IMU sample period (one half of the update interval), seconds."""
        return 1.0 / self.imu_rate_hz

    @property
    def n_updates(self):
        return int(round(self.duration_s / self.update_interval_s))

    @property
    def n_samples(self):
        return 2 * self.n_updates

    @property
    def substeps_per_sample(self):
        return int(round(self.sample_dt / self.substep_s))

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
        for name in (
            "gyro_drift_deg_h",
            "gyro_noise_deg_h_sqrt_hz",
            "accel_bias_ug",
            "accel_noise_ug_sqrt_hz",
            "gps_vel_sigma_mps",
            "gps_pos_sigma_m",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def lever_arm(self):
        return np.asarray(self.lever_arm_m, dtype=float)

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


def _cumquad0(y, dx):
    """Fourth-order cumulative quadrature starting at zero.

    Composite Simpson on sample pairs; odd points get the three-point
    half-panel rule.  Needs an even panel count, which the config
    validation guarantees for the substep grid.
    """
    n = y.size - 1
    if n % 2:
        raise ValueError("cumulative quadrature needs an even panel count")
    out = np.empty_like(y)
    out[0] = 0.0
    pair = (dx / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    half = (dx / 12.0) * (5.0 * y[0:-2:2] + 8.0 * y[1:-1:2] - y[2::2])
    even = np.concatenate(([0.0], np.cumsum(pair)))
    out[2::2] = even[1:]
    out[1::2] = even[:-1] + half
    return out


def _euler_to_dcm_batch(roll, pitch, yaw):
    """Vectorized body-to-nav DCMs from Euler angle arrays."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    c = np.empty(roll.shape + (3, 3))
    c[..., 0, 0] = cy * cp
    c[..., 0, 1] = -cy * sp * cr - sy * sr
    c[..., 0, 2] = cy * sp * sr - sy * cr
    c[..., 1, 0] = sp
    c[..., 1, 1] = cp * cr
    c[..., 1, 2] = -cp * sr
    c[..., 2, 0] = sy * cp
    c[..., 2, 1] = -sy * sp * cr + cy * sr
    c[..., 2, 2] = sy * sp * sr + cy * cr
    return c


class TruthModel:
    """Analytic truth accessors backed by the integrated position history.

    Attitude and velocity are closed-form; position (and everything derived
    from it) interpolates the fine-grid integration with a cubic spline, so
    the model can be evaluated at arbitrary times by reference integrators.
    """

    def __init__(self, cfg, t_grid, p_grid):
        from scipy.interpolate import CubicSpline

        self.cfg = cfg
        self._p_spline = CubicSpline(t_grid, p_grid, axis=0)

    def euler(self, t):
        c = self.cfg
        return np.stack(
            [c.roll.value(t) * D2R, c.pitch.value(t) * D2R, c.yaw.value(t) * D2R],
            axis=-1,
        )

    def euler_rate(self, t):
        c = self.cfg
        return np.stack(
            [c.roll.rate(t) * D2R, c.pitch.rate(t) * D2R, c.yaw.rate(t) * D2R],
            axis=-1,
        )

    def velocity(self, t):
        c = self.cfg
        mean = np.asarray(c.vel_mean_mps, dtype=float)
        osc = np.stack(
            [c.vel_north.value(t), c.vel_up.value(t), c.vel_east.value(t)], axis=-1
        )
        return mean + osc

    def velocity_rate(self, t):
        c = self.cfg
        return np.stack(
            [c.vel_north.rate(t), c.vel_up.rate(t), c.vel_east.rate(t)], axis=-1
        )

    def position(self, t):
        return self._p_spline(t)

    def c_b_n(self, t):
        e = self.euler(t)
        return _euler_to_dcm_batch(e[..., 0], e[..., 1], e[..., 2])

    def omega_nb_b(self, t):
        e = self.euler(t)
        r = self.euler_rate(t)
        roll, pitch = e[..., 0], e[..., 1]
        roll_d, pitch_d, yaw_d = r[..., 0], r[..., 1], r[..., 2]
        sr, cr = np.sin(roll), np.cos(roll)
        sp, cp = np.sin(pitch), np.cos(pitch)
        return np.stack(
            [
                roll_d - yaw_d * sp,
                pitch_d * sr - yaw_d * cr * cp,
                pitch_d * cr + yaw_d * sr * cp,
            ],
            axis=-1,
        )

    def omega_in_n(self, t):
        p = self.position(t)
        v = self.velocity(t)
        return earth.earth_rate_n(p[..., 1]) + earth.transport_rate_n(v, p)

    def omega_ib_b(self, t):
        c_n_b = np.swapaxes(self.c_b_n(t), -1, -2)
        win = self.omega_in_n(t)
        return self.omega_nb_b(t) + np.einsum("...ij,...j->...i", c_n_b, win)

    def specific_force_b(self, t):
        p = self.position(t)
        v = self.velocity(t)
        vdot = self.velocity_rate(t)
        omega_ie = earth.earth_rate_n(p[..., 1])
        omega_en = earth.transport_rate_n(v, p)
        coriolis = np.cross(2.0 * omega_ie + omega_en, v)
        g_n = earth.gravity_n(p)
        c_n_b = np.swapaxes(self.c_b_n(t), -1, -2)
        return np.einsum("...ij,...j->...i", c_n_b, vdot + coriolis - g_n)


@dataclass(frozen=True)
class Truth:
    """Truth trajectory sampled on the fine substep grid."""

    cfg: ScenarioConfig
    t: np.ndarray            # (N,)
    euler: np.ndarray        # (N, 3) rad
    c_b_n: np.ndarray        # (N, 3, 3)
    v: np.ndarray            # (N, 3) m/s
    p: np.ndarray            # (N, 3) [lon, lat, h]
    omega_ib_b: np.ndarray   # (N, 3) rad/s
    f_b: np.ndarray          # (N, 3) m/s^2
    omega_in_n: np.ndarray   # (N, 3) rad/s
    model: TruthModel

    @property
    def substeps_per_update(self):
        return 2 * self.cfg.substeps_per_sample

    def update_indices(self):
        """Substep-grid indices of the update-interval endpoints."""
        return np.arange(self.cfg.n_updates + 1) * self.substeps_per_update

    def sample_indices(self):
        """Substep-grid indices of the IMU sample endpoints."""
        return np.arange(self.cfg.n_samples + 1) * self.cfg.substeps_per_sample


def _integrate_position(cfg, t, v):
    """Fixed-point integration of the curvilinear position rates."""
    lon0, lat0, h0 = cfg.p0
    dt = cfg.substep_s
    h = h0 + _cumquad0(v[:, 1], dt)
    lat = np.full_like(h, lat0)
    lon = np.full_like(h, lon0)
    for _ in range(4):
        r_n, r_e = earth.radii_of_curvature(lat)
        lat_new = lat0 + _cumquad0(v[:, 0] / (r_n + h), dt)
        lon_new = lon0 + _cumquad0(v[:, 2] / ((r_e + h) * np.cos(lat)), dt)
        shift = max(np.max(np.abs(lat_new - lat)), np.max(np.abs(lon_new - lon)))
        lat, lon = lat_new, lon_new
        if shift < 1e-15:
            break
    if np.any(np.abs(lat) > 89.9 * D2R):
        raise PolarSingularity("trajectory crosses 89.9 deg latitude")
    return np.stack([lon, lat, h], axis=-1)


def generate_truth(cfg):
    """Evaluate the truth trajectory of a scenario on its substep grid."""
    n = int(round(cfg.duration_s / cfg.substep_s))
    t = np.arange(n + 1) * cfg.substep_s

    v = np.asarray(cfg.vel_mean_mps, dtype=float) + np.stack(
        [cfg.vel_north.value(t), cfg.vel_up.value(t), cfg.vel_east.value(t)], axis=-1
    )
    p = _integrate_position(cfg, t, v)
    model = TruthModel(cfg, t, p)

    euler = model.euler(t)
    c_b_n = _euler_to_dcm_batch(euler[:, 0], euler[:, 1], euler[:, 2])
    c_n_b = np.swapaxes(c_b_n, -1, -2)

    omega_ie = earth.earth_rate_n(p[:, 1])
    omega_en = earth.transport_rate_n(v, p)
    omega_in = omega_ie + omega_en
    omega_ib = model.omega_nb_b(t) + np.einsum("nij,nj->ni", c_n_b, omega_in)

    vdot = model.velocity_rate(t)
    coriolis = np.cross(2.0 * omega_ie + omega_en, v)
    g_n = earth.gravity_n(p)
    f_b = np.einsum("nij,nj->ni", c_n_b, vdot + coriolis - g_n)

    return Truth(
        cfg=cfg,
        t=t,
        euler=euler,
        c_b_n=c_b_n,
        v=v,
        p=p,
        omega_ib_b=omega_ib,
        f_b=f_b,
        omega_in_n=omega_in,
        model=model,
    )


def _simpson_weights(n_panels, dx):
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def _integrate_samples(series, n_sub, dx):
    """Composite-Simpson integral of a (N,3) series over consecutive windows."""
    n_windows = (series.shape[0] - 1) // n_sub
    idx = np.arange(n_windows)[:, None] * n_sub + np.arange(n_sub + 1)[None, :]
    w = _simpson_weights(n_sub, dx)
    return np.einsum("j,njk->nk", w, series[idx])


def sample_imu(truth, errors=None, rng=None):
    """Synthesize IMU increments, one row per sample (half update interval).

    Returns ``(dtheta, dv)`` arrays of shape (n_samples, 3).  With
    ``errors`` given, adds the constant per-axis bias plus white increment
    noise with per-sample sigma ``density * sqrt(sample_dt)``; the random
    draws consume ``rng`` in the order gyro then accelerometer.
    """
    cfg = truth.cfg
    n_sub = cfg.substeps_per_sample
    dtheta = _integrate_samples(truth.omega_ib_b, n_sub, cfg.substep_s)
    dv = _integrate_samples(truth.f_b, n_sub, cfg.substep_s)

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
    """Nav-frame position offset and velocity offset of the GPS antenna."""
    c_b_n = truth.c_b_n[idx]
    omega_ib = truth.omega_ib_b[idx]
    omega_in = truth.omega_in_n[idx]
    arm_n = np.einsum("nij,j->ni", c_b_n, lever)
    omega_eb_b = omega_ib - np.einsum("nji,nj->ni", c_b_n, omega_in)
    vel_off = np.einsum("nij,nj->ni", c_b_n, np.cross(omega_eb_b, lever))
    return arm_n, vel_off


def _meters_to_curvilinear(p, offsets_n):
    """Convert N-U-E meter offsets at positions ``p`` to [dlon, dlat, dh]."""
    lat = p[:, 1]
    h = p[:, 2]
    r_n, r_e = earth.radii_of_curvature(lat)
    dlon = offsets_n[:, 2] / ((r_e + h) * np.cos(lat))
    dlat = offsets_n[:, 0] / (r_n + h)
    dh = offsets_n[:, 1]
    return np.stack([dlon, dlat, dh], axis=-1)


def gps_fixes(truth, errors=None, rng=None, stride_s=None):
    """GPS velocity/position stream at a fixed cadence.

    By default fixes land exactly on the update-interval endpoints.  The
    antenna is displaced from the IMU by the body-frame lever arm; white
    noise is drawn from ``rng`` (velocity first, then position, applied in
    N-U-E meters and converted through the local curvature).

    Returns ``(t, v, p)`` arrays with one row per fix.
    """
    cfg = truth.cfg
    if stride_s is None:
        idx = truth.update_indices()
    else:
        step = stride_s / cfg.substep_s
        if abs(step - round(step)) > 1e-9:
            raise ValueError("stride must be a multiple of the substep")
        idx = np.arange(0, truth.t.size, int(round(step)))
    t = truth.t[idx]
    v = truth.v[idx].copy()
    p = truth.p[idx].copy()

    if errors is not None:
        lever = errors.lever_arm
        if np.any(lever != 0.0):
            arm_n, vel_off = _lever_arm_offsets(truth, idx, lever)
            p = p + _meters_to_curvilinear(p, arm_n)
            v = v + vel_off
        if errors.gps_vel_sigma_mps > 0.0 or errors.gps_pos_sigma_m > 0.0:
            if rng is None:
                raise ValueError("rng is required when GPS noise is nonzero")
            v = v + errors.gps_vel_sigma_mps * rng.standard_normal(v.shape)
            pos_noise = errors.gps_pos_sigma_m * rng.standard_normal(p.shape)
            p = p + _meters_to_curvilinear(p, pos_noise)
    return t, v, p


def run_rng(seed, run_index=0):
    """Deterministic generator for one Monte-Carlo run."""
    return np.random.default_rng([int(seed), int(run_index)])
