"""Brute-force reference integrators.

Everything here trades speed for accuracy and independence from the
recursive algorithms: plain quadrature and Runge-Kutta propagation of the
defining integrals, used to certify the two-sample kernels, the aligner
accumulators and the trajectory generator.
"""

import numpy as np

from . import earth
from .attitude import (
    cross3,
    dcm_to_quat,
    dcm_to_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_dcm,
    rotation_angle,
    rotvec_to_dcm,
)


def _rk4(derivative, y, h, n_steps, quats):
    """Classic RK4 of ``dy/dt = derivative(s, y)`` over ``n_steps`` steps of ``h``.

    ``s`` indexes the half-step stage grid: ``2k`` starts step ``k`` and
    ``2k + 1`` is its midpoint, so callers evaluate their inputs on that
    grid once.  Yields ``(k, y)`` for ``k = 0 .. n_steps``; the quaternion
    slices ``quats`` of ``y`` are renormalized after each step.
    """
    yield 0, y
    for k in range(n_steps):
        k1 = derivative(2 * k, y)
        k2 = derivative(2 * k + 1, y + 0.5 * h * k1)
        k3 = derivative(2 * k + 1, y + 0.5 * h * k2)
        k4 = derivative(2 * k + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for q in quats:
            y[q] = quat_normalize(y[q])
        yield k + 1, y


def _quat_rate(q, w):
    return 0.5 * quat_multiply(q, np.array([0.0, w[0], w[1], w[2]]))


def _stage_times(h, n_steps, t0=0.0):
    return t0 + 0.5 * h * np.arange(2 * n_steps + 1)


# ---------------------------------------------------------------------------
# Kernel references: direct quadrature over one update interval.


def _cumtrapz(y, dt):
    """Cumulative trapezoid of ``y`` along its first axis, from zero."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]), axis=0)
    return out


def _trapz(y, dt):
    return np.sum(0.5 * dt * (y[1:] + y[:-1]), axis=0)


def angle_integral(omega_fn, t0, t1, n=10000):
    """Cumulative trapezoid of the angular rate from ``t0``: theta(t)."""
    ts = np.linspace(t0, t1, n + 1)
    return ts, _cumtrapz(np.asarray(omega_fn(ts), dtype=float), (t1 - t0) / n)


def _rotated_force(omega_fn, f_fn, t0, t1, n, exact_rotation):
    """The specific force rotated into the start attitude, ``C_{b(t)}^{b(t0)}
    f(t)``, on the ``n``-panel grid over ``[t0, t1]``."""
    ts, theta = angle_integral(omega_fn, t0, t1, n)
    f = np.asarray(f_fn(ts), dtype=float)
    if exact_rotation:
        return np.einsum("nij,nj->ni", _chain_dcms(omega_fn, ts), f)
    return f + np.cross(theta, f)


def rotated_velocity_integral(omega_fn, f_fn, t0, t1, n=10000, exact_rotation=False):
    """Reference for the rotation-compensated velocity integral.

    With ``exact_rotation=False`` (default) the integrand uses the
    first-order attitude ``I + theta(t) x``; with ``True`` the full DCM is
    propagated by per-substep Rodrigues factors.
    """
    integrand = _rotated_force(omega_fn, f_fn, t0, t1, n, exact_rotation)
    return _trapz(integrand, (t1 - t0) / n)


def rotated_velocity_double_integral(
    omega_fn, f_fn, t0, t1, n=10000, exact_rotation=False
):
    """Reference for the nested double integral over one interval."""
    dt = (t1 - t0) / n
    integrand = _rotated_force(omega_fn, f_fn, t0, t1, n, exact_rotation)
    return _trapz(_cumtrapz(integrand, dt), dt)


def _chain_dcms(omega_fn, ts):
    """DCMs C_{b(t)}^{b(t0)} at the grid points by stepwise Rodrigues factors.

    Each substep uses the midpoint rate with a trapezoid angle increment,
    accurate enough once the grid is fine (the callers use n >= 1e3).
    """
    n = ts.size - 1
    dt = ts[1] - ts[0]
    w = np.asarray(omega_fn(ts), dtype=float)
    w_mid = np.asarray(omega_fn(0.5 * (ts[:-1] + ts[1:])), dtype=float)
    # Simpson increment per substep.
    phis = (dt / 6.0) * (w[:-1] + 4.0 * w_mid + w[1:])
    out = np.empty((n + 1, 3, 3))
    out[0] = np.eye(3)
    c = np.eye(3)
    for i in range(n):
        c = c @ np.array(rotvec_to_dcm(phis[i]))
        out[i + 1] = c
    return out


def rotation_vector_reference(omega_fn, t0, t1, n=2000):
    """Rotation vector of the attitude accumulated over ``[t0, t1]``.

    Quaternion RK4 on the attitude rate equation; reference for the
    two-sample coning formula.
    """
    h = (t1 - t0) / n
    w = np.asarray(omega_fn(_stage_times(h, n, t0)), dtype=float)
    steps = _rk4(lambda s, q: _quat_rate(q, w[s]), np.array([1.0, 0.0, 0.0, 0.0]),
                 h, n, (slice(0, 4),))
    for _, q in steps:
        pass
    # q propagates R(q) = C_{b(t)}^{b(t0)}; quat_to_dcm returns its transpose.
    return dcm_to_rotvec(quat_to_dcm(q).T)


# ---------------------------------------------------------------------------
# Truth references: RK4 on augmented states.


def _positive_step(substep):
    """``substep`` as a float; ``ValueError`` unless it is positive."""
    substep = float(substep)
    if not substep > 0.0:
        raise ValueError(f"substep must be positive, got {substep:g} s")
    return substep


class AlignmentReference:
    """Fine-step reference for the alignment integrals of a truth trajectory.

    Integrates, with classic RK4 at a configurable substep, the body and
    navigation attitude chains together with every integral entering the
    velocity- and position-form observation vectors.  The truth is
    evaluated once on the half-substep stage grid, so the sequential loop
    does only small-array arithmetic.
    """

    def __init__(self, truth, substep=0.001):
        self.truth = truth
        self.substep = _positive_step(substep)

    def run(self, t_end, epochs=None):
        """Integrate from 0 to ``t_end``; returns reference series at epochs.

        ``epochs`` must be multiples of the substep (default: just
        ``t_end``).  Returns a dict of arrays keyed by quantity name.
        """
        if epochs is None:
            epochs = [t_end]
        epochs = sorted(float(e) for e in epochs)
        h = self.substep
        n_steps = int(round(t_end / h))
        if abs(n_steps * h - t_end) > 1e-9:
            raise ValueError("t_end must be a multiple of the substep")
        epoch_steps = set()
        for e in epochs:
            k = int(round(e / h))
            if abs(k * h - e) > 1e-9:
                raise ValueError("epochs must be multiples of the substep")
            epoch_steps.add(k)

        stage = self.truth.kinematics(_stage_times(h, n_steps))
        w_ib, w_in, f_b, v = (stage[name] for name in ("omega_ib_b", "omega_in_n", "f_b", "v"))
        omega_ie, _, g_n = earth.kinematics_n(v, stage["p"])
        x = np.cross(omega_ie, v) - g_n  # the aligners' nav-frame vector

        def derivative(s, y):
            c_b = quat_to_dcm(quat_normalize(y[0:4])).T   # C_{b(t)}^{b(0)}
            c_n = quat_to_dcm(quat_normalize(y[4:8])).T   # C_{n(t)}^{n(0)}
            dy = np.empty_like(y)
            dy[0:4] = _quat_rate(y[0:4], w_ib[s])
            dy[4:8] = _quat_rate(y[4:8], w_in[s])
            dy[8:11] = c_b @ f_b[s]                 # alpha_v
            dy[11:14] = c_n @ x[s]                  # I_x = int C (w_ie x v - g)
            dy[14:17] = y[8:11]                     # alpha_p
            dy[17:20] = y[11:14]                    # J_x, the double integral of x
            dy[20:23] = c_n @ v[s]                  # U_r = int C v
            return dy

        y = np.zeros(23)
        y[0] = 1.0
        y[4] = 1.0
        out = {name: [] for name in
               ("t", "alpha_v", "beta_v", "alpha_p", "beta_p", "c_body", "c_nav")}
        for k, y in _rk4(derivative, y, h, n_steps, (slice(0, 4), slice(4, 8))):
            if k not in epoch_steps:
                continue
            t = k * h
            c_n = quat_to_dcm(quat_normalize(y[4:8])).T
            out["t"].append(t)
            out["alpha_v"].append(y[8:11].copy())
            out["beta_v"].append(c_n @ v[2 * k] - v[0] + y[11:14])
            out["alpha_p"].append(y[14:17].copy())
            out["beta_p"].append(y[20:23] - t * v[0] + y[17:20])
            out["c_body"].append(quat_to_dcm(quat_normalize(y[0:4])).T)
            out["c_nav"].append(c_n)
        return {name: np.array(series) for name, series in out.items()}


class NavigationReference:
    """Re-integrates the navigation rate equations from a truth trajectory.

    Starting from the true initial state, propagates attitude, velocity and
    position driven only by the truth's angular rate and specific force.
    ``deviations`` reports the largest departures from the truth along the
    way -- the self-consistency certificate of the trajectory generator.
    """

    def __init__(self, truth, substep=0.001):
        self.truth = truth
        self.substep = _positive_step(substep)

    def deviations(self, t_end, check_every=0.1):
        """Max attitude/velocity/position deviation from the truth over [0, t_end]."""
        h = self.substep
        n_steps = int(round(t_end / h))
        stride = max(1, int(round(check_every / h)))
        stage = self.truth.kinematics(_stage_times(h, n_steps))
        w_ib, f_b = stage["omega_ib_b"], stage["f_b"]

        def derivative(s, y):
            q, v, p = y[0:4], y[4:7], y[7:10]   # q encodes C_b^n via R(q)
            w_ie, w_in, g_n = map(np.array, earth.aiding_kinematics(v, p))
            c_b_n = quat_to_dcm(quat_normalize(q)).T
            dy = np.empty(10)
            dy[0:4] = _quat_rate(q, w_ib[s] - c_b_n.T @ w_in)
            coriolis = cross3(w_ie + w_in, v)  # (2 w_ie + w_en) x v
            dy[4:7] = c_b_n @ f_b[s] - coriolis + g_n
            dy[7:10] = earth.curvilinear_rate(v, p)
            return dy

        y = np.concatenate([dcm_to_quat(stage["c_b_n"][0].T), stage["v"][0], stage["p"][0]])
        worst = {"attitude_rad": 0.0, "velocity_mps": 0.0, "position_rad_m": 0.0}
        for k, y in _rk4(derivative, y, h, n_steps, (slice(0, 4),)):
            if k == 0 or (k % stride and k != n_steps):
                continue
            s = 2 * k  # the even stage at the end of step k
            deviation = {
                "attitude_rad": rotation_angle(quat_to_dcm(y[0:4]) @ stage["c_b_n"][s]),
                "velocity_mps": float(np.max(np.abs(y[4:7] - stage["v"][s]))),
                "position_rad_m": float(np.max(np.abs(y[7:10] - stage["p"][s]))),
            }
            worst = {name: max(worst[name], deviation[name]) for name in worst}
        return worst


def richardson_check(truth, t_end, substep, quantities=("alpha_v", "beta_v", "alpha_p", "beta_p")):
    """Max change in the reference outputs when the substep is halved."""
    coarse = AlignmentReference(truth, substep).run(t_end)
    fine = AlignmentReference(truth, substep / 2.0).run(t_end)
    return max(
        float(np.max(np.abs(coarse[name][-1] - fine[name][-1])))
        for name in quantities
    )
