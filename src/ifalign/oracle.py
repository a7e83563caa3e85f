"""Brute-force reference integrators.

Everything here trades speed for accuracy and independence from the
recursive algorithms: plain quadrature and Runge-Kutta propagation of the
defining integrals, used to certify the two-sample kernels, the aligner
accumulators and the trajectory generator.
"""

import math

import numpy as np

from . import earth
from .attitude import cross3, quat_multiply, quat_normalize, quat_to_dcm, rotvec_to_dcm


# ---------------------------------------------------------------------------
# Kernel references: direct quadrature over one update interval.


def _grid(t0, t1, n):
    return np.linspace(t0, t1, n + 1)


def angle_integral(omega_fn, t0, t1, n=10000):
    """Cumulative trapezoid of the angular rate from ``t0``: theta(t)."""
    ts = _grid(t0, t1, n)
    w = np.asarray(omega_fn(ts), dtype=float)
    dt = (t1 - t0) / n
    theta = np.zeros_like(w)
    theta[1:] = np.cumsum(0.5 * dt * (w[1:] + w[:-1]), axis=0)
    return ts, theta


def rotated_velocity_integral(omega_fn, f_fn, t0, t1, n=10000, exact_rotation=False):
    """Reference for the rotation-compensated velocity integral.

    With ``exact_rotation=False`` (default) the integrand uses the
    first-order attitude ``I + theta(t) x``; with ``True`` the full DCM is
    propagated by per-substep Rodrigues factors.
    """
    ts, theta = angle_integral(omega_fn, t0, t1, n)
    f = np.asarray(f_fn(ts), dtype=float)
    dt = (t1 - t0) / n
    if exact_rotation:
        integrand = np.einsum("nij,nj->ni", _chain_dcms(omega_fn, ts), f)
    else:
        integrand = f + np.cross(theta, f)
    return np.sum(0.5 * dt * (integrand[1:] + integrand[:-1]), axis=0)


def rotated_velocity_double_integral(
    omega_fn, f_fn, t0, t1, n=10000, exact_rotation=False
):
    """Reference for the nested double integral over one interval."""
    ts, theta = angle_integral(omega_fn, t0, t1, n)
    f = np.asarray(f_fn(ts), dtype=float)
    dt = (t1 - t0) / n
    if exact_rotation:
        integrand = np.einsum("nij,nj->ni", _chain_dcms(omega_fn, ts), f)
    else:
        integrand = f + np.cross(theta, f)
    inner = np.zeros_like(integrand)
    inner[1:] = np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]), axis=0)
    return np.sum(0.5 * dt * (inner[1:] + inner[:-1]), axis=0)


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
    q = np.array([1.0, 0.0, 0.0, 0.0])
    dt = (t1 - t0) / n
    for i in range(n):
        t = t0 + i * dt
        q = _rk4_quat_step(q, omega_fn, t, dt)
    q = quat_normalize(q)
    from .attitude import dcm_to_rotvec

    # q propagates R(q) = C_{b(t)}^{b(t0)}; quat_to_dcm returns its transpose.
    return dcm_to_rotvec(quat_to_dcm(q).T)


def _quat_rate(q, w):
    return 0.5 * quat_multiply(q, np.array([0.0, w[0], w[1], w[2]]))


def _rk4_quat_step(q, omega_fn, t, dt):
    k1 = _quat_rate(q, omega_fn(t))
    k2 = _quat_rate(q + 0.5 * dt * k1, omega_fn(t + 0.5 * dt))
    k3 = _quat_rate(q + 0.5 * dt * k2, omega_fn(t + 0.5 * dt))
    k4 = _quat_rate(q + dt * k3, omega_fn(t + dt))
    q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return q / np.linalg.norm(q)


# ---------------------------------------------------------------------------
# Truth-model references: RK4 on augmented states.


class AlignmentReference:
    """Fine-step reference for the alignment integrals of a truth model.

    Integrates, with classic RK4 at a configurable substep, the body and
    navigation attitude chains together with every integral entering the
    velocity- and position-form observation vectors.  Model quantities are
    pre-evaluated on the half-substep stage grid so the sequential loop does
    only small-array arithmetic.
    """

    def __init__(self, model, substep=0.001):
        self.model = model
        self.substep = float(substep)

    def _derivative(self, stage, y):
        q_b = y[0:4]
        q_n = y[4:8]
        c_b = quat_to_dcm(quat_normalize(q_b)).T   # C_{b(t)}^{b(0)}
        c_n = quat_to_dcm(quat_normalize(q_n)).T   # C_{n(t)}^{n(0)}

        dy = np.empty_like(y)
        dy[0:4] = _quat_rate(q_b, self._w_ib[stage])
        dy[4:8] = _quat_rate(q_n, self._w_in[stage])
        dy[8:11] = c_b @ self._f_b[stage]           # alpha_v
        dy[11:14] = c_n @ self._wxv[stage]          # I_v = int C (w_ie x v)
        dy[14:17] = c_n @ self._g_n[stage]          # I_g = int C g
        dy[17:20] = y[8:11]                         # alpha_p
        dy[20:23] = y[11:14]                        # J_v, double integral rate
        dy[23:26] = y[14:17]                        # J_g
        dy[26:29] = c_n @ self._v[stage]            # U_r = int C v
        return dy

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

        truth = self.model.kinematics(0.5 * h * np.arange(2 * n_steps + 1))
        self._w_ib = truth["omega_ib_b"]
        self._w_in = truth["omega_in_n"]
        self._f_b = truth["f_b"]
        self._v = truth["v"]
        p = truth["p"]
        self._g_n = earth.gravity_n(p)
        self._wxv = np.cross(earth.earth_rate_n(p[:, 1]), self._v)

        v0 = self._v[0]
        y = np.zeros(29)
        y[0] = 1.0
        y[4] = 1.0

        out = {
            "t": [],
            "alpha_v": [],
            "beta_v": [],
            "alpha_p": [],
            "beta_p": [],
            "c_body": [],
            "c_nav": [],
        }

        def record(k, y):
            t = k * h
            q_b = quat_normalize(y[0:4])
            q_n = quat_normalize(y[4:8])
            c_b = quat_to_dcm(q_b).T
            c_n = quat_to_dcm(q_n).T
            beta_v = c_n @ self._v[2 * k] - v0 + y[11:14] - y[14:17]
            beta_p = y[26:29] - t * v0 + y[20:23] - y[23:26]
            out["t"].append(t)
            out["alpha_v"].append(y[8:11].copy())
            out["beta_v"].append(beta_v)
            out["alpha_p"].append(y[17:20].copy())
            out["beta_p"].append(beta_p)
            out["c_body"].append(c_b)
            out["c_nav"].append(c_n)

        if 0 in epoch_steps:
            record(0, y)
        for k in range(n_steps):
            k1 = self._derivative(2 * k, y)
            k2 = self._derivative(2 * k + 1, y + 0.5 * h * k1)
            k3 = self._derivative(2 * k + 1, y + 0.5 * h * k2)
            k4 = self._derivative(2 * k + 2, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[0:4] = quat_normalize(y[0:4])
            y[4:8] = quat_normalize(y[4:8])
            if (k + 1) in epoch_steps:
                record(k + 1, y)
        return {k: np.array(v) for k, v in out.items()}


class NavigationReference:
    """Re-integrates the navigation rate equations from a truth model.

    Starting from the true initial state, propagates attitude, velocity and
    position driven only by the model's angular rate and specific force.
    ``deviations`` reports the largest departures from the model along the
    way -- the self-consistency certificate of the trajectory generator.
    """

    def __init__(self, model, substep=0.001):
        self.model = model
        self.substep = float(substep)

    def _derivative(self, stage, y):
        q = y[0:4]          # encodes C_{b}^{n} via R(q)
        v = y[4:7]
        p = y[7:10]
        w_ie, w_in, g_n = map(np.array, earth.aiding_kinematics(v, p))
        c_b_n = quat_to_dcm(quat_normalize(q)).T
        w_nb_b = self._w_ib[stage] - c_b_n.T @ w_in

        dy = np.empty(10)
        dy[0:4] = _quat_rate(q, w_nb_b)
        coriolis = cross3(w_ie + w_in, v)  # (2 w_ie + w_en) x v
        dy[4:7] = c_b_n @ self._f_b[stage] - coriolis + g_n
        dy[7:10] = earth.curvilinear_rate(v, p)
        return dy

    def deviations(self, t_end, check_every=0.1):
        """Max attitude/velocity/position deviation from the model over [0, t_end]."""
        from .attitude import dcm_to_quat, rotation_angle

        m = self.model
        h = self.substep
        n_steps = int(round(t_end / h))
        stride = max(1, int(round(check_every / h)))

        truth = m.kinematics(0.5 * h * np.arange(2 * n_steps + 1))
        self._w_ib = truth["omega_ib_b"]
        self._f_b = truth["f_b"]

        y = np.zeros(10)
        y[0:4] = dcm_to_quat(m.c_b_n(0.0).T)  # R(q) = C_b^n
        y[4:7] = m.velocity(0.0)
        y[7:10] = m.position(0.0)

        worst = {"attitude_rad": 0.0, "velocity_mps": 0.0, "position_rad_m": 0.0}
        for k in range(n_steps):
            k1 = self._derivative(2 * k, y)
            k2 = self._derivative(2 * k + 1, y + 0.5 * h * k1)
            k3 = self._derivative(2 * k + 1, y + 0.5 * h * k2)
            k4 = self._derivative(2 * k + 2, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[0:4] = quat_normalize(y[0:4])
            if (k + 1) % stride == 0 or k + 1 == n_steps:
                t1 = (k + 1) * h
                c_ref = m.c_b_n(t1)
                c_int = quat_to_dcm(y[0:4]).T
                worst["attitude_rad"] = max(
                    worst["attitude_rad"], rotation_angle(c_int.T @ c_ref)
                )
                worst["velocity_mps"] = max(
                    worst["velocity_mps"],
                    float(np.max(np.abs(y[4:7] - m.velocity(t1)))),
                )
                worst["position_rad_m"] = max(
                    worst["position_rad_m"],
                    float(np.max(np.abs(y[7:10] - m.position(t1)))),
                )
        return worst


def richardson_check(model, t_end, substep, quantities=("alpha_v", "beta_v", "alpha_p", "beta_p")):
    """Max change in the reference outputs when the substep is halved."""
    coarse = AlignmentReference(model, substep).run(t_end)
    fine = AlignmentReference(model, substep / 2.0).run(t_end)
    return max(
        float(np.max(np.abs(coarse[name][-1] - fine[name][-1])))
        for name in quantities
    )
