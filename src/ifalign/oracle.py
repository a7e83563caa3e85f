"""Brute-force reference integrators.

Everything here trades speed for accuracy and independence from the
recursive algorithms: plain quadrature and Runge-Kutta propagation of the
defining integrals, used to certify the two-sample kernels, the aligner
accumulators and the trajectory generator.
"""

import math

import numpy as np

from . import earth
from .attitude import (
    cross3,
    dcm_to_quat,
    flips_sign,
    quat_mul_matrices,
    quat_multiply,
    quat_to_dcm,
    rotation_angle,
)

# Steps per block of AlignmentReference.run: bounds its stage-grid truth and
# its per-step operator and stage arrays, so its peak memory is the block's.
_BLOCK_STEPS = 4096


def _rotate(c, v):
    """``c @ v`` on stacks ``(..., 3, 3)`` and ``(..., 3)``, summed left to right in any layout."""
    return sum(c[..., j] * v[..., None, j] for j in range(3))


def _stage_times(h, n_steps, t0=0.0):
    return t0 + 0.5 * h * np.arange(2 * n_steps + 1)


def _attitude_chain(w_stage, h, q0):
    """Classic RK4 of ``q' = ½ q ⊗ [0, ω]`` from ``q0`` in steps of ``h``.

    ``w_stage`` is the rate on the half-step stage grid, ``(2n + 1, 3)``:
    row ``2k`` starts step ``k`` and ``2k + 1`` is its midpoint.  The
    equation is linear, so each step is ``q_{k+1} = Φ_k q_k``, and every
    transition and stage operator is one ``(n, 4, 4)`` array; only that
    product, renormalized, runs in a loop, on floats.  Returns the unit
    quaternions at steps ``0 .. n``, ``(n + 1, 4)``, and the (unnormalized)
    quaternions at the four stages of each step, ``(4, n, 4)``.
    ``quat_to_dcm(q)`` is ``C_{b(t)}^{b(t0)}``.
    """
    w = np.asarray(w_stage, dtype=float)
    rate = 0.5 * np.moveaxis(quat_mul_matrices([np.zeros(len(w)), *w.T])[1], -1, 0)
    eye = np.eye(4)
    s1 = rate[0:-1:2]
    op2 = eye + 0.5 * h * s1  # the stage quaternions are op q_k
    s2 = rate[1::2] @ op2
    op3 = eye + 0.5 * h * s2
    s3 = rate[1::2] @ op3
    op4 = eye + h * s3
    s4 = rate[2::2] @ op4
    phi = eye + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    s, x, y, z = map(float, q0)
    q = [(s, x, y, z)]
    for p in phi.tolist():
        s, x, y, z = [r[0] * s + r[1] * x + r[2] * y + r[3] * z for r in p]
        norm = (s * s + x * x + y * y + z * z) ** 0.5
        s, x, y, z = s / norm, x / norm, y / norm, z / norm
        q.append((s, x, y, z))
    q = np.array(q)
    stages = [np.einsum("nij,nj->ni", op, q[:-1]) for op in (op2, op3, op4)]
    return q, np.stack([q[:-1], *stages])


# ---------------------------------------------------------------------------
# Kernel references: direct quadrature over one update interval.


def _cumtrapz(y, dt):
    """Cumulative trapezoid of ``y`` along its first axis, from zero."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]), axis=0)
    return out


def _trapz(y, dt):
    return np.sum(0.5 * dt * (y[1:] + y[:-1]), axis=0)


def _rotated_force(omega_fn, f_fn, t0, t1, n, exact_rotation):
    """The specific force rotated into the start attitude, ``C_{b(t)}^{b(t0)}
    f(t)``, on the ``n``-panel grid over ``[t0, t1]``."""
    h = (t1 - t0) / n
    ts = np.linspace(t0, t1, n + 1)
    f = np.asarray(f_fn(ts), dtype=float)
    if exact_rotation:
        q, _ = _attitude_chain(omega_fn(_stage_times(h, n, t0)), h, (1.0, 0.0, 0.0, 0.0))
        return _rotate(quat_to_dcm(q), f)
    theta = _cumtrapz(np.asarray(omega_fn(ts), dtype=float), h)  # the integral of the rate
    return f + np.cross(theta, f)


def rotated_velocity_integral(omega_fn, f_fn, t0, t1, n=10000, exact_rotation=False):
    """Reference for the rotation-compensated velocity integral.

    With ``exact_rotation=False`` (default) the integrand uses the
    first-order attitude ``I + theta(t) x``; with ``True`` the full attitude
    is propagated by the RK4 quaternion chain on the same grid.
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


def rotation_vector_reference(omega_fn, t0, t1, n=2000):
    """Rotation vector of the attitude accumulated over ``[t0, t1]``.

    Quaternion RK4 on the attitude rate equation; reference for the
    two-sample coning formula.  The vector is read off the final quaternion
    in its canonical sign, so ``|phi| <= pi``.  Its angle is atan2 of the
    vector part against the scalar part: acos of the scalar part alone
    loses about half the digits of a small rotation (1.2% at 1e-7 rad).
    """
    h = (t1 - t0) / n
    q, _ = _attitude_chain(omega_fn(_stage_times(h, n, t0)), h, (1.0, 0.0, 0.0, 0.0))
    s, *eta = -q[-1] if flips_sign(q[-1]) else q[-1]
    norm_eta = np.linalg.norm(eta)
    if not norm_eta:
        return np.zeros(3)
    return np.multiply(eta, 2.0 * math.atan2(norm_eta, s) / norm_eta)


# ---------------------------------------------------------------------------
# Truth references: RK4 on augmented states.


def _positive_step(substep):
    """``substep`` as a float; ``ValueError`` unless it is positive."""
    substep = float(substep)
    if not substep > 0.0:
        raise ValueError(f"substep must be positive, got {substep:g} s")
    return substep


def _whole_steps(t_end, h):
    """Steps of ``h`` to ``t_end``; ``ValueError`` unless a whole number."""
    if not t_end >= 0.0:
        raise ValueError(f"t_end must not be negative, got {t_end:g} s")
    n_steps = int(round(t_end / h))
    if abs(n_steps * h - t_end) > 1e-9:
        raise ValueError("t_end must be a multiple of the substep")
    return n_steps


class AlignmentReference:
    """Fine-step reference for the alignment integrals of a truth trajectory.

    Integrates, with classic RK4 at a configurable substep, the body and
    navigation attitude chains together with every integral entering the
    velocity- and position-form observation vectors.  The truth is
    evaluated on the half-substep stage grid, one block of ``_BLOCK_STEPS``
    steps at a time.  Both chains run through :func:`_attitude_chain`, so
    each integrand is one batched product over the RK4 stages of a block.
    """

    def __init__(self, truth, substep=0.001):
        self.truth = truth
        self.substep = _positive_step(substep)

    def run(self, t_end, epochs=None):
        """Integrate from 0 to ``t_end``; returns reference series at epochs.

        ``epochs`` must be multiples of the substep in ``[0, t_end]``
        (default: just ``t_end``).  Returns a dict of arrays keyed by
        quantity name.
        """
        h = self.substep
        n_steps = _whole_steps(t_end, h)
        epochs = [t_end] if epochs is None else [float(e) for e in epochs]
        steps = [int(round(e / h)) for e in epochs]
        if any(abs(k * h - e) > 1e-9 for k, e in zip(steps, epochs)):
            raise ValueError("epochs must be multiples of the substep")
        if not all(0 <= k <= n_steps for k in steps):
            raise ValueError(f"epochs must lie in [0, t_end], got {epochs}")
        wanted = np.unique(np.array(steps, dtype=int))  # sorted, each step once

        times = _stage_times(h, n_steps)
        q_b = q_n = (1.0, 0.0, 0.0, 0.0)
        single = np.zeros((3, 3))  # alpha_v, I_x = int C x, U_r = int C v
        double = np.zeros((2, 3))  # alpha_p and J_x, the integrals of the first two
        rows = []
        # One empty block when t_end is 0, so that its epoch gets a row.
        for k0 in range(0, max(n_steps, 1), _BLOCK_STEPS):
            k1 = min(k0 + _BLOCK_STEPS, n_steps)
            stage = self.truth.kinematics(times[2 * k0:2 * k1 + 1])  # this block's stages
            w_ib, w_in, f_b, v = (stage[name] for name in ("omega_ib_b", "omega_in_n", "f_b", "v"))
            omega_ie, _, g_n = earth.kinematics_n(v, stage["p"])
            x = np.cross(omega_ie, v) - g_n  # the aligners' nav-frame vector
            if k0 == 0:
                v0 = v[0]
            q_body, stage_b = _attitude_chain(w_ib, h, q_b)
            q_nav, stage_n = _attitude_chain(w_in, h, q_n)
            q_stage = np.stack([stage_b, stage_n, stage_n], axis=2)
            q_stage /= np.linalg.norm(q_stage, axis=-1, keepdims=True)
            s = 2 * np.arange(k1 - k0) + np.array([[0], [1], [1], [2]])  # stage rows
            # slope[j, i] holds stage j of step k0 + i: C_{b(t)}^{b(0)} f_b,
            # C_{n(t)}^{n(0)} x and C_{n(t)}^{n(0)} v
            slope = _rotate(quat_to_dcm(q_stage), np.stack([f_b[s], x[s], v[s]], axis=2))
            incr = (h / 6.0) * (slope[0] + 2.0 * slope[1] + 2.0 * slope[2] + slope[3])
            singles = np.cumsum(np.concatenate([single[None], incr]), axis=0)
            incr = h * singles[:-1, :2] + (h * h / 6.0) * (slope[0] + slope[1] + slope[2])[:, :2]
            doubles = np.cumsum(np.concatenate([double[None], incr]), axis=0)
            # Steps k0 .. k1 - 1 of this block, and k1 too in the last one.
            keep = wanted[(wanted >= k0) & (wanted < k1 + (k1 == n_steps))] - k0
            rows.append((keep + k0, q_body[keep], q_nav[keep], singles[keep], doubles[keep],
                         v[2 * keep]))
            q_b, q_n, single, double = q_body[-1], q_nav[-1], singles[-1], doubles[-1]

        ks, q_body, q_nav, singles, doubles, v = (np.concatenate(part) for part in zip(*rows))
        t = ks * h
        c_nav = quat_to_dcm(q_nav)
        return {
            "t": t,
            "alpha_v": singles[:, 0],
            "beta_v": _rotate(c_nav, v) - v0 + singles[:, 1],
            "alpha_p": doubles[:, 0],
            "beta_p": singles[:, 2] - t[:, None] * v0 + doubles[:, 1],
            "c_body": quat_to_dcm(q_body),
            "c_nav": c_nav,
        }


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
        n_steps = _whole_steps(t_end, h)
        stride = max(1, int(round(check_every / h)))
        stage = self.truth.kinematics(_stage_times(h, n_steps))
        w_ib, f_b = stage["omega_ib_b"], stage["f_b"]

        def derivative(s, y):
            q, v, p = y[0:4], y[4:7], y[7:10]
            w_ie, w_in, g_n = map(np.array, earth.aiding_kinematics(v, p))
            c_b_n = quat_to_dcm(q / np.linalg.norm(q))
            dy = np.empty(10)
            dy[0:4] = 0.5 * quat_multiply(q, np.array([0.0, *(w_ib[s] - c_b_n.T @ w_in)]))
            coriolis = cross3(w_ie + w_in, v)  # (2 w_ie + w_en) x v
            dy[4:7] = c_b_n @ f_b[s] - coriolis + g_n
            dy[7:10] = earth.curvilinear_rate(v, p)
            return dy

        y = np.concatenate([dcm_to_quat(stage["c_b_n"][0]), stage["v"][0], stage["p"][0]])
        worst = {"attitude_rad": 0.0, "velocity_mps": 0.0, "position_rad_m": 0.0}
        # Classic RK4 (nonlinear: w_in depends on v and p); stage 2k starts step k.
        for k in range(1, n_steps + 1):
            s = 2 * k  # the even stage at the end of step k
            k1 = derivative(s - 2, y)
            k2 = derivative(s - 1, y + 0.5 * h * k1)
            k3 = derivative(s - 1, y + 0.5 * h * k2)
            k4 = derivative(s, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[0:4] /= np.linalg.norm(y[0:4])
            if k % stride and k != n_steps:
                continue
            deviation = {
                "attitude_rad": rotation_angle(quat_to_dcm(y[0:4]).T @ stage["c_b_n"][s]),
                "velocity_mps": float(np.max(np.abs(y[4:7] - stage["v"][s]))),
                "position_rad_m": float(np.max(np.abs(y[7:10] - stage["p"][s]))),
            }
            worst = {name: max(worst[name], deviation[name]) for name in worst}
        return worst


def richardson_check(truth, t_end, substep):
    """Max change in the four reference integrals when the substep is halved."""
    coarse = AlignmentReference(truth, substep).run(t_end)
    fine = AlignmentReference(truth, substep / 2.0).run(t_end)
    return max(
        float(np.max(np.abs(coarse[name][-1] - fine[name][-1])))
        for name in ("alpha_v", "beta_v", "alpha_p", "beta_p")
    )
