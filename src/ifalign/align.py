"""Recursive in-flight coarse alignment from aided velocity/position.

Two aligners estimate the constant initial body-to-nav attitude of a moving
vehicle.  Both chain two incremental DCMs -- the body frame relative to its
t=0 orientation (from gyro increments) and the navigation frame relative to
its t=0 orientation (from earth/transport rates) -- and accumulate a pair of
3-vectors (alpha, beta) that the initial attitude must map onto each other:

* :class:`VelocityIntegrationAligner`: alpha is the integral of the rotated
  specific force, beta combines the aided velocity with the integral of the
  earth-rate/gravity vector ``x = omega_ie x v - g``.
* :class:`PositionIntegrationAligner`: alpha and beta are the corresponding
  nested double integrals, which smooth aiding noise harder at the price of
  slower transient response.

Every ``update()`` folds the current pair into a 4x4 accumulator;
``estimate()`` solves for the optimal attitude quaternion, the
smallest-eigenvalue eigenvector of the matrix the aligner solves
(:meth:`_AlignerBase.solved_matrix`), in which the initial velocity is an
unknown of the fit.
"""

import math

from . import earth
from .attitude import compose_attitude, cross_floats, matmul3, quat_dcm_entries, rotvec_to_dcm
from .increments import (
    as_float3, body_rotvec, double_integral_increment, sculling_increment,
)
from .quest import accumulate, optimal_quaternion, pair_gram


# The per-update path runs on Python floats (see the attitude module):
# running vectors are 3-tuples, and the chains and K flat row-major tuples
# of 9 and 16 floats.

def _rotate_add(a, c, v):
    """``a + c @ v`` for a 3x3 matrix ``c`` given as a flat row-major
    9-sequence.

    The product is summed before ``a`` is added, so it rounds as the two
    steps ``c @ v`` and ``a + (c @ v)`` do.
    """
    a0, a1, a2 = a
    x, y, z = v
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = c
    return (
        a0 + (c00 * x + c01 * y + c02 * z),
        a1 + (c10 * x + c11 * y + c12 * z),
        a2 + (c20 * x + c21 * y + c22 * z),
    )


# Integration rules for a nav-frame vector x(tau) that is linear over one
# interval, from x_prev at tau=0 to x_next at tau=T, seen from the nav frame
# at the interval start t (C_{n(t+tau)}^{n(t)} = I + tau [omega_in x] to
# first order).  Python floats in, 3-tuple out.

def single_integral(x_prev, x_next, omega_in, T):
    """``int_0^T (I + tau [omega_in x]) x(tau) dtau``."""
    p0, p1, p2 = x_prev
    n0, n1, n2 = x_next
    a, b = T * T / 6.0, T * T / 3.0
    r0, r1, r2 = cross_floats(omega_in, (a * p0 + b * n0, a * p1 + b * n1, a * p2 + b * n2))
    h = T / 2.0
    return (h * (p0 + n0) + r0, h * (p1 + n1) + r1, h * (p2 + n2) + r2)


def double_integral(x_prev, x_next, omega_in, T):
    """``int_0^T int_0^s (I + tau [omega_in x]) x(tau) dtau ds``."""
    p0, p1, p2 = x_prev
    n0, n1, n2 = x_next
    r0, r1, r2 = cross_floats(omega_in, (p0 + n0, p1 + n1, p2 + n2))
    a, b, c = T * T / 3.0, T * T / 6.0, T ** 3 / 12.0
    return (a * p0 + b * n0 + c * r0, a * p1 + b * n1 + c * r1, a * p2 + b * n2 + c * r2)


def aid_fix(t, v, p):
    """One aiding fix as the ``(t, v, p)`` tuple the aligners read.

    ``t`` is the time since the start of alignment (s), ``v`` the ground
    velocity [vN, vU, vE] (m/s) and ``p`` the curvilinear position
    [lon, lat, h] (rad, rad, m).  ``t`` must be a finite number and ``v``
    and ``p`` finite 3-vectors (``ValueError`` naming the argument
    otherwise).  Returns ``t`` as a Python float and ``v`` and ``p`` as
    3-tuples of them.
    """
    try:
        time = float(t)
    except (TypeError, ValueError):
        raise ValueError(f"t must be a number, got {t!r}") from None
    if not math.isfinite(time):
        raise ValueError(f"t must be finite, got {t!r}")
    return time, as_float3(v, "v"), as_float3(p, "p")


class AlignmentEstimate:
    """Attitude solved from an aligner's accumulated state.

    ``q`` (a 4-tuple of floats) encodes the constant attitude at t=0,
    ``quat_to_dcm(q) = C_b^n(0)``; ``c_b_n`` is the estimated body-to-nav
    matrix at the current time, as a flat row-major 9-tuple of floats (what
    :func:`ifalign.attitude.compose_attitude` returns), composed on each
    read from the chains at the time of the estimate (flat 9-tuples, the
    nav chain transposed once here) and the entries of the DCM of ``q``;
    ``lambda_min`` is the smallest eigenvalue of the solved matrix, a
    residual-energy figure of merit.
    """

    __slots__ = ("t", "q", "lambda_min", "_c_nav_t", "_c_q", "_c_body")

    def __init__(self, t, q, lambda_min, c_nav, c_body):
        self.t = t
        self.q = q
        self.lambda_min = lambda_min
        n00, n01, n02, n10, n11, n12, n20, n21, n22 = c_nav
        self._c_nav_t = (n00, n10, n20, n01, n11, n21, n02, n12, n22)
        self._c_q = quat_dcm_entries(*q)
        self._c_body = c_body

    @property
    def c_b_n(self):
        return compose_attitude(self._c_nav_t, self._c_q, self._c_body)

    def __repr__(self):
        return (
            f"AlignmentEstimate(t={self.t!r}, q={self.q!r}, "
            f"lambda_min={self.lambda_min!r})"
        )


_ZERO3 = (0.0, 0.0, 0.0)
_ZERO_4X4 = (0.0,) * 16
_EYE3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


class _AlignerBase:
    """Shared chain propagation, state bookkeeping and the fit.

    ``update()`` folds one interval into the state; ``estimate()`` solves
    the state for the attitude.  The state is public and lives on Python
    floats: the running vectors (``alpha``, ``beta``, ``v0``, ``w_alpha``,
    ``w_beta``, the sums ``s_body`` and ``s_x`` and ``pif``'s own) are
    3-tuples, the chains ``c_nav`` and ``c_body`` flat row-major 9-tuples,
    ``K`` a flat row-major 16-tuple and ``w_sq`` a float.

    ``beta`` carries the initial velocity, which only the first (noisy)
    fix gives: as a constant in ``vif`` and a ramp in time in ``pif``.  So
    the fit treats it as an unknown: with weights ``w_k`` (1 for ``vif``,
    the update time ``t_k`` for ``pif``) it minimizes
    ``sum_k |C alpha_k - beta_k + w_k u|^2`` over the correction ``u`` as
    well as the attitude ``C``.  Minimizing ``u`` out exactly leaves
    ``K - B^T B / sum_k w_k^2`` with
    ``B = pair_operator(sum_k w_k alpha_k, sum_k w_k beta_k)`` (``pair_operator``
    is linear), which :meth:`solved_matrix` returns; ``w_alpha``, ``w_beta``
    and ``w_sq`` carry the sums.  ``beta`` is centred on ``v0``, the first
    fix's velocity, to keep its rounding small; no estimate depends on it.
    """

    def __init__(self, T):
        if not 0.0 < T < math.inf:
            raise ValueError(f"update interval T must be positive and finite, got {T!r}")
        self.T = float(T)
        self.M = 0
        self.v0 = self.alpha = self.beta = self.w_alpha = self.w_beta = _ZERO3
        self.s_body = self.s_x = _ZERO3
        self.w_sq = 0.0
        self.K = _ZERO_4X4
        # the chains C_{n(t_M)}^{n(0)} and C_{b(t_M)}^{b(0)} start at identity
        self.c_nav = self.c_body = _EYE3

    @property
    def t(self):
        """Elapsed alignment time (s)."""
        return self.M * self.T

    def _fold(self, interval, fix_prev, fix_next):
        """The per-interval work both forms share.

        Checks that the ``(t, v, p)`` fixes straddle one interval, takes
        ``v0`` from the first one, and advances by one interval ``M``, both
        chains and the velocity-form sums: ``s_body`` of the rotated
        sculling increments and ``s_x`` of the nav-frame single integrals of
        ``x = omega_ie x v - g``.  Returns the prior chains and sums, the
        nav-frame rate and ``x`` at both ends.
        """
        t_prev, v_prev, p_prev = fix_prev
        t_next, v_next, _ = fix_next
        if abs((t_next - t_prev) - self.T) > 1e-6:
            raise ValueError(
                f"fixes must straddle one update interval of {self.T} s, "
                f"got {t_prev} -> {t_next}"
            )
        T = self.T
        omega_ie, omega_in, g_n = earth.aiding_kinematics(v_prev, p_prev)
        if self.M == 0:
            self.v0 = v_prev
        w0, w1, w2 = omega_in
        c_nav_prev, c_body_prev = self.c_nav, self.c_body
        s_body_prev, s_x_prev = self.s_body, self.s_x
        self.c_nav = matmul3(c_nav_prev, rotvec_to_dcm((T * w0, T * w1, T * w2)))
        self.c_body = matmul3(c_body_prev, rotvec_to_dcm(body_rotvec(interval)))
        self.M += 1
        e0, e1, e2 = omega_ie
        g0, g1, g2 = g_n
        p0, p1, p2 = v_prev
        n0, n1, n2 = v_next
        x_prev = (e1 * p2 - e2 * p1 - g0, e2 * p0 - e0 * p2 - g1, e0 * p1 - e1 * p0 - g2)
        x_next = (e1 * n2 - e2 * n1 - g0, e2 * n0 - e0 * n2 - g1, e0 * n1 - e1 * n0 - g2)
        self.s_body = _rotate_add(s_body_prev, c_body_prev, sculling_increment(interval))
        self.s_x = _rotate_add(s_x_prev, c_nav_prev, single_integral(x_prev, x_next, omega_in, T))
        return c_nav_prev, c_body_prev, s_body_prev, s_x_prev, omega_in, x_prev, x_next

    def _add_pair(self, w):
        """Add ``(alpha, beta)`` to ``K`` and, with weight ``w``, to the fit sums."""
        alpha, beta = self.alpha, self.beta
        self.K = accumulate(self.K, alpha, beta)
        a0, a1, a2 = alpha
        b0, b1, b2 = beta
        wa0, wa1, wa2 = self.w_alpha
        wb0, wb1, wb2 = self.w_beta
        self.w_alpha = (wa0 + w * a0, wa1 + w * a1, wa2 + w * a2)
        self.w_beta = (wb0 + w * b0, wb1 + w * b1, wb2 + w * b2)
        self.w_sq += w * w

    def solved_matrix(self):
        """``K`` with the initial-velocity correction minimized out, as a
        flat row-major 16-tuple of floats, each off-diagonal entry computed
        once and placed at both of its positions."""
        if self.M < 2:
            # a single pair is absorbed entirely by the velocity correction;
            # the subtraction below would leave only rounding noise
            return _ZERO_4X4
        k00, k01, k02, k03, _, k11, k12, k13, _, _, k22, k23, _, _, _, k33 = self.K
        (
            g00, g01, g02, g03, _, g11, g12, g13, _, _, g22, g23, _, _, _, g33
        ) = pair_gram(self.w_alpha, self.w_beta)
        w_sq = self.w_sq
        m01, m02, m03 = k01 - g01 / w_sq, k02 - g02 / w_sq, k03 - g03 / w_sq
        m12, m13, m23 = k12 - g12 / w_sq, k13 - g13 / w_sq, k23 - g23 / w_sq
        return (
            k00 - g00 / w_sq, m01, m02, m03,
            m01, k11 - g11 / w_sq, m12, m13,
            m02, m12, k22 - g22 / w_sq, m23,
            m03, m13, m23, k33 - g33 / w_sq,
        )

    def estimate(self):
        """Solve the accumulated state for an :class:`AlignmentEstimate`.

        A pure function of the state.  Raises :class:`DegenerateSpectrum`
        while the attitude is unobservable; further updates may follow.
        """
        q, lam = optimal_quaternion(self.solved_matrix())
        return AlignmentEstimate(self.M * self.T, q, lam, self.c_nav, self.c_body)


class VelocityIntegrationAligner(_AlignerBase):
    """Recursive aligner driven by the velocity integration formula.

    ``alpha`` is ``s_body``, and ``beta`` adds the aided velocity to ``s_x``.

    Parameters
    ----------
    T : float
        Update interval (s); aiding fixes are required at both ends of
        every interval.
    """

    def update(self, interval, fix_prev, fix_next):
        """Fold one IMU interval with its bracketing fixes into the state.

        ``interval`` is the flat 12-tuple of floats that
        :func:`~ifalign.increments.imu_interval` builds (``dtheta1, dtheta2,
        dv1, dv2``), and each fix the ``(t, v, p)`` tuple that
        :func:`aid_fix` builds.  Returns None; :meth:`estimate` solves for
        the attitude.
        """
        self._fold(interval, fix_prev, fix_next)
        self.alpha = self.s_body
        # beta = (C_nav - I) v_next + (v_next - v0) + s_x; the plain
        # C_nav v_next - v0 cancels two vectors of the vehicle's speed
        c00, c01, c02, c10, c11, c12, c20, c21, c22 = self.c_nav
        _, (n0, n1, n2), _ = fix_next
        o0, o1, o2 = self.v0
        b0, b1, b2 = self.s_x
        self.beta = (
            (c00 - 1.0) * n0 + c01 * n1 + c02 * n2 + (n0 - o0) + b0,
            c10 * n0 + (c11 - 1.0) * n1 + c12 * n2 + (n1 - o1) + b1,
            c20 * n0 + c21 * n1 + (c22 - 1.0) * n2 + (n2 - o2) + b2,
        )

        self._add_pair(1.0)


class PositionIntegrationAligner(_AlignerBase):
    """Recursive aligner driven by the position integration formula.

    Same call contract as :class:`VelocityIntegrationAligner`.  The nested
    double sums integrate the velocity form's once more: ``alpha`` adds
    ``T`` times the prior ``s_body`` each interval, and ``u_x`` (double
    integral of ``x = omega_ie x v - g``) ``T`` times the prior ``s_x``.
    With ``u_r`` (integrated aided velocity) they make
    ``beta = u_r - t*v0 + u_x``, whose pairs enter the fit with weight
    ``t``.
    """

    def __init__(self, T):
        super().__init__(T)
        self.u_r = self.u_x = _ZERO3

    def update(self, interval, fix_prev, fix_next):
        """Fold one IMU interval with its bracketing fixes into the state.

        Same arguments, semantics and error behavior as the
        velocity-integration aligner.
        """
        c_nav_prev, c_body_prev, s_body_prev, s_x_prev, omega_in, x_prev, x_next = (
            self._fold(interval, fix_prev, fix_next)
        )
        T = self.T

        # Double integral of rotated specific force: completed-interval
        # prefix times T, plus the within-interval two-sample tail.
        a0, a1, a2 = self.alpha
        s0, s1, s2 = s_body_prev
        self.alpha = _rotate_add(
            (a0 + T * s0, a1 + T * s1, a2 + T * s2),
            c_body_prev,
            double_integral_increment(interval, T),
        )

        (_, v_prev, _), (_, v_next, _) = fix_prev, fix_next
        self.u_r = r0, r1, r2 = _rotate_add(
            self.u_r, c_nav_prev, single_integral(v_prev, v_next, omega_in, T)
        )
        y0, y1, y2 = _rotate_add(
            self.u_x, c_nav_prev, double_integral(x_prev, x_next, omega_in, T)
        )
        z0, z1, z2 = s_x_prev
        self.u_x = u0, u1, u2 = (y0 + T * z0, y1 + T * z1, y2 + T * z2)

        t = self.t
        o0, o1, o2 = self.v0
        self.beta = (r0 - t * o0 + u0, r1 - t * o1 + u1, r2 - t * o2 + u2)
        self._add_pair(t)


ALIGNER_CLASSES = {"vif": VelocityIntegrationAligner, "pif": PositionIntegrationAligner}


def make_aligner(method, T):
    """Factory keyed by method name ('vif' or 'pif')."""
    try:
        cls = ALIGNER_CLASSES[method]
    except KeyError:
        raise ValueError(f"unknown alignment method {method!r}") from None
    return cls(T)
