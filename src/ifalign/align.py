"""Recursive in-flight coarse alignment from aided velocity/position.

Two aligners estimate the constant initial body-to-nav attitude of a moving
vehicle.  Both chain two incremental DCMs -- the body frame relative to its
t=0 orientation (from gyro increments) and the navigation frame relative to
its t=0 orientation (from earth/transport rates) -- and accumulate a pair of
3-vectors (alpha, beta) that the initial attitude must map onto each other:

* :class:`VelocityIntegrationAligner`: alpha is the integral of the rotated
  specific force, beta combines the aided velocity with earth-rate and
  gravity integrals.
* :class:`PositionIntegrationAligner`: alpha and beta are the corresponding
  nested double integrals, which smooth aiding noise harder at the price of
  slower transient response.  The initial velocity is an unknown of its fit.

Every ``update()`` folds the current pair into a 4x4 accumulator;
``estimate()`` solves for the optimal attitude quaternion, the
smallest-eigenvalue eigenvector of the matrix the aligner solves
(:meth:`_AlignerBase.solved_matrix`).
"""

from dataclasses import dataclass

import numpy as np

from . import earth
from .attitude import compose_attitude, cross_floats, quat_to_dcm, rotvec_to_dcm
from .increments import body_rotvec, double_integral_increment, sculling_increment
from .quest import accumulate, optimal_quaternion, pair_operator


@dataclass(frozen=True)
class AidFix:
    """Aided ground velocity and curvilinear position at one time instant.

    Attributes
    ----------
    t : float
        Time since the start of alignment (s).
    v : ndarray, shape (3,)
        Ground velocity [vN, vU, vE] (m/s).
    p : ndarray, shape (3,)
        Curvilinear position [lon, lat, h] (rad, rad, m).
    """

    t: float
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))


class AlignmentEstimate:
    """Attitude solved from an aligner's accumulated state.

    ``q`` encodes the estimated constant nav-to-body attitude at t=0
    (via :func:`ifalign.attitude.quat_to_dcm`); ``c_b_n`` is the estimated
    body-to-nav matrix at the current time (composed lazily from the chain
    snapshots), and ``lambda_min`` the smallest eigenvalue of the solved
    matrix, a residual-energy figure of merit.
    """

    __slots__ = ("t", "q", "lambda_min", "_c_nav", "_c_body")

    def __init__(self, t, q, lambda_min, c_nav, c_body):
        self.t = t
        self.q = q
        self.lambda_min = lambda_min
        self._c_nav = c_nav
        self._c_body = c_body

    @property
    def c_b_n(self):
        return compose_attitude(
            self._c_nav.T, quat_to_dcm(self.q).T, self._c_body
        )

    def __repr__(self):
        return (
            f"AlignmentEstimate(t={self.t!r}, q={self.q!r}, "
            f"lambda_min={self.lambda_min!r})"
        )


class _AlignerBase:
    """Shared chain propagation, state bookkeeping and eigen solve.

    ``update()`` folds one interval into the state; ``estimate()`` solves
    the state for the attitude.  A subclass declares its snapshot tag
    ``KIND`` and, in ``STATE``, the shape of every accumulator it carries
    besides the two chains and ``K``.  The zeroed state, :meth:`to_dict`
    and :meth:`from_dict` are built from that declaration.
    """

    KIND = None
    STATE = {}

    def __init__(self, v0, p0, T):
        if T <= 0.0:
            raise ValueError("update interval T must be positive")
        self.T = float(T)
        self.M = 0
        self.v0 = np.asarray(v0, dtype=float).copy()
        self.p0 = np.asarray(p0, dtype=float).copy()
        self.c_nav = np.eye(3)   # C_{n(t_M)}^{n(0)}
        self.c_body = np.eye(3)  # C_{b(t_M)}^{b(0)}
        self.K = np.zeros((4, 4))
        for name, shape in self.STATE.items():
            setattr(self, name, np.zeros(shape))

    @property
    def t(self):
        """Elapsed alignment time (s)."""
        return self.M * self.T

    def _check_fixes(self, fix_prev, fix_next):
        if not isinstance(fix_prev, AidFix) or not isinstance(fix_next, AidFix):
            raise TypeError("fixes must be AidFix instances")
        if abs((fix_next.t - fix_prev.t) - self.T) > 1e-6:
            raise ValueError(
                f"fixes must straddle one update interval of {self.T} s, "
                f"got {fix_prev.t} -> {fix_next.t}"
            )

    def _advance_chains(self, interval, omega_in):
        """Rotate both chains across one interval; returns their prior values."""
        c_nav_prev = self.c_nav
        c_body_prev = self.c_body
        self.c_nav = c_nav_prev @ rotvec_to_dcm(self.T * omega_in)
        self.c_body = c_body_prev @ rotvec_to_dcm(body_rotvec(interval))
        return c_nav_prev, c_body_prev

    def solved_matrix(self):
        """The 4x4 matrix whose smallest eigenvector is the estimate (here ``K``)."""
        return self.K

    def estimate(self):
        """Solve the accumulated state for an :class:`AlignmentEstimate`.

        A pure function of the state.  Raises :class:`DegenerateSpectrum`
        while the attitude is unobservable; further updates may follow.
        """
        q, lam = optimal_quaternion(self.solved_matrix())
        return AlignmentEstimate(
            t=self.t, q=q, lambda_min=lam, c_nav=self.c_nav, c_body=self.c_body
        )

    def _state_names(self):
        return ("c_nav", "c_body", "K", *self.STATE)

    def to_dict(self):
        """JSON-serializable snapshot of the full state."""
        state = {
            "kind": self.KIND,
            "T": self.T,
            "M": self.M,
            "v0": self.v0.tolist(),
            "p0": self.p0.tolist(),
        }
        for name in self._state_names():
            state[name] = getattr(self, name).tolist()
        return state

    @classmethod
    def from_dict(cls, state):
        """Rebuild an aligner from :meth:`to_dict` output."""
        if state.get("kind") != cls.KIND:
            raise ValueError(f"state is not a {cls.__name__} snapshot")
        out = cls(state["v0"], state["p0"], state["T"])
        out.M = int(state["M"])
        for name in out._state_names():
            setattr(out, name, np.array(state[name], dtype=float))
        return out


class VelocityIntegrationAligner(_AlignerBase):
    """Recursive aligner driven by the velocity integration formula.

    Parameters
    ----------
    v0 : array_like, shape (3,)
        Aided ground velocity at the start of alignment (m/s).
    p0 : array_like, shape (3,)
        Curvilinear position [lon, lat, h] at the start of alignment.
    T : float
        Update interval (s); aiding fixes are required at both ends of
        every interval.
    """

    KIND = "vif"
    STATE = {"alpha": 3, "beta_partial": 3, "beta": 3}

    def update(self, interval, fix_prev, fix_next):
        """Fold one IMU interval with its bracketing fixes into the state.

        Returns None; :meth:`estimate` solves for the attitude.
        """
        self._check_fixes(fix_prev, fix_next)
        T = self.T
        omega_ie, omega_in, g_n = earth.aiding_kinematics(fix_prev.v, fix_prev.p)

        c_nav_prev, c_body_prev = self._advance_chains(interval, omega_in)

        self.alpha = self.alpha + c_body_prev @ sculling_increment(interval)

        # nav-frame bracket on Python floats (see attitude.cross_floats)
        omega_ie, omega_in, g_n = omega_ie.tolist(), omega_in.tolist(), g_n.tolist()
        w_prev = cross_floats(omega_ie, fix_prev.v.tolist())
        w_next = cross_floats(omega_ie, fix_next.v.tolist())
        bracket = np.array(
            [
                (T / 2.0) * wp
                + (T * T / 6.0) * rwp
                + (T / 2.0) * wn
                + (T * T / 3.0) * rwn
                - T * g
                - (T * T / 2.0) * rg
                for wp, rwp, wn, rwn, g, rg in zip(
                    w_prev,
                    cross_floats(omega_in, w_prev),
                    w_next,
                    cross_floats(omega_in, w_next),
                    g_n,
                    cross_floats(omega_in, g_n),
                )
            ]
        )
        self.beta_partial = self.beta_partial + c_nav_prev @ bracket
        self.beta = self.c_nav @ fix_next.v - self.v0 + self.beta_partial

        self.K = accumulate(self.K, self.alpha, self.beta)
        self.M += 1


class PositionIntegrationAligner(_AlignerBase):
    """Recursive aligner driven by the position integration formula.

    Same call contract as :class:`VelocityIntegrationAligner`.  The nested
    double sums are carried by five O(1)-per-step prefix accumulators:
    ``s_body`` (rotated single-interval velocity integrals), ``s_nav_v`` and
    ``s_nav_g`` (nav-frame earth-rate and gravity single integrals), plus
    the running ``u_r``, ``u_v``, ``u_g`` terms of beta.

    ``beta = u_r - t*v0 + u_v - u_g`` carries the initial velocity as a ramp
    in ``t``, so an error in the ``v0`` argument (a noisy first aiding fix)
    would grow with time.  The fit therefore treats the initial velocity as
    an unknown: with ``t_k`` the update times, it minimizes
    ``sum_k |C alpha_k - beta_k + t_k w|^2`` over the velocity correction
    ``w`` as well as the attitude ``C``.  Minimizing ``w`` out exactly
    leaves ``K - B^T B / sum_k t_k^2`` with
    ``B = pair_operator(sum_k t_k alpha_k, sum_k t_k beta_k)`` (exact since
    :func:`~ifalign.quest.pair_operator` is linear), which
    :meth:`solved_matrix` returns.  ``t_alpha``, ``t_beta`` and ``t_sq``
    carry those three sums; ``K``, ``alpha`` and ``beta`` keep their plain
    meaning, and the estimate does not depend on ``v0``.
    """

    KIND = "pif"
    STATE = {
        "alpha": 3, "beta": 3, "s_body": 3, "s_nav_v": 3, "s_nav_g": 3,
        "u_r": 3, "u_v": 3, "u_g": 3, "t_alpha": 3, "t_beta": 3, "t_sq": (),
    }

    def update(self, interval, fix_prev, fix_next):
        """Fold one IMU interval with its bracketing fixes into the state.

        Same semantics and error behavior as the velocity-integration
        aligner.
        """
        self._check_fixes(fix_prev, fix_next)
        T = self.T
        omega_ie, omega_in, g_n = earth.aiding_kinematics(fix_prev.v, fix_prev.p)

        c_nav_prev, c_body_prev = self._advance_chains(interval, omega_in)

        # Double integral of rotated specific force: completed-interval
        # prefix times T, plus the within-interval two-sample tail.
        self.alpha = (
            self.alpha
            + T * self.s_body
            + c_body_prev @ double_integral_increment(interval, T)
        )
        self.s_body = self.s_body + c_body_prev @ sculling_increment(interval)

        # nav-frame brackets on Python floats (see attitude.cross_floats)
        omega_ie, omega_in, g_n = omega_ie.tolist(), omega_in.tolist(), g_n.tolist()
        v_prev, v_next = fix_prev.v.tolist(), fix_next.v.tolist()
        w_prev = cross_floats(omega_ie, v_prev)
        w_next = cross_floats(omega_ie, v_next)
        rot_v_prev = cross_floats(omega_in, v_prev)
        rot_v_next = cross_floats(omega_in, v_next)
        rot_w_prev = cross_floats(omega_in, w_prev)
        rot_w_next = cross_floats(omega_in, w_next)
        rot_g = cross_floats(omega_in, g_n)

        self.u_r = self.u_r + c_nav_prev @ np.array(
            [
                (T / 2.0) * (vp + vn) + (T * T / 6.0) * rvp + (T * T / 3.0) * rvn
                for vp, vn, rvp, rvn in zip(v_prev, v_next, rot_v_prev, rot_v_next)
            ]
        )

        self.u_v = (
            self.u_v
            + c_nav_prev
            @ np.array(
                [
                    (T * T / 3.0) * wp
                    + (T * T / 6.0) * wn
                    + (T ** 3 / 12.0) * (rwp + rwn)
                    for wp, wn, rwp, rwn in zip(w_prev, w_next, rot_w_prev, rot_w_next)
                ]
            )
            + T * self.s_nav_v
        )
        self.s_nav_v = self.s_nav_v + c_nav_prev @ np.array(
            [
                (T / 2.0) * (wp + wn) + (T * T / 6.0) * rwp + (T * T / 3.0) * rwn
                for wp, wn, rwp, rwn in zip(w_prev, w_next, rot_w_prev, rot_w_next)
            ]
        )

        self.u_g = (
            self.u_g
            + c_nav_prev
            @ np.array([(T * T / 2.0) * g + (T ** 3 / 6.0) * rg for g, rg in zip(g_n, rot_g)])
            + T * self.s_nav_g
        )
        self.s_nav_g = self.s_nav_g + c_nav_prev @ np.array(
            [T * g + (T * T / 2.0) * rg for g, rg in zip(g_n, rot_g)]
        )

        self.M += 1
        t = self.t
        self.beta = self.u_r - t * self.v0 + self.u_v - self.u_g
        self.t_alpha = self.t_alpha + t * self.alpha
        self.t_beta = self.t_beta + t * self.beta
        self.t_sq += t * t

        self.K = accumulate(self.K, self.alpha, self.beta)

    def solved_matrix(self):
        """``K`` with the initial-velocity correction minimized out."""
        if self.M < 2:
            # a single pair is absorbed entirely by the velocity correction;
            # the subtraction below would leave only rounding noise
            return np.zeros((4, 4))
        b = pair_operator(self.t_alpha, self.t_beta)
        return self.K - (b.T @ b) / self.t_sq


ALIGNER_CLASSES = {
    cls.KIND: cls for cls in (VelocityIntegrationAligner, PositionIntegrationAligner)
}


def make_aligner(method, v0, p0, T):
    """Factory keyed by method name ('vif' or 'pif')."""
    try:
        cls = ALIGNER_CLASSES[method]
    except KeyError:
        raise ValueError(f"unknown alignment method {method!r}") from None
    return cls(v0, p0, T)
