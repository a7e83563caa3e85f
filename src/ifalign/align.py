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


# Integration rules for a nav-frame vector x(tau) that is linear over one
# interval, from x_prev at tau=0 to x_next at tau=T, seen from the nav frame
# at the interval start t (C_{n(t+tau)}^{n(t)} = I + tau [omega_in x] to
# first order).  Python floats in (see attitude.cross_floats), 3-vector out.

def single_integral(x_prev, x_next, omega_in, T):
    """``int_0^T (I + tau [omega_in x]) x(tau) dtau``."""
    moment = [(T * T / 6.0) * p + (T * T / 3.0) * n for p, n in zip(x_prev, x_next)]
    rot = cross_floats(omega_in, moment)
    return np.array([(T / 2.0) * (p + n) + r for p, n, r in zip(x_prev, x_next, rot)])


def double_integral(x_prev, x_next, omega_in, T):
    """``int_0^T int_0^s (I + tau [omega_in x]) x(tau) dtau ds``."""
    rot = cross_floats(omega_in, [p + n for p, n in zip(x_prev, x_next)])
    return np.array(
        [
            (T * T / 3.0) * p + (T * T / 6.0) * n + (T ** 3 / 12.0) * r
            for p, n, r in zip(x_prev, x_next, rot)
        ]
    )


def _earth_rate_gravity(omega_ie, v, g_n):
    """``x = omega_ie x v - g`` on Python floats."""
    return [w - g for w, g in zip(cross_floats(omega_ie, v), g_n)]


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

    def __init__(self, v0, T):
        if T <= 0.0:
            raise ValueError("update interval T must be positive")
        self.T = float(T)
        self.M = 0
        self.v0 = np.asarray(v0, dtype=float).copy()
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

    @classmethod
    def _state_names(cls):
        return ("c_nav", "c_body", "K", *cls.STATE)

    def to_dict(self):
        """JSON-serializable snapshot of the full state."""
        state = {
            "kind": self.KIND,
            "T": self.T,
            "M": self.M,
            "v0": self.v0.tolist(),
        }
        for name in self._state_names():
            state[name] = getattr(self, name).tolist()
        return state

    @classmethod
    def from_dict(cls, state):
        """Rebuild an aligner from :meth:`to_dict` output.

        Raises ValueError for another aligner's snapshot or one that lacks
        a field this class declares.
        """
        if state.get("kind") != cls.KIND:
            raise ValueError(f"state is not a {cls.__name__} snapshot")
        missing = [n for n in ("T", "M", "v0", *cls._state_names()) if n not in state]
        if missing:
            raise ValueError(f"{cls.__name__} snapshot lacks {', '.join(missing)}")
        out = cls(state["v0"], state["T"])
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

        omega_ie, omega_in, g_n = omega_ie.tolist(), omega_in.tolist(), g_n.tolist()
        x_prev = _earth_rate_gravity(omega_ie, fix_prev.v.tolist(), g_n)
        x_next = _earth_rate_gravity(omega_ie, fix_next.v.tolist(), g_n)
        self.beta_partial = self.beta_partial + c_nav_prev @ single_integral(
            x_prev, x_next, omega_in, T
        )
        self.beta = self.c_nav @ fix_next.v - self.v0 + self.beta_partial

        self.K = accumulate(self.K, self.alpha, self.beta)
        self.M += 1


class PositionIntegrationAligner(_AlignerBase):
    """Recursive aligner driven by the position integration formula.

    Same call contract as :class:`VelocityIntegrationAligner`.  The nested
    double sums are carried by O(1)-per-step prefix accumulators: ``s_body``
    (rotated single-interval velocity integrals) and ``s_x`` (nav-frame
    single integrals of ``x = omega_ie x v - g``), plus the running ``u_r``
    (integrated aided velocity) and ``u_x`` (double integral of ``x``)
    terms of beta.

    ``beta = u_r - t*v0 + u_x`` carries the initial velocity as a ramp
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
        "alpha": 3, "beta": 3, "s_body": 3, "s_x": 3, "u_r": 3, "u_x": 3,
        "t_alpha": 3, "t_beta": 3, "t_sq": (),
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

        omega_ie, omega_in, g_n = omega_ie.tolist(), omega_in.tolist(), g_n.tolist()
        v_prev, v_next = fix_prev.v.tolist(), fix_next.v.tolist()
        x_prev = _earth_rate_gravity(omega_ie, v_prev, g_n)
        x_next = _earth_rate_gravity(omega_ie, v_next, g_n)
        self.u_r = self.u_r + c_nav_prev @ single_integral(v_prev, v_next, omega_in, T)
        self.u_x = (
            self.u_x
            + c_nav_prev @ double_integral(x_prev, x_next, omega_in, T)
            + T * self.s_x
        )
        self.s_x = self.s_x + c_nav_prev @ single_integral(x_prev, x_next, omega_in, T)

        self.M += 1
        t = self.t
        self.beta = self.u_r - t * self.v0 + self.u_x
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


def make_aligner(method, v0, T):
    """Factory keyed by method name ('vif' or 'pif')."""
    try:
        cls = ALIGNER_CLASSES[method]
    except KeyError:
        raise ValueError(f"unknown alignment method {method!r}") from None
    return cls(v0, T)
