import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifalign.align import (
    PositionIntegrationAligner,
    VelocityIntegrationAligner,
    aid_fix,
    double_integral,
    make_aligner,
    single_integral,
)
from ifalign.attitude import cross3, quat_to_dcm, rotation_angle, rotvec_to_dcm
from ifalign.errors import DegenerateSpectrum
from ifalign.harness import AlignmentData
from ifalign.increments import (
    body_rotvec,
    double_integral_increment,
    sculling_increment,
)
from ifalign.quest import pair_gram
from ifalign import earth


def drive(aligner, data, n=None, collect=None):
    """Fold the first n updates; returns the final estimate (or None)."""
    n = data.n_updates if n is None else n
    for k in range(n):
        aligner.update(data.interval(k), data.fix(k), data.fix(k + 1))
        if collect is not None:
            collect(k, aligner)
    return estimate_or_none(aligner)


def estimate_or_none(aligner):
    try:
        return aligner.estimate()
    except DegenerateSpectrum:
        return None


@pytest.fixture(scope="module")
def static_data(static_truth):
    return AlignmentData.from_simulation(static_truth)


class TestInit:
    @pytest.mark.parametrize("cls", [VelocityIntegrationAligner, PositionIntegrationAligner])
    def test_zeroed_state(self, cls):
        al = cls(0.02)
        assert al.M == 0
        np.testing.assert_array_equal(np.reshape(al.K, (4, 4)), np.zeros((4, 4)))
        np.testing.assert_array_equal(np.reshape(al.c_nav, (3, 3)), np.eye(3))
        np.testing.assert_array_equal(np.reshape(al.c_body, (3, 3)), np.eye(3))
        for name in _STATE_VECTORS:
            np.testing.assert_array_equal(getattr(al, name), np.zeros(3))
        assert al.w_sq == 0.0

    @pytest.mark.parametrize("cls", [VelocityIntegrationAligner, PositionIntegrationAligner])
    def test_rejects_nonpositive_interval(self, cls):
        with pytest.raises(ValueError):
            cls(0.0)
        with pytest.raises(ValueError):
            cls(-0.02)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    @pytest.mark.parametrize("T", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_interval(self, method, T):
        # a NaN T once passed every straddle check and left K NaN; an
        # infinite one failed only at the first update
        message = f"^update interval T must be positive and finite, got {T}$"
        with pytest.raises(ValueError, match=message):
            make_aligner(method, T)

    def test_factory(self):
        assert isinstance(
            make_aligner("vif", 0.02),
            VelocityIntegrationAligner,
        )
        assert isinstance(
            make_aligner("pif", 0.02),
            PositionIntegrationAligner,
        )
        with pytest.raises(ValueError):
            make_aligner("xyz", 0.02)

    @pytest.mark.parametrize("cls", [VelocityIntegrationAligner, PositionIntegrationAligner])
    def test_forms_have_no_state_of_their_own(self, cls):
        # each form is only a pair rule on the shared fold
        assert set(vars(cls(0.02))) == {
            "T", "M", "v0", "K", "w_sq", "c_nav", "c_body", *_STATE_VECTORS,
        }
        assert {name for name in vars(cls) if not name.startswith("__")} == {"update"}


# Both forms' running 3-vectors; they also carry v0, K, w_sq and the chains.
_STATE_VECTORS = ("alpha", "beta", "w_alpha", "w_beta", "s_body", "s_x")


def _float_leaves(value):
    """Every leaf of a float or of nested tuples, or None for anything else."""
    if type(value) is float:
        return [value]
    if type(value) is not tuple:
        return None
    leaves = [_float_leaves(item) for item in value]
    return None if None in leaves else [x for sub in leaves for x in sub]


class _NumpyVectorAligner:
    """Reference: the aligners' update bodies on numpy 3-vectors.

    The arithmetic the float path writes out component by component, kept
    here with numpy vectors, numpy cross products, matrix products of the
    chains, ``K + B^T B`` from the residual operator and the weighted sums
    of the initial-velocity fit.  ``pif``'s ``beta`` is assembled as
    ``_u_r - t*v0 + _u_x`` from two sums of its own, the integrated aided
    velocity and the double integral of ``x``: the former recursion, which
    the aligner's one running double sum must match.
    """

    def __init__(self, cls, T):
        self.cls, self.T, self.M = cls, T, 0
        self.v0 = None
        for name in _STATE_VECTORS:
            setattr(self, name, np.zeros(3))
        self._u_r = self._u_x = np.zeros(3)
        self.K, self.w_sq = np.zeros((4, 4)), 0.0
        self.c_nav, self.c_body = np.eye(3), np.eye(3)

    def update(self, interval, fix_prev, fix_next):
        from ifalign.quest import pair_operator

        T = self.T
        (_, v_prev, p_prev), (_, v_next, _) = fix_prev, fix_next
        v_prev, v_next = np.array(v_prev), np.array(v_next)
        if self.v0 is None:
            self.v0 = v_prev
        omega_ie, omega_in, g_n = map(np.array, earth.aiding_kinematics(v_prev, p_prev))
        c_nav_prev, c_body_prev = self.c_nav, self.c_body
        self.c_nav = c_nav_prev @ np.reshape(rotvec_to_dcm(T * omega_in), (3, 3))
        self.c_body = c_body_prev @ np.reshape(
            rotvec_to_dcm(np.array(body_rotvec(interval))), (3, 3)
        )
        scull = np.array(sculling_increment(interval))
        x_prev = np.cross(omega_ie, v_prev) - g_n
        x_next = np.cross(omega_ie, v_next) - g_n

        def single(a, b):
            return (T / 2.0) * (a + b) + np.cross(omega_in, (T * T / 6.0) * a + (T * T / 3.0) * b)

        def double(a, b):
            return (T * T / 3.0) * a + (T * T / 6.0) * b + (T ** 3 / 12.0) * np.cross(omega_in, a + b)

        if self.cls is VelocityIntegrationAligner:
            self.s_body = self.s_body + c_body_prev @ scull
            self.s_x = self.s_x + c_nav_prev @ single(x_prev, x_next)
            self.alpha = self.s_body
            self.beta = self.c_nav @ v_next - self.v0 + self.s_x
            self.M += 1
            w = 1.0
        else:
            dbl = np.array(double_integral_increment(interval, T))
            self.alpha = self.alpha + T * self.s_body + c_body_prev @ dbl
            self.s_body = self.s_body + c_body_prev @ scull
            self._u_r = self._u_r + c_nav_prev @ single(v_prev, v_next)
            self._u_x = self._u_x + c_nav_prev @ double(x_prev, x_next) + T * self.s_x
            self.s_x = self.s_x + c_nav_prev @ single(x_prev, x_next)
            self.M += 1
            t = self.M * T
            self.beta = self._u_r - t * self.v0 + self._u_x
            w = t
        self.w_alpha = self.w_alpha + w * self.alpha
        self.w_beta = self.w_beta + w * self.beta
        self.w_sq = self.w_sq + w * w
        b = pair_operator(self.alpha, self.beta)
        self.K = self.K + b.T @ b


class TestFloatPathParity:
    @pytest.mark.parametrize("cls", [VelocityIntegrationAligner, PositionIntegrationAligner])
    def test_matches_numpy_vector_reference(self, cls, short_data):
        assert short_data.n_updates == 1000
        al = cls(short_data.T)
        ref = _NumpyVectorAligner(cls, short_data.T)
        for k in range(short_data.n_updates):
            args = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            al.update(*args)
            ref.update(*args)
        assert al.M == ref.M
        state = ("v0", "K", "w_sq", "c_nav", "c_body", *_STATE_VECTORS)
        assert set(vars(al)) == {"T", "M", *state}
        for name in state:
            got, want = getattr(al, name), getattr(ref, name)
            if np.ndim(want) == 2:  # the aligner keeps a matrix flat, row-major
                want = want.ravel()
            # a float, or a tuple of floats: no np.float64 leaks in
            assert _float_leaves(got) is not None, name
            assert np.shape(got) == np.shape(want), name
            assert np.linalg.norm(np.subtract(got, want)) <= 1e-12 * np.linalg.norm(want), name


class TestVifBetaRounding:
    def test_beta_rounds_to_its_own_size_not_the_speed(self, short_data):
        # beta = C_nav v_next - v0 + s_x takes the difference of two
        # vectors of the vehicle's speed (120 m/s) to get ~1 m/s: rounding
        # C_nav v_next first would cost ulps of 120 m/s.  The same formula,
        # evaluated exactly on the stored floats, is the reference.
        from fractions import Fraction

        al = VelocityIntegrationAligner(short_data.T)
        assert np.linalg.norm(short_data.fix_v[0]) > 100.0
        eps = np.finfo(float).eps
        for k in range(5):
            al.update(short_data.interval(k), short_data.fix(k), short_data.fix(k + 1))
            c = al.c_nav
            _, v_next, _ = short_data.fix(k + 1)
            v0, partial = al.v0, al.s_x
            exact = [
                sum((Fraction(c[3 * i + j]) * Fraction(v_next[j]) for j in range(3)), Fraction(0))
                - Fraction(v0[i]) + Fraction(partial[i])
                for i in range(3)
            ]
            error = max(abs(Fraction(b) - e) for b, e in zip(al.beta, exact))
            assert float(error) <= 4.0 * eps * np.linalg.norm(al.beta), k


class TestIntegrationRules:
    # For x linear over the interval, (I + tau [omega x]) x(tau) is quadratic
    # in tau and (T - tau) times it cubic: Simpson's rule integrates both
    # exactly, and int_0^T int_0^s f dtau ds = int_0^T (T - tau) f dtau.
    @pytest.mark.parametrize("shape", ["linear", "constant"])
    def test_rules_match_simpson(self, shape, rng):
        T = 0.5
        omega = rng.standard_normal(3)
        x_prev = 10.0 * rng.standard_normal(3)
        x_next = x_prev if shape == "constant" else 10.0 * rng.standard_normal(3)

        def integrand(tau):
            x = x_prev + (tau / T) * (x_next - x_prev)
            return x + tau * np.cross(omega, x)

        f0, f_mid, f1 = integrand(0.0), integrand(T / 2.0), integrand(T)
        single = (T / 6.0) * (f0 + 4.0 * f_mid + f1)
        double = (T / 6.0) * (T * f0 + 4.0 * (T / 2.0) * f_mid)
        args = (x_prev.tolist(), x_next.tolist(), omega.tolist(), T)
        for rule, expected in ((single_integral, single), (double_integral, double)):
            got = rule(*args)
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def vectors(scale):
    return st.tuples(
        st.floats(-scale, scale), st.floats(-scale, scale), st.floats(-scale, scale)
    )


class TestFloatKernels:
    """The written-out rules and solve must round like numpy formulas with
    the same operation order, and the rules return 3-tuples of floats."""

    @given(vectors(1e3), vectors(1e3), vectors(1e-3), st.floats(1e-3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_rules_bitwise_equal_to_numpy_formulas(self, x_prev, x_next, omega, T):
        p, n, w = np.array(x_prev), np.array(x_next), np.array(omega)
        single = (T / 2.0) * (p + n) + np.cross(w, (T * T / 6.0) * p + (T * T / 3.0) * n)
        double = (
            (T * T / 3.0) * p + (T * T / 6.0) * n + (T ** 3 / 12.0) * np.cross(w, p + n)
        )
        for rule, expected in ((single_integral, single), (double_integral, double)):
            got = rule(x_prev, x_next, omega, T)
            assert type(got) is tuple and all(type(x) is float for x in got)
            np.testing.assert_array_equal(got, expected)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16),
        vectors(1e3), vectors(1e3), st.floats(1e-3, 1e6),
        st.sampled_from([VelocityIntegrationAligner, PositionIntegrationAligner]),
    )
    @settings(max_examples=60, deadline=None)
    def test_solved_matrix_bitwise_equal_to_numpy_formula(
        self, k, w_alpha, w_beta, w_sq, cls
    ):
        K = np.reshape(k, (4, 4))
        K = np.triu(K) + np.triu(K, 1).T  # symmetric, as every accumulated K is
        al = cls(0.02)
        al.M, al.K = 5, tuple(K.ravel().tolist())
        al.w_alpha, al.w_beta, al.w_sq = w_alpha, w_beta, w_sq
        solved = al.solved_matrix()
        assert _float_leaves(solved) is not None
        np.testing.assert_array_equal(
            solved, np.subtract(K.ravel(), np.divide(pair_gram(w_alpha, w_beta), w_sq))
        )


def _assert_flat_floats(value, n):
    assert type(value) is tuple and len(value) == n
    assert all(type(x) is float for x in value)


class TestFlatLayout:
    """Every matrix on the float path is its flat row-major tuple of Python
    floats: 9 for a 3x3, 16 for a 4x4."""

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_state_and_estimate_are_flat_float_tuples(self, method, short_data):
        al = make_aligner(method, short_data.T)
        est = drive(al, short_data, n=150)
        _assert_flat_floats(al.c_nav, 9)
        _assert_flat_floats(al.c_body, 9)
        _assert_flat_floats(est.c_b_n, 9)
        _assert_flat_floats(est.q, 4)
        for K in (al.K, al.solved_matrix()):
            _assert_flat_floats(K, 16)
            assert all(K[4 * i + j] == K[4 * j + i] for i in range(4) for j in range(4))
        fresh = make_aligner(method, short_data.T)
        drive(fresh, short_data, n=1)
        with pytest.raises(DegenerateSpectrum) as err:
            fresh.estimate()
        _assert_flat_floats(err.value.q, 4)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_row_entries_reject_arrays(self, method, short_data):
        # the row-level entries take only the flat layout: a (4, 4) or
        # (3, 3) array fails where it is unpacked, with or without the repair
        from ifalign.attitude import compose_attitude, dcm_to_euler, quat_dcm_entries
        from ifalign.quest import optimal_quaternion

        al = make_aligner(method, short_data.T)
        drive(al, short_data, n=150)
        K = al.solved_matrix()
        with pytest.raises(IndexError):
            optimal_quaternion(np.reshape(K, (4, 4)))
        c_q = quat_dcm_entries(*optimal_quaternion(K)[0])
        drifted = tuple(x + 1e-7 for x in c_q)  # takes the repair
        for c0 in (c_q, drifted):
            flat = (al.c_nav, c0, al.c_body)
            _assert_flat_floats(compose_attitude(*flat), 9)
            for i in range(3):
                factors = list(flat)
                factors[i] = np.reshape(factors[i], (3, 3))
                with pytest.raises(ValueError):
                    compose_attitude(*factors)
            with pytest.raises(ValueError):
                dcm_to_euler(np.reshape(compose_attitude(*flat), (3, 3)))


class TestGuards:
    def test_fix_spacing_checked(self, short_data):
        al = make_aligner("vif", short_data.T)
        bad = aid_fix(t=0.5, v=short_data.fix_v[1], p=short_data.fix_p[1])
        with pytest.raises(ValueError):
            al.update(short_data.interval(0), short_data.fix(0), bad)

    def test_polar_fix_rejected(self, short_data):
        from ifalign.errors import PolarSingularity

        al = make_aligner("vif", short_data.T)
        polar = aid_fix(
            t=short_data.fix_t[0],
            v=short_data.fix_v[0],
            p=np.array([0.0, math.pi / 2.0, 0.0]),
        )
        nxt = short_data.fix(1)
        with pytest.raises(PolarSingularity):
            al.update(short_data.interval(0), polar, nxt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["t", "v", "p"])
    def test_fix_must_be_finite(self, field, bad, short_data):
        args = {"t": 0.0, "v": short_data.fix_v[0].copy(), "p": short_data.fix_p[0].copy()}
        if field == "t":
            args["t"] = bad
        else:
            args[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            aid_fix(**args)

    @pytest.mark.parametrize("field, bad, message", [
        ("v", [1.0, 2.0], r"^v must be three numbers, got shape \(2,\)"),
        ("p", [[1.0, 2.0], [3.0]], "^p must be three numbers, got a ragged sequence"),
    ])
    def test_fix_vectors_must_be_3_vectors(self, field, bad, message, short_data):
        args = {"t": 0.0, "v": short_data.fix_v[0], "p": short_data.fix_p[0], field: bad}
        with pytest.raises(ValueError, match=message):
            aid_fix(**args)

    @pytest.mark.parametrize("bad", [None, [1.0], "abc"], ids=["none", "list", "text"])
    def test_fix_time_must_be_a_number(self, bad, short_data):
        with pytest.raises(ValueError) as err:
            aid_fix(bad, short_data.fix_v[0], short_data.fix_p[0])
        assert str(err.value) == f"t must be a number, got {bad!r}"

    def test_update_folds_and_estimate_raises_until_observable(self, short_data):
        al = make_aligner("vif", short_data.T)
        assert al.update(short_data.interval(0), short_data.fix(0), short_data.fix(1)) is None
        assert al.M == 1
        with pytest.raises(DegenerateSpectrum):
            al.estimate()
        # the caller keeps feeding; a few maneuvering updates make the
        # attitude observable
        for k in range(1, 50):
            al.update(short_data.interval(k), short_data.fix(k), short_data.fix(k + 1))
        assert al.M == 50
        assert al.estimate() is not None

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_estimate_is_pure(self, method, short_data):
        al = make_aligner(method, short_data.T)
        drive(al, short_data, n=150)
        before = dict(vars(al))
        first, second = al.estimate(), al.estimate()
        assert first.q == second.q
        assert first.lambda_min == second.lambda_min
        assert first.c_b_n == second.c_b_n
        assert vars(al) == before


    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_c_b_n_composed_from_the_quaternion_and_chains(self, method, short_data):
        from ifalign.attitude import compose_attitude

        al = make_aligner(method, short_data.T)
        drive(al, short_data, n=150)
        est = al.estimate()
        first, second = est.c_b_n, est.c_b_n
        assert first == second
        expected = compose_attitude(
            np.reshape(al.c_nav, (3, 3)).T.ravel().tolist(),
            np.ravel(quat_to_dcm(est.q)).tolist(),
            al.c_body,
        )
        assert first == expected


class TestStaticCase:
    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_static_residual_with_true_attitude(self, method, static_truth, static_data):
        # stationary vehicle, ideal sensors: the accumulated pair satisfies
        # the defining identity with the true (identity) initial attitude
        al = make_aligner(method, static_data.T)
        drive(al, static_data)
        c0 = static_truth.c_b_n[0]
        assert np.linalg.norm(c0 @ al.alpha - al.beta) < 1e-9

    def test_static_estimate_recovers_attitude(self, static_truth, static_data):
        al = make_aligner("vif", static_data.T)
        est = drive(al, static_data)
        # gravity pins the level axes; yaw stays weakly observable under
        # earth-rate only, so compare the full attitude loosely and the
        # level directions tightly
        err = np.reshape(est.c_b_n, (3, 3)) @ static_truth.c_b_n[-1].T
        assert abs(err[1, 1] - 1.0) < 1e-6  # up axis aligned


class TestManeuveringRun:
    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_converges_with_perfect_sensors(self, method, short_truth, short_data):
        al = make_aligner(method, short_data.T)
        est = drive(al, short_data)
        err = rotation_angle(np.reshape(est.c_b_n, (3, 3)) @ short_truth.c_b_n[-1].T)
        assert err < 1e-4  # rad; well-observable after 20 s of maneuvers

    def test_vif_residual_growth_bound(self, short_truth, short_data):
        al = make_aligner("vif", short_data.T)
        drive(al, short_data)
        c0 = short_truth.c_b_n[0]
        residual = np.linalg.norm(c0 @ al.alpha - al.beta)
        # 1e-4 (m/s) per 100 s discretization budget, 20 s elapsed
        assert residual < 1e-4 * 20.0 / 100.0

    def test_pif_residual_growth_bound(self, short_truth, short_data):
        al = make_aligner("pif", short_data.T)
        drive(al, short_data)
        c0 = short_truth.c_b_n[0]
        residual = np.linalg.norm(c0 @ al.alpha - al.beta)
        # linear-in-t discretization budget: 1e-2 m over 300 s
        assert residual < 1e-2 * 20.0 / 300.0

    def test_time_origin_invariance(self, short_data):
        # same increments and fixes, times relabeled by a constant offset:
        # bitwise-identical estimates
        a1 = make_aligner("vif", short_data.T)
        a2 = make_aligner("vif", short_data.T)
        last1 = last2 = None
        for k in range(200):
            iv = short_data.interval(k)
            f0, f1 = short_data.fix(k), short_data.fix(k + 1)
            shifted0 = aid_fix(f0[0] + 7.5, *f0[1:])
            shifted1 = aid_fix(f1[0] + 7.5, *f1[1:])
            a1.update(iv, f0, f1)
            a2.update(iv, shifted0, shifted1)
        np.testing.assert_array_equal(a1.estimate().q, a2.estimate().q)
        np.testing.assert_array_equal(a1.K, a2.K)

    def test_chains_match_oracle(self, short_truth, short_data):
        from ifalign.oracle import AlignmentReference

        al = make_aligner("vif", short_data.T)
        drive(al, short_data)
        ref = AlignmentReference(short_truth, substep=0.005).run(
            short_truth.cfg.duration_s
        )
        assert rotation_angle(np.reshape(al.c_body, (3, 3)) @ ref["c_body"][-1].T) < 1e-7
        assert rotation_angle(np.reshape(al.c_nav, (3, 3)) @ ref["c_nav"][-1].T) < 1e-7

    def test_accumulators_match_oracle(self, short_truth, short_data):
        from ifalign.oracle import AlignmentReference

        vif = make_aligner("vif", short_data.T)
        pif = make_aligner("pif", short_data.T)
        drive(vif, short_data)
        drive(pif, short_data)
        ref = AlignmentReference(short_truth, substep=0.005).run(
            short_truth.cfg.duration_s
        )
        for al, a_key, b_key in ((vif, "alpha_v", "beta_v"), (pif, "alpha_p", "beta_p")):
            scale = max(1.0, np.linalg.norm(ref[a_key][-1]))
            assert np.linalg.norm(al.alpha - ref[a_key][-1]) / scale < 1e-6
            scale_b = max(1.0, np.linalg.norm(ref[b_key][-1]))
            assert np.linalg.norm(al.beta - ref[b_key][-1]) / scale_b < 1e-6

    def test_pif_beta_is_integral_of_vif_beta(self, short_data):
        # the position-form observation vector is the running time-integral
        # of the velocity-form one; trapezoidal cross-check
        vif = make_aligner("vif", short_data.T)
        pif = make_aligner("pif", short_data.T)
        integral = np.zeros(3)
        prev = np.zeros(3)
        for k in range(short_data.n_updates):
            iv, f0, f1 = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            for al in (vif, pif):
                al.update(iv, f0, f1)
            integral = integral + 0.5 * short_data.T * (prev + vif.beta)
            prev = np.array(vif.beta)
        assert np.linalg.norm(pif.beta - integral) < 1e-4 * max(
            1.0, np.linalg.norm(pif.beta)
        )


class TestPifPrefixSums:
    def test_accumulators_equal_direct_double_sums(self, short_data):
        # Re-derive alpha_p and beta_p at the final step by the literal
        # nested double summations over stored per-interval quantities
        # (beta_p = r - t*v0 + x with the integrated aided velocity r and
        # the double integral x of the earth-rate and gravity terms,
        # written out separately) and compare with the O(1)-per-step
        # recursion.
        n = 120
        al = make_aligner("pif", short_data.T)
        T = short_data.T
        c_body_hist = []   # C_{b(t_k)}^{b(0)} for k = 0..n-1 (pre-update values)
        c_nav_hist = []
        scull_hist = []
        dbl_hist = []
        vbr_hist = []      # per-interval earth-rate bracket
        gbr_hist = []
        tail_v_hist = []
        tail_g_hist = []
        vel_hist = []
        for k in range(n):
            iv, f0, f1 = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            v0, v1 = np.array(f0[1]), np.array(f1[1])
            omega_ie, omega_in, g_n = map(np.array, earth.aiding_kinematics(f0[1], f0[2]))
            c_body_hist.append(np.reshape(al.c_body, (3, 3)))
            c_nav_hist.append(np.reshape(al.c_nav, (3, 3)))
            scull_hist.append(sculling_increment(iv))
            dbl_hist.append(double_integral_increment(iv, T))
            w0 = cross3(omega_ie, v0)
            w1 = cross3(omega_ie, v1)
            vbr_hist.append(
                (T / 2.0) * (w0 + w1)
                + (T * T / 6.0) * cross3(omega_in, w0)
                + (T * T / 3.0) * cross3(omega_in, w1)
            )
            gbr_hist.append(T * g_n + (T * T / 2.0) * cross3(omega_in, g_n))
            tail_v_hist.append(
                (T * T / 3.0) * w0
                + (T * T / 6.0) * w1
                + (T ** 3 / 12.0) * (cross3(omega_in, w0) + cross3(omega_in, w1))
            )
            tail_g_hist.append((T * T / 2.0) * g_n + (T ** 3 / 6.0) * cross3(omega_in, g_n))
            vel_hist.append(
                (T / 2.0) * (v0 + v1)
                + (T * T / 6.0) * cross3(omega_in, v0)
                + (T * T / 3.0) * cross3(omega_in, v1)
            )
            al.update(iv, f0, f1)

        # direct double sums (Table-style O(M^2) evaluation)
        alpha_direct = np.zeros(3)
        r_direct = np.zeros(3)
        u_v_direct = np.zeros(3)
        u_g_direct = np.zeros(3)
        for k in range(n):
            inner = np.zeros(3)
            inner_v = np.zeros(3)
            inner_g = np.zeros(3)
            for m in range(k):
                inner = inner + c_body_hist[m] @ scull_hist[m]
                inner_v = inner_v + c_nav_hist[m] @ vbr_hist[m]
                inner_g = inner_g + c_nav_hist[m] @ gbr_hist[m]
            alpha_direct = alpha_direct + T * inner + c_body_hist[k] @ dbl_hist[k]
            r_direct = r_direct + c_nav_hist[k] @ vel_hist[k]
            u_v_direct = u_v_direct + T * inner_v + c_nav_hist[k] @ tail_v_hist[k]
            u_g_direct = u_g_direct + T * inner_g + c_nav_hist[k] @ tail_g_hist[k]

        assert np.linalg.norm(al.alpha - alpha_direct) <= 1e-12 * max(
            1.0, np.linalg.norm(alpha_direct)
        )
        x_direct = u_v_direct - u_g_direct
        beta_direct = r_direct - n * T * np.array(short_data.fix(0)[1]) + x_direct
        assert np.linalg.norm(al.beta - beta_direct) <= 1e-12 * max(
            1.0, np.linalg.norm(beta_direct)
        )

    def test_scaling_exact_pairs_by_time_preserves_estimate(self):
        # dividing both sides of the position-form relation by elapsed time
        # must not change the argmin when the pairs are exactly consistent
        from ifalign.quest import accumulate, optimal_quaternion

        c0 = np.reshape(rotvec_to_dcm(np.array([0.4, -0.9, 1.3])), (3, 3))
        K_plain = (0.0,) * 16
        K_scaled = (0.0,) * 16
        for m in range(1, 40):
            t_m = 0.5 * m
            alpha = np.array(
                [math.sin(0.3 * t_m), 0.01 * t_m ** 2, math.cos(0.2 * t_m)]
            )
            beta = c0 @ alpha
            K_plain = accumulate(K_plain, alpha, beta)
            K_scaled = accumulate(K_scaled, alpha / t_m, beta / t_m)
        q_plain, _ = optimal_quaternion(K_plain)
        q_scaled, _ = optimal_quaternion(K_scaled)
        assert min(
            np.linalg.norm(np.subtract(q_plain, q_scaled)),
            np.linalg.norm(np.add(q_plain, q_scaled)),
        ) < 1e-9

    def test_scaling_real_pairs_stays_within_discretization(self, short_data):
        # on simulated perfect-sensor data the two weightings differ only at
        # the discretization level of the recursions
        from ifalign.quest import accumulate, optimal_quaternion

        al = make_aligner("pif", short_data.T)
        K_scaled = (0.0,) * 16
        for k in range(short_data.n_updates):
            iv, f0, f1 = short_data.interval(k), short_data.fix(k), short_data.fix(k + 1)
            al.update(iv, f0, f1)
            t_m = (k + 1) * short_data.T
            K_scaled = accumulate(K_scaled, np.divide(al.alpha, t_m), np.divide(al.beta, t_m))
        q_plain, _ = optimal_quaternion(al.K)
        q_scaled, _ = optimal_quaternion(K_scaled)
        assert min(
            np.linalg.norm(np.subtract(q_plain, q_scaled)),
            np.linalg.norm(np.add(q_plain, q_scaled)),
        ) < 1e-5


class TestInitialVelocity:
    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_solved_matrix_minimizes_out_velocity_correction(self, method, short_data, rng):
        # q^T solved_matrix q must equal min over u of
        # sum_k |C alpha_k - beta_k + w_k u|^2, evaluated from the pair
        # history, with w_k = 1 (vif) or t_k (pif)
        al = make_aligner(method, short_data.T)
        pairs = []
        drive(al, short_data, n=300,
              collect=lambda k, a: pairs.append((a.t, a.alpha, a.beta)))
        w = np.array([p[0] if method == "pif" else 1.0 for p in pairs])
        alpha = np.array([p[1] for p in pairs])
        beta = np.array([p[2] for p in pairs])
        solved = np.reshape(al.solved_matrix(), (4, 4))
        for _ in range(5):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            resid = alpha @ quat_to_dcm(q).T - beta   # rows: C alpha_k - beta_k
            plain = np.sum(resid ** 2)
            ramp = w @ resid
            expected = plain - ramp @ ramp / (w @ w)
            assert q @ np.reshape(al.K, (4, 4)) @ q == pytest.approx(plain, rel=1e-10)
            assert q @ solved @ q == pytest.approx(expected, rel=1e-8, abs=1e-12 * plain)

    def test_vif_estimate_independent_of_first_fix_velocity(self, short_data):
        # an error in the first fix's velocity shifts every vif beta by the
        # same vector, which the fit absorbs: on noise-free data the
        # estimates after 10 s move by rounding only (taken as exact, the
        # first fix moved yaw by up to 42 deg)
        stride = 50
        dv = np.array([0.3, -0.2, 0.25])
        f0 = short_data.fix(0)
        first = {"base": f0, "shifted": aid_fix(f0[0], f0[1] + dv, f0[2])}
        aligners = {tag: make_aligner("vif", short_data.T) for tag in first}
        worst, solved = 0.0, 0
        for k in range(short_data.n_updates):
            for tag, al in aligners.items():
                fix_prev = first[tag] if k == 0 else short_data.fix(k)
                al.update(short_data.interval(k), fix_prev, short_data.fix(k + 1))
            if (k + 1) % stride or (k + 1) * short_data.T <= 10.0:
                continue
            base, shifted = (
                np.reshape(aligners[tag].estimate().c_b_n, (3, 3)) for tag in first
            )
            worst = max(worst, math.degrees(rotation_angle(base @ shifted.T)))
            solved += 1
        assert solved == (short_data.n_updates - 500) // stride
        assert worst <= 1e-6
        assert not np.allclose(aligners["base"].beta, aligners["shifted"].beta)

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_single_pair_is_degenerate(self, method, short_data):
        # one pair is fitted exactly by the velocity correction alone, so the
        # attitude is unobservable whatever the first fix's velocity is
        f0 = short_data.fix(0)
        for dv in (np.zeros(3), np.array([0.3, -0.2, 0.25])):
            al = make_aligner(method, short_data.T)
            al.update(short_data.interval(0), aid_fix(f0[0], f0[1] + dv, f0[2]),
                      short_data.fix(1))
            with pytest.raises(DegenerateSpectrum):
                al.estimate()
            np.testing.assert_array_equal(np.reshape(al.solved_matrix(), (4, 4)), np.zeros((4, 4)))


class TestHeadingDecay:
    def test_yaw_error_decays_with_maneuvers(self):
        # noisy 60 s run: yaw error at 60 s below the 10 s level
        from ifalign.harness import run_alignment
        from ifalign.simulate import (
            ScenarioConfig,
            generate_truth,
            run_rng,
            simulation_sensor_defaults,
        )

        cfg = ScenarioConfig(duration_s=60.0)
        truth = generate_truth(cfg)
        errors = simulation_sensor_defaults(seed=11)
        data = AlignmentData.from_simulation(truth, errors, run_rng(11, 0))
        rep = run_alignment(data, "vif", report_interval_s=1.0)
        yaw = np.abs(rep.err_deg[:, 2])
        at10 = yaw[rep.t == 10.0][0]
        at60 = yaw[rep.t == 60.0][0]
        assert at60 < at10
