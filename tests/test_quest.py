import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifalign import quest
from ifalign.align import make_aligner
from ifalign.attitude import flips_sign, quat_to_dcm, rotvec_to_dcm
from ifalign.errors import DegenerateSpectrum
from ifalign.quest import GAP_TOL, accumulate, optimal_quaternion, pair_gram, pair_operator


def random_rotation(rng):
    phi = rng.uniform(-2.0, 2.0, 3)
    return np.reshape(rotvec_to_dcm(phi), (3, 3))


def eigh_reference(K):
    """The q-method solved through ``np.linalg.eigh``, with the gap rule,
    tie-break, sign and norm steps of :func:`optimal_quaternion`.

    Returns ``(q, lambda_min, degenerate)``, ``q`` a 4-tuple of floats;
    ``q`` is the tied candidate when ``degenerate``.
    """
    rows = np.reshape(np.array(K, dtype=float), (4, 4)).tolist()
    trace = rows[0][0] + rows[1][1] + rows[2][2] + rows[3][3]
    w, v = np.linalg.eigh(np.array(rows))
    w = w.tolist()
    if w[1] - w[0] <= GAP_TOL * trace:
        tied = [-v[:, i] if flips_sign(v[:, i]) else v[:, i]
                for i in range(4) if w[i] - w[0] <= GAP_TOL * trace]
        tied.sort(key=lambda q: tuple(q))
        return tuple(tied[0].tolist()), w[0], True
    q = v[:, 0].tolist()
    q0, q1, q2, q3 = q
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if flips_sign(q):
        norm = -norm
    return (q0 / norm, q1 / norm, q2 / norm, q3 / norm), w[0], False


def bits(q):
    """The exact bits of each component of ``q``, signed zeros included."""
    return tuple(map(float.hex, q))


def assert_matches_reference(K, solve=optimal_quaternion):
    """``solve(K)`` (``optimal_quaternion`` by default) is bitwise equal to
    :func:`eigh_reference` on ``K``, including a degenerate candidate."""
    expected, expected_lam, degenerate = eigh_reference(K)
    try:
        q, lam = solve(K)
    except DegenerateSpectrum as err:
        q, lam = err.q, err.lambda_min
        assert degenerate
    else:
        assert not degenerate
    assert type(q) is tuple and all(type(x) is float for x in q)
    assert bits(q) == bits(expected)
    assert lam == expected_lam


class TestAccumulate:
    def test_zero_pair_leaves_k_unchanged(self):
        K = np.arange(16.0).reshape(4, 4)
        K = K + K.T
        np.testing.assert_array_equal(
            np.reshape(accumulate(K.ravel().tolist(), np.zeros(3), np.zeros(3)), (4, 4)), K
        )

    def test_matching_pair_annihilates_identity(self):
        alpha = np.array([1.0, 0.0, 0.0])
        K = np.reshape(accumulate((0.0,) * 16, alpha, alpha), (4, 4))
        np.testing.assert_allclose(K @ np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))

    def test_increment_is_symmetric_psd(self, rng):
        for _ in range(20):
            K = np.reshape(accumulate(
                (0.0,) * 16, rng.standard_normal(3), rng.standard_normal(3)
            ), (4, 4))
            np.testing.assert_allclose(K, K.T, atol=1e-12)
            w = np.linalg.eigvalsh(K)
            assert w.min() >= -1e-9 * max(1.0, np.trace(K))

    def test_closed_form_matches_operator_product(self, rng):
        # accumulate adds the closed-form B^T B; it must equal the product
        # of the residual operator with itself and keep K exactly symmetric
        for _ in range(200):
            a = rng.standard_normal((4, 4))
            K = a @ a.T
            alpha = rng.uniform(-1e3, 1e3) * rng.standard_normal(3)
            beta = rng.uniform(-1e3, 1e3) * rng.standard_normal(3)
            b = pair_operator(alpha, beta)
            expected = K + b.T @ b
            out = np.reshape(accumulate(K.ravel().tolist(), alpha, beta), (4, 4))
            assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))
            np.testing.assert_array_equal(out, out.T)
            np.testing.assert_array_equal(
                np.reshape(accumulate(K.ravel().tolist(), alpha.tolist(), beta.tolist()), (4, 4)),
                out,
            )

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_numpy_formula(self, k, alpha, beta):
        # the written-out sum rounds like numpy's, and stays on Python floats
        out = accumulate(tuple(k), alpha, beta)
        assert type(out) is tuple and len(out) == 16
        assert all(type(x) is float for x in out)
        np.testing.assert_array_equal(out, np.add(k, pair_gram(alpha, beta)))

    def test_pair_operator_matches_mul_matrices(self, rng):
        from ifalign.attitude import quat_mul_matrices

        alpha = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        bplus, _ = quat_mul_matrices(np.array([0.0, *beta]))
        _, aminus = quat_mul_matrices(np.array([0.0, *alpha]))
        np.testing.assert_allclose(pair_operator(alpha, beta), bplus - aminus)

    def test_noiseless_pairs_make_true_quaternion_null(self, rng):
        c_b_n0 = random_rotation(rng)
        # alignment-form pairs: beta = C_b^n(0) alpha, and the solver
        # quaternion encodes C_b^n(0).
        from ifalign.attitude import dcm_to_quat

        q_true = dcm_to_quat(c_b_n0)
        K = (0.0,) * 16
        for _ in range(10):
            alpha = rng.standard_normal(3)
            K = accumulate(K, alpha, c_b_n0 @ alpha)
        # the null eigenvalue floor is eps-level relative to the trace
        w = np.linalg.eigvalsh(np.reshape(K, (4, 4)))
        assert w[0] < 1e-14 * np.trace(np.reshape(K, (4, 4)))
        q, lam = optimal_quaternion(K)
        assert min(np.linalg.norm(q - q_true), np.linalg.norm(q + q_true)) < 1e-9

    def test_lambda_min_nondecreasing(self, rng):
        c = random_rotation(rng)
        K = (0.0,) * 16
        last = 0.0
        for i in range(12):
            alpha = rng.standard_normal(3)
            beta = c @ alpha + 0.01 * rng.standard_normal(3)
            K = accumulate(K, alpha, beta)
            lam = np.linalg.eigvalsh(np.reshape(K, (4, 4)))[0]
            assert lam >= last - 1e-12 * max(1.0, np.trace(np.reshape(K, (4, 4))))
            last = lam

    def test_noiseless_pair_has_zero_quadratic_form(self, rng):
        from ifalign.attitude import dcm_to_quat

        c = random_rotation(rng)
        q = dcm_to_quat(c)
        alpha = rng.standard_normal(3)
        inc = np.reshape(accumulate((0.0,) * 16, alpha, c @ alpha), (4, 4))
        assert abs(q @ inc @ q) < 1e-12 * max(1.0, np.trace(inc))


class TestOptimalQuaternion:
    def test_diagonal_case(self):
        q, lam = optimal_quaternion(np.diag([3.0, 1.0, 2.0, 4.0]).ravel().tolist())
        np.testing.assert_allclose(q, [0.0, 1.0, 0.0, 0.0])
        assert lam == pytest.approx(1.0)

    def test_isotropic_is_degenerate(self):
        with pytest.raises(DegenerateSpectrum) as err:
            optimal_quaternion(np.eye(4).ravel().tolist())
        assert err.value.q is not None
        assert err.value.lambda_min == pytest.approx(1.0)

    def test_gap_rule_is_relative_to_the_whole_trace(self):
        # degenerate while lambda_1 - lambda_0 <= GAP_TOL * trace(K), with
        # every diagonal entry in the trace
        from ifalign.quest import GAP_TOL

        for factor, degenerate in ((0.9, True), (1.1, False)):
            gap = factor * GAP_TOL * 17.0
            K = np.diag([1.0, 1.0 + gap, 5.0, 10.0]).ravel().tolist()
            if degenerate:
                with pytest.raises(DegenerateSpectrum):
                    optimal_quaternion(K)
            else:
                q, lam = optimal_quaternion(K)
                np.testing.assert_array_equal(q, [1.0, 0.0, 0.0, 0.0])
                assert lam == 1.0

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            optimal_quaternion((0.0,) * 16)

    def test_single_pair_is_degenerate(self, rng):
        alpha = rng.standard_normal(3)
        c = random_rotation(rng)
        K = accumulate((0.0,) * 16, alpha, c @ alpha)
        with pytest.raises(DegenerateSpectrum):
            optimal_quaternion(K)

    def test_two_independent_pairs_recover_rotation(self, rng):
        from ifalign.attitude import dcm_to_quat, quat_multiply

        for _ in range(20):
            c = random_rotation(rng)
            q_true = dcm_to_quat(c)
            K = (0.0,) * 16
            for alpha in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.5])):
                K = accumulate(K, alpha, c @ alpha)
            q, lam = optimal_quaternion(K)
            # rotation-angle error between estimate and truth
            dq = quat_multiply(np.array(q), np.array([q_true[0], *(-q_true[1:])]))
            angle = 2.0 * np.arctan2(np.linalg.norm(dq[1:]), abs(dq[0]))
            assert angle < 1e-9

    def test_degenerate_tie_break_is_deterministic(self):
        outs = []
        for _ in range(3):
            try:
                optimal_quaternion(np.eye(4).ravel().tolist())
            except DegenerateSpectrum as err:
                outs.append(err.q)
        assert all(np.array_equal(outs[0], q) for q in outs)

    def test_residual_invariant_random_psd(self, rng):
        for _ in range(300):
            n_pairs = rng.integers(2, 8)
            K = (0.0,) * 16
            for _ in range(n_pairs):
                K = accumulate(K, rng.standard_normal(3), rng.standard_normal(3))
            try:
                q, lam = optimal_quaternion(K)
            except DegenerateSpectrum:
                continue
            K = np.reshape(K, (4, 4))
            r = np.linalg.norm(np.subtract(K @ q, np.multiply(lam, q)))
            assert r < 1e-10 * max(1.0, np.trace(K))
            assert q[0] >= 0.0 or (q[0] == 0.0 and q[np.nonzero(q)[0][0]] > 0)

    def test_canonical_sign(self, rng):
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            K = a @ a.T
            try:
                q, _ = optimal_quaternion(K.ravel().tolist())
            except DegenerateSpectrum:
                continue
            assert not flips_sign(q)

    @pytest.mark.parametrize("column", [
        [-0.5, 0.5, -0.5, 0.5],
        [0.0, -0.6, 0.8, 0.0],
        [-0.0, 0.0, -0.28, 0.96],
        [0.0, 0.6, -0.8, 0.0],
    ])
    def test_canonical_sign_from_first_nonzero_component(self, column, monkeypatch):
        # the solver's sign is arbitrary: hand optimal_quaternion an
        # eigenvector whose first nonzero component has either sign
        v = np.eye(4)
        v[:, 0] = column
        monkeypatch.setattr(
            quest, "_eigh_lo", lambda K, **kwargs: (np.array([1.0, 2.0, 3.0, 4.0]), v)
        )
        q, lam = optimal_quaternion(np.diag([1.0, 2.0, 3.0, 4.0]).ravel().tolist())
        sign = -1.0 if flips_sign(column) else 1.0
        expected = sign * np.array(column) / math.sqrt(sum(x * x for x in column))
        assert bits(q) == bits(expected.tolist())
        assert lam == 1.0
        assert next(x for x in q if x != 0.0) > 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "entries", [[(1, 2), (2, 1)], [(2, 2)]], ids=["off_diagonal", "diagonal"]
    )
    def test_non_finite_k_is_a_linalg_error(self, value, entries):
        K = np.diag([1.0, 2.0, 3.0, 4.0])
        for entry in entries:
            K[entry] = value
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            optimal_quaternion(K.ravel().tolist())
        with pytest.raises(ValueError):
            optimal_quaternion(tuple(K.ravel().tolist()))


class TestEighParity:
    """``optimal_quaternion`` calls numpy's private LAPACK gufunc directly;
    it must stay bitwise equal to the solve through ``np.linalg.eigh``."""

    def test_random_psd(self, rng):
        for _ in range(200):
            a = rng.standard_normal((4, 4))
            assert_matches_reference((a @ a.T).ravel().tolist())

    @pytest.mark.parametrize("method", ["vif", "pif"])
    def test_every_solved_matrix_of_a_run(self, method, short_data):
        # estimate() solves the flat float tuple the aligner keeps
        al = make_aligner(method, short_data.T)

        def solve(K):
            estimate = al.estimate()
            return estimate.q, estimate.lambda_min

        for k in range(short_data.n_updates):
            al.update(short_data.interval(k), short_data.fix(k), short_data.fix(k + 1))
            assert_matches_reference(al.solved_matrix(), solve)

    def test_degenerate_candidate(self, rng):
        alpha = rng.standard_normal(3)
        K = accumulate((0.0,) * 16, alpha, random_rotation(rng) @ alpha)
        for degenerate in (
            np.eye(4).ravel().tolist(), (0.0,) * 16, np.diag([2.0, 2.0, 3.0, 4.0]).ravel().tolist(), K
        ):
            assert_matches_reference(degenerate)
            with pytest.raises(DegenerateSpectrum):
                optimal_quaternion(degenerate)
