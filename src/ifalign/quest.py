"""Attitude determination from accumulated vector pairs.

Each pair (alpha, beta) that should satisfy ``C_b^n(0) @ alpha == beta``
contributes a positive-semidefinite 4x4 increment ``B^T B`` with
``B = qplus([0, beta]) - qminus([0, alpha])``.  The quaternion minimizing
``q^T K q`` over unit quaternions is the eigenvector of the accumulated K
belonging to its smallest eigenvalue (Davenport's q-method), and
:func:`ifalign.attitude.quat_to_dcm` of it is the ``C_b^n(0)`` of the pairs.
``K`` and each increment are flat row-major 16-tuples of Python floats,
and only the solve builds a 4x4 array.

The eigen-solve calls ``numpy.linalg._umath_linalg.eigh_lo``, the LAPACK
gufunc that ``numpy.linalg.eigh`` runs for real input with ``UPLO='L'``, on
the same float64 array, so its results are bitwise those of
``numpy.linalg.eigh``.  It is called directly because a report row solves
at every update, and on a 4x4 array the wrapper's checks, type resolution
and ``errstate`` block cost more than the solve: about 10 us per call
against 4 us for the gufunc on an Intel Xeon vCPU.  Unlike ``eigh``, it
passes no ``signature="d->dd"``, which the gufunc would parse on every
call: the input is always a C-contiguous float64 array, for which the type
resolver picks that same loop.  Without the wrapper, a LAPACK failure
shows only as NaN eigenvalues, which :func:`optimal_quaternion` turns into
``numpy.linalg.LinAlgError``.
"""

import math

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .attitude import flips_sign
from .errors import DegenerateSpectrum

GAP_TOL = 1e-9


def pair_operator(alpha, beta):
    """The 4x4 residual operator ``qplus([0, beta]) - qminus([0, alpha])``."""
    d0, d1, d2 = np.subtract(beta, alpha).tolist()
    s0, s1, s2 = np.add(beta, alpha).tolist()
    return np.array(
        [
            [0.0, -d0, -d1, -d2],
            [d0, 0.0, -s2, s1],
            [d1, s2, 0.0, -s0],
            [d2, -s1, s0, 0.0],
        ]
    )


def pair_gram(alpha, beta):
    """``B^T B`` for ``B = pair_operator(alpha, beta)``, in closed form.

    With ``d = beta - alpha`` and ``s = beta + alpha`` it is
    ``[[d.d, (d x s)^T], [d x s, d d^T + (s.s) I - s s^T]]``: ten distinct
    entries, computed on Python floats and each placed at both of its
    positions, so the result is exactly symmetric.  Returned as the flat
    row-major 16-tuple of floats.
    """
    a0, a1, a2 = alpha
    b0, b1, b2 = beta
    d0, d1, d2 = b0 - a0, b1 - a1, b2 - a2
    s0, s1, s2 = b0 + a0, b1 + a1, b2 + a2
    x0, x1, x2 = d1 * s2 - d2 * s1, d2 * s0 - d0 * s2, d0 * s1 - d1 * s0
    k12, k13, k23 = d0 * d1 - s0 * s1, d0 * d2 - s0 * s2, d1 * d2 - s1 * s2
    return (
        d0 * d0 + d1 * d1 + d2 * d2, x0, x1, x2,
        x0, d0 * d0 + s1 * s1 + s2 * s2, k12, k13,
        x1, k12, d1 * d1 + s0 * s0 + s2 * s2, k23,
        x2, k13, k23, d2 * d2 + s0 * s0 + s1 * s1,
    )


def accumulate(K, alpha, beta):
    """Add one vector pair to the 4x4 accumulator ``K``, a flat row-major
    16-sequence of floats; returns the new matrix as a flat 16-tuple."""
    (
        k00, k01, k02, k03,
        k10, k11, k12, k13,
        k20, k21, k22, k23,
        k30, k31, k32, k33,
    ) = K
    (
        g00, g01, g02, g03,
        g10, g11, g12, g13,
        g20, g21, g22, g23,
        g30, g31, g32, g33,
    ) = pair_gram(alpha, beta)
    return (
        k00 + g00, k01 + g01, k02 + g02, k03 + g03,
        k10 + g10, k11 + g11, k12 + g12, k13 + g13,
        k20 + g20, k21 + g21, k22 + g22, k23 + g23,
        k30 + g30, k31 + g31, k32 + g32, k33 + g33,
    )


def optimal_quaternion(K):
    """Quaternion minimizing ``q^T K q`` subject to unit norm.

    ``K`` is a flat row-major 16-sequence of floats.  Returns
    ``(q, lambda_min)``: ``q`` a 4-tuple of floats with canonical sign.
    Only the eigen-solve itself runs in numpy, on one float64 array built
    from ``K``'s 16 floats and reshaped to 4x4, through LAPACK's symmetric
    eigensolver gufunc (``eigh_lo``, see the module docstring): its
    eigenvalues and the chosen eigenvector are read out with one
    ``tolist()`` each, and the sign and norm are set on Python floats.

    Raises
    ------
    numpy.linalg.LinAlgError
        If an eigenvalue is not finite: ``K`` holds a NaN or an infinity,
        or LAPACK did not converge (the gufunc then returns NaN).
    DegenerateSpectrum
        If the two smallest eigenvalues differ by no more than
        ``GAP_TOL * trace(K)`` -- the attitude is unobservable from the
        accumulated pairs.  The exception carries a deterministic candidate
        (lexicographically smallest canonical eigenvector among the tied
        eigenvalues, a 4-tuple of floats) so callers can still log a
        reproducible value.
    """
    trace = K[0] + K[5] + K[10] + K[15]
    w, v = _eigh_lo(np.fromiter(K, np.float64, 16).reshape(4, 4))
    w = w0, w1, w2, w3 = w.tolist()
    if not (math.isfinite(w0) and math.isfinite(w1)
            and math.isfinite(w2) and math.isfinite(w3)):
        raise np.linalg.LinAlgError(
            f"eigen-solve gave non-finite eigenvalues {w}: K is not finite "
            "or LAPACK did not converge"
        )
    if w1 - w0 <= GAP_TOL * trace:
        tied = sorted(
            tuple(-x for x in q) if flips_sign(q) else tuple(q)
            for q, wi in zip(v.T.tolist(), w)
            if wi - w0 <= GAP_TOL * trace
        )
        raise DegenerateSpectrum(
            "smallest eigenvalues coincide: attitude unobservable "
            f"(gap {w1 - w0:.3e} vs trace {trace:.3e})",
            q=tied[0],
            lambda_min=w0,
        )
    q = v[:, 0].tolist()
    q0, q1, q2, q3 = q
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if flips_sign(q):
        norm = -norm
    return (q0 / norm, q1 / norm, q2 / norm, q3 / norm), w0
