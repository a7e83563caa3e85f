"""Host-speed calibration: fixed kernels timed in short slices.

The benchmark runs on shared virtual CPUs whose speed moves by up to 2x
within seconds and from one minute to the next, while the process keeps
its CPU (process time slows exactly as wall time does).  So the timed
repetitions pause every ``PERIOD_NS`` of wall time to time one slice of
:func:`kernel`, which never changes and does not touch ``ifalign``.  Like
the aligners, it is a Python loop over 3-vector and 3x3 numpy operations
with an occasional 4x4 symmetric eigen-solve.  A slice's speed factor is
its time over ``NOMINAL_NS``; dividing a time measured next to it by the
factor gives the time at the nominal host speed.

Set-up is mostly whole-array numpy work (truth synthesis) and imports,
which the host's slow phases slow less than Python loops: on an Intel Xeon
vCPU, truth synthesis slowed 1.28x and the numpy import 1.21x where
:func:`kernel` slowed 1.66x.  So set-up is scaled by :func:`bulk_kernel`
instead, whole-array numpy work on arrays larger than the L2 cache that
slowed 1.30x, timed in ``SETUP_SLICES`` slices on each side of it.
"""

import math
import time

import numpy as np

ITERATIONS = 60             # one slice: about 2 ms on an idle Intel Xeon vCPU
PERIOD_NS = 30_000_000      # wall time from the end of one slice to the next
NOMINAL_NS = 2_000_000      # slice time that defines factor 1
STEADY = 1.15               # adjacent slices within this ratio: speed is known
SETUP_SLICES = 3            # bulk slices on each side of a set-up
BULK_NOMINAL_NS = 9_000_000  # one bulk slice, about 9 ms when idle

_A = np.array([[0.99, -0.01, 0.02], [0.01, 0.99, -0.03], [-0.02, 0.03, 0.99]])
_M = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
               [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.0]])


def kernel(iterations=ITERATIONS):
    v = np.array([1.0, 2.0, 3.0])
    for i in range(iterations):
        w = _A @ v
        v = w / math.sqrt(float(w @ w)) + 1e-3 * np.cross(w, v)
        if i % 8 == 0:
            np.linalg.eigh(_M)
    return v


def bulk_kernel(c, v, t):
    a = np.sin(t)[:, None] * v + np.cos(0.5 * t)[:, None]
    b = np.einsum("nij,nj->ni", c, a)
    return np.cumsum(np.cross(b, v), axis=0)[-1]


def timed_slice(fn=kernel, *args):
    """Run one slice of ``fn``; its duration in ns."""
    start = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - start


def setup_slices():
    """``SETUP_SLICES`` bulk slices, after one untimed call that pays any
    one-off numpy set-up of a fresh process.  The inputs (6 MB) are made
    here, so that only processes that time a set-up hold them."""
    rng = np.random.default_rng(0)
    inputs = (rng.standard_normal((60_000, 3, 3)), rng.standard_normal((60_000, 3)),
              np.linspace(0.0, 100.0, 60_000))
    bulk_kernel(*inputs)
    return [timed_slice(bulk_kernel, *inputs) for _ in range(SETUP_SLICES)]
