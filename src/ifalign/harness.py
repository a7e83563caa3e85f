"""Batch execution: single alignment runs, reports, Monte-Carlo statistics."""

import gc
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import io as ifio
from .align import make_aligner
from .attitude import ROTATION_TOL, dcm_to_euler, matmul3, quat_to_dcm
from .errors import DegenerateSpectrum, FormatError, IfalignError, RateMismatch
from .increments import check_increments
from .simulate import SensorErrors, generate_truth, gps_fixes, run_rng, sample_imu

RAD2DEG = 180.0 / math.pi
_NAN_ROW = (math.nan, math.nan, math.nan)
DEFAULT_EPOCHS = (5.0, 10.0, 20.0, 60.0, 100.0, 300.0)


@dataclass(eq=False)
class AlignmentData:
    """Everything one alignment run consumes.

    Increment arrays carry one row per IMU sample; fix arrays one row per
    update-interval endpoint.  ``truth_c_b_n`` (body-to-nav DCMs at the
    endpoints) enables error reporting and is absent in replay mode.

    The rows are validated once, when the object is built (a positive
    finite ``T``, :func:`~ifalign.increments.check_increments`, matching
    row counts, finite fixes ``T`` apart in time, a finite ``(N+1, 3, 3)``
    truth if any; ``ValueError`` otherwise), and turned into what
    :meth:`interval` and :meth:`fix` hand out: per interval the flat
    12-tuple of floats ``dtheta1, dtheta2, dv1, dv2`` that the kernels
    read, per fix the tuple ``(t, v, p)`` of a float and two 3-tuples of
    floats that :func:`~ifalign.align.aid_fix` builds.  Do not modify the
    arrays afterwards.
    """

    T: float
    dtheta: np.ndarray
    dv: np.ndarray
    fix_t: np.ndarray
    fix_v: np.ndarray
    fix_p: np.ndarray
    truth_c_b_n: np.ndarray = None
    _intervals: list = field(init=False, repr=False)
    _fixes: list = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"update interval T must be positive and finite, got {self.T!r}")
        self.dtheta, self.dv = check_increments(self.dtheta, self.dv)
        self.fix_t = np.asarray(self.fix_t, dtype=float)
        self.fix_v = np.asarray(self.fix_v, dtype=float)
        self.fix_p = np.asarray(self.fix_p, dtype=float)
        n_fixes = self.fix_t.size
        if (
            self.fix_t.shape != (n_fixes,)
            or self.fix_v.shape != (n_fixes, 3)
            or self.fix_p.shape != (n_fixes, 3)
            or self.dtheta.shape[0] != 2 * (n_fixes - 1)
        ):
            raise ValueError(
                f"{self.dtheta.shape[0]} IMU rows and fix arrays of shapes "
                f"{self.fix_t.shape}, {self.fix_v.shape}, {self.fix_p.shape} "
                "do not make whole update intervals (2 IMU rows per interval, "
                "one fix per interval endpoint)"
            )
        if not (np.isfinite(self.fix_t).all() and np.isfinite(self.fix_v).all()
                and np.isfinite(self.fix_p).all()):
            raise ValueError("fixes must be finite")
        # the aligners' straddle check, made once for the whole grid
        off_grid = np.flatnonzero(np.abs(np.diff(self.fix_t) - self.T) > 1e-6)
        if off_grid.size:
            k = off_grid[0]
            raise ValueError(
                f"fix times must advance by the update interval of {self.T} s, "
                f"got {float(self.fix_t[k])} -> {float(self.fix_t[k + 1])} "
                f"at fixes {k} and {k + 1}"
            )
        if self.truth_c_b_n is not None:
            self.truth_c_b_n = np.asarray(self.truth_c_b_n, dtype=float)
            if (self.truth_c_b_n.shape != (n_fixes, 3, 3)
                    or not np.isfinite(self.truth_c_b_n).all()):
                raise ValueError(
                    "truth_c_b_n must be finite, one DCM per fix, of shape "
                    f"(N+1, 3, 3) = ({n_fixes}, 3, 3); got shape "
                    f"{self.truth_c_b_n.shape}"
                )
        # One flat 12-tuple per interval and one (t, v, p) tuple per fix,
        # zipped from the columns: no (N, 12) copy and no per-row list on the
        # way.  The cyclic collector is paused meanwhile: every object built
        # here outlives the build, so the collections its allocations would
        # trigger free nothing.  At 300 s (15,000 intervals) they were 150,
        # one of them full, and the build took 53 ms (median; quartiles
        # 44-57) with them against 29 ms (28-31) without, alternating on a
        # 2-vCPU host.
        n = self.n_updates
        columns = self.dtheta.reshape(n, 6).T.tolist() + self.dv.reshape(n, 6).T.tolist()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._intervals = list(zip(*columns))
            self._fixes = list(zip(
                self.fix_t.tolist(), zip(*self.fix_v.T.tolist()), zip(*self.fix_p.T.tolist())
            ))
        finally:
            if enabled:
                gc.enable()

    @property
    def n_updates(self):
        return self.fix_t.size - 1

    def fix(self, k):
        return self._fixes[k]

    def interval(self, k):
        return self._intervals[k]

    @classmethod
    def from_simulation(cls, truth, errors=SensorErrors(), rng=None):
        """Synthesize sensor streams for a generated truth trajectory."""
        dtheta, dv = sample_imu(truth, errors, rng)
        fix_t, fix_v, fix_p = gps_fixes(truth, errors, rng)
        idx = truth.update_indices()
        return cls(
            T=truth.cfg.update_interval_s,
            dtheta=dtheta,
            dv=dv,
            fix_t=fix_t,
            fix_v=fix_v,
            fix_p=fix_p,
            truth_c_b_n=truth.c_b_n[idx],
        )

    @classmethod
    def from_logs(cls, imu_path, gps_path, T, truth_path=None):
        """Replay mode: read, check and pair CSV logs (formats in :mod:`ifalign.io`).

        The IMU log needs at least two samples at one fixed rate, twice per
        update interval ``T``; its whole intervals are kept.  The GPS fixes
        are interpolated onto the interval endpoints
        (:func:`~ifalign.io.interpolate_fixes`).  A truth log must sit on
        those endpoints, and each quaternion's norm within
        :data:`~ifalign.attitude.ROTATION_TOL` of 1.  The IMU increments
        kept must pass :func:`~ifalign.increments.check_increments`: an
        increment that is not finite names its line, a rotation of 0.1 rad
        or more over one interval the lines of its two samples.  Each of
        these checks raises a :class:`FormatError` (:class:`RateMismatch` and
        :class:`GapError` are kinds of it) whose ``path`` is the log it is
        about.
        """
        t_end, dtheta, dv = ifio.read_imu(imu_path)
        if t_end.size < 2:
            raise FormatError("IMU log needs at least two samples", path=imu_path)
        dt = float(t_end[1] - t_end[0])
        if not (dt > 0.0 and (np.abs(np.diff(t_end) - dt) <= 1e-6).all()):  # NaN-safe
            raise RateMismatch("IMU samples are not at a fixed rate", path=imu_path)
        if not abs(2.0 * dt - T) <= 1e-9:
            raise RateMismatch(
                f"IMU sample period {dt} s is incompatible with update interval {T} s",
                path=imu_path,
            )
        n_updates = t_end.size // 2
        dtheta, dv = dtheta[:2 * n_updates], dv[:2 * n_updates]
        fix_t = float(t_end[0] - dt) + np.arange(n_updates + 1) * T
        gps_t, gps_v, gps_p = ifio.read_gps(gps_path)
        try:
            fix_v, fix_p = ifio.interpolate_fixes(gps_t, gps_v, gps_p, fix_t)
        except FormatError as exc:
            exc.path = gps_path
            raise
        truth_c = None
        if truth_path is not None:
            t_truth, q_truth, _, _ = ifio.read_truth(truth_path)
            if t_truth.size != fix_t.size or not (np.abs(t_truth - fix_t) <= 1e-6).all():
                raise FormatError("truth log grid does not match the update grid",
                                  path=truth_path)
            norm = np.linalg.norm(q_truth, axis=1)
            off = ~(np.abs(norm - 1.0) <= ROTATION_TOL)  # NaN-safe
            if off.any():
                i = np.argmax(off)
                raise FormatError(
                    f"quaternion at t={t_truth[i]:g} s has norm {norm[i]:.9g}, not 1",
                    path=truth_path,
                )
            truth_c = quat_to_dcm(q_truth)
        try:
            return cls(T=T, dtheta=dtheta, dv=dv, fix_t=fix_t, fix_v=fix_v, fix_p=fix_p,
                       truth_c_b_n=truth_c)
        except ValueError as exc:
            rows = getattr(exc, "rows", None)  # set by check_increments
            if rows is None:
                raise
            line, *second = [ifio.data_line(imu_path, row) for row in rows]
            if not second:
                raise FormatError("IMU increment is not finite", path=imu_path, line=line) from None
            raise FormatError(
                "angular increment exceeds 0.1 rad over the update interval of "
                f"this line and line {second[0]}", path=imu_path, line=line,
            ) from None


@dataclass(eq=False)
class RunReport:
    """Per-run estimate/error time series plus the final solved-matrix spectrum."""

    method: str
    t: np.ndarray
    est_deg: np.ndarray          # (R, 3) roll, pitch, yaw; NaN while degenerate
    err_deg: np.ndarray          # (R, 3) or None in replay mode
    degenerate: np.ndarray       # (R,) bool
    k_eigenvalues: np.ndarray    # (4,) ascending, of solved_matrix(), by the rows' eigh

    def errors_at(self, epochs):
        """Errors (deg) at the requested epochs; epochs must be report rows.

        ``ValueError`` if the report has no error columns (a run without
        truth).
        """
        if self.err_deg is None:
            raise ValueError("the report has no error columns: the run had no truth")
        out = np.empty((len(epochs), 3))
        for i, epoch in enumerate(epochs):
            idx = np.flatnonzero(np.abs(self.t - epoch) < 1e-9)
            if idx.size != 1:
                raise ValueError(f"epoch {epoch} s is not on the report grid")
            out[i] = self.err_deg[idx[0]]
        return out

    def write_csv(self, path, **provenance):
        """Write the rows under a ``# key=value`` line per ``provenance`` item
        (the run's inputs) and for ``method``, sorted by key, and the spectrum."""
        provenance["method"] = self.method
        preamble = "# ifalign run report\n" + "".join(
            f"# {key}={provenance[key]}\n" for key in sorted(provenance)
        )
        preamble += "# k_eigenvalues=" + ",".join(_solve_precision(self.k_eigenvalues)) + "\n"
        header = "t_s,roll_est_deg,pitch_est_deg,yaw_est_deg"
        columns = [self.t, self.est_deg]
        if self.err_deg is not None:
            header += ",roll_err_deg,pitch_err_deg,yaw_err_deg"
            columns.append(self.err_deg)
        columns.append(self.degenerate.astype(float))
        ifio.write_csv(path, header + ",degenerate", columns, preamble)


def _solve_precision(eigenvalues):
    """Eigenvalues printed to the precision of the solve.

    A symmetric eigensolver is accurate to about ``eps * max|lambda|``
    absolute, so each value keeps only the digits above that (and a value
    below it prints as 0): the printed digits do not depend on the solver.
    """
    values = np.asarray(eigenvalues, dtype=float).tolist()
    resolution = np.finfo(float).eps * max(map(abs, values))
    exponent = math.floor(math.log10(resolution)) if resolution else 0
    out = []
    for x in values:
        digits = math.floor(math.log10(abs(x))) - exponent if x else 0
        out.append("%.*g" % (digits, x) if digits > 0 else "0")
    return out


def _report_stride(report_interval_s, T):
    """Updates per report row; ``ValueError`` unless a positive whole number."""
    stride = report_interval_s / T
    if math.isfinite(stride) and abs(stride - round(stride)) <= 1e-9 and round(stride) >= 1:
        return int(round(stride))
    raise ValueError(f"report interval {report_interval_s:g} s is not a positive multiple of T")


def run_alignment(data, method, report_interval_s=1.0):
    """Drive one aligner over an :class:`AlignmentData` stream.

    Every interval is folded in; the attitude is solved once per report
    row.  Rows where the attitude is still unobservable are marked
    degenerate, not fatal.  A report interval longer than the run (no
    report row) raises ``ValueError``.
    """
    stride = _report_stride(report_interval_s, data.T)
    n_updates = data.n_updates
    n_rows = n_updates // stride
    if n_rows == 0:
        raise ValueError(
            f"report interval {report_interval_s:g} s is longer than the run "
            f"({n_updates * data.T:g} s): no report row"
        )
    aligner = make_aligner(method, T=data.T)

    # Each row is appended to a list as a float 3-tuple (NaN while
    # degenerate); the (R, 3) arrays are built once at the end.  Row r
    # reads the fix after update k = (r + 1) * stride - 1, so r = k // stride.
    # The error is the Euler angles of C_est @ C_true^T: truth_t holds each
    # row's transposed truth as a flat row-major 9-list.
    rows = slice(stride, n_rows * stride + 1, stride)
    truth_t = None if data.truth_c_b_n is None else (
        data.truth_c_b_n[rows].transpose(0, 2, 1).reshape(n_rows, 9).tolist()
    )
    est_rows, err_rows, degenerate = [], [], []
    # The loop's callables are looked up once, here: a wrapper of the
    # aligner's ``update`` or of a method of its class or of AlignmentData
    # must be in place before this call to see the run's calls.
    update, estimate_attitude = aligner.update, aligner.estimate
    interval, fix = data.interval, data.fix
    add_est, add_err, add_degenerate = est_rows.append, err_rows.append, degenerate.append

    for k in range(n_updates):
        update(interval(k), fix(k), fix(k + 1))
        if (k + 1) % stride:
            continue
        try:
            estimate = estimate_attitude()
        except DegenerateSpectrum:
            add_degenerate(True)
            add_est(_NAN_ROW)
            add_err(_NAN_ROW)
            continue
        add_degenerate(False)
        add_est(dcm_to_euler(estimate.c_b_n))
        if truth_t is not None:
            add_err(dcm_to_euler(matmul3(estimate.c_b_n, truth_t[k // stride])))

    return RunReport(
        method=method,
        t=data.fix_t[rows].copy(),
        est_deg=np.array(est_rows) * RAD2DEG,
        err_deg=np.array(err_rows) * RAD2DEG if truth_t is not None else None,
        degenerate=np.array(degenerate),
        k_eigenvalues=np.linalg.eigh(np.reshape(aligner.solved_matrix(), (4, 4)))[0],
    )


@dataclass(eq=False)
class McSummary:
    """Per-axis mean and 3-sigma alignment errors across Monte-Carlo runs."""

    method: str
    epochs: np.ndarray
    mean_deg: np.ndarray         # (E, 3)
    three_sigma_deg: np.ndarray  # (E, 3)
    n_runs: int
    failed: list

    def format_table(self):
        lines = [f"method={self.method} runs={self.n_runs} (mean +- 3sigma, deg)"]
        lines.append("epoch_s   roll              pitch             yaw")
        for i, epoch in enumerate(self.epochs):
            cells = [
                f"{self.mean_deg[i, axis]:+.4f}+-{self.three_sigma_deg[i, axis]:.4f}"
                for axis in range(3)
            ]
            lines.append(f"{epoch:7.1f}   {cells[0]:<17} {cells[1]:<17} {cells[2]}")
        if self.failed:
            lines.append(f"excluded runs: {self.failed}")
        return "\n".join(lines)


# A task is its run index: pool workers inherit the batch's (truth, errors,
# method, rows) by fork, not 39 MB (120 s) of truth pickled per task.
_MC_CONTEXT = {}


def _process_pool(jobs):
    """A pool of ``jobs`` forked worker processes.

    The pool machinery is imported here, so only a pooled Monte-Carlo batch
    loads it.  ``numpy.random`` is imported before the fork: numpy loads it
    on first use, and each worker would otherwise import it (and through
    ``secrets``, ``hashlib`` and OpenSSL) at its first :func:`run_rng`.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    import numpy.random  # noqa: F401  (inherited by the workers)

    return ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork"))


def _mc_run(run_index):
    """One Monte-Carlo run: ``(run index, errors at the rows, failure or None)``."""
    try:
        truth, errors, method, rows = _MC_CONTEXT["batch"]
        rng = run_rng(errors.seed, run_index)
        data = AlignmentData.from_simulation(truth, errors, rng)
        errs = run_alignment(data, method).err_deg[rows]
        if np.any(~np.isfinite(errs)):
            raise DegenerateSpectrum("degenerate estimate at a requested epoch")
    except (IfalignError, ValueError) as exc:  # a failed run; any other error is a bug
        return run_index, None, f"{type(exc).__name__}: {exc}"
    return run_index, errs, None


def monte_carlo_plan(cfg, n_runs, epochs=None, jobs=None):
    """The checked arguments of a Monte-Carlo batch: ``(epochs, rows, jobs)``.

    ``rows`` are the indices of the epochs among :func:`run_alignment`'s
    default 1 s report rows.  The default epochs are the
    :data:`DEFAULT_EPOCHS` before the last report row, and that row.  The
    default ``jobs`` is the number of CPUs this process may run on; it is at
    most ``n_runs``.  Raises ``ValueError`` for fewer than two runs, an
    epoch that is not a report row of the scenario, or fewer than one job.
    """
    if n_runs < 2:
        raise ValueError("Monte-Carlo needs at least two runs")
    stride = _report_stride(1.0, cfg.update_interval_s)
    row_s = stride * cfg.update_interval_s
    n_rows = cfg.n_updates // stride
    if epochs is None:
        last = n_rows * row_s
        epochs = [e for e in DEFAULT_EPOCHS if e < last] + [last]
    epochs = [float(e) for e in epochs]
    rows = [round(epoch / row_s) - 1 if math.isfinite(epoch) else -1 for epoch in epochs]
    for epoch, row in zip(epochs, rows):
        if abs(epoch - (row + 1) * row_s) > 1e-9 or not 0 <= row < n_rows:
            raise ValueError(
                f"epoch {epoch:g} s is not a report row: rows are every "
                f"{row_s:g} s up to {n_rows * row_s:g} s"
            )
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    elif jobs < 1:
        raise ValueError("Monte-Carlo needs at least one job")
    return epochs, rows, min(jobs, n_runs)


def monte_carlo(cfg, errors, n_runs, method, epochs=None, jobs=None, truth=None):
    """Seeded Monte-Carlo batch; error statistics at the requested epochs.

    Each run draws its noise from a generator keyed by (seed, run index),
    so results do not depend on scheduling or on ``jobs``, the number of
    worker processes.  A run fails by raising an :class:`IfalignError` or a
    ``ValueError`` (``LinAlgError`` is one); failed runs are excluded from
    the statistics and listed in the summary, and any other exception
    propagates.  Runs report on :func:`run_alignment`'s default
    1 s rows.  :func:`monte_carlo_plan` checks the arguments and fills in
    the defaults before the truth is generated or a worker started.  A
    ``truth`` given must be that of ``cfg`` (``ValueError`` otherwise).
    """
    epochs, rows, jobs = monte_carlo_plan(cfg, n_runs, epochs, jobs)
    if truth is None:
        truth = generate_truth(cfg)
    elif truth.cfg != cfg:
        raise ValueError("the truth was generated from another scenario than cfg")

    _MC_CONTEXT["batch"] = truth, errors, method, rows
    results = []  # both maps yield the outcomes in run order
    failed = []
    truth.antenna_fixes(errors.lever_arm_m)  # cached for every run; pool workers fork with it
    try:
        with _process_pool(jobs) if jobs > 1 else nullcontext() as pool:
            outcomes = (pool.map if pool else map)(_mc_run, range(n_runs))
            for index, errs, message in outcomes:
                if message is None:
                    results.append(errs)
                else:
                    failed.append((index, message))
    finally:
        _MC_CONTEXT.clear()

    if len(results) < 2:
        raise DegenerateSpectrum("fewer than two Monte-Carlo runs completed")
    stacked = np.stack(results)  # (R, E, 3)
    mean = stacked.mean(axis=0)
    three_sigma = 3.0 * stacked.std(axis=0, ddof=1)
    return McSummary(
        method=method,
        epochs=np.array(epochs),
        mean_deg=mean,
        three_sigma_deg=three_sigma,
        n_runs=len(results),
        failed=failed,
    )

