"""Batch execution: single alignment runs, reports, Monte-Carlo statistics."""

import gc
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import io as ifio
from .align import AidFix, make_aligner
from .attitude import dcm_to_euler, matmul3, quat_to_dcm
from .errors import DegenerateSpectrum
from .increments import ImuInterval, check_increments
from .simulate import generate_truth, gps_fixes, run_rng, sample_imu

RAD2DEG = 180.0 / math.pi
_NAN_ROW = (math.nan, math.nan, math.nan)
DEFAULT_EPOCHS = (5.0, 10.0, 20.0, 60.0, 100.0, 300.0)


@dataclass
class AlignmentData:
    """Everything one alignment run consumes.

    Increment arrays carry one row per IMU sample; fix arrays one row per
    update-interval endpoint.  ``truth_c_b_n`` (body-to-nav DCMs at the
    endpoints) enables error reporting and is absent in replay mode.

    The rows are validated once, when the object is built
    (a positive finite ``T``, :func:`~ifalign.increments.check_increments`,
    matching row counts, finite fixes, a finite ``(N+1, 3, 3)`` truth if
    any; ``ValueError`` otherwise), and turned into the
    :class:`ImuInterval` and :class:`AidFix` objects that :meth:`interval`
    and :meth:`fix` hand out.  Do not modify the arrays afterwards.
    """

    T: float
    dtheta: np.ndarray
    dv: np.ndarray
    fix_t: np.ndarray
    fix_v: np.ndarray
    fix_p: np.ndarray
    truth_c_b_n: np.ndarray = None
    metadata: dict = field(default_factory=dict)
    _intervals: list = field(init=False, repr=False, compare=False)
    _fixes: list = field(init=False, repr=False, compare=False)

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
        if self.truth_c_b_n is not None:
            self.truth_c_b_n = np.asarray(self.truth_c_b_n, dtype=float)
            if (self.truth_c_b_n.shape != (n_fixes, 3, 3)
                    or not np.isfinite(self.truth_c_b_n).all()):
                raise ValueError(
                    "truth_c_b_n must be finite, one DCM per fix, of shape "
                    f"(N+1, 3, 3) = ({n_fixes}, 3, 3); got shape "
                    f"{self.truth_c_b_n.shape}"
                )
        # One flat 12-tuple per interval and one 3-tuple per fix vector,
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
            self._intervals = list(map(ImuInterval.from_floats, zip(*columns)))
            self._fixes = list(map(
                AidFix.from_floats,
                self.fix_t.tolist(),
                zip(*self.fix_v.T.tolist()),
                zip(*self.fix_p.T.tolist()),
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
    def from_simulation(cls, truth, errors=None, rng=None, metadata=None):
        """Synthesize sensor streams for a generated truth trajectory."""
        dtheta, dv = sample_imu(truth, errors, rng)
        fix_t, fix_v, fix_p = gps_fixes(truth, errors, rng)
        idx = truth.update_indices()
        meta = dict(metadata or {})
        return cls(
            T=truth.cfg.update_interval_s,
            dtheta=dtheta,
            dv=dv,
            fix_t=fix_t,
            fix_v=fix_v,
            fix_p=fix_p,
            truth_c_b_n=truth.c_b_n[idx],
            metadata=meta,
        )

    @classmethod
    def from_logs(cls, imu_path, gps_path, T, truth_path=None, metadata=None):
        """Replay mode: ingest CSV logs (see :mod:`ifalign.io` for formats)."""
        dtheta, dv, fix_t, fix_v, fix_p = ifio.ingest_logs(imu_path, gps_path, T)
        truth_c = None
        if truth_path is not None:
            t_truth, q_truth, _, _ = ifio.read_truth(truth_path)
            if t_truth.size != fix_t.size or np.max(np.abs(t_truth - fix_t)) > 1e-6:
                raise ValueError("truth log grid does not match the update grid")
            truth_c = quat_to_dcm(q_truth)
        meta = dict(metadata or {})
        meta.setdefault("imu_path", str(imu_path))
        meta.setdefault("gps_path", str(gps_path))
        return cls(
            T=T,
            dtheta=dtheta,
            dv=dv,
            fix_t=fix_t,
            fix_v=fix_v,
            fix_p=fix_p,
            truth_c_b_n=truth_c,
            metadata=meta,
        )


@dataclass
class RunReport:
    """Per-run estimate/error time series plus the final solved-matrix spectrum."""

    method: str
    t: np.ndarray
    est_deg: np.ndarray          # (R, 3) roll, pitch, yaw; NaN while degenerate
    err_deg: np.ndarray          # (R, 3) or None in replay mode
    degenerate: np.ndarray       # (R,) bool
    k_eigenvalues: np.ndarray    # (4,) ascending, of aligner.solved_matrix()
    metadata: dict

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

    def write_csv(self, path):
        preamble = "# ifalign run report\n" + "".join(
            f"# {key}={self.metadata[key]}\n" for key in sorted(self.metadata)
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


def _attitude_error(c_est, c_true_t):
    """Roll/pitch/yaw (rad) of ``c_est @ c_true.T`` as a float 3-tuple, from
    the nested floats of ``c_est`` and of the transposed truth.  ``matmul3``
    may round the product differently from numpy's ``@`` in the last bits."""
    return dcm_to_euler(matmul3(c_est, c_true_t))


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
    # degenerate); the (R, 3) arrays are built once at the end.
    truth_t = None if data.truth_c_b_n is None else data.truth_c_b_n.transpose(0, 2, 1)
    est_rows, err_rows, degenerate = [], [], []

    for k in range(n_updates):
        aligner.update(data.interval(k), data.fix(k), data.fix(k + 1))
        if (k + 1) % stride:
            continue
        try:
            estimate = aligner.estimate()
        except DegenerateSpectrum:
            degenerate.append(True)
            est_rows.append(_NAN_ROW)
            err_rows.append(_NAN_ROW)
            continue
        degenerate.append(False)
        est_rows.append(dcm_to_euler(estimate.c_b_n))
        if truth_t is not None:
            err_rows.append(_attitude_error(estimate.c_b_n, truth_t[k + 1].tolist()))

    meta = dict(data.metadata, method=method)
    return RunReport(
        method=method,
        t=data.fix_t[stride:n_rows * stride + 1:stride].copy(),
        est_deg=np.array(est_rows) * RAD2DEG,
        err_deg=np.array(err_rows) * RAD2DEG if truth_t is not None else None,
        degenerate=np.array(degenerate),
        k_eigenvalues=np.linalg.eigvalsh(aligner.solved_matrix()),
        metadata=meta,
    )


@dataclass
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


# Pool workers inherit the truth by fork, not 39 MB (120 s) pickled per task;
# the pool forks whatever the interpreter's default start method is.
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


def _mc_run(args):
    """One Monte-Carlo run: ``(run index, errors at the rows, failure or None)``."""
    run_index, method, rows = args
    try:
        truth = _MC_CONTEXT["truth"]
        errors = _MC_CONTEXT["errors"]
        rng = run_rng(errors.seed, run_index)
        data = AlignmentData.from_simulation(
            truth, errors, rng, metadata={"seed": errors.seed, "run": run_index}
        )
        errs = run_alignment(data, method).err_deg[rows]
        if np.any(~np.isfinite(errs)):
            raise DegenerateSpectrum("degenerate estimate at a requested epoch")
    except Exception as exc:  # noqa: BLE001 - per-run failures are aggregated
        return run_index, None, f"{type(exc).__name__}: {exc}"
    return run_index, errs, None


def monte_carlo(cfg, errors, n_runs, method, epochs=None, jobs=None, truth=None):
    """Seeded Monte-Carlo batch; error statistics at the requested epochs.

    Each run draws its noise from a generator keyed by (seed, run index),
    so results do not depend on scheduling or on ``jobs``, the number of
    worker processes (default: the CPU count; at most ``n_runs``).  Failed
    runs are excluded from the statistics and listed in the summary.  Runs
    report on :func:`run_alignment`'s default 1 s rows.  The default epochs
    are the :data:`DEFAULT_EPOCHS` before the last report row, and that
    row.  An epoch that is not a report row of the scenario raises
    ``ValueError`` before the truth is generated or a worker started.
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
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ValueError("Monte-Carlo needs at least one job")
    jobs = min(jobs, n_runs)
    if truth is None:
        truth = generate_truth(cfg)

    _MC_CONTEXT["truth"] = truth
    _MC_CONTEXT["errors"] = errors
    tasks = [(i, method, rows) for i in range(n_runs)]
    results = {}
    failed = []
    if jobs > 1:  # the workers inherit the runs' noiseless GPS fixes by fork
        truth.antenna_fixes(errors.lever_arm_m)
    try:
        with _process_pool(jobs) if jobs > 1 else nullcontext() as pool:
            outcomes = pool.map(_mc_run, tasks) if pool else map(_mc_run, tasks)
            for index, errs, message in outcomes:
                if message is None:
                    results[index] = errs
                else:
                    failed.append((index, message))
    finally:
        _MC_CONTEXT.clear()

    if len(results) < 2:
        raise DegenerateSpectrum("fewer than two Monte-Carlo runs completed")
    stacked = np.stack([results[i] for i in sorted(results)])  # (R, E, 3)
    mean = stacked.mean(axis=0)
    three_sigma = 3.0 * stacked.std(axis=0, ddof=1)
    return McSummary(
        method=method,
        epochs=np.array(epochs),
        mean_deg=mean,
        three_sigma_deg=three_sigma,
        n_runs=len(results),
        failed=sorted(failed),
    )

