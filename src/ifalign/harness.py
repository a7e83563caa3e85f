"""Batch execution: single alignment runs, reports, Monte-Carlo statistics."""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import io as ifio
from .align import AidFix, make_aligner
from .attitude import dcm_to_euler, quat_to_dcm
from .errors import DegenerateSpectrum
from .increments import ImuInterval
from .quest import jacobi_eigh4
from .simulate import generate_truth, gps_fixes, run_rng, sample_imu

RAD2DEG = 180.0 / math.pi
DEFAULT_EPOCHS = (5.0, 10.0, 20.0, 60.0, 100.0, 300.0)


@dataclass
class AlignmentData:
    """Everything one alignment run consumes.

    Increment arrays carry one row per IMU sample; fix arrays one row per
    update-interval endpoint.  ``truth_c_b_n`` (body-to-nav DCMs at the
    endpoints) enables error reporting and is absent in replay mode.
    """

    T: float
    dtheta: np.ndarray
    dv: np.ndarray
    fix_t: np.ndarray
    fix_v: np.ndarray
    fix_p: np.ndarray
    truth_c_b_n: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_updates(self):
        return self.fix_t.size - 1

    def fix(self, k):
        return AidFix(t=float(self.fix_t[k]), v=self.fix_v[k], p=self.fix_p[k])

    def interval(self, k):
        return ImuInterval(
            dtheta1=self.dtheta[2 * k],
            dtheta2=self.dtheta[2 * k + 1],
            dv1=self.dv[2 * k],
            dv2=self.dv[2 * k + 1],
        )

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
    def from_logs(cls, imu_path, gps_path, T, truth_path=None, max_gap_s=2.0,
                  metadata=None):
        """Replay mode: ingest CSV logs (see :mod:`ifalign.io` for formats)."""
        dtheta, dv, fix_t, fix_v, fix_p = ifio.ingest_logs(
            imu_path, gps_path, T, max_gap_s
        )
        truth_c = None
        if truth_path is not None:
            t_truth, q_truth, _, _ = ifio.read_truth(truth_path)
            if t_truth.size != fix_t.size or np.max(np.abs(t_truth - fix_t)) > 1e-6:
                raise ValueError("truth log grid does not match the update grid")
            truth_c = np.stack([quat_to_dcm(q).T for q in q_truth])
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
        """Errors (deg) at the requested epochs; epochs must be report rows."""
        out = np.empty((len(epochs), 3))
        for i, epoch in enumerate(epochs):
            idx = np.flatnonzero(np.abs(self.t - epoch) < 1e-9)
            if idx.size != 1:
                raise ValueError(f"epoch {epoch} s is not on the report grid")
            out[i] = self.err_deg[idx[0]]
        return out

    def write_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# ifalign run report\n")
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write(
                "# k_eigenvalues="
                + ",".join("%.12g" % x for x in self.k_eigenvalues)
                + "\n"
            )
            cols = "t_s,roll_est_deg,pitch_est_deg,yaw_est_deg"
            if self.err_deg is not None:
                cols += ",roll_err_deg,pitch_err_deg,yaw_err_deg"
            cols += ",degenerate"
            fh.write(cols + "\n")
            for i in range(self.t.size):
                row = [self.t[i], *self.est_deg[i]]
                if self.err_deg is not None:
                    row.extend(self.err_deg[i])
                row.append(1.0 if self.degenerate[i] else 0.0)
                fh.write(",".join("%.12g" % x for x in row) + "\n")


def attitude_error_deg(c_est, c_true):
    """Roll/pitch/yaw components (deg) of the DCM discrepancy est vs truth."""
    delta = c_est @ c_true.T
    return dcm_to_euler(delta) * RAD2DEG


def run_alignment(data, method, report_interval_s=1.0, metadata=None):
    """Drive one aligner over an :class:`AlignmentData` stream.

    Every interval is folded in; the attitude is solved once per report
    row.  Rows where the attitude is still unobservable are marked
    degenerate, not fatal.
    """
    stride = report_interval_s / data.T
    if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
        raise ValueError("report interval must be a positive multiple of T")
    stride = int(round(stride))

    aligner = make_aligner(method, v0=data.fix_v[0], p0=data.fix_p[0], T=data.T)

    n_updates = data.n_updates
    n_rows = n_updates // stride
    t_rows = np.empty(n_rows)
    est_rows = np.full((n_rows, 3), np.nan)
    err_rows = np.full((n_rows, 3), np.nan) if data.truth_c_b_n is not None else None
    degen_rows = np.zeros(n_rows, dtype=bool)

    row = 0
    for k in range(n_updates):
        aligner.update(data.interval(k), data.fix(k), data.fix(k + 1))
        if (k + 1) % stride:
            continue
        t_rows[row] = data.fix_t[k + 1]
        try:
            estimate = aligner.estimate()
        except DegenerateSpectrum:
            degen_rows[row] = True
        else:
            est_rows[row] = dcm_to_euler(estimate.c_b_n) * RAD2DEG
            if err_rows is not None:
                err_rows[row] = attitude_error_deg(
                    estimate.c_b_n, data.truth_c_b_n[k + 1]
                )
        row += 1

    eigenvalues, _ = jacobi_eigh4(aligner.solved_matrix())
    meta = dict(data.metadata)
    meta.update(metadata or {})
    meta["method"] = method
    return RunReport(
        method=method,
        t=t_rows,
        est_deg=est_rows,
        err_deg=err_rows,
        degenerate=degen_rows,
        k_eigenvalues=eigenvalues,
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


_MC_CONTEXT = {}


def _mc_worker(args):
    run_index, method, epochs, report_interval_s = args
    truth = _MC_CONTEXT["truth"]
    errors = _MC_CONTEXT["errors"]
    rng = run_rng(errors.seed, run_index)
    data = AlignmentData.from_simulation(
        truth, errors, rng, metadata={"seed": errors.seed, "run": run_index}
    )
    report = run_alignment(data, method, report_interval_s)
    errs = report.errors_at(epochs)
    if np.any(~np.isfinite(errs)):
        raise DegenerateSpectrum("degenerate estimate at a requested epoch")
    return run_index, errs


def monte_carlo(cfg, errors, n_runs, method, epochs=DEFAULT_EPOCHS, jobs=None,
                report_interval_s=1.0, truth=None):
    """Seeded Monte-Carlo batch; error statistics at the requested epochs.

    Each run draws its noise from a generator keyed by (seed, run index),
    so results do not depend on scheduling or on ``jobs``, the number of
    worker processes (default: the CPU count; at most ``n_runs``).  Failed
    runs are excluded from the statistics and listed in the summary.
    """
    if n_runs < 2:
        raise ValueError("Monte-Carlo needs at least two runs")
    epochs = [float(e) for e in epochs]
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ValueError("Monte-Carlo needs at least one job")
    jobs = min(jobs, n_runs)
    if truth is None:
        truth = generate_truth(cfg)

    _MC_CONTEXT["truth"] = truth
    _MC_CONTEXT["errors"] = errors
    tasks = [(i, method, epochs, report_interval_s) for i in range(n_runs)]
    results = {}
    failed = []
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for task, outcome in zip(tasks, pool.map(_mc_try_worker, tasks)):
                    index, errs, message = outcome
                    if message is None:
                        results[index] = errs
                    else:
                        failed.append((index, message))
        else:
            for task in tasks:
                index, errs, message = _mc_try_worker(task)
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


def _mc_try_worker(args):
    try:
        index, errs = _mc_worker(args)
        return index, errs, None
    except Exception as exc:  # noqa: BLE001 - per-run failures are aggregated
        return args[0], None, f"{type(exc).__name__}: {exc}"
