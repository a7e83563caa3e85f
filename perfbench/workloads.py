"""The benchmark's three workloads, their correctness gates and expected counts.

Each workload is a closed-loop batch job: every alignment run starts when
the previous one ends.  Its inputs are a pure function of the workload seed;
the library only ever sees the generated inputs.

Calls into ``ifalign`` go through module and class attributes
(``simulate.generate_truth``, ``harness.AlignmentData.from_logs``), so the
probes of :mod:`tracing` see them.
"""

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ifalign import harness, simulate

METHODS = ("vif", "pif")
T = simulate.ScenarioConfig().update_interval_s
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MC_RUNS = 16
MC_EPOCHS = (5.0, 10.0, 20.0, 60.0, 100.0, 120.0)


@dataclass(frozen=True)
class Workload:
    name: str
    duration_s: float       # scenario length of one alignment run
    report_interval_s: float
    runs_per_method: int
    final_error_tol_deg: float

    @property
    def updates_per_run(self):
        return int(round(self.duration_s / T))

    @property
    def rows_per_run(self):
        return int(round(self.duration_s / self.report_interval_s))

    @property
    def runs(self):
        return self.runs_per_method * len(METHODS)

    @property
    def updates(self):
        return self.runs * self.updates_per_run


# Final-error tolerances (any of roll, pitch, yaw, deg).  Over seeds 0-31 the
# worst final errors were 0.44 deg (align_300s, pif) and 2.2 deg
# (replay_dense, pif at 60 s with 2 Hz GPS); a broken aligner misses by tens
# of degrees.  On montecarlo the tolerance applies to the final-epoch mean.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("align_300s", 300.0, 1.0, 1, 1.5),
        Workload("replay_dense", 60.0, T, 1, 5.0),
        Workload("montecarlo", 120.0, 1.0, MC_RUNS, 1.5),
    )
}


def log_dir(workdir, seed):
    return Path(workdir) / f"logs-{seed}"


def prepare(workload, seed, workdir):
    """Untimed input generation: the replay workload's CSV logs."""
    if workload.name != "replay_dense":
        return
    from ifalign import cli

    status = cli.main([
        "simulate", "--out", str(log_dir(workdir, seed)), "--seed", str(seed),
        "--duration", str(workload.duration_s), "--gps-interval", "0.5",
    ])
    if status != 0:
        raise RuntimeError(f"log generation failed with status {status}")


def setup(workload, seed, workdir):
    """Everything before the timed part; its cost is ``setup_s``."""
    if workload.name == "replay_dense":
        return log_dir(workdir, seed)
    cfg = replace(simulate.ScenarioConfig(), duration_s=workload.duration_s)
    truth = simulate.generate_truth(cfg)
    errors = simulate.simulation_sensor_defaults(seed)
    if workload.name == "montecarlo":
        return cfg, errors, truth
    return harness.AlignmentData.from_simulation(
        truth, errors, simulate.run_rng(seed, 0)
    )


def run(workload, state, workdir, jobs):
    """The timed part.  Returns ``(outputs, failures, files_read, files_written)``.

    ``outputs`` maps names to arrays (compared bitwise between repetitions
    and against the reference); ``failures`` lists ``(runs, reason)`` for
    alignment runs that failed the correctness gate.
    """
    if workload.name == "montecarlo":
        return _run_montecarlo(workload, state, jobs)
    files_read, files_written = [], []
    if workload.name == "replay_dense":
        logs = state
        files_read = [logs / "imu.csv", logs / "gps.csv", logs / "truth.csv"]
        data = harness.AlignmentData.from_logs(
            *files_read[:2], T, truth_path=files_read[2]
        )
    else:
        data = state
    outputs, failures = {}, []
    for method in METHODS:
        try:
            report = harness.run_alignment(data, method, workload.report_interval_s)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
            failures.append((1, f"{method}: {type(exc).__name__}: {exc}"))
            continue
        if workload.name == "replay_dense":
            path = Path(workdir) / f"report_{method}.csv"
            report.write_csv(path)
            files_written.append(path)
        outputs[f"{method}.est_deg"] = report.est_deg
        outputs[f"{method}.err_deg"] = report.err_deg
        outputs[f"{method}.degenerate"] = report.degenerate
        final = report.err_deg[-1]
        if report.degenerate[-1]:
            failures.append((1, f"{method}: ends on a degenerate row"))
        elif np.max(np.abs(final)) > workload.final_error_tol_deg:
            failures.append((1, f"{method}: final error {final} deg exceeds "
                                f"{workload.final_error_tol_deg} deg"))
    return outputs, failures, files_read, files_written


def _run_montecarlo(workload, state, jobs):
    cfg, errors, truth = state
    outputs, failures = {}, []
    for method in METHODS:
        try:
            summary = harness.monte_carlo(
                cfg, errors, workload.runs_per_method, method, epochs=MC_EPOCHS,
                jobs=jobs, truth=truth,
            )
        except Exception as exc:  # noqa: BLE001 - a raising batch fails every run
            failures.append((workload.runs_per_method,
                             f"{method}: {type(exc).__name__}: {exc}"))
            continue
        outputs[f"{method}.mean_deg"] = summary.mean_deg
        outputs[f"{method}.three_sigma_deg"] = summary.three_sigma_deg
        if summary.failed:
            failures.append((len(summary.failed), f"{method}: excluded {summary.failed}"))
        final_mean = summary.mean_deg[-1]
        if not (np.all(np.isfinite(summary.mean_deg))
                and np.all(np.isfinite(summary.three_sigma_deg))):
            failures.append((summary.n_runs, f"{method}: non-finite statistics"))
        elif np.max(np.abs(final_mean)) > workload.final_error_tol_deg:
            failures.append((summary.n_runs, f"{method}: final mean error "
                             f"{final_mean} deg exceeds {workload.final_error_tol_deg} deg"))
    return outputs, failures, [], []


def reference_keys(workload):
    """The outputs ``est_dev_deg`` compares with the seed-commit reference."""
    if workload.name == "montecarlo":
        return [f"{m}.{k}" for m in METHODS for k in ("mean_deg", "three_sigma_deg")]
    return [f"{m}.est_deg" for m in METHODS]


def est_dev_deg(workload, seed, outputs):
    """Largest absolute deviation from the reference outputs of ``seed``.

    None when ``reference.py`` recorded no reference for the seed.  A
    changed NaN (degenerate) pattern counts as an infinite deviation.
    """
    prefix = f"seed{seed}."
    with np.load(REFERENCE_DIR / f"{workload.name}.npz") as ref:
        reference = {k[len(prefix):]: ref[k] for k in ref.files if k.startswith(prefix)}
    if not reference:
        return None
    worst = 0.0
    for key in reference_keys(workload):
        new, ref = outputs.get(key), reference[key]
        if new is None or new.shape != ref.shape:
            return math.inf
        if not np.array_equal(np.isnan(new), np.isnan(ref)):
            return math.inf
        both = ~np.isnan(ref)
        if both.any():
            worst = max(worst, float(np.max(np.abs(new[both] - ref[both]))))
    return worst


def _data_rows(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def expected_counts(workload, raised, files_read, files_written):
    """Call and I/O counts the traced run must reproduce exactly.

    Derived from the workload's shape: every update runs both chain
    rotations, one accumulation and the per-interval kernels; every report
    row solves once, and each solved row composes and converts the estimate
    twice (estimate and error against truth).
    """
    n = workload.updates_per_run
    per_method = workload.runs_per_method
    total = workload.runs
    solves = total * workload.rows_per_run
    solved_rows = solves - raised.get("quest.optimal_quaternion", 0)
    draws = total if workload.name == "montecarlo" else 1  # replay: log generation
    return {
        "simulate.sample_imu.calls": draws,
        "simulate.gps_fixes.calls": draws,
        "increments.sculling_increment.calls": total * n,
        "increments.body_rotvec.calls": total * n,
        "increments.double_integral_increment.calls": per_method * n,
        "earth.aiding_kinematics.calls": total * n,
        "attitude.rotvec_to_dcm.calls": 2 * total * n,
        "attitude.compose_attitude.calls": 2 * solved_rows,
        "attitude.dcm_to_euler.calls": 2 * solved_rows,
        "align.vif.update.calls": per_method * n,
        "align.pif.update.calls": per_method * n,
        "quest.accumulate.calls": total * n,
        "quest.optimal_quaternion.calls": solves,
        "harness.run_alignment.calls": total,
        "harness.AlignmentData.interval.calls": total * n,
        "harness.AlignmentData.fix.calls": 2 * total * n,
        "io.rows_read": sum(_data_rows(p) for p in files_read),
        "io.bytes_read": sum(Path(p).stat().st_size for p in files_read),
        "io.bytes_written": sum(Path(p).stat().st_size for p in files_written),
    }
