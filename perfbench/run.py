"""ifalign benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload align_300s --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``rep.py``), so ``setup_s``
includes the import cost every CLI call pays.  Times are scaled to the
nominal host speed measured by calibration slices (``speed.py``); the raw
figures and the speed factors are printed too.  Human-readable lines go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("align_300s", "replay_dense", "montecarlo")
SETUPS = 5            # set-up samples per run; setup_s is their median
REP_TIMEOUT_S = 150

# Per-layer metrics reported by the traced run: span name -> statistics.
LAYER_STATS = {
    "simulate.generate_truth": ("busy_s",),
    "simulate.sample_imu": ("calls", "busy_s"),
    "simulate.gps_fixes": ("calls", "busy_s"),
    "increments.sculling_increment": ("calls", "busy_s"),
    "increments.body_rotvec": ("calls", "busy_s"),
    "increments.double_integral_increment": ("calls", "busy_s"),
    "earth.aiding_kinematics": ("calls", "busy_s"),
    "attitude.rotvec_to_dcm": ("calls", "busy_s"),
    "attitude.compose_attitude": ("calls", "busy_s"),
    "attitude.dcm_to_euler": ("calls", "busy_s"),
    "align.vif.update": ("calls", "self_s"),
    "align.pif.update": ("calls", "self_s"),
    "quest.accumulate": ("calls", "busy_s"),
    "quest.optimal_quaternion": ("calls", "busy_s"),
    "harness.run_alignment": ("calls", "self_s"),
    "harness.AlignmentData.interval": ("calls", "busy_s"),
    "harness.AlignmentData.fix": ("calls", "busy_s"),
    "harness.AlignmentData.from_simulation": ("busy_s",),
    "harness.AlignmentData.from_logs": ("busy_s",),
    "harness.RunReport.write_csv": ("busy_s",),
    "harness.monte_carlo": ("busy_s",),
    "io.read_imu": ("busy_s",),
    "io.read_gps": ("busy_s",),
    "io.read_truth": ("busy_s",),
    "io.interpolate_fixes": ("busy_s",),
}
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


def _nproc():
    return len(os.sched_getaffinity(0))


def _rep(workload, seed, workdir, mode, jobs, tag):
    """Run one ``rep.py`` interpreter; returns its JSON result and outputs."""
    out = workdir / tag
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(workdir), "--out", str(out),
        "--mode", mode, "--jobs", str(jobs),
    ]
    launched = time.monotonic()
    command += ["--launched", repr(launched)]
    # The child's chatter goes to stderr: stdout ends with the result line.
    done = subprocess.run(command, stdout=sys.stderr, timeout=REP_TIMEOUT_S)
    wall = time.monotonic() - launched
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} repetition of {workload} exited with {done.returncode}")
    if mode == "prepare":
        return None
    result = json.loads(out.with_suffix(".json").read_text())
    result["wall_s"] = wall
    if mode == "setup":
        result["setup_factor"] = _factor(result.pop("setup_slice_ns"), speed.BULK_NOMINAL_NS)
    if mode != "setup":
        with np.load(out.with_suffix(".npz")) as npz:
            result["outputs"] = {k: npz[k] for k in npz.files}
    if mode == "timed":
        with np.load(out.with_suffix(".latency.npz")) as npz:
            result["latency_ns"] = {k: npz[k] for k in npz.files}
        latency = result["latency_ns"]
        result["slice_ns"] = latency.pop("slice_ns")
        result["paused_ns"] = latency.pop("paused_ns")
        result["update_factor"] = {m: latency.pop(f"factor.{m}") for m in list(latency)
                                   if not m.startswith("factor.")}
    return result


def _factor(slice_ns, nominal_ns=speed.NOMINAL_NS):
    """Host speed factor over a stretch of time: the harmonic mean of its
    slices' factors, since equal stretches of wall time separate the slices."""
    return float(len(slice_ns) / np.sum(nominal_ns / np.asarray(slice_ns, dtype=float)))


def _same_outputs(a, b):
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def _timed_run(workload, seed, seconds, workdir, jobs):
    """Set up ``SETUPS`` times, then repeat the workload in fresh
    interpreters until about ``seconds`` have passed in all."""
    _rep(workload, seed, workdir, "prepare", jobs, "prepare")
    start = time.monotonic()
    # Set-up samples come from set-up-only interpreters: the calibration
    # arrays they need would otherwise count in a repetition's peak RSS.
    setups = []
    for _ in range(SETUPS):
        extra = _rep(workload, seed, workdir, "setup", jobs, "setup")
        setups.append((extra["setup_s"], extra["setup_factor"]))
    reps = []
    while True:
        reps.append(_rep(workload, seed, workdir, "timed", jobs, f"rep{len(reps)}"))
        elapsed = time.monotonic() - start
        if elapsed + max(r["wall_s"] for r in reps) > seconds:
            break

    checks = []
    first = reps[0]["outputs"]
    if not all(_same_outputs(first, r["outputs"]) for r in reps[1:]):
        checks.append("outputs differ between repetitions of one seed")
    for r in reps:
        timed = sum(a.size for a in r["latency_ns"].values())
        if timed != r["updates"]:
            checks.append(f"{timed} update latencies for {r['updates']} updates")

    # Pool workers pause in parallel, so on montecarlo the wall time loses
    # about 1/jobs of their summed pauses.
    parallel = jobs if workload == "montecarlo" else 1
    for r in reps:
        r["factor"] = _factor(r["slice_ns"])
        r["work_s"] = r["timed_s"] - r["paused_ns"].sum() * 1e-9 / parallel

    def latency_ms(scaled):
        return {m: np.concatenate([r["latency_ns"][m] / (r["update_factor"][m] if scaled else 1.0)
                                   for r in reps]) * 1e-6
                for m in reps[0]["latency_ns"]}

    def timings(scaled):
        # Percentiles over every update of the run whose speed is known.  Each
        # method makes half the updates, so the pooled median falls in the gap
        # between the vif and pif populations and jumps between them: p50 is
        # the mean of the per-method medians.
        latency = latency_ms(scaled)
        return {
            "updates_per_s": statistics.median(
                r["updates"] * (r["factor"] if scaled else 1.0) / r["work_s"] for r in reps
            ),
            "update_ms_p50": statistics.mean(float(np.nanpercentile(a, 50))
                                             for a in latency.values()),
            "update_ms_p95": float(np.nanpercentile(np.concatenate(list(latency.values())), 95)),
        }

    scaled = timings(scaled=True)
    metrics = {
        "updates_per_s": (scaled["updates_per_s"], "1/s"),
        "update_ms_p50": (scaled["update_ms_p50"], "ms"),
        "setup_s": (statistics.median(t / f for t, f in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    notes = {
        "repetitions": len(reps), "setup_samples": len(setups),
        "latency_samples": {m: int(a.size) for m, a in latency_ms(False).items()},
        "steady_samples": {m: int(np.count_nonzero(~np.isnan(a)))
                           for m, a in latency_ms(True).items()},
        "speed_factor": [round(r["factor"], 4) for r in reps],
        "setup_speed_factor": [round(f, 4) for _, f in setups],
        "calibration_slices": [int(r["slice_ns"].size) for r in reps],
        "paused_s": [round(float(r["paused_ns"].sum()) * 1e-9, 4) for r in reps],
        # Printed, not a metric: the tail tracks host bursts (README.md).
        "update_ms_p95": scaled["update_ms_p95"],
        "unscaled": {**timings(scaled=False), "setup_s": statistics.median(t for t, _ in setups)},
    }
    return reps, metrics, checks, notes


def _traced_run(workload, seed, workdir, jobs):
    """One untraced and one traced repetition; per-layer metrics."""
    _rep(workload, seed, workdir, "prepare", jobs, "prepare")
    plain = _rep(workload, seed, workdir, "untraced", jobs, "untraced")
    # Spans recorded inside pool workers would be lost: trace in-process.
    traced = _rep(workload, seed, workdir, "traced", 1, "traced")
    spans = traced["spans"]

    checks = []
    if not _same_outputs(plain["outputs"], traced["outputs"]):
        checks.append("traced outputs differ from untraced outputs")
    counts = {f"{name}.calls": c for name, (c, _, _) in spans.items()}
    counts.update(traced["io"])
    for name, want in traced["expected"].items():
        if counts[name] != want:
            checks.append(f"{name} = {counts[name]}, expected {want}")

    metrics = {}
    for name, stats in LAYER_STATS.items():
        calls, busy, own = spans[name]
        values = {"calls": calls, "busy_s": busy, "self_s": own}
        for stat in stats:
            metrics[f"{name}.{stat}"] = (values[stat], _UNITS[stat])
        if name == "quest.optimal_quaternion":
            raised = traced["raised"].get(name, 0)
            metrics[f"{name}.degenerate_frac"] = (raised / calls if calls else 0.0, "ratio")
        if name == "harness.monte_carlo":
            # Busy time the pool workers spent in runs, per worker and second
            # of untraced wall time.
            pooled = plain["run_busy_s"] / (jobs * plain["timed_s"]) if calls else 0.0
            metrics[f"{name}.pool_efficiency"] = (pooled, "ratio")
    for name, value in traced["io"].items():
        metrics[name] = (value, "bytes" if "bytes" in name else "count")
    # Untraced serial time: the wall time, or the runs' summed busy time when
    # they ran on a pool (the traced repetition runs them one after another).
    serial = plain["run_busy_s"] if (jobs > 1 and workload == "montecarlo") else plain["timed_s"]
    metrics["trace.overhead_s"] = (traced["timed_s"] - serial, "s")
    notes = {"untraced_timed_s": plain["timed_s"], "traced_timed_s": traced["timed_s"]}
    return [plain, traced], metrics, checks, notes


def _environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ifalign").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            commit = git[1]
    except OSError:
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": _nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ifalign" / "__init__.py").is_file():
        print(f"error: no ifalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = _nproc()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            reps, metrics, checks, notes = _traced_run(args.workload, args.seed, workdir, jobs)
            kept = workdir.parent / f"spans-{args.workload}-{args.seed}.npz"
            shutil.copyfile(workdir / "traced.spans.npz", kept)
            notes["spans_file"] = str(kept.relative_to(ROOT))
        else:
            reps, metrics, checks, notes = _timed_run(
                args.workload, args.seed, args.seconds, workdir, jobs
            )
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = sorted({reason for r in reps for reason in r["failures"]})
    est_dev = reps[0]["est_dev_deg"]
    correct = failed == 0 and not checks

    print(f"environment: {json.dumps(_environment(args.seed))}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio")
    print(f"  {'est_dev_deg':<48} "
          f"{'no reference for this seed' if est_dev is None else f'{est_dev:>14.6g} deg'}")
    for message in checks + failures:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
