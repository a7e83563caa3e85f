"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  ``--launched`` is the
parent's ``time.monotonic()`` just before it started this interpreter, so
``setup_s`` counts interpreter start, the ``ifalign`` import and the
workload's set-up.  Writes ``<out>.json`` (scalars), ``<out>.npz``
(outputs, compared bitwise by the parent) and, untraced,
``<out>.latency.npz`` (per method, one ``update()`` latency in ns per
update; with ``--mode timed`` also each update's host speed factor, and
the calibration slices and pauses of :mod:`speed`).

Modes: ``prepare`` makes the untimed inputs; ``setup`` only sets up;
``timed`` is a benchmark repetition, calibrated; ``untraced`` is the same
without calibration pauses, the baseline of ``traced``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_ifalign():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ifalign

    if Path(ifalign.__file__).resolve().parent != src / "ifalign":
        raise ImportError(f"ifalign imported from {ifalign.__file__}, not {src}")


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("timed", "setup", "prepare", "untraced", "traced"),
                        default="timed")
    parser.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args(argv)

    import numpy as np  # ifalign imports it first thing: part of every set-up

    slice_ns, paused_s = [], 0.0
    if args.mode == "setup":
        # The host speed just before the set-up; not counted in setup_s.
        paused = time.monotonic()
        import speed
        slice_ns = speed.setup_slices()
        paused_s = time.monotonic() - paused

    _import_ifalign()
    import speed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "prepare":
        workloads.prepare(workload, args.seed, args.workdir)
        return 0

    recorder = probe = None
    if args.mode == "traced":
        recorder = tracing.SpanRecorder()
        recorder.install()
        workloads.prepare(workload, args.seed, args.workdir)
    else:
        probe = tracing.UpdateProbe(args.workdir, calibrate=args.mode == "timed")
        probe.install()

    state = workloads.setup(workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.launched - paused_s
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        result["setup_slice_ns"] = slice_ns + speed.setup_slices()
    if args.mode != "setup":
        start = time.perf_counter()
        outputs, failures, files_read, files_written = workloads.run(
            workload, state, args.workdir, args.jobs
        )
        timed_s = time.perf_counter() - start
        result.update(
            timed_s=timed_s,
            updates=workload.updates,
            est_dev_deg=workloads.est_dev_deg(workload, args.seed, outputs),
            peak_rss_mb=_peak_rss_mb(),
            attempted=workload.runs,
            failed=sum(n for n, _ in failures),
            failures=[reason for _, reason in failures],
        )
        np.savez(args.out.with_suffix(".npz"), **outputs)
        if probe is not None:
            latency_ns, factor, samples = probe.collect()
            np.savez(args.out.with_suffix(".latency.npz"), **latency_ns,
                     **{f"factor.{m}": f for m, f in factor.items()},
                     slice_ns=samples["slice_ns"], paused_ns=samples["paused_ns"])
            result["run_busy_s"] = float(samples["run_ns"].sum()) * 1e-9
        if recorder is not None:
            recorder.save(args.out.with_suffix(".spans.npz"))
            result.update(
                spans=recorder.summary(),
                raised=recorder.raised,
                io={"io.rows_read": recorder.rows_read,
                    "io.bytes_read": recorder.bytes_read,
                    "io.bytes_written": recorder.bytes_written},
                expected=workloads.expected_counts(
                    workload, recorder.raised, files_read, files_written
                ),
            )
    args.out.with_suffix(".json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
