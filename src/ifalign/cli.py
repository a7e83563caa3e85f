"""Command-line front end.

Verbs: ``simulate`` (emit truth/IMU/GPS logs), ``align`` (run one method on
a scenario or on logs), ``montecarlo`` (batch statistics), ``oracle``
(fine-step reference integrals).  Exit codes: 0 success, 2 file-format
problem, unreadable file or invalid argument value, 3 numerical failure
(attitude still unobservable at the end).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as ifio
from .attitude import dcm_to_quat
from .errors import FormatError, IfalignError
from .harness import (
    DEFAULT_EPOCHS,
    AlignmentData,
    monte_carlo,
    monte_carlo_plan,
    run_alignment,
)
from .oracle import AlignmentReference, richardson_check
from .simulate import generate_truth, gps_fixes, run_rng, sample_imu


def _load_config(args):
    cfg, errors = ifio.load_config(args.config) if args.config else ifio.config_from_dict({})
    if args.seed is not None:
        errors = replace(errors, seed=args.seed)
    if args.no_lever_arm:
        errors = errors.without_lever_arm()
    if args.duration is not None:
        cfg = replace(cfg, duration_s=args.duration)
    return cfg, errors


def _add_config_args(parser):
    parser.add_argument("--config", type=Path, help="scenario YAML (default: built-in)")
    parser.add_argument("--seed", type=int, help="override the sensor seed")
    parser.add_argument("--duration", type=float, help="override the duration (s)")
    parser.add_argument(
        "--no-lever-arm", action="store_true", help="zero the GPS lever arm"
    )


def _cmd_simulate(args):
    cfg, errors = _load_config(args)
    rng = run_rng(errors.seed, args.run_index)
    truth = generate_truth(cfg)
    dtheta, dv = sample_imu(truth, errors, rng)
    t_fix, v_fix, p_fix = gps_fixes(truth, errors, rng, stride_s=args.gps_interval)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t_end = (np.arange(cfg.n_samples) + 1) * cfg.sample_dt
    ifio.write_imu(out / "imu.csv", t_end, dtheta, dv)
    ifio.write_gps(out / "gps.csv", t_fix, v_fix, p_fix)

    idx = truth.update_indices()
    q_truth = dcm_to_quat(truth.c_b_n[idx])
    ifio.write_truth(
        out / "truth.csv", truth.t[idx], q_truth, truth.v[idx], truth.p[idx]
    )
    ifio.save_config(out / "scenario_used.yaml", cfg, errors)
    print(f"wrote imu.csv gps.csv truth.csv scenario_used.yaml to {out}")
    return 0


def _cmd_align(args):
    cfg, errors = _load_config(args)
    meta = {"config_hash": ifio.config_hash(cfg, errors), "seed": errors.seed}
    if args.imu or args.gps:
        if not (args.imu and args.gps):
            raise ValueError("--imu and --gps must be given together")
        data = AlignmentData.from_logs(
            args.imu, args.gps, args.interval, truth_path=args.truth, metadata=meta
        )
    elif args.truth:
        raise ValueError("--truth needs --imu and --gps")
    else:
        rng = run_rng(errors.seed, args.run_index)
        truth = generate_truth(cfg)
        data = AlignmentData.from_simulation(truth, errors, rng, metadata=meta)

    exit_code = 0
    for method in args.methods:
        report = run_alignment(data, method, args.report_interval)
        if report.degenerate[-1]:
            exit_code = 3
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"report_{method}.csv"
            report.write_csv(path)
            print(f"wrote {path}")
        _print_report_tail(report)
    return exit_code


def _print_report_tail(report):
    print(f"[{report.method}] final epoch t={report.t[-1]:.1f} s")
    est = report.est_deg[-1]
    print(f"  estimate  roll/pitch/yaw deg: {est[0]:+.4f} {est[1]:+.4f} {est[2]:+.4f}")
    if report.err_deg is not None:
        err = report.err_deg[-1]
        print(f"  error     roll/pitch/yaw deg: {err[0]:+.4f} {err[1]:+.4f} {err[2]:+.4f}")


def _cmd_montecarlo(args):
    cfg, errors = _load_config(args)
    epochs = None if args.epochs is None else [float(e) for e in args.epochs.split(",")]
    monte_carlo_plan(cfg, args.runs, epochs, args.jobs)  # checked before the truth
    truth = generate_truth(cfg)  # one truth, and one antenna-fix cache, for every method
    for method in args.methods:
        summary = monte_carlo(
            cfg, errors, args.runs, method, epochs=epochs, jobs=args.jobs, truth=truth
        )
        print(summary.format_table())
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"montecarlo_{method}.csv"
            _write_summary_csv(path, summary)
            print(f"wrote {path}")
    return 0


def _write_summary_csv(path, summary):
    columns = [summary.epochs]
    for axis in range(3):
        columns += [summary.mean_deg[:, axis], summary.three_sigma_deg[:, axis]]
    ifio.write_csv(
        path,
        "epoch_s,roll_mean_deg,roll_3sigma_deg,pitch_mean_deg,"
        "pitch_3sigma_deg,yaw_mean_deg,yaw_3sigma_deg",
        columns,
    )


def _cmd_oracle(args):
    cfg, _ = _load_config(args)
    t_end = args.t_end if args.t_end is not None else cfg.duration_s
    truth = generate_truth(replace(cfg, duration_s=max(t_end, cfg.update_interval_s)))
    ref = AlignmentReference(truth, substep=args.substep)
    out = ref.run(t_end)
    print(f"reference integrals at t={t_end} s (substep {args.substep} s)")
    for name in ("alpha_v", "beta_v", "alpha_p", "beta_p"):
        vec = out[name][-1]
        print(f"  {name}: {vec[0]:.9e} {vec[1]:.9e} {vec[2]:.9e}")
    if args.richardson:
        change = richardson_check(truth, t_end, args.substep)
        print(f"  substep halving changes outputs by {change:.3e}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ifalign",
        description="In-flight coarse alignment: simulation, replay, Monte-Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit truth + IMU + GPS CSV logs")
    _add_config_args(p_sim)
    p_sim.add_argument("--out", required=True, type=Path)
    p_sim.add_argument("--run-index", type=int, default=0)
    p_sim.add_argument(
        "--gps-interval", type=float, default=None,
        help="GPS fix spacing in seconds, a positive multiple of half the IMU "
        "sample period (5 ms by default); default: every update endpoint",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_align = sub.add_parser("align", help="run one or both aligners")
    _add_config_args(p_align)
    p_align.add_argument(
        "--method", dest="methods", action="append", choices=["vif", "pif"],
        help="repeatable; default: both", default=None,
    )
    p_align.add_argument("--imu", type=Path, help="IMU CSV (replay mode)")
    p_align.add_argument("--gps", type=Path, help="GPS CSV (replay mode)")
    p_align.add_argument("--truth", type=Path, help="optional truth CSV (replay)")
    p_align.add_argument("--interval", type=float, default=0.02,
                         help="update interval T for replay mode (s)")
    p_align.add_argument("--report-interval", type=float, default=1.0)
    p_align.add_argument("--run-index", type=int, default=0)
    p_align.add_argument("--out", type=Path)
    p_align.set_defaults(func=_cmd_align)

    p_mc = sub.add_parser("montecarlo", help="seeded Monte-Carlo batch")
    _add_config_args(p_mc)
    p_mc.add_argument(
        "--method", dest="methods", action="append", choices=["vif", "pif"],
        default=None,
    )
    p_mc.add_argument("--runs", type=int, default=100)
    p_mc.add_argument(
        "--epochs", type=str, default=None,
        help="comma-separated report epochs (s); default: those of "
        + ",".join(f"{e:g}" for e in DEFAULT_EPOCHS)
        + " before the run's last report row, and that row",
    )
    p_mc.add_argument("--jobs", type=int, default=None)
    p_mc.add_argument("--out", type=Path)
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_oracle = sub.add_parser("oracle", help="fine-step reference integrals")
    _add_config_args(p_oracle)
    p_oracle.add_argument("--t-end", type=float, default=None)
    p_oracle.add_argument("--substep", type=float, default=0.001)
    p_oracle.add_argument("--richardson", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    if hasattr(args, "methods") and args.methods is None:
        args.methods = ["vif", "pif"]

    try:
        return args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IfalignError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
