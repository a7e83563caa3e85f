"""Record a fixed matrix of outputs, or compare two records of it.

    python3 tools/parity.py --seed N --out parity.json
    python3 tools/parity.py --compare a.json b.json [--rtol X]

Record runs the matrix below on this checkout, with sensor errors and noise
seeded by ``N``.  It writes the sha256 of each output, and the final
``alpha`` and ``beta`` of each run as ``float.hex``, to the JSON file, and
every output's array to an ``.npz`` of the same stem beside it.  Two records
on one tree give identical JSON.  The matrix:

* ``default``: both methods on the 300 s default scenario at 1 s rows, and
  ``pif``'s ``estimate().q`` at each solved row (also as ``float.hex``);
* ``dense``: both methods on the 60 s default scenario at 0.02 s rows;
* ``turning``: both methods on ``turning_scenario(30)``, lever arm on, at
  1 s rows;
* ``replay``: the logs of ``ifalign simulate --duration 60 --gps-interval
  0.5`` (their CSVs are outputs too), replayed by both methods with truth
  at 0.02 s rows; ``replay_no_truth``: the same without truth at 1 s rows.
  Each replay's report CSVs are outputs;
* ``mc``: a 6-run 20 s Monte-Carlo summary of both methods at ``jobs`` 1
  and 2.

Compare prints each output whose hash differs, or that is missing on one
side, with its largest absolute difference and that difference relative to
the largest magnitude in the first record's array.  With ``--rtol`` it
prints only the float outputs beyond that relative bound (NaNs must sit in
the same places) and every other difference.  It exits 1 if it printed one.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ifalign import cli  # noqa: E402
from ifalign.align import make_aligner  # noqa: E402
from ifalign.errors import DegenerateSpectrum  # noqa: E402
from ifalign.harness import AlignmentData, monte_carlo, run_alignment  # noqa: E402
from ifalign.simulate import (  # noqa: E402
    ScenarioConfig,
    generate_truth,
    run_rng,
    simulation_sensor_defaults,
    turning_scenario,
)

METHODS = ("vif", "pif")
REPORT_FIELDS = ("t", "est_deg", "err_deg", "degenerate", "k_eigenvalues")


def _run(outputs, final, name, data, method, report_interval_s, quaternions=False):
    """One run's report arrays, and the final pair of an aligner driven
    over the same data; with ``quaternions``, also its ``estimate().q`` at
    each solved report row."""
    report = run_alignment(data, method, report_interval_s)
    for field in REPORT_FIELDS:
        if getattr(report, field) is not None:  # no err_deg without truth
            outputs[f"{name}/{method}/{field}"] = getattr(report, field)
    aligner = make_aligner(method, data.T)
    stride = round(report_interval_s / data.T)
    q = []
    for k in range(data.n_updates):
        aligner.update(data.interval(k), data.fix(k), data.fix(k + 1))
        if quaternions and (k + 1) % stride == 0:
            try:
                q.append(aligner.estimate().q)
            except DegenerateSpectrum:
                pass
    vectors = {"alpha": aligner.alpha, "beta": aligner.beta}
    if quaternions:
        vectors["q"] = q
    for vector, value in vectors.items():
        outputs[f"{name}/{method}/{vector}"] = np.array(value)
        final[f"{name}/{method}/{vector}"] = [float(x).hex() for x in np.ravel(value)]
    return report


def record(seed, default_s=300.0, dense_s=60.0, turning_s=30.0, replay_s=60.0, mc_s=20.0):
    """The matrix's outputs by name, as arrays, and the final pairs and
    quaternions as ``float.hex`` lists.  The durations are parameters only
    to let a test run a small matrix."""
    outputs, final = {}, {}
    errors = simulation_sensor_defaults(seed)

    for name, cfg, report_interval_s in (
        ("default", ScenarioConfig(duration_s=default_s), 1.0),
        ("dense", ScenarioConfig(duration_s=dense_s), 0.02),
        ("turning", turning_scenario(turning_s), 1.0),
    ):
        data = AlignmentData.from_simulation(generate_truth(cfg), errors, run_rng(seed))
        for method in METHODS:
            _run(outputs, final, name, data, method, report_interval_s,
                 quaternions=(name, method) == ("default", "pif"))

    with tempfile.TemporaryDirectory() as work:
        logs = Path(work) / "logs"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["simulate", "--duration", f"{replay_s:g}", "--gps-interval",
                               "0.5", "--seed", str(seed), "--out", str(logs)])
        if status:
            raise RuntimeError(f"ifalign simulate exited {status}")
        for log in ("imu.csv", "gps.csv", "truth.csv"):
            outputs[f"replay/logs/{log}"] = np.frombuffer((logs / log).read_bytes(), np.uint8)
        for name, truth_path, report_interval_s in (
            ("replay", logs / "truth.csv", 0.02),
            ("replay_no_truth", None, 1.0),
        ):
            data = AlignmentData.from_logs(logs / "imu.csv", logs / "gps.csv", 0.02,
                                           truth_path=truth_path)
            for method in METHODS:
                report = _run(outputs, final, name, data, method, report_interval_s)
                path = Path(work) / f"{name}_{method}.csv"
                report.write_csv(path)
                outputs[f"{name}/{method}/report.csv"] = np.frombuffer(path.read_bytes(),
                                                                       np.uint8)

    cfg = ScenarioConfig(duration_s=mc_s)
    truth = generate_truth(cfg)
    for method in METHODS:
        for jobs in (1, 2):
            summary = monte_carlo(cfg, errors, 6, method, jobs=jobs, truth=truth)
            name = f"mc/{method}/jobs{jobs}"
            for field in ("epochs", "mean_deg", "three_sigma_deg"):
                outputs[f"{name}/{field}"] = getattr(summary, field)
            failed = json.dumps([summary.n_runs, summary.failed]).encode()
            outputs[f"{name}/runs_failed"] = np.frombuffer(failed, np.uint8)
    return outputs, final


def _digest(array):
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def write(seed, outputs, final, out):
    """Write the JSON record to ``out`` and the arrays beside it."""
    doc = {"seed": seed,
           "sha256": {name: _digest(array) for name, array in sorted(outputs.items())},
           "final_hex": dict(sorted(final.items()))}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    np.savez(Path(out).with_suffix(".npz"), **outputs)


def compare(path_a, path_b, rtol=None):
    """One line per output that differs (beyond ``rtol``, for float outputs)."""
    docs = [json.loads(Path(p).read_text())["sha256"] for p in (path_a, path_b)]
    arrays = [np.load(Path(p).with_suffix(".npz")) for p in (path_a, path_b)]
    lines = []
    for name in sorted(docs[0].keys() | docs[1].keys()):
        if name not in docs[0] or name not in docs[1]:
            lines.append(f"{name}: only in {path_a if name in docs[0] else path_b}")
            continue
        if docs[0][name] == docs[1][name]:
            continue
        a, b = arrays[0][name], arrays[1][name]
        if a.shape != b.shape or a.dtype != b.dtype:
            lines.append(f"{name}: shape or type {a.dtype}{a.shape} -> {b.dtype}{b.shape}")
            continue
        is_float = a.dtype.kind == "f"
        a, b = a.astype(float), b.astype(float)
        same_nan = np.array_equal(np.isnan(a), np.isnan(b))
        diff = np.nanmax(np.abs(a - b), initial=0.0) if same_nan else np.inf
        relative = diff / max(np.nanmax(np.abs(a), initial=0.0), np.finfo(float).tiny)
        if rtol is not None and is_float and relative <= rtol:
            continue
        lines.append(f"{name}: max |a - b| {diff:.3g}, relative {relative:.3g}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, help="sensor seed of the record")
    parser.add_argument("--out", type=Path, help="JSON record to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--rtol", type=float, help="relative bound for float outputs")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare, rtol=args.rtol)
        print("\n".join(lines) if lines else "no output differs")
        return 1 if lines else 0
    if args.seed is None or args.out is None:
        parser.error("record needs --seed and --out")
    outputs, final = record(args.seed)
    write(args.seed, outputs, final, args.out)
    print(f"wrote {args.out} and {args.out.with_suffix('.npz')}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
