"""Monte-Carlo accuracy record of both aligners on fixed scenarios.

    python3 tools/accuracy.py --out ACCURACY.json

For each scenario, with the GPS lever arm on (the sensor default, 1 m per
axis) and off, runs :func:`ifalign.harness.monte_carlo` for ``vif`` and
``pif`` and writes the mean and 3-sigma roll, pitch and yaw error at each
epoch.  The scenarios, epochs, run count and seed are fixed here, before
measuring, and the seed is held out: no seed used while tuning a change
goes into the record.  Results do not depend on the number of worker
processes, so two runs on one host write identical files.  It gates
nothing: a change that moves the paper's numbers shows in the file's diff.
A progress table goes to standard error.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ifalign.harness import monte_carlo  # noqa: E402
from ifalign.simulate import (  # noqa: E402
    ScenarioConfig,
    generate_truth,
    simulation_sensor_defaults,
    turning_scenario,
)

RUNS = 100
SEED = 1000
JOBS = 2
METHODS = ("vif", "pif")
SCENARIOS = (
    ("turning_30s", turning_scenario(30.0), (5.0, 10.0, 30.0)),
    ("default_300s", ScenarioConfig(), (10.0, 60.0, 300.0)),
)


def record():
    """Every scenario's batches, in a fixed order, as a JSON-ready dict."""
    batches = []
    errors = simulation_sensor_defaults(SEED)
    for name, cfg, epochs in SCENARIOS:
        truth = generate_truth(cfg)
        for lever_arm in (True, False):
            sensors = errors if lever_arm else errors.without_lever_arm()
            for method in METHODS:
                summary = monte_carlo(cfg, sensors, RUNS, method, epochs=epochs,
                                      jobs=JOBS, truth=truth)
                rows = []
                for i, epoch in enumerate(summary.epochs.tolist()):
                    row = {"epoch_s": epoch}
                    for axis, label in enumerate(("roll", "pitch", "yaw")):
                        row[f"{label}_mean_deg"] = float(summary.mean_deg[i, axis])
                        row[f"{label}_3sigma_deg"] = float(summary.three_sigma_deg[i, axis])
                    rows.append(row)
                    print(f"{name:13} lever_arm={lever_arm!s:5} {method} {epoch:5g} s  "
                          f"yaw {row['yaw_mean_deg']:+.3f} +- {row['yaw_3sigma_deg']:.3f} deg",
                          file=sys.stderr)
                batches.append({
                    "scenario": name,
                    "duration_s": cfg.duration_s,
                    "lever_arm": lever_arm,
                    "method": method,
                    "n_runs": summary.n_runs,
                    "failed": summary.failed,
                    "epochs": rows,
                })
    return {"runs": RUNS, "seed": SEED, "units": "deg", "batches": batches}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=Path, default=ROOT / "ACCURACY.json")
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
