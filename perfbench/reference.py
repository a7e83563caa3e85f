"""Record the reference outputs that ``est_dev_deg`` is measured against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/reference.py --seeds 0-10

For every workload and seed it runs the workload's timed part exactly as a
benchmark repetition does and stores the compared outputs (every report
row's ``est_deg`` for both methods on ``align_300s`` and ``replay_dense``;
the Monte-Carlo mean and 3-sigma at each epoch) in
``perfbench/reference/<workload>.npz`` under keys ``seed<N>.<output>``.
"""

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-10"),
                        help="inclusive range, e.g. 0-10")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    workdir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    jobs = len(os.sched_getaffinity(0))
    try:
        for workload in workloads.WORKLOADS.values():
            arrays = {}
            for seed in args.seeds:
                workloads.prepare(workload, seed, workdir)
                state = workloads.setup(workload, seed, workdir)
                outputs, failures, _, _ = workloads.run(workload, state, workdir, jobs)
                if failures:
                    raise SystemExit(f"{workload.name} seed {seed} failed: {failures}")
                for key in workloads.reference_keys(workload):
                    arrays[f"seed{seed}.{key}"] = outputs[key]
                print(f"{workload.name} seed {seed} recorded", flush=True)
            np.savez_compressed(workloads.REFERENCE_DIR / f"{workload.name}.npz", **arrays)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
