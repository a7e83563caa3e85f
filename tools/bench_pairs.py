"""Alternating parent/change runs of the benchmark, summarized as a BENCH_*.json.

Run from anywhere, with two git checkouts of the repository, one at the
parent commit and one at the change:

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --seed 9 --pairs align_300s=10,replay_dense=3,montecarlo=3 \
        --out BENCH_5.json

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0`` inside one checkout, which builds what it runs from that
checkout's sources.  Pair ``i`` of a workload runs the parent first when
``i`` is even and the change first when it is odd.  Before its pairs, each
workload runs once with ``--trace 1`` on the change, which checks that
traced outputs equal untraced ones and that every exact call, row and byte
count is the one the workload expects; its correctness, ``FAILED:`` lines
and per-layer metrics go into the output under ``"trace"``.  The output
holds every run's end-to-end metrics, its ``unscaled`` figures and
``speed_factor`` (per repetition) from the ``workload=`` line,
correctness and failure counts, and per metric:

* ``parent``/``change``: each side's median and quartiles;
* ``unscaled``: each side's median of the figure before
  ``perfbench/speed.py`` scales it to nominal host speed, for the metrics
  that have one (``peak_rss_mb`` has none).  The calibration moves with
  the modules a process has loaded, so an import change shifts the scaled
  figure while the unscaled pairs, taken on one host, do not move;
* ``change_wins``: the pairs the change won (ties count for neither side);
* ``gain_rule_holds``: the change wins at least nine tenths of the pairs
  and the medians differ by more than the parent's interquartile range
  (the rule a change that claims a gain must pass);
* ``unscaled_change_wins`` and ``unscaled_gain_rule_holds``: the same two
  judged on each pair's unscaled figures, for the metrics that have them.
  A gain that holds scaled but not unscaled may be the calibration's;
* ``worse_beyond_bound``: the change's median is worse than the parent's
  by more than the metric's ``bound`` in ``BENCHMARK.json``, as a fraction
  of the parent's median;
* ``unresolved``: the parent's interquartile range over its median is
  wider than that ``bound``, so the runs spread too widely to tell.

A change that claims no gain must leave every metric neither
``worse_beyond_bound`` nor ``unresolved``.  Progress goes to standard
error.

The output is rewritten after every pair, so an interrupted session keeps
the pairs it finished.  A run, traced or not, that exits nonzero, or whose
result is not ``correct`` or counts failed operations, stops the session:
its exit code and the tail of its standard error, or its result counts and
``FAILED:`` lines, go into the output under ``"failed_run"``, and the
script exits with status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class RunFailed(Exception):
    """A benchmark run exited nonzero or was incorrect; ``record`` says how."""

    def __init__(self, reason, record):
        super().__init__(reason)
        self.record = record


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run in ``checkout``: its result and environment records.

    The result gains ``failed_lines``, the run's ``FAILED:`` lines, and
    ``notes``, the JSON of its ``workload=`` line.  Raises
    :class:`RunFailed` if the run exits nonzero, is not correct or counts
    failed operations.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode:
        raise RunFailed(f"exit code {done.returncode}",
                        {"returncode": done.returncode,
                         "stderr_tail": done.stderr.splitlines()[-20:]})
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["failed_lines"] = [line.strip() for line in lines
                              if line.strip().startswith("FAILED:")]
    result["notes"] = next(json.loads(line.split(" ", 3)[3]) for line in lines
                           if line.startswith("workload="))
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"correct={result['correct']} failed={result['failed']}",
                        {k: result[k] for k in ("correct", "attempted", "failed",
                                                "failed_lines")})
    environment = next(json.loads(line.split(":", 1)[1]) for line in lines
                       if line.startswith("environment:"))
    return result, environment


def quartiles(values):
    if len(values) == 1:  # statistics.quantiles needs two points
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(parent, change, sign):
    """The pairs ``zip(parent, change)`` that the change won (ties count for
    neither side), each side's quartiles, and whether the gain rule holds.
    ``sign`` is 1 where higher is better, -1 where lower is."""
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    stats = {"parent": quartiles(parent), "change": quartiles(change)}
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
    return wins, stats, wins >= 0.9 * len(parent) and gain > iqr


def summarize(runs, metrics):
    summary = {}
    for name, metric in metrics.items():
        better, bound = metric["better"], metric["bound"]
        sign = 1.0 if better == "higher" else -1.0
        wins, stats, holds = judge(
            [r["parent"]["metrics"][name]["value"] for r in runs],
            [r["change"]["metrics"][name]["value"] for r in runs], sign)
        unscaled = {}
        if name in runs[0]["parent"]["unscaled"]:
            unscaled_wins, unscaled_stats, unscaled_holds = judge(
                [r["parent"]["unscaled"][name] for r in runs],
                [r["change"]["unscaled"][name] for r in runs], sign)
            stats["unscaled"] = {side: unscaled_stats[side]["median"]
                                 for side in ("parent", "change")}
            unscaled = {"unscaled_change_wins": unscaled_wins,
                        "unscaled_gain_rule_holds": unscaled_holds}
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        parent_median = stats["parent"]["median"]
        gain = sign * (stats["change"]["median"] - parent_median)
        summary[name] = {
            "better": better,
            "bound": bound,
            **stats,
            "change_wins": wins,
            "pairs": len(runs),
            "median_ratio": stats["change"]["median"] / parent_median,
            "gain_rule_holds": holds,
            **unscaled,
            "worse_beyond_bound": -gain > bound * abs(parent_median),
            "unresolved": iqr > bound * abs(parent_median),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", required=True,
                        help="comma-separated workload=count, e.g. align_300s=10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    plan = [(name, int(count)) for name, count in
            (item.split("=") for item in args.pairs.split(","))]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    environments = {}
    traces = {}
    workloads = {}

    def write(failed_run=None):
        record = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 0",
            "trace_command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                             f"--seconds {args.seconds:g} --trace 1",
            **{side: {k: env[k] for k in ("commit", "src_sha256")}
               for side, env in environments.items()},
        }
        if "change" in environments:
            record.update({k: environments["change"][k]
                           for k in ("nproc", "cpu", "python", "numpy", "scipy", "seed")})
        record["workloads"] = {
            name: {"trace": traces[name], "summary": summarize(runs, metrics), "runs": runs}
            for name, runs in workloads.items() if runs
        }
        if failed_run is not None:
            record["failed_run"] = failed_run
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload, count in plan:
        started = time.monotonic()
        try:
            result, environments["change"] = run_once(
                checkouts["change"], workload, args.seed, args.seconds, trace=1
            )
        except RunFailed as failure:
            write({"workload": workload, "trace": 1, "side": "change", **failure.record})
            print(f"{workload} traced change: failed ({failure}); wrote {args.out}",
                  file=sys.stderr)
            return 1
        traces[workload] = {k: result[k] for k in ("correct", "attempted", "failed",
                                                   "failed_lines", "metrics")}
        print(f"{workload} traced change: correct={result['correct']} "
              f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
        runs = workloads[workload] = []
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                started = time.monotonic()
                try:
                    result, environment = run_once(checkouts[side], workload, args.seed,
                                                   args.seconds)
                except RunFailed as failure:
                    write({"workload": workload, "pair": i, "side": side,
                           **failure.record})
                    print(f"{workload} pair {i} {side}: failed ({failure}); "
                          f"wrote {args.out}", file=sys.stderr)
                    return 1
                environments[side] = environment
                pair[side] = {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": result["metrics"],
                    "unscaled": result["notes"]["unscaled"],
                    "speed_factor": result["notes"]["speed_factor"],
                }
                print(f"{workload} pair {i} {side}: correct={result['correct']} "
                      f"updates_per_s={result['metrics']['updates_per_s']['value']:.0f} "
                      f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
            runs.append(pair)
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
