"""Steadiness report: run one workload N times and print each metric's spread.

Usage, from the root of a checkout::

    python3 flowbench/steadiness.py --workload paper_flow --runs 10

Each run gets its own seed (``--first-seed``, ``--first-seed + 1``, ...).
For every metric the report prints the median over the runs and the
quartile spread -- ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)`` -- and, for the timing metrics, the
same for the raw (unnormalized) medians from each run's detail record, which
shows what the probe normalization removed.  A spread above the metric's
bound in ``BENCHMARK.json`` is flagged.  ``--save`` keeps every run's two
output lines, one JSON object per run, for ``diff.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Metrics whose raw (unnormalized) median the detail record carries.
RAW_METRICS = ("op_p50_ms", "setup_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run failed (exit {done.returncode}): "
                           f"{done.stderr[-1000:]}")
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values) -> tuple:
    """(median, quartile spread as a share of the median)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / middle if middle else 0.0


def report(runs, bounds) -> list:
    """Report lines; spreads above a metric's bound are flagged."""
    lines = [f"{len(runs)} runs; correct in "
             f"{sum(r['result']['correct'] for r in runs)}"]
    names = list(runs[0]["result"]["metrics"])
    width = max(len(name) for name in names)
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        middle, share = spread(values)
        line = (f"{name:<{width}}  median {middle:14.6g} {unit:<6} "
                f"spread {share * 100:6.2f}%")
        if name in RAW_METRICS:
            raw = [r["detail"]["raw"][name] for r in runs]
            raw_middle, raw_share = spread(raw)
            line += (f"   raw median {raw_middle:12.6g} "
                     f"spread {raw_share * 100:6.2f}%")
        bound = bounds.get(name)
        if bound is not None:
            line += f"   bound {bound * 100:.0f}%"
            if share > bound:
                line += "   SPREAD ABOVE BOUND"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run to this JSON file")
    args = parser.parse_args(argv)
    runs = []
    for index in range(args.runs):
        runs.append(run_once(args.workload, args.first_seed + index,
                             args.seconds, args.trace))
        print(f"run {index + 1}/{args.runs} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(runs, handle)
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark["end_to_end"]}
    print("\n".join(report(runs, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
