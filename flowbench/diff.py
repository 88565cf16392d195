"""Per-layer diff of two traced benchmark outputs.

Usage, from the root of a checkout::

    python3 flowbench/steadiness.py --workload paper_flow --runs 5 --trace 1 --save base.json
    # ... change the program ...
    python3 flowbench/steadiness.py --workload paper_flow --runs 5 --trace 1 --save new.json
    python3 flowbench/diff.py base.json new.json

Each input is a file saved by ``steadiness.py --save`` (several runs) or the
captured standard output of one ``run.py`` run.  For every metric the diff
prints the base median, the new median and their ratio, and flags a move
larger than the larger of the two sides' quartile spreads (with a single run
on a side, its spread is zero and every move is flagged).  Every ratio is
given with its base.
"""

from __future__ import annotations

import argparse
import json
import sys

from steadiness import spread


def load_runs(path: str) -> list:
    """Metric dictionaries of every run in a saved file or a captured run."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        runs = json.loads(text)
        if isinstance(runs, list):
            return [run["result"]["metrics"] for run in runs]
    except json.JSONDecodeError:
        pass
    last = text.strip().splitlines()[-1]
    return [json.loads(last)["metrics"]]


def compare(base_runs: list, new_runs: list) -> list:
    lines = [f"base: {len(base_runs)} runs, new: {len(new_runs)} runs",
             f"{'metric':<42} {'base':>14} {'new':>14} {'new/base':>9}"]
    for name in base_runs[0]:
        if name not in new_runs[0]:
            lines.append(f"{name:<42} missing in new")
            continue
        unit = base_runs[0][name]["unit"]
        base, base_spread = spread([run[name]["value"] for run in base_runs])
        new, new_spread = spread([run[name]["value"] for run in new_runs])
        ratio = new / base if base else (1.0 if new == base else float("inf"))
        line = (f"{name:<42} {base:14.6g} {new:14.6g} {ratio:9.3f} "
                f"{unit}")
        if abs(ratio - 1.0) > max(base_spread, new_spread):
            line += (f"   MOVED (beyond spread "
                     f"{max(base_spread, new_spread) * 100:.1f}%)")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    print("\n".join(compare(load_runs(args.base), load_runs(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
