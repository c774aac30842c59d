"""Alternating host-clock pairs of two source trees on the e2e benchmark.

Usage: python tools/host_ab.py PARENT_TREE CHANGE_TREE
           [--workload W ...] [--seed S] [--seconds 10] [--pairs 10]

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds
10 --trace 0`` once in each tree, the parent first in even pairs and the
change first in odd ones, and reads the end-to-end metrics from the
last line of output.  Per workload it prints, for every metric, each
side's median and quartiles, the pairs the change won (ties count for
neither) and the change's median against the parent's:

* the *gain rule* (choosing-metrics §8): the change wins at least nine
  tenths of the pairs and its median is better than the parent's by
  more than the parent's interquartile range;
* the *bound*: the change's median is no worse than the parent's by
  more than the metric's bound in the change tree's ``BENCHMARK.json``.

A simulated metric (``sim_*``, ``disk_ios_per_op``) is exact per seed,
so it is printed once a side, as parent -> change with its relative
change and whether it keeps its bound; a side whose runs disagree on
one is flagged.  Every run's value of a host metric is printed too.  A
workload whose operations fail on either side is reported as such.
Runs are sequential; one pair of ``read_stream`` takes about 30 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``--trace 0`` run of the e2e benchmark in ``tree``: its last
    JSON line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:  # one pair: the run is its own median
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(workload: str, runs: dict[str, list[dict]], bounds: dict) -> None:
    pairs = len(runs["change"])
    print(f"== {workload}: {pairs} pairs")
    for side in ("parent", "change"):
        failed = [run["failed"] for run in runs[side]]
        if any(failed):
            print(f"   {side}: failed operations per run {failed}")
    for metric, (better, bound) in bounds.items():
        parent = [run["metrics"][metric]["value"] for run in runs["parent"]]
        change = [run["metrics"][metric]["value"] for run in runs["change"]]
        sign = 1 if better == "lower" else -1
        if metric.startswith("sim_") or metric == "disk_ios_per_op":
            # Simulated metrics are exact per seed: one value a side.
            p, c = parent[0], change[0]
            within = sign * (c - p) <= bound * abs(p)
            print(
                f"   {metric:16} parent {p:.6g} -> change {c:.6g}  "
                f"{(c - p) / p if p else 0.0:+.2%}  sim, "
                f"{'identical' if p == c else 'changed'}  "
                f"bound {bound:.0%} {'kept' if within else 'EXCEEDED'}"
            )
            if len(set(parent)) > 1 or len(set(change)) > 1:
                print(f"   {'':16} NOT EXACT: runs of one side differ")
            continue
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gain = wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1
        within = sign * (cm - pm) <= bound * abs(pm)
        print(
            f"   {metric:16} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{(cm - pm) / pm:+.1%}  wins {wins}/{pairs}  "
            f"gain rule {'holds' if gain else 'fails'}  "
            f"bound {bound:.0%} {'kept' if within else 'EXCEEDED'}"
        )
        for side, values in (("parent", parent), ("change", change)):
            print(f"   {'':16} {side} runs " + " ".join(f"{v:.4g}" for v in values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in spec["end_to_end"]
    }
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree, workload, args.seed, args.seconds))
        report(workload, runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
