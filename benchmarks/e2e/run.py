"""The repository's one benchmark: five workloads on two clocks.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--rounds R]
        [--scale full|smoke] [--out F] [--trace-out F] [--selfcheck]

prints every metric by name with its unit, clock, direction and bound,
and checks the program's outputs.  Each workload is measured in a child
process of its own (``measure.py``, ``PYTHONHASHSEED=0``) so the
program's process-global memos start cold per workload.

The benchmark driver calls the same file as

    run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output: with ``--trace 0`` the
gated end-to-end metrics from untraced rounds, with ``--trace 1`` the
per-layer metrics from one traced round.

See README.md beside this file for the metric catalogue and the
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
DEFAULT_SEED = 1987
DEFAULT_ROUNDS = 5
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, scale: str, *, rounds: int = 0,
              seconds: float = 0.0, layers: bool = False,
              trace_out: str | None = None) -> dict:
    """Measure one workload in a fresh interpreter; returns its document."""
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--seed", str(seed), "--scale", scale,
               "--rounds", str(rounds), "--seconds", str(seconds)]
    if layers:
        command.append("--layers")
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode:
        raise SystemExit(f"{workload}: measure.py exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(document: dict) -> dict:
    """A child's document as name -> {value, unit, clock, ...} rows.

    Host timings are the median of the rounds (quartiles beside them);
    simulated numbers are exact and the same in every round."""
    rows = {}
    for metric in catalog.END_TO_END:
        row = {"unit": metric.unit, "clock": metric.clock,
               "better": metric.better, "bound": metric.bound}
        if metric.clock == "host":
            values = document["host"][metric.name]
            row["value"] = statistics.median(values)
            row["rounds"] = values
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row["q1"], row["q3"] = q1, q3
        else:
            row["value"] = document["simulated"][metric.name]
        rows[metric.name] = row
    return rows


def report(document: dict, rows: dict) -> None:
    samples = document["samples"]
    print(f"\n== {document['workload']}  seed {document['seed']}  "
          f"scale {document['scale']}  {document['rounds']} timed rounds  "
          f"({samples['ops']} ops, {samples['sync_ops']} sync, "
          f"{samples['recoveries']} recoveries per round)")
    print(f"   {catalog.WORKLOADS[document['workload']]}")
    for name, row in rows.items():
        value = row["value"]
        shown = "null" if value is None else f"{value:.6g}"
        spread = (f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                  if "q1" in row else "")
        bound = (f"bound {row['bound']:.0%}" if row["bound"] is not None
                 else "no driver bound")
        print(f"   {name:<18} {shown:>12} {row['unit']:<6} [{row['clock']}] "
              f"{row['better']} is better, {bound}{spread}")
    if document["per_layer"]:
        print("   per layer (one traced round):")
        for name, value in document["per_layer"].items():
            print(f"     {name:<34} {value:.6g}")
    for problem in document["problems"]:
        print(f"   PROBLEM: {problem}")


def correct(document: dict) -> bool:
    return not document["problems"] and document["failed"] == 0 \
        and document["simulated"]["lost_acked_files"] == 0


def contract_line(document: dict, rows: dict, traced: bool) -> str:
    """What the driver parses: the gated metrics, or the per-layer ones."""
    if traced:
        extras = {f"e2e.{m.name}": rows[m.name]["value"] for m in catalog.UNGATED}
        values = {**document["per_layer"], **extras}
        metrics = {m.name: {"value": values[m.name] or 0.0, "unit": m.unit}
                   for m in catalog.PER_LAYER}
    else:
        metrics = {m.name: {"value": rows[m.name]["value"], "unit": m.unit}
                   for m in catalog.GATED}
    return json.dumps({
        "correct": correct(document),
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    })


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def envelope(args, results: dict) -> dict:
    return {
        "benchmark": "e2e",
        "schema_version": 1,
        "command": "python benchmarks/e2e/run.py " + " ".join(sys.argv[1:]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "rounds": args.rounds,
        "scale": args.scale,
        "workloads": {
            name: {
                "why": catalog.WORKLOADS[name],
                "correct": correct(document),
                "samples": document["samples"],
                "end_to_end": rows,
                "host_raw": document["host_raw"],
                "per_layer": document["per_layer"],
                "trace": document.get("trace"),
                "problems": document["problems"],
            }
            for name, (document, rows) in results.items()
        },
    }


def selfcheck(args, names: list[str]) -> int:
    """Two sets of runs of the same commit, back to back: simulated
    metrics must repeat exactly, host metrics within their bounds."""
    sets = []
    for number in (1, 2):
        print(f"-- set {number}")
        sets.append({
            name: summarise(run_child(name, args.seed, args.scale,
                                      rounds=args.rounds))
            for name in names
        })
    failures = 0
    for name in names:
        print(f"\n== {name}")
        for metric in catalog.END_TO_END:
            first = sets[0][name][metric.name]["value"]
            second = sets[1][name][metric.name]["value"]
            if metric.clock == "sim":
                ok = first == second
                shown = "identical" if ok else f"{first!r} != {second!r}"
            else:
                difference = abs(second - first) / first
                ok = difference <= metric.bound
                shown = f"{difference:.1%} (bound {metric.bound:.0%})"
            failures += not ok
            print(f"   {metric.name:<18} {'ok  ' if ok else 'FAIL'} {shown}")
    print(f"\nselfcheck: {failures} metric(s) outside their bounds")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="timed rounds per workload")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the result envelope (JSON) here")
    parser.add_argument("--trace-out",
                        help="write the traced round's spans (JSONL) here; "
                             "needs --workload")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them")
    parser.add_argument("--seconds", type=float,
                        help="driver: seconds of timed rounds instead of --rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver: 0 end-to-end metrics only, 1 per-layer "
                             "metrics; prints the driver's JSON line last")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    if args.trace_out and not args.workload:
        parser.error("--trace-out needs --workload")
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if args.selfcheck:
        return selfcheck(args, names)

    results = {}
    for name in names:
        if args.trace == 1:
            # One untraced round is the reference the traced one is
            # compared with; the end-to-end numbers come from --trace 0.
            document = run_child(name, args.seed, args.scale, rounds=1,
                                 layers=True, trace_out=args.trace_out)
        elif args.trace == 0:
            document = run_child(
                name, args.seed, args.scale,
                seconds=args.seconds or catalog.RUN_SECONDS)
        else:
            document = run_child(name, args.seed, args.scale,
                                 rounds=args.rounds, layers=True,
                                 trace_out=args.trace_out)
        rows = summarise(document)
        report(document, rows)
        results[name] = (document, rows)
    if args.out:
        Path(args.out).write_text(json.dumps(envelope(args, results), indent=1) + "\n")
    all_correct = all(correct(document) for document, _ in results.values())
    if args.trace is not None:
        document, rows = results[args.workload]
        print(contract_line(document, rows, traced=bool(args.trace)))
        return 0
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
