"""The ``python -m repro crashcheck`` front end.

Runs a named scenario's crash-point sweep and prints a progress line,
per-violation details and a coverage summary.  Exits non-zero iff any
oracle failed at any explored crash point.
"""

from __future__ import annotations

import sys
import time

from repro.crashcheck.engine import explore
from repro.crashcheck.scenarios import SCENARIOS, get_scenario
from repro.mount_cli import add_mount_arguments, mount_options
from repro.obs import Observer
from repro.obs.instrument import instrument


def add_subparser(sub) -> None:
    """Register the ``crashcheck`` subcommand on an argparse subparsers
    object (called from :mod:`repro.__main__`)."""
    p = sub.add_parser(
        "crashcheck",
        help="exhaustive crash-point exploration with recovery oracles",
        description=(
            "Record a workload scenario once, then crash it at every "
            "I/O boundary (and every torn-write variant), remount "
            "through real recovery and check structural + semantic "
            "recovery oracles."
        ),
    )
    p.add_argument(
        "--scenario",
        default="quickstart",
        choices=sorted(SCENARIOS),
        help="workload scenario to sweep (default: quickstart)",
    )
    p.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="bound the sweep to N evenly spaced crash points "
        "(default: explore all of them)",
    )
    p.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print recovery metrics aggregated across all mounts",
    )
    # The mount of the recorded run and of every post-crash remount.
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_crashcheck)


def _print_recovery_metrics(obs: Observer) -> None:
    """Per-sweep recovery totals: what all those remounts replayed."""
    snap = obs.snapshot()
    mounts = snap.counter("recovery.mounts")
    print(f"recovery metrics across {mounts:g} mounts:")
    for name in (
        "recovery.records_replayed",
        "recovery.pages_replayed",
        "recovery.pages_skipped",
        "recovery.vam_rebuilds",
        "recovery.vam_rebuild_entries",
        "recovery.vam_sweep_pages",
        "recovery.vam_sweep_mismatch",
        "recovery.cache_warm_pages",
        "vam.loads",
    ):
        print(f"  {name:<30} {snap.counter(name):g}")
    phases: dict[str, tuple[int, float]] = {}
    for record in obs.span_records():
        if not record.name.startswith("recovery."):
            continue
        count, total = phases.get(record.name, (0, 0.0))
        phases[record.name] = (count + 1, total + record.duration_ms)
    for name in sorted(phases):
        count, total = phases[name]
        print(
            f"  {name:<30} {count} spans, "
            f"{total:.1f} simulated ms total"
        )


def cmd_crashcheck(args) -> int:
    """Run the sweep (or ``--list`` scenarios); non-zero on violations."""
    if args.list:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            print(f"{name:<12} {scenario.description}")
        return 0

    scenario = get_scenario(args.scenario)
    show_progress = not args.quiet and sys.stderr.isatty()

    def progress(done: int, total: int) -> None:
        if show_progress and (done % 25 == 0 or done == total):
            print(
                f"\r  crashcheck [{scenario.name}] {done}/{total} points",
                end="" if done < total else "\n",
                file=sys.stderr,
                flush=True,
            )

    obs = instrument(metrics=args.metrics).obs
    started = time.monotonic()
    summary = explore(
        scenario,
        max_points=args.max_points,
        progress=progress,
        obs=obs,
        options=mount_options(args),
    )
    elapsed = time.monotonic() - started

    if args.metrics:
        _print_recovery_metrics(obs)

    for violation in summary.violations:
        print(f"VIOLATION {violation}")
    print(
        f"crashcheck [{summary.scenario}]: "
        f"{summary.checked} crash points checked "
        f"({summary.deduplicated} deduplicated, "
        f"{summary.selected} selected of {summary.candidates} candidates "
        f"across {summary.io_boundaries} I/O boundaries) "
        f"in {elapsed:.1f}s"
    )
    if summary.ok:
        print("all recovery oracles passed")
        return 0
    print(f"{len(summary.violations)} oracle violation(s)")
    return 1
