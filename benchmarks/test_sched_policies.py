"""I/O scheduler policy comparison — the repo's first perf baseline.

Runs the bulk-update writeback workload, the MakeDo build, and an
adversarial starvation pattern under each scheduler policy
(fifo / scan / deadline) and writes the results to
``BENCH_sched.json`` so the performance trajectory has a datapoint
to diff against.

The starvation workload exists because bulk-update and MakeDo never
let a queued deadline expire — scan and deadline produce identical
numbers on them.  Starvation buries an urgent (deadline-carrying)
write far behind the head under a burst of writebacks near it and
lets the deadline age out before the flush: the elevator services the
nearby writebacks first and starves the urgent write, while deadline
aging preempts the sweep and bounds its lateness.

Environment knobs (used by the CI bench-smoke job to run tiny):

* ``BENCH_SCHED_OUT``     — output path (default ``BENCH_sched.json``
  in the repo root),
* ``BENCH_SCHED_SCALE``   — ``full`` (default) or ``small``,
* ``BENCH_SCHED_FILES``   — files in the bulk-update workload,
* ``BENCH_SCHED_MODULES`` — modules in the MakeDo build.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.fsd import FSD, PAPER
from repro.disk.disk import SimDisk
from repro.disk.sched import IoScheduler
from repro.harness.adapters import FsdAdapter
from repro.harness.batches import measure_makedo
from repro.harness.report import Table
from repro.harness.runner import drain_clock
from repro.harness.scenarios import FULL, SMALL, populate
from repro.obs.instrument import instrument
from repro.workloads.generators import payload

POLICIES = ("fifo", "scan", "deadline")

#: starvation rounds: one urgent write buried per round.
STARVE_ROUNDS = 12
#: opportunistic writebacks piled near the head each round.
STARVE_WRITEBACKS = 8

SCALE = SMALL if os.environ.get("BENCH_SCHED_SCALE") == "small" else FULL
BULK_FILES = int(os.environ.get("BENCH_SCHED_FILES", "120"))
MAKEDO_MODULES = int(os.environ.get("BENCH_SCHED_MODULES", "30"))
OUT_PATH = Path(
    os.environ.get(
        "BENCH_SCHED_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_sched.json",
    )
)


def _mounted(sched: str):
    """The paper's mount (``PAPER``) under ``sched``: the
    policies are compared on the page-per-request build of Table 3, and
    ``benchmarks/test_data_cache.py`` checks its paper row against the
    makedo/fifo numbers written here."""
    disk = SimDisk(geometry=SCALE.geometry)
    FSD.format(disk, SCALE.fsd_params)
    kit = instrument(disk)
    fs = FSD.mount(disk, obs=kit.obs, options=PAPER, sched=sched)
    return disk, fs, FsdAdapter(fs), kit.obs


def _metrics(disk, io, obs) -> dict:
    snap = obs.snapshot()
    st = disk.stats
    ss = io.sched_stats
    return {
        "total_ios": st.total_ios,
        "writes": st.writes,
        "reads": st.reads,
        "seek_ms": round(st.seek_ms, 3),
        "rotational_ms": round(st.rotational_ms, 3),
        "transfer_ms": round(st.transfer_ms, 3),
        "elapsed_ms": round(disk.clock.now_ms, 3),
        "sched": {
            "submitted": ss.submitted,
            "dispatched": ss.dispatched,
            "coalesced": snap.counter("sched.coalesced_writes"),
            "flushes": snap.counter("sched.flushes"),
            "read_flushes": snap.counter("sched.read_flushes"),
            "max_queue_depth": ss.max_queue_depth,
            "deadline_dispatches": ss.deadline_dispatches,
            "deadline_misses": ss.deadline_misses,
            "max_lateness_ms": round(ss.max_lateness_ms, 3),
        },
    }


def bulk_update(sched: str) -> dict:
    """Populate then rewrite every file: writeback-heavy, the workload
    where dispatch order matters most."""
    disk, fs, adapter, obs = _mounted(sched)
    names = populate(adapter, BULK_FILES)
    for index, name in enumerate(names):
        handle = fs.open(name)
        fs.write(handle, 0, payload(900, 500 + index))
    fs.force()
    fs.unmount()
    # Snapshot after unmount: the controlled shutdown's writeback is
    # where queued dispatch differs most between policies.
    return _metrics(disk, fs.io, obs)


def makedo(sched: str) -> dict:
    """The paper's MakeDo software-build workload."""
    disk, fs, adapter, obs = _mounted(sched)
    ios, elapsed = measure_makedo(
        disk, adapter, modules=MAKEDO_MODULES
    )
    fs.unmount()
    metrics = _metrics(disk, fs.io, obs)
    metrics["makedo_ios"] = ios
    metrics["makedo_ms"] = round(elapsed, 3)
    return metrics


def starvation(sched: str) -> dict:
    """Adversarial aging pattern, run on a raw scheduler (no volume —
    the writes land on arbitrary sectors, which would corrupt FSD
    metadata on a mounted image).

    Each round pins the head near the top of the volume with a read,
    queues one urgent write with a 5 ms deadline far behind the head,
    piles opportunistic writebacks just below the head, then idles
    long enough for the deadline to expire before flushing.  The
    elevator's sweep services the nearby writebacks first, so under
    ``scan`` the urgent write's lateness grows by the whole burst's
    service time; ``deadline`` dispatches it first and its lateness
    stays at the idle wait alone.
    """
    disk = SimDisk(geometry=SCALE.geometry)
    kit = instrument(disk)
    io = IoScheduler(disk, policy=sched, obs=kit.obs)
    geometry = disk.geometry
    top = geometry.total_sectors - geometry.total_sectors // 8
    sector = bytes(geometry.sector_bytes)
    for round_no in range(STARVE_ROUNDS):
        io.read(top, 1)  # pin the head high before queueing
        io.submit_write(
            64 + round_no,  # far behind the head: last in the sweep
            [sector],
            deadline_ms=disk.clock.now_ms + 5.0,
        )
        base = top - 4096 + round_no * 64
        for k in range(STARVE_WRITEBACKS):
            # Spaced 8 sectors apart so they cannot coalesce: each is
            # its own rotational wait, the starvation the urgent write
            # sits behind under the elevator.
            io.submit_write(base + k * 8, [sector])
        drain_clock(disk.clock, 50.0)  # the urgent write ages, queued
        io.flush()
    return _metrics(disk, io, kit.obs)


def test_sched_policies(once):
    def run():
        results = {"bulk_update": {}, "makedo": {}, "starvation": {}}
        for sched in POLICIES:
            results["bulk_update"][sched] = bulk_update(sched)
            results["makedo"][sched] = makedo(sched)
            results["starvation"][sched] = starvation(sched)
        return results

    results = once(run)

    document = {
        "benchmark": "sched_policies",
        "scale": SCALE.name,
        "bulk_files": BULK_FILES,
        "makedo_modules": MAKEDO_MODULES,
        "workloads": results,
    }
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    table = Table("I/O scheduler policies (bulk-update / MakeDo / starvation)")
    for sched in POLICIES:
        bulk = results["bulk_update"][sched]
        build = results["makedo"][sched]
        starve = results["starvation"][sched]
        table.add(
            sched,
            f"bulk seek {bulk['seek_ms']:.0f} ms, "
            f"{bulk['total_ios']} IOs, "
            f"maxq {bulk['sched']['max_queue_depth']}, "
            f"coalesced {bulk['sched']['coalesced']:g}",
            f"makedo {build['makedo_ios']} IOs, "
            f"{build['makedo_ms']:.0f} ms",
            note=(
                f"starve lateness {starve['sched']['max_lateness_ms']:.0f} ms"
                f", misses {starve['sched']['deadline_misses']}"
            ),
        )
    table.print()
    print(f"wrote {OUT_PATH}")

    fifo = results["bulk_update"]["fifo"]
    scan = results["bulk_update"]["scan"]
    # The acceptance criterion: the elevator beats program order on
    # the writeback-heavy workload, and the win is attributable to
    # actual queueing + coalescing, not noise.
    assert scan["seek_ms"] < fifo["seek_ms"]
    assert scan["sched"]["max_queue_depth"] > 1
    assert scan["sched"]["coalesced"] >= 1
    assert fifo["sched"]["max_queue_depth"] == 0
    # fifo: every submission dispatched immediately, nothing merged.
    assert fifo["sched"]["submitted"] == fifo["sched"]["dispatched"]

    # The starvation workload is where scan and deadline finally
    # diverge: every urgent write expires while queued under both
    # policies (the forced idle wait), but the elevator then starves
    # it behind the writeback burst while deadline aging preempts the
    # sweep and caps the damage.
    scan_sv = results["starvation"]["scan"]
    dl_sv = results["starvation"]["deadline"]
    assert dl_sv["sched"]["deadline_dispatches"] == STARVE_ROUNDS
    assert dl_sv["sched"]["deadline_misses"] == STARVE_ROUNDS
    assert scan_sv["sched"]["max_lateness_ms"] > dl_sv["sched"]["max_lateness_ms"] > 0
    # fifo dispatches on submit — nothing ever queues, so nothing ages.
    assert results["starvation"]["fifo"]["sched"]["deadline_dispatches"] == 0
