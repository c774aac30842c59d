#!/usr/bin/env python3
"""Crash-recovery shootout: FSD log redo vs CFS scavenge vs BSD fsck.

Run:  python examples/crash_recovery_demo.py [--small]

Builds a moderately full volume on each of the three file systems,
crashes it mid-flight (including a torn multi-sector write, per the
paper's weak-atomic failure model), then recovers:

* FSD replays its redo log and rebuilds the VAM from the name table —
  seconds (paper: 1–25 s).
* CFS must scavenge: read every label on the disk and rebuild the
  name table — the better part of an hour (paper: 3600+ s).
* 4.3 BSD runs fsck over every inode and directory (paper: ~7 min).

Also demonstrates the single-sector-failure robustness: a damaged
name-table sector is repaired transparently from its twin copy.
"""

import sys

from repro import FSD, SimulatedCrash, scavenge, fsck
from repro.harness import FULL, SMALL, measure
from repro.harness.scenarios import cfs_volume, ffs_volume, fsd_volume, populate
from repro.workloads.generators import payload


def fsd_demo(scale) -> None:
    print("=== FSD (logging + group commit) ===")
    disk, fs, adapter = fsd_volume(scale)
    populate(adapter, scale.recovery_files)
    for index in range(20):
        fs.create(f"work/f-{index:02d}", payload(1_200, index))
    fs.force()

    # Crash *inside* the very next multi-sector log write: the paper's
    # torn-write model persists a prefix and damages 1-2 sectors.
    fs.create("work/in-flight", b"doomed")
    disk.faults.arm_crash(after_ios=0, surviving_sectors=3, damage_tail=2)
    try:
        fs.force()
        raise AssertionError("the armed crash should have fired")
    except SimulatedCrash as crash:
        print(f"  crash: {crash}")
    fs.crash()

    took = measure(disk, lambda: FSD.mount(disk))
    fs = took.result
    report = fs.mount_report
    print(
        f"  recovered in {took.elapsed_ms / 1000:.1f} simulated s "
        f"({report.log_records_replayed} records, "
        f"{report.pages_replayed} pages replayed)"
    )
    assert fs.exists("work/f-19"), "committed work must survive"
    assert not fs.exists("work/in-flight"), "torn record must be discarded"
    print("  committed work intact; torn record correctly discarded")

    # Single-sector failure: damage one copy of a name-table page.
    victim, _ = fs.layout.nt_page_addresses(5)
    disk.faults.damage(victim)
    files = fs.list("work/")
    print(f"  damaged NT sector repaired from twin; list sees {len(files)} files")


def cfs_demo(scale) -> None:
    print("=== CFS (labels, scavenger) ===")
    disk, fs, adapter = cfs_volume(scale)
    populate(adapter, scale.recovery_files)
    fs.crash()
    took = measure(disk, lambda: scavenge(disk, scale.cfs_params))
    _, report = took.result
    print(
        f"  scavenged in {took.elapsed_ms / 1000:.0f} simulated s "
        f"({report.sectors_scanned} labels read, "
        f"{report.files_recovered} files recovered)"
    )


def bsd_demo(scale) -> None:
    print("=== 4.3 BSD (fsck) ===")
    disk, fs, adapter = ffs_volume(scale)
    populate(adapter, scale.recovery_files)
    fs.crash()
    took = measure(disk, lambda: fsck(disk, scale.ffs_params))
    report = took.result
    print(
        f"  fsck in {took.elapsed_ms / 1000:.0f} simulated s "
        f"({report.inodes_checked} inodes checked)"
    )


def main() -> None:
    scale = SMALL if "--small" in sys.argv else FULL
    print(f"scale: {scale.name} ({scale.geometry.total_bytes // 2**20} MB)\n")
    fsd_demo(scale)
    print()
    cfs_demo(scale)
    print()
    bsd_demo(scale)


if __name__ == "__main__":
    main()
