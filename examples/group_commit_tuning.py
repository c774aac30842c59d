#!/usr/bin/env python3
"""Group-commit tuning: sweep the commit interval on a bulk workload.

Run:  python examples/group_commit_tuning.py

The paper forces the log every half second and notes the factors "may
be improved somewhat by using a bigger log and lengthening the time
between commits."  This example sweeps the interval over the §5.4
bulk-update hot spot and prints metadata I/Os, log traffic, and the
window of work at risk — the trade the paper describes.
"""

from repro import FSD, SimDisk, VolumeParams
from repro.disk.geometry import TRIDENT_T300
from repro.harness.runner import measure
from repro.workloads.generators import BulkUpdateWorkload, payload

INTERVALS_MS = [0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0]
THINK_MS = 150.0


def run_interval(interval_ms: float) -> dict[str, float]:
    disk = SimDisk(geometry=TRIDENT_T300)
    params = VolumeParams(
        commit_interval_ms=interval_ms or 500.0,  # 0 means force per op
    )
    FSD.format(disk, params)
    fs = FSD.mount(disk)
    workload = BulkUpdateWorkload(files=40, rounds=3)
    for index in range(workload.files):
        fs.create(
            f"{workload.directory}/module-{index:03d}",
            payload(workload.size_bytes, index),
        )
    fs.force()
    disk.clock.drain(1_000)

    operations = 0

    def body() -> None:
        nonlocal operations
        for round_index in range(1, workload.rounds + 1):
            for index in range(workload.files):
                fs.create(
                    f"{workload.directory}/module-{index:03d}",
                    payload(workload.size_bytes, index + round_index),
                )
                operations += 1
                if interval_ms == 0.0:
                    fs.force()
                else:
                    disk.clock.drain(THINK_MS)
        fs.force()

    took = measure(disk, body)
    metadata_ios = took.io.total_ios - operations
    return {
        "interval": interval_ms,
        "metadata_ios": metadata_ios,
        "log_sectors": fs.wal.sectors_logged,
        "forces": fs.coordinator.forces,
        "elapsed_s": took.elapsed_ms / 1000.0,
    }


def main() -> None:
    print(
        f"{'interval':>10} {'metadata I/Os':>14} {'log sectors':>12} "
        f"{'forces':>7} {'work at risk':>13}"
    )
    for interval in INTERVALS_MS:
        row = run_interval(interval)
        label = "per-op" if interval == 0 else f"{interval:.0f} ms"
        at_risk = "none" if interval == 0 else f"<= {interval / 1000:.2f} s"
        print(
            f"{label:>10} {row['metadata_ios']:>14.0f} "
            f"{row['log_sectors']:>12.0f} {row['forces']:>7.0f} {at_risk:>13}"
        )
    print(
        "\nThe paper's choice (500 ms) sits where metadata I/O has "
        "collapsed\nbut the window of uncommitted work is still half a "
        "second."
    )


if __name__ == "__main__":
    main()
