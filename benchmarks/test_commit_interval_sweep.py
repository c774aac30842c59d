"""§5.4 — "These factors may be improved somewhat by using a bigger
log and lengthening the time between commits."

Two sweeps over the bulk-update hot spot verify both halves of the
sentence on the running system:

* metadata I/Os fall monotonically (to within noise) as the commit
  interval grows — and so does the window of uncommitted work;
* a bigger log defers the third-entry writebacks, reducing name-table
  home writes for the same workload.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.harness.report import Table
from repro.harness.runner import measure
from repro.harness.scenarios import FULL
from repro.workloads.generators import payload

THINK_MS = 150.0
OPERATIONS = 120


def _run(interval_ms: float, log_sectors: int) -> tuple[int, int]:
    """(metadata I/Os, name-table home writes) for the bulk workload."""
    params = replace(
        FULL.fsd_params,
        commit_interval_ms=interval_ms,
        log_record_sectors=log_sectors,
    )
    disk = SimDisk(geometry=FULL.geometry)
    FSD.format(disk, params)
    fs = FSD.mount(disk)
    for index in range(40):
        fs.create(f"bulk/m-{index:03d}", payload(1_500, index))
    fs.force()
    disk.clock.drain(1_000)

    operations = 0

    def body() -> None:
        nonlocal operations
        for round_index in range(3):
            for index in range(40):
                fs.create(
                    f"bulk/m-{index:03d}",
                    payload(1_500, index + round_index * 7),
                )
                operations += 1
                disk.clock.drain(THINK_MS)
        fs.force()

    took = measure(disk, body)
    metadata_ios = took.io.total_ios - operations
    return metadata_ios, fs.cache.home_writes


def test_commit_interval_sweep(once):
    def run():
        intervals = [125.0, 250.0, 500.0, 1000.0, 2000.0]
        by_interval = {
            ms: _run(ms, FULL.fsd_params.log_record_sectors)
            for ms in intervals
        }
        logs = [384, 768, 1536]
        by_log = {sectors: _run(500.0, sectors) for sectors in logs}
        return by_interval, by_log

    by_interval, by_log = once(run)

    table = Table("§5.4 sweep: commit interval and log size")
    for ms, (meta, home) in by_interval.items():
        table.add(
            f"interval {ms:.0f} ms",
            "longer => fewer I/Os",
            f"{meta} metadata I/Os",
            note=f"{home} home writes",
        )
    for sectors, (meta, home) in by_log.items():
        table.add(
            f"log {sectors} sectors",
            "bigger => fewer home writes",
            f"{home} home writes",
            note=f"{meta} metadata I/Os",
        )
    table.print()

    # Longer commit intervals reduce metadata I/O (allow 10% noise).
    metas = [by_interval[ms][0] for ms in sorted(by_interval)]
    for earlier, later in zip(metas, metas[1:]):
        assert later <= earlier * 1.10
    # The extreme points differ substantially.
    assert metas[-1] < 0.6 * metas[0]

    # A bigger log means fewer (or equal) third-entry home writes.
    homes = [by_log[sectors][1] for sectors in sorted(by_log)]
    for earlier, later in zip(homes, homes[1:]):
        assert later <= earlier
