"""A crash inside a recovering mount.

The mount after a crash scans the log, writes its redo batch home in
shortest-positioning order (not program order), rebuilds the free map
and writes the root.  Redo is idempotent and the log window it came
from stays live until a later third entry, so a crash at *any* I/O of
that mount must leave a volume the next mount recovers to exactly what
an uninterrupted mount shows.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeLayout
from repro.core.verify import verify_volume
from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE, WriteAheadLog
from repro.crashcheck.engine import CrashImage, materialize
from repro.crashcheck.workload import DiskState
from repro.disk.disk import SimDisk
from repro.errors import SimulatedCrash
from repro.harness.scenarios import SMALL
from repro.workloads.generators import payload


def crashed_volume() -> CrashImage:
    """A SMALL volume crashed just after a force, with a log window
    (anchor to end) that holds leaders, name-table pages and a skip
    record: commits run until the log wraps past a skip record, then
    two more."""
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, SMALL.fsd_params)
    fs = FSD.mount(disk)
    wal = fs.wal
    names: list[str] = []
    after_skip = None
    while after_skip is None or after_skip < 2:
        for _ in range(3):
            name = f"d/f{len(names):04d}"
            fs.create(name, payload(200 + 97 * len(names) % 3000, len(names)))
            names.append(name)
        if len(names) % 12 == 0:
            fs.delete(names[len(names) // 2])
        skips = wal.records_written - len(wal.record_sizes)
        fs.force()
        if after_skip is not None:
            after_skip += 1
        elif wal.records_written - len(wal.record_sizes) > skips:
            after_skip = 0
        assert len(names) < 3000, "the log never wrapped past a skip record"
    fs.create("d/unforced", b"lost to the crash")
    fs.crash()
    return CrashImage(SMALL.geometry, DiskState.snapshot(disk))


def contents(fs: FSD) -> dict[str, bytes]:
    return {props.name: fs.read(fs.open(props.name)) for props in fs.list()}


@pytest.fixture(scope="module")
def crashed() -> CrashImage:
    return crashed_volume()


@pytest.fixture(scope="module")
def reference(crashed) -> tuple[dict[str, bytes], int]:
    """What an uninterrupted mount shows, and how many I/Os it takes."""
    disk = materialize(crashed)
    before = disk.stats.total_ios
    fs = FSD.mount(disk)
    mount_ios = disk.stats.total_ios - before
    return contents(fs), mount_ios


def test_log_window_holds_leaders_name_table_pages_and_a_skip(crashed):
    layout = VolumeLayout.compute(SMALL.geometry, SMALL.fsd_params)
    records = WriteAheadLog(materialize(crashed), layout).scan()
    kinds = {page.kind for record in records for page in record.pages}
    assert kinds == {PAGE_LEADER, PAGE_NAME_TABLE}
    numbers = [record.record_number for record in records]
    # A skip record takes a number and carries no pages.
    assert numbers != list(range(numbers[0], numbers[-1] + 1))


@pytest.mark.parametrize(
    "surviving,damage", [(0, 0), (0, 1), (1, 1)],
    ids=["nothing-persists", "first-sector-damaged", "torn-after-one"],
)
def test_crash_at_every_io_of_the_mount(crashed, reference, surviving, damage):
    expected, mount_ios = reference
    assert mount_ios > 20
    seen: set[bytes] = set()
    for crash_io in range(mount_ios):
        disk = materialize(crashed)
        disk.faults.arm_crash(
            after_ios=crash_io, surviving_sectors=surviving, damage_tail=damage
        )
        with pytest.raises(SimulatedCrash):
            FSD.mount(disk)
        disk.faults.disarm_crash()
        # Recovery is deterministic: a crash that left an image already
        # checked (a crash on a read leaves the previous write's) would
        # recover the same way.
        image = CrashImage(crashed.geometry, DiskState.snapshot(disk)).digest()
        if image in seen:
            continue
        seen.add(image)
        again = FSD.mount(disk)
        assert contents(again) == expected, f"crash at mount I/O {crash_io}"
        report = verify_volume(again)
        assert report.clean, (crash_io, report.problems)
