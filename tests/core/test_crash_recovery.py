"""Crash-recovery integration tests: the heart of the paper's claim.

The durability contract under test: after a crash, every operation
that committed (its force returned) is fully present; operations after
the last force may be lost, but *atomically* — the name table is
structurally valid, the VAM rebuild never finds a double allocation,
and every surviving file reads back byte-for-byte.

The sweep test arms a crash at every k-th disk I/O of a fixed workload
and recovers each time, which exercises torn log records, crashes
during home writebacks, and crashes inside the third-entry protocol.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import SimulatedCrash
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
#: A small log so workloads wrap it and exercise the thirds protocol.
PARAMS = VolumeParams(
    nt_pages=512, log_record_sectors=231, cache_pages=32, max_record_pages=16
)


def fresh_fs() -> tuple[SimDisk, FSD]:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    return disk, FSD.mount(disk)


def committed_workload(fs: FSD, rounds: int) -> dict[str, bytes]:
    """Runs a create/update/delete mix, forcing after each round; returns
    the expected post-recovery contents."""
    expected: dict[str, bytes] = {}
    for round_index in range(rounds):
        for index in range(6):
            name = f"w/r{round_index:02d}-{index}"
            data = payload(200 + 97 * index + round_index, round_index)
            fs.create(name, data, keep=0)
            expected[name] = data
        if round_index % 3 == 2:
            victim = f"w/r{round_index - 1:02d}-0"
            fs.delete(victim)
            expected.pop(victim)
        fs.force()
    return expected


def verify_contents(fs: FSD, expected: dict[str, bytes]) -> None:
    listed = {props.name for props in fs.list("w/")}
    assert listed == set(expected)
    for name, data in expected.items():
        assert fs.read(fs.open(name)) == data
    fs.name_table.tree.check_invariants()


class TestCommittedSurvives:
    def test_basic(self):
        disk, fs = fresh_fs()
        expected = committed_workload(fs, rounds=4)
        fs.crash()
        recovered = FSD.mount(disk)
        verify_contents(recovered, expected)

    def test_after_log_wrap(self):
        """Enough committed work to cycle the log several times."""
        disk, fs = fresh_fs()
        expected = committed_workload(fs, rounds=20)
        fs.crash()
        recovered = FSD.mount(disk)
        verify_contents(recovered, expected)

    def test_uncommitted_tail_lost_atomically(self):
        disk, fs = fresh_fs()
        expected = committed_workload(fs, rounds=3)
        fs.create("w/uncommitted", b"gone")
        fs.crash()
        recovered = FSD.mount(disk)
        assert not recovered.exists("w/uncommitted")
        verify_contents(recovered, expected)

    def test_repeated_crash_recover_cycles(self):
        disk, fs = fresh_fs()
        expected: dict[str, bytes] = {}
        for cycle in range(5):
            for index in range(4):
                name = f"w/c{cycle}-{index}"
                data = payload(150 + index * 31, cycle)
                fs.create(name, data, keep=0)
                expected[name] = data
            fs.force()
            fs.crash()
            fs = FSD.mount(disk)
            verify_contents(fs, expected)

    def test_crashed_mounts_are_freed(self):
        """A crashed mount's cancelled commit timer stays on the disk's
        clock as a tombstone; it must not keep the dead FSD, its cache
        and its parse memo alive."""
        disk, fs = fresh_fs()
        crashed = []
        for cycle in range(4):
            for index in range(3):
                fs.create(f"w/c{cycle}-{index}", payload(700, index))
            fs.force()
            fs.crash()
            crashed.append(weakref.ref(fs))
            fs = FSD.mount(disk)
        gc.collect()
        assert [ref() for ref in crashed] == [None] * len(crashed)
        assert fs.exists("w/c3-2")

    def test_crash_without_any_force_since_mount(self):
        disk, fs = fresh_fs()
        expected = committed_workload(fs, rounds=2)
        fs.crash()
        fs = FSD.mount(disk)
        fs.crash()  # immediately crash again: nothing new
        fs = FSD.mount(disk)
        verify_contents(fs, expected)


class TestCrashPointSweep:
    """Arm a crash at the k-th I/O during a committed workload; after
    recovery, everything committed before the crash must be intact."""

    @pytest.mark.parametrize("crash_after", list(range(0, 240, 7)))
    def test_sweep(self, crash_after):
        disk, fs = fresh_fs()
        committed: dict[str, bytes] = {}
        pending: dict[str, bytes] = {}
        disk.faults.arm_crash(
            after_ios=crash_after, surviving_sectors=2, damage_tail=2
        )
        try:
            for round_index in range(12):
                for index in range(5):
                    name = f"w/r{round_index:02d}-{index}"
                    data = payload(180 + 53 * index, round_index)
                    fs.create(name, data, keep=0)
                    pending[name] = data
                fs.force()
                committed.update(pending)
                pending.clear()
            disk.faults.disarm_crash()
        except SimulatedCrash:
            pass
        fs.crash()

        recovered = FSD.mount(disk)
        listed = {props.name for props in recovered.list("w/")}
        # Everything committed must be present and correct...
        for name, data in committed.items():
            assert name in listed, f"lost committed {name}"
            assert recovered.read(recovered.open(name)) == data
        # ...anything else present must be an un-acked pending file
        # whose log record happened to survive (allowed), never garbage.
        for extra in listed - set(committed):
            assert extra in pending
            assert recovered.read(recovered.open(extra)) == pending[extra]
        recovered.name_table.tree.check_invariants()
        # The rebuilt free map hands out no sector a committed file holds.
        recovered.create("probe", payload(500, 999))
        recovered.force()
        for name, data in committed.items():
            assert recovered.read(recovered.open(name)) == data

    def test_crash_during_recovery_itself(self):
        """Redo is idempotent: a crash in the middle of recovery's home
        writes leaves a volume that recovers fine on the next try."""
        disk, fs = fresh_fs()
        expected = committed_workload(fs, rounds=6)
        fs.crash()
        disk.faults.arm_crash(after_ios=10, surviving_sectors=1, damage_tail=1)
        with pytest.raises(SimulatedCrash):
            FSD.mount(disk)
        recovered = FSD.mount(disk)
        verify_contents(recovered, expected)
