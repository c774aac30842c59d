"""Unit tests for the simulated disk: I/O semantics, labels, timing
behaviours the paper's model depends on, and fault interactions."""

from __future__ import annotations

import pytest

from repro.disk.disk import FREE_LABEL, SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import (
    DamagedSectorError,
    DiskRangeError,
    LabelCheckError,
    SimulatedCrash,
)

GEO = DiskGeometry(cylinders=40, heads=4, sectors_per_track=16)


@pytest.fixture
def disk() -> SimDisk:
    return SimDisk(geometry=GEO)


class TestDataIO:
    def test_read_unwritten_returns_zeros(self, disk):
        assert disk.read(100, 2) == [b"\x00" * 512] * 2

    def test_write_read_roundtrip(self, disk):
        disk.write(10, [b"alpha", b"beta"])
        sectors = disk.read(10, 2)
        assert sectors[0].startswith(b"alpha")
        assert sectors[1].startswith(b"beta")

    def test_short_sectors_padded_to_512(self, disk):
        disk.write(5, [b"x"])
        assert len(disk.read(5)[0]) == 512

    def test_oversized_sector_rejected(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write(5, [b"y" * 513])

    def test_empty_write_rejected(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write(5, [])

    def test_out_of_range_io_rejected(self, disk):
        with pytest.raises(DiskRangeError):
            disk.read(GEO.total_sectors)
        with pytest.raises(DiskRangeError):
            disk.write(GEO.total_sectors - 1, [b"a", b"b"])

    def test_io_counters(self, disk):
        disk.write(0, [b"a"] * 3)
        disk.read(0, 3)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 1
        assert disk.stats.sectors_written == 3
        assert disk.stats.sectors_read == 3
        assert disk.stats.total_ios == 2

    def test_multisector_io_is_one_io(self, disk):
        disk.write(0, [b"x"] * 33)
        assert disk.stats.writes == 1


class TestLabels:
    def test_fresh_sectors_have_free_labels(self, disk):
        assert disk.read_labels(50, 2) == [FREE_LABEL] * 2

    def test_write_labels_then_read(self, disk):
        disk.write_labels(50, [b"L1", b"L2"])
        labels = disk.read_labels(50, 2)
        assert labels[0].startswith(b"L1")
        assert labels[1].startswith(b"L2")

    def test_label_verified_read_passes(self, disk):
        disk.write(7, [b"data"], set_labels=[b"good"])
        assert disk.read(7, 1, expect_labels=[b"good"])[0].startswith(b"data")

    def test_label_mismatch_raises(self, disk):
        disk.write(7, [b"data"], set_labels=[b"good"])
        with pytest.raises(LabelCheckError):
            disk.read(7, 1, expect_labels=[b"evil"])

    def test_label_verified_write(self, disk):
        disk.write_labels(7, [b"claim"])
        disk.write(7, [b"payload"], expect_labels=[b"claim"])
        with pytest.raises(LabelCheckError):
            disk.write(7, [b"payload"], expect_labels=[b"other"])

    def test_label_ops_counted_separately(self, disk):
        disk.write_labels(0, [b"a"])
        disk.read_labels(0, 1)
        assert disk.stats.label_writes == 1
        assert disk.stats.label_reads == 1
        assert (disk.stats.reads, disk.stats.writes) == (0, 0)

    def test_label_length_cap(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write_labels(0, [b"z" * 17])


class TestDamage:
    def test_damaged_read_raises(self, disk):
        disk.write(20, [b"x"])
        disk.faults.damage(20)
        with pytest.raises(DamagedSectorError):
            disk.read(20)

    def test_read_maybe_returns_none_for_damage(self, disk):
        disk.write(20, [b"x", b"y"])
        disk.faults.damage(20)
        sectors = disk.read_maybe(20, 2)
        assert sectors[0] is None
        assert sectors[1].startswith(b"y")

    def test_rewrite_repairs_damage(self, disk):
        disk.faults.damage(20)
        disk.write(20, [b"fresh"])
        assert disk.read(20)[0].startswith(b"fresh")


class TestCrash:
    def test_crash_tears_write_per_weak_atomic_model(self, disk):
        disk.write(0, [b"old"] * 6)
        disk.faults.arm_crash(after_ios=0, surviving_sectors=2, damage_tail=2)
        with pytest.raises(SimulatedCrash):
            disk.write(0, [b"new"] * 6)
        # Prefix persisted...
        assert disk.peek(0).startswith(b"new")
        assert disk.peek(1).startswith(b"new")
        # ...boundary damaged (1-2 consecutive sectors)...
        assert disk.faults.is_damaged(2)
        assert disk.faults.is_damaged(3)
        # ...tail untouched.
        assert disk.peek(4).startswith(b"old")
        assert not disk.faults.is_damaged(4)

    def test_crash_countdown(self, disk):
        disk.faults.arm_crash(after_ios=2, surviving_sectors=0, damage_tail=0)
        disk.write(0, [b"a"])
        disk.write(1, [b"b"])
        with pytest.raises(SimulatedCrash):
            disk.write(2, [b"c"])
        assert disk.peek(2) == b"\x00" * 512

    def test_crash_on_read_destroys_nothing(self, disk):
        disk.write(0, [b"keep"])
        disk.faults.arm_crash(after_ios=0)
        with pytest.raises(SimulatedCrash):
            disk.read(0)
        assert disk.peek(0).startswith(b"keep")

    def test_crash_fires_once(self, disk):
        disk.faults.arm_crash(after_ios=0, surviving_sectors=0, damage_tail=0)
        with pytest.raises(SimulatedCrash):
            disk.write(0, [b"x"])
        disk.write(0, [b"x"])  # no crash armed anymore
        assert disk.faults.crashes_fired == 1


class TestTiming:
    def test_io_advances_the_clock(self, disk):
        before = disk.clock.now_ms
        disk.read(0, 1)
        assert disk.clock.now_ms > before

    def test_read_then_rewrite_loses_a_revolution(self, disk):
        """The §6 effect: rewriting the sector just read waits nearly a
        full revolution."""
        disk.read(0, 1)
        before = disk.clock.now_ms
        disk.write(0, [b"x"])
        elapsed = disk.clock.now_ms - before
        rotation = disk.timing.rotation_ms
        assert elapsed > 0.75 * rotation

    def test_sequential_read_streams(self, disk):
        """Contiguous single-I/O transfers move at media rate."""
        spt = GEO.sectors_per_track
        disk.read(0, 1)  # position the head
        before = disk.clock.now_ms
        disk.read(1, 4 * spt, cpu_overlap=True)
        elapsed = disk.clock.now_ms - before
        media = disk.timing.transfer_ms(4 * spt, spt)
        assert elapsed < media + 2 * disk.timing.rotation_ms

    def test_seek_cost_grows_with_distance(self, disk):
        disk.read(0, 1)
        t0 = disk.clock.now_ms
        disk.read(GEO.sectors_per_cylinder * 2, 1)  # 2 cylinders away
        near = disk.clock.now_ms - t0

        disk.read(0, 1)
        t1 = disk.clock.now_ms
        disk.read(GEO.sectors_per_cylinder * 35, 1)  # 35 cylinders away
        far = disk.clock.now_ms - t1
        # Rotational phase adds noise; compare against recorded seek time.
        assert disk.stats.seeks >= 1
        assert disk.stats.short_seeks >= 1

    def test_cpu_overlap_charges_busy_not_elapsed(self, disk):
        cpu_before = disk.clock.cpu_busy_ms
        disk.read(0, 16, cpu_overlap=True)
        overlapped = disk.clock.cpu_busy_ms - cpu_before
        # io_setup is serial; the 16-sector copy is overlapped.
        assert overlapped >= 16 * disk.clock.cpu.per_sector_copy_ms

    def test_charge_cpu_disable(self):
        quiet = SimDisk(geometry=GEO, charge_cpu=False)
        quiet.read(0, 4)
        assert quiet.clock.cpu_busy_ms == 0.0


class TestOutOfBand:
    def test_peek_poke_do_no_io(self, disk):
        disk.poke(9, b"smash")
        assert disk.peek(9).startswith(b"smash")
        assert disk.stats.total_ios == 0
        assert disk.clock.now_ms == 0.0

    def test_poke_counts_as_wild_write(self, disk):
        disk.poke(9, b"smash")
        assert disk.faults.injected_wild_writes == 1

    def test_poke_does_not_mark_damage(self, disk):
        disk.poke(9, b"smash")
        assert not disk.faults.is_damaged(9)
        assert disk.read(9)[0].startswith(b"smash")
