"""Unit tests for the recovery paths: root replication, log replay,
VAM reconstruction."""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.layout import RootPage, VolumeLayout, VolumeParams
from repro.core.recovery import read_root, write_root
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import CorruptMetadata
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=48)


def formatted_disk() -> SimDisk:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    return disk


class TestRootReplication:
    def test_roundtrip(self):
        disk = SimDisk(geometry=GEO)
        layout = VolumeLayout.compute(GEO, PARAMS)
        root = RootPage(params=PARAMS, total_sectors=GEO.total_sectors, boot_count=9)
        write_root(disk, layout, root)
        assert read_root(disk, layout) == root

    def test_copy_a_damaged_falls_back_and_repairs(self):
        disk = formatted_disk()
        layout = VolumeLayout.compute(GEO, PARAMS)
        disk.faults.damage(layout.root_a)
        root = read_root(disk, layout)
        assert root.boot_count == 0
        assert not disk.faults.is_damaged(layout.root_a)  # repaired

    def test_copy_b_damaged(self):
        disk = formatted_disk()
        layout = VolumeLayout.compute(GEO, PARAMS)
        disk.faults.damage(layout.root_b)
        assert read_root(disk, layout).boot_count == 0

    def test_both_damaged_is_massive_failure(self):
        disk = formatted_disk()
        layout = VolumeLayout.compute(GEO, PARAMS)
        disk.faults.damage(layout.root_a)
        disk.faults.damage(layout.root_b)
        with pytest.raises(CorruptMetadata):
            read_root(disk, layout)

    def test_diverging_copies_prefer_newer(self):
        disk = SimDisk(geometry=GEO)
        layout = VolumeLayout.compute(GEO, PARAMS)
        old = RootPage(params=PARAMS, total_sectors=GEO.total_sectors, boot_count=1)
        new = RootPage(params=PARAMS, total_sectors=GEO.total_sectors, boot_count=2)
        disk.write(layout.root_b, [old.encode(512)])
        disk.write(layout.root_a, [new.encode(512)])
        assert read_root(disk, layout).boot_count == 2


class TestMountPaths:
    def test_boot_count_increments_per_mount(self):
        disk = formatted_disk()
        fs = FSD.mount(disk)
        assert fs.boot_count == 1
        fs.unmount()
        fs = FSD.mount(disk)
        assert fs.boot_count == 2

    def test_clean_mount_loads_vam(self):
        disk = formatted_disk()
        fs = FSD.mount(disk)
        fs.create("a", b"x")
        fs.unmount()
        fs = FSD.mount(disk)
        assert fs.mount_report.vam_loaded
        assert fs.mount_report.vam_rebuild_entries == 0

    def test_crash_mount_rebuilds_vam(self):
        disk = formatted_disk()
        fs = FSD.mount(disk)
        fs.create("a", b"x")
        fs.force()
        fs.crash()
        fs = FSD.mount(disk)
        assert not fs.mount_report.vam_loaded
        assert fs.mount_report.vam_rebuild_entries == 1

    def test_stale_vam_save_not_loaded_after_crash(self):
        """A clean save from boot N must not satisfy a crash in boot
        N+1 (the VAM is stale by then)."""
        disk = formatted_disk()
        fs = FSD.mount(disk)
        fs.unmount()  # saves VAM for boot 1
        fs = FSD.mount(disk)  # boot 2; marks vam_saved = False
        fs.create("b", b"y")
        fs.force()
        fs.crash()
        fs = FSD.mount(disk)
        assert not fs.mount_report.vam_loaded
        assert fs.exists("b")

    def test_rebuilt_vam_matches_live_vam(self):
        disk = formatted_disk()
        fs = FSD.mount(disk)
        for index in range(30):
            fs.create(f"d/f{index:02d}", b"z" * (index * 40 + 1))
        fs.delete("d/f03")
        fs.delete("d/f17")
        fs.force()
        live_bits = bytes(fs.vam._bits)
        live_free = fs.vam.free_count
        fs.crash()
        recovered = FSD.mount(disk)
        assert bytes(recovered.vam._bits) == live_bits
        assert recovered.vam.free_count == live_free

    def test_crash_mount_sweeps_once_per_copy(self):
        """The rebuild reads the name table as one transfer per home
        copy, and is not what a crash mount spends its time on."""
        disk = formatted_disk()
        fs = FSD.mount(disk)
        for index in range(60):
            fs.create(f"d/f{index:02d}", payload(700, index))
        fs.force()
        fs.crash()
        recovered = FSD.mount(disk)
        report = recovered.mount_report
        assert not report.vam_loaded
        assert report.vam_rebuild_entries == 60
        assert report.vam_sweep_pages > 0
        assert recovered.nt_home.bulk_reads == 2
        assert report.vam_ms < 0.2 * report.total_ms

    def test_damaged_vam_save_falls_back_to_rebuild(self):
        """A cleanly unmounted volume whose VAM save area lost a bitmap
        sector: the mount rebuilds the free map from the name table and
        every file is intact; the next clean unmount's save rewrites
        the area, and the mount after it loads it again."""
        disk = formatted_disk()
        fs = FSD.mount(disk)
        contents = {f"d/f{index:02d}": payload(700, index) for index in range(20)}
        for name, data in contents.items():
            fs.create(name, data)
        fs.unmount()
        saved_bits = bytes(fs.vam._bits)
        disk.faults.damage(fs.layout.vam_start + 2)
        recovered = FSD.mount(disk)
        report = recovered.mount_report
        assert not report.vam_loaded
        assert report.log_records_replayed == 0
        assert report.vam_rebuild_entries == len(contents)
        assert bytes(recovered.vam._bits) == saved_bits
        for name, data in contents.items():
            assert recovered.read(recovered.open(name)) == data
        recovered.unmount()
        assert FSD.mount(disk).mount_report.vam_loaded

    def test_rebuilt_vam_never_double_allocates(self):
        """Allocations commit with their creates, so the free map a
        crash mount rebuilds never hands out a sector a live file
        holds."""
        disk = formatted_disk()
        fs = FSD.mount(disk)
        contents = {f"d/f{index:02d}": payload(900, index) for index in range(15)}
        for name, data in contents.items():
            fs.create(name, data)
        fs.force()
        fs.crash()
        recovered = FSD.mount(disk)
        assert not recovered.mount_report.vam_loaded
        for index in range(30):
            recovered.create(f"post/p{index:02d}", payload(800, 100 + index))
        recovered.force()
        for name, data in contents.items():
            assert recovered.read(recovered.open(name)) == data

    def test_replay_is_idempotent(self):
        """Mounting twice after the same crash replays to the same
        state (redo can be repeated)."""
        disk = formatted_disk()
        fs = FSD.mount(disk)
        for index in range(10):
            fs.create(f"d/f{index}", b"data")
        fs.force()
        fs.crash()
        first = FSD.mount(disk)
        names_first = [p.name for p in first.list()]
        first.crash()
        second = FSD.mount(disk)
        assert [p.name for p in second.list()] == names_first

    def test_mount_report_timing_fields(self):
        disk = formatted_disk()
        fs = FSD.mount(disk)
        fs.create("a", b"x")
        fs.force()
        fs.crash()
        fs = FSD.mount(disk)
        report = fs.mount_report
        assert report.total_ms > 0
        assert report.replay_ms >= 0
        assert report.log_records_replayed >= 1
        assert report.pages_replayed >= 1

    @pytest.mark.parametrize("crashed", [True, False], ids=["crash", "clean"])
    def test_mount_phases_sum_to_total(self, crashed):
        """Root read, log scan, redo, VAM and root write come from
        consecutive clock stamps: together they are the whole mount."""
        disk = formatted_disk()
        fs = FSD.mount(disk)
        for index in range(20):
            fs.create(f"d/f{index:02d}", payload(700, index))
        fs.force()
        if crashed:
            fs.crash()
        else:
            fs.unmount()
        report = FSD.mount(disk).mount_report
        phases = [
            report.root_read_ms, report.scan_ms, report.redo_ms,
            report.vam_ms, report.root_write_ms,
        ]
        assert min(phases) >= 0
        assert sum(phases) == pytest.approx(report.total_ms, rel=1e-12)
        assert report.vam_loaded is not crashed
        assert report.vam_ms > 0  # loaded or rebuilt, it is read
        assert (report.log_records_replayed > 0) is crashed
        # replay_log's own span is the scan and the home writes.
        assert report.scan_ms <= report.replay_ms
        assert report.replay_ms <= report.scan_ms + report.redo_ms + 1e-9


class TestRecoveryIdempotence:
    """Recovery must be a fixed point: recovering an already-recovered
    volume changes nothing (modulo the boot count in the root pages)
    and reports exactly the same replay work."""

    def test_second_recovery_is_byte_identical(self):
        disk = formatted_disk()
        fs = FSD.mount(disk)
        for index in range(24):
            fs.create(f"idem/f{index:02d}", b"q" * (37 * index + 5))
        fs.delete("idem/f09")
        fs.force()
        fs.create("idem/unforced", b"tail work the crash loses")
        fs.crash()

        recovered = FSD.mount(disk)
        first_report = recovered.mount_report
        layout = recovered.layout
        # Crash the recovered volume before it performs any further
        # file work (mount itself already wrote its recovery I/O).
        recovered.crash()
        roots = {layout.root_a, layout.root_b}
        image = {
            address: data
            for address, data in disk._data.items()
            if address not in roots
        }
        labels = dict(disk._labels)
        damaged = set(disk.faults.damaged)

        again = FSD.mount(disk)
        second_report = again.mount_report
        again.crash()

        assert {
            address: data
            for address, data in disk._data.items()
            if address not in roots
        } == image
        assert dict(disk._labels) == labels
        assert set(disk.faults.damaged) == damaged

        assert second_report.boot_count == first_report.boot_count + 1
        for counter in (
            "log_records_replayed",
            "pages_replayed",
            "vam_loaded",
            "vam_rebuild_entries",
        ):
            assert getattr(second_report, counter) == getattr(
                first_report, counter
            ), counter
