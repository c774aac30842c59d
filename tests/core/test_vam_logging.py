"""Tests for the §5.3 VAM-logging extension.

"The log could also be used to record changes to the VAM...  VAM
logging would greatly decrease worst case crash recovery time from
about twenty five seconds to about two seconds.  VAM logging was not
done since it was a complicated modification."  We do it, behind
``VolumeParams.log_vam``, and verify the safety argument: recovery
never double-allocates; at worst it leaks the final batch's frees.
"""

from __future__ import annotations

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import SimulatedCrash
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(
    nt_pages=512, log_record_sectors=300, cache_pages=48, log_vam=True
)


def fresh() -> tuple[SimDisk, FSD]:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    return disk, FSD.mount(disk)


class TestVamLogging:
    def test_flag_persisted_in_root(self):
        disk, fs = fresh()
        assert fs.params.log_vam
        fs.unmount()
        assert FSD.mount(disk).params.log_vam

    def test_recovery_skips_rebuild(self):
        disk, fs = fresh()
        for index in range(20):
            fs.create(f"d/f{index:02d}", payload(700, index))
        fs.force()
        fs.crash()
        recovered = FSD.mount(disk)
        assert recovered.mount_report.vam_loaded
        assert recovered.mount_report.vam_rebuild_entries == 0
        assert recovered.exists("d/f19")

    def test_recovered_vam_matches_rebuild(self):
        """The logged VAM must agree exactly with what a rebuild from
        the name table would produce (no leaks in this scenario: the
        frees committed before the crash)."""
        disk, fs = fresh()
        for index in range(25):
            fs.create(f"d/f{index:02d}", payload(600 + index * 37, index))
        fs.delete("d/f05")
        fs.delete("d/f15")
        fs.force()
        fs.force()  # second force commits the shadow-freed VAM pages
        fs.crash()
        recovered = FSD.mount(disk)
        assert recovered.mount_report.vam_loaded
        from repro.core.recovery import MountReport, rebuild_vam

        reference = rebuild_vam(
            disk, recovered.layout, recovered.name_table,
            recovered.nt_home, MountReport(),
        )
        assert bytes(recovered.vam._bits) == bytes(reference._bits)
        assert recovered.vam.free_count == reference.free_count

    def test_never_double_allocates_after_crash(self):
        """The safety half of the ordering argument: allocations commit
        with their creates, so a recovered volume can always allocate
        without colliding with live data."""
        disk, fs = fresh()
        for index in range(15):
            fs.create(f"d/f{index:02d}", payload(900, index))
        fs.force()
        fs.crash()
        recovered = FSD.mount(disk)
        before = {
            name.props.name: recovered.read(recovered.open(name.props.name))
            for name in [recovered.open(f"d/f{i:02d}") for i in range(15)]
        }
        # Fill more files; if the VAM lied, these would overwrite data.
        for index in range(30):
            recovered.create(f"post/p{index:02d}", payload(800, 100 + index))
        recovered.force()
        for name, data in before.items():
            assert recovered.read(recovered.open(name)) == data

    def test_uncommitted_frees_leak_at_most(self):
        """Frees whose commit record never made it are leaked (pages
        stay allocated), never handed out twice."""
        disk, fs = fresh()
        handle = fs.create("d/victim", payload(900, 1))
        fs.force()
        victim_run = handle.runs.runs[0]
        fs.delete("d/victim")
        # Crash before the delete's shadow-free commits its VAM pages.
        fs.force()  # commits the delete (entry gone, shadow applied)...
        fs.crash()  # ...but the freed VAM bits were dirtied post-append
        recovered = FSD.mount(disk)
        assert recovered.mount_report.vam_loaded
        assert not recovered.exists("d/victim")
        # The pages may be leaked (still allocated) but never corrupt:
        # a rebuild-based volume must be a subset of the logged one.
        from repro.core.recovery import MountReport, rebuild_vam

        reference = rebuild_vam(
            disk, recovered.layout, recovered.name_table,
            recovered.nt_home, MountReport(),
        )
        for sector in range(victim_run.start, victim_run.end):
            if reference.is_free(sector):
                # logged VAM may still hold it (leak) — acceptable —
                # but if it says free it must truly be free.
                if recovered.vam.is_free(sector):
                    assert reference.is_free(sector)

    def test_logged_recovery_reads_no_name_table(self):
        """What VAM logging still buys: the mount loads the free map and
        never sweeps the name table.

        This used to assert ``logged < 0.85 * stock`` mount time.  Since
        the rebuild became a physical-order sweep (two multi-sector
        transfers here, 52 ms) that no longer holds: on this tiny volume
        the logged mount is the *slower* one (719 ms against 673 ms),
        because writing the new boot's base image costs more than the
        sweep it avoids.  EXPERIMENTS.md §5.3 has the full-scale pair.
        """
        def crash_and_mount(log_vam: bool) -> FSD:
            params = VolumeParams(
                nt_pages=512, log_record_sectors=300, cache_pages=48,
                log_vam=log_vam,
            )
            disk = SimDisk(geometry=GEO)
            FSD.format(disk, params)
            fs = FSD.mount(disk)
            for index in range(60):
                fs.create(f"d/f{index:02d}", payload(700, index))
            fs.force()
            fs.crash()
            return FSD.mount(disk)

        logged = crash_and_mount(True)
        assert logged.mount_report.vam_loaded
        assert logged.mount_report.vam_sweep_pages == 0
        assert logged.mount_report.vam_ms == 0.0
        assert logged.nt_home.bulk_reads == 0

        stock = crash_and_mount(False)
        assert not stock.mount_report.vam_loaded
        assert stock.mount_report.vam_rebuild_entries == 60
        assert stock.mount_report.vam_sweep_pages > 0
        assert stock.nt_home.bulk_reads == 2  # one transfer per copy
        # The rebuild is no longer what a crash mount spends its time on.
        assert stock.mount_report.vam_ms < 0.2 * stock.mount_report.total_ms
        assert bytes(stock.vam._bits) == bytes(logged.vam._bits)

    def test_damaged_vam_page_falls_back_to_rebuild(self):
        disk, fs = fresh()
        fs.create("d/a", b"x")
        fs.force()
        fs.crash()
        layout = fs.layout
        disk.faults.damage(layout.vam_start + 2)
        recovered = FSD.mount(disk)
        assert not recovered.mount_report.vam_loaded
        assert recovered.mount_report.vam_rebuild_entries >= 1
        assert recovered.exists("d/a")

    def test_crash_sweep_with_vam_logging(self):
        """The crash-point sweep must stay sound with logging on."""
        for crash_after in range(0, 120, 11):
            disk = SimDisk(geometry=GEO)
            FSD.format(disk, PARAMS)
            fs = FSD.mount(disk)
            committed = {}
            disk.faults.arm_crash(
                after_ios=crash_after, surviving_sectors=1, damage_tail=1
            )
            try:
                for round_index in range(8):
                    batch = {}
                    for index in range(4):
                        name = f"w/r{round_index}-{index}"
                        data = payload(300 + index * 41, round_index)
                        fs.create(name, data, keep=0)
                        batch[name] = data
                    fs.force()
                    committed.update(batch)
                disk.faults.disarm_crash()
            except SimulatedCrash:
                pass
            fs.crash()
            recovered = FSD.mount(disk)
            for name, data in committed.items():
                assert recovered.read(recovered.open(name)) == data
            # And the volume stays allocatable without collisions.
            recovered.create("w/probe", payload(500, 999))
            recovered.force()
            for name, data in committed.items():
                assert recovered.read(recovered.open(name)) == data
