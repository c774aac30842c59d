"""Unit tests for the CFS scavenger."""

from __future__ import annotations

import pytest

from repro.cfs.cfs import CFS
from repro.cfs.scavenger import scavenge
from repro.disk.disk import SimDisk
from repro.errors import FileNotFound
from repro.workloads.generators import payload
from tests.conftest import TEST_CFS_PARAMS, TEST_GEOMETRY


def build_volume() -> tuple[SimDisk, CFS, dict[str, bytes]]:
    disk = SimDisk(geometry=TEST_GEOMETRY)
    CFS.format(disk, TEST_CFS_PARAMS)
    fs = CFS.mount(disk, TEST_CFS_PARAMS)
    contents = {}
    for index in range(25):
        name = f"d/f{index:02d}"
        data = payload(100 + index * 53, index)
        fs.create(name, data)
        contents[name] = data
    return disk, fs, contents


class TestScavenge:
    def test_rebuilds_everything(self):
        disk, fs, contents = build_volume()
        fs.crash()
        rebuilt, report = scavenge(disk, TEST_CFS_PARAMS)
        assert report.files_recovered == 25
        assert report.files_damaged == 0
        for name, data in contents.items():
            assert rebuilt.read(rebuilt.open(name)) == data

    def test_scans_every_sector(self):
        disk, fs, _ = build_volume()
        fs.crash()
        _, report = scavenge(disk, TEST_CFS_PARAMS)
        assert report.sectors_scanned == TEST_GEOMETRY.total_sectors

    def test_recovers_from_torn_name_table(self):
        """The page-level corruption CFS suffers is exactly what the
        scavenger exists for."""
        from repro.errors import SimulatedCrash

        disk, fs, contents = build_volume()
        disk.faults.arm_crash(after_ios=1, surviving_sectors=1, damage_tail=1)
        try:
            for index in range(25, 50):
                fs.create(f"d/f{index:02d}", b"x")
        except SimulatedCrash:
            pass
        fs.crash()
        rebuilt, report = scavenge(disk, TEST_CFS_PARAMS)
        for name, data in contents.items():
            assert rebuilt.read(rebuilt.open(name)) == data

    def test_damaged_header_loses_only_that_file(self):
        disk, fs, contents = build_volume()
        victim = fs.open("d/f10")
        disk.faults.damage(victim.header_addr)
        fs.crash()
        rebuilt, report = scavenge(disk, TEST_CFS_PARAMS)
        assert report.files_damaged == 1
        assert report.files_recovered == 24
        with pytest.raises(FileNotFound):
            rebuilt.open("d/f10")
        assert rebuilt.read(rebuilt.open("d/f11")) == contents["d/f11"]

    def test_orphan_data_counted(self):
        disk, fs, _ = build_volume()
        victim = fs.open("d/f10")
        expected_orphans = victim.runs.total_sectors
        disk.faults.damage(victim.header_addr)
        fs.crash()
        _, report = scavenge(disk, TEST_CFS_PARAMS)
        assert report.orphan_data_sectors == expected_orphans

    def test_verify_runs_mode_clean_volume(self):
        disk, fs, _ = build_volume()
        fs.crash()
        _, report = scavenge(disk, TEST_CFS_PARAMS, verify_runs=True)
        assert report.run_table_mismatches == 0

    def test_verify_runs_detects_header_lying(self):
        """The cross-check the paper says CFS never did."""
        from repro.cfs.header import encode_header
        from repro.cfs.labels import header_labels
        from repro.core.types import Run, RunTable

        disk, fs, _ = build_volume()
        victim = fs.open("d/f10")
        # Rewrite the header claiming a run the labels do not back.
        bogus = RunTable([Run(victim.runs.runs[0].start, 1)])
        sectors = encode_header(victim.props, bogus, 512)
        disk.write(
            victim.header_addr,
            sectors,
            expect_labels=header_labels(victim.props.uid),
        )
        fs.crash()
        _, report = scavenge(disk, TEST_CFS_PARAMS, verify_runs=True)
        assert report.run_table_mismatches >= 1

    def test_scavenge_is_slow(self):
        """Order-of-magnitude check: scavenging costs minutes of
        simulated time even on the tiny test disk."""
        disk, fs, _ = build_volume()
        fs.crash()
        before = disk.clock.now_ms
        scavenge(disk, TEST_CFS_PARAMS)
        assert disk.clock.now_ms - before > 30_000

    def test_uid_counter_restored(self):
        disk, fs, _ = build_volume()
        old_uid = fs.open("d/f24").props.uid
        fs.crash()
        rebuilt, _ = scavenge(disk, TEST_CFS_PARAMS)
        fresh = rebuilt.create("d/new", b"n")
        assert fresh.props.uid > old_uid
