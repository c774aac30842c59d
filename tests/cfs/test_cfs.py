"""Unit tests for the CFS facade: the paper's baseline behaviours."""

from __future__ import annotations

import pytest

from repro.cfs.cfs import CFS
from repro.cfs.labels import PAGE_DATA, PAGE_HEADER, is_free, parse_label
from repro.errors import (
    FileNotFound,
    FsError,
    LabelCheckError,
    NotMounted,
    VolumeFull,
)
from repro.workloads.generators import payload


class TestBasics:
    def test_create_read(self, cfs):
        cfs.create("d/a", b"cedar!")
        assert cfs.read(cfs.open("d/a")) == b"cedar!"

    def test_ranged_read(self, cfs):
        blob = payload(2_000, 1)
        cfs.create("d/r", blob)
        assert cfs.read(cfs.open("d/r"), 500, 700) == blob[500:1200]

    def test_create_claims_labels(self, cfs, disk):
        handle = cfs.create("d/lab", b"x" * 600)
        uid = handle.props.uid
        assert parse_label(disk.peek_label(handle.header_addr)) == (
            uid, 0, PAGE_HEADER,
        )
        data_sector = handle.runs.runs[0].start
        assert parse_label(disk.peek_label(data_sector)) == (uid, 0, PAGE_DATA)

    def test_read_verifies_labels(self, cfs, disk):
        handle = cfs.create("d/v", b"x" * 600)
        sector = handle.runs.sector_of_page(1)
        # A wild label change (e.g. another file claimed the sector).
        disk.write_labels(sector, [b"WILD"])
        with pytest.raises(LabelCheckError):
            cfs.read(handle)

    def test_write_extends(self, cfs):
        cfs.create("d/w", b"start")
        handle = cfs.open("d/w")
        cfs.write(handle, 5, payload(1_500, 2))
        data = cfs.read(cfs.open("d/w"))
        assert data == b"start" + payload(1_500, 2)

    def test_overwrite_mid_file(self, cfs):
        blob = payload(1_200, 3)
        cfs.create("d/o", blob)
        handle = cfs.open("d/o")
        cfs.write(handle, 100, b"PATCH")
        data = cfs.read(cfs.open("d/o"))
        assert data[100:105] == b"PATCH"
        assert data[:100] == blob[:100]

    def test_delete_frees_labels_and_vam(self, cfs, disk):
        handle = cfs.create("d/del", b"y" * 600)
        data_sector = handle.runs.runs[0].start
        cfs.delete("d/del")
        assert is_free(disk.peek_label(handle.header_addr))
        assert is_free(disk.peek_label(data_sector))
        assert cfs.vam.is_free(data_sector)
        with pytest.raises(FileNotFound):
            cfs.open("d/del")

    def test_delete_missing(self, cfs):
        with pytest.raises(FileNotFound):
            cfs.delete("ghost")

    def test_list_reads_headers(self, cfs, disk):
        for index in range(8):
            cfs.create(f"d/l{index}", b"z")
        reads_before = cfs.ops.header_reads
        props = cfs.list("d/")
        assert len(props) == 8
        assert cfs.ops.header_reads - reads_before == 8
        assert all(p.byte_size == 1 for p in props)

    def test_read_outside_file(self, cfs):
        cfs.create("d/s", b"ab")
        with pytest.raises(FsError):
            cfs.read(cfs.open("d/s"), 0, 3)


class TestVersions:
    def test_versioning(self, cfs):
        cfs.create("d/v", b"one", keep=0)
        cfs.create("d/v", b"two", keep=0)
        assert [p.version for p in cfs.list("d/v")] == [1, 2]
        assert cfs.read(cfs.open("d/v", version=1)) == b"one"
        assert cfs.read(cfs.open("d/v")) == b"two"

    def test_keep_trims(self, cfs):
        for index in range(4):
            cfs.create("d/k", payload(64, index), keep=2)
        assert [p.version for p in cfs.list("d/k")] == [3, 4]


class TestCosts:
    def test_small_create_costs_many_ios(self, cfs, disk):
        cfs.create("d/warm", b"w")  # warm the name-table cache
        before = disk.stats.total_ios
        cfs.create("d/costly", b"x")
        ios = disk.stats.total_ios - before
        # verify + claim header labels + claim data labels + header +
        # name table + data + header rewrite: "(at least) six I/Os".
        assert ios >= 6

    def test_open_always_reads_header(self, cfs, disk):
        cfs.create("d/o", b"x")
        before = disk.stats.reads
        cfs.open("d/o")
        cfs.open("d/o")
        assert disk.stats.reads - before >= 2


class TestMountAndCrash:
    def test_remount_rebuilds_vam(self, cfs, disk):
        handle = cfs.create("d/m", b"x" * 600)
        sector = handle.runs.runs[0].start
        cfs.unmount()
        from tests.conftest import TEST_CFS_PARAMS

        remounted = CFS.mount(disk, TEST_CFS_PARAMS)
        assert not remounted.vam.is_free(sector)
        assert remounted.read(remounted.open("d/m")) == b"x" * 600

    def test_uid_continues_after_remount(self, cfs, disk):
        first = cfs.create("d/u1", b"x")
        cfs.unmount()
        from tests.conftest import TEST_CFS_PARAMS

        remounted = CFS.mount(disk, TEST_CFS_PARAMS)
        second = remounted.create("d/u2", b"y")
        assert second.props.uid > first.props.uid

    def test_crashed_volume_rejects_ops(self, cfs):
        cfs.crash()
        with pytest.raises(NotMounted):
            cfs.open("x")

    def test_torn_name_table_write_corrupts(self, cfs, disk):
        """The weakness the paper fixes: name-table pages span multiple
        sectors and are written in place, so a crash mid-write leaves
        the page half old, half new — unreadable until scavenged."""
        from repro.cfs.name_table import NT_PAGE_SECTORS
        from repro.errors import DiskError

        for index in range(30):
            cfs.create(f"d/t{index:02d}", b"x")
        # Simulate the torn write's detectably-damaged second sector on
        # a live name-table page (the weak-atomic failure model).
        pager = cfs.name_table.pager
        victim_page = max(pager._used)
        address = pager._address(victim_page) + NT_PAGE_SECTORS - 1
        disk.faults.damage(address)
        cfs.crash()
        from tests.conftest import TEST_CFS_PARAMS

        with pytest.raises(DiskError):
            remounted = CFS.mount(disk, TEST_CFS_PARAMS)
            for index in range(40):
                remounted.open(f"d/t{index:02d}")

        # Only the scavenger can bring the volume back.
        from repro.cfs.scavenger import scavenge

        rebuilt, _ = scavenge(disk, TEST_CFS_PARAMS)
        assert len(rebuilt.list("d/")) == 30


class TestAllocatorBehaviour:
    def test_single_area_first_fit(self, cfs):
        a = cfs.create("d/a", b"x" * 600)
        b = cfs.create("d/b", b"y" * 600)
        assert b.header_addr > a.header_addr  # ascending cursor

    def test_volume_full(self, cfs):
        with pytest.raises(VolumeFull):
            cfs.create("d/huge", payload(cfs.disk.geometry.total_bytes, 0))
