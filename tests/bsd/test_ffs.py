"""Unit tests for the FFS facade."""

from __future__ import annotations

import pytest

from repro.bsd.ffs import FFS
from repro.bsd.layout import BLOCK_SECTORS
from repro.errors import FileExists, FileNotFound, FsError, NotMounted
from repro.workloads.generators import payload
from tests.conftest import TEST_FFS_PARAMS


class TestBasics:
    def test_create_read(self, ffs):
        ffs.create("hello.txt", b"unix")
        assert ffs.read(ffs.open("hello.txt")) == b"unix"

    def test_nested_paths(self, ffs):
        ffs.mkdir("usr")
        ffs.mkdir("usr/src")
        ffs.create("usr/src/main.c", b"int main;")
        assert ffs.read(ffs.open("usr/src/main.c")) == b"int main;"

    def test_missing_file(self, ffs):
        with pytest.raises(FileNotFound):
            ffs.open("nope")

    def test_missing_directory_component(self, ffs):
        with pytest.raises(FileNotFound):
            ffs.create("ghost/file", b"x")

    def test_duplicate_create_rejected(self, ffs):
        ffs.create("dup", b"1")
        with pytest.raises(FileExists):
            ffs.create("dup", b"2")

    def test_duplicate_mkdir_rejected(self, ffs):
        ffs.mkdir("d")
        with pytest.raises(FileExists):
            ffs.mkdir("d")

    def test_delete(self, ffs):
        ffs.create("victim", b"x")
        ffs.delete("victim")
        with pytest.raises(FileNotFound):
            ffs.open("victim")
        with pytest.raises(FileNotFound):
            ffs.delete("victim")

    def test_delete_frees_blocks(self, ffs):
        handle = ffs.create("victim", payload(10_000, 1))
        blocks = ffs._file_blocks(handle.inode)
        ffs.delete("victim")
        for address in blocks:
            group, index = ffs.bitmaps.index_of(address)
            assert not ffs.bitmaps.block_used[group][index]

    def test_list(self, ffs):
        ffs.mkdir("d")
        for index in range(5):
            ffs.create(f"d/f{index}", payload(100 * index + 1, index))
        listing = ffs.list("d")
        assert len(listing) == 5
        names = {name for name, _, _ in listing}
        assert names == {f"f{index}" for index in range(5)}

    def test_ranged_read(self, ffs):
        blob = payload(9_000, 4)
        ffs.create("r", blob)
        assert ffs.read(ffs.open("r"), 4_000, 2_000) == blob[4_000:6_000]

    def test_read_outside(self, ffs):
        ffs.create("s", b"ab")
        with pytest.raises(FsError):
            ffs.read(ffs.open("s"), 0, 3)


class TestWrite:
    def test_overwrite(self, ffs):
        ffs.create("w", payload(5_000, 1))
        handle = ffs.open("w")
        ffs.write(handle, 4_000, b"PATCH")
        data = ffs.read(ffs.open("w"))
        assert data[4_000:4_005] == b"PATCH"
        assert data[:4_000] == payload(5_000, 1)[:4_000]

    def test_extend(self, ffs):
        ffs.create("e", b"tiny")
        handle = ffs.open("e")
        ffs.write(handle, 4, payload(9_000, 2))
        assert len(ffs.read(ffs.open("e"))) == 9_004

    def test_indirect_blocks(self, ffs):
        """Files beyond 12 direct blocks (48 KB) use the indirect."""
        blob = payload(80_000, 3)
        ffs.create("big", blob)
        handle = ffs.open("big")
        assert handle.inode.indirect != 0
        assert ffs.read(handle) == blob

    def test_rotdelay_stride_for_big_files(self, ffs):
        blob = payload(TEST_FFS_PARAMS.big_file_threshold_bytes + 4_096, 5)
        ffs.create("striped", blob)
        blocks = ffs._file_blocks(ffs.open("striped").inode)
        gaps = [b - a for a, b in zip(blocks, blocks[1:])]
        stride = TEST_FFS_PARAMS.rotdelay_stride_sectors
        assert gaps.count(stride) >= len(gaps) // 2

    def test_small_files_packed_contiguously(self, ffs):
        a = ffs.create("small-a", b"x" * 100)
        b = ffs.create("small-b", b"y" * 100)
        block_a = ffs._file_blocks(a.inode)[0]
        block_b = ffs._file_blocks(b.inode)[0]
        assert abs(block_b - block_a) == BLOCK_SECTORS


class TestSyncMetadata:
    def test_create_does_synchronous_writes(self, ffs, disk):
        ffs.create("warm", b"w")
        writes_before = disk.stats.writes
        ffs.create("counted", b"x")
        # dirent write + data write + inode write, all synchronous.
        assert disk.stats.writes - writes_before == 3

    def test_namei_cache(self, ffs):
        ffs.mkdir("d")
        ffs.create("d/f", b"x")
        scans_before = ffs.ops.namei_dir_scans
        ffs.open("d/f")
        ffs.open("d/f")
        assert ffs.ops.namei_dir_scans == scans_before


class TestLifecycle:
    def test_unmount_then_mount(self, ffs, disk):
        ffs.create("persist", payload(2_000, 7))
        ffs.unmount()
        remounted = FFS.mount(disk, TEST_FFS_PARAMS)
        assert remounted.read(remounted.open("persist")) == payload(2_000, 7)

    def test_bitmaps_survive_clean_remount(self, ffs, disk):
        handle = ffs.create("persist", b"x")
        block = ffs._file_blocks(handle.inode)[0]
        ffs.unmount()
        remounted = FFS.mount(disk, TEST_FFS_PARAMS)
        group, index = remounted.bitmaps.index_of(block)
        assert remounted.bitmaps.block_used[group][index]

    def test_dirty_mount_refused(self, ffs, disk):
        ffs.create("x", b"y")
        ffs.crash()
        with pytest.raises(FsError, match="fsck"):
            FFS.mount(disk, TEST_FFS_PARAMS)

    def test_crashed_volume_rejects_ops(self, ffs):
        ffs.crash()
        with pytest.raises(NotMounted):
            ffs.open("x")
