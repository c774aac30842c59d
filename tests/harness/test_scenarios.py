"""Unit tests for the shared experiment scenarios."""

from __future__ import annotations

from repro.harness.scenarios import (
    FULL,
    SMALL,
    cfs_volume,
    ffs_volume,
    fsd_volume,
    populate,
    populate_recovery_volume,
)


class TestScales:
    def test_full_is_trident_sized(self):
        assert 290 * 2**20 < FULL.geometry.total_bytes < 320 * 2**20

    def test_small_is_fast(self):
        assert SMALL.geometry.total_sectors < FULL.geometry.total_sectors / 5


class TestFactories:
    def test_fsd(self):
        disk, fs, adapter = fsd_volume(SMALL)
        assert adapter.list() == 0  # a mounted, empty volume
        assert adapter.fs is fs

    def test_cfs(self):
        disk, fs, adapter = cfs_volume(SMALL)
        assert adapter.list() == 0  # a mounted, empty volume

    def test_ffs(self):
        disk, fs, adapter = ffs_volume(SMALL)
        assert adapter.list() == 0  # a mounted, empty volume


class TestPopulate:
    def test_creates_requested_files(self):
        _, fs, adapter = fsd_volume(SMALL)
        names = populate(adapter, 25)
        assert len(names) == 25
        assert all(adapter.exists(name) for name in names[:5])

    def test_recovery_volume_has_big_files_and_holes(self):
        _, fs, adapter = fsd_volume(SMALL)
        names = populate_recovery_volume(adapter, SMALL)
        big = [n for n in names if n.startswith("big/")]
        assert len(big) == SMALL.recovery_big_files
        # The aging pass left alternating band files.
        assert adapter.exists("frag/band-01")
        assert not adapter.exists("frag/band-00")

    def test_aged_big_file_fragmentation(self):
        """Files created after aging acquire multi-run tables."""
        _, fs, adapter = fsd_volume(SMALL)
        populate_recovery_volume(adapter, SMALL)
        handle = fs.create("post/aged-big", b"z" * SMALL.recovery_big_bytes)
        assert len(handle.runs.runs) > 1
