"""Unit tests for the BSD buffer cache."""

from __future__ import annotations

import pytest

from repro.bsd.buffer_cache import BufferCache
from repro.bsd.layout import BLOCK_SECTORS
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry

GEO = DiskGeometry(cylinders=20, heads=4, sectors_per_track=16)


@pytest.fixture
def cache() -> BufferCache:
    return BufferCache(SimDisk(geometry=GEO), capacity_blocks=4)


class TestCache:
    def test_read_through(self, cache):
        cache.disk.write(0, [b"block0"] + [b""] * 7)
        assert cache.read_block(0).startswith(b"block0")

    def test_hit_avoids_io(self, cache):
        cache.read_block(0)
        reads_before = cache.disk.stats.reads
        cache.read_block(0)
        assert cache.disk.stats.reads == reads_before
        assert cache.hits == 1

    def test_write_through_is_synchronous(self, cache):
        cache.write_block(8, b"synchronous")
        assert cache.disk.peek(8).startswith(b"synchronous")
        assert cache.disk.stats.writes == 1

    def test_write_then_read_hits(self, cache):
        cache.write_block(8, b"data")
        reads_before = cache.disk.stats.reads
        assert cache.read_block(8).startswith(b"data")
        assert cache.disk.stats.reads == reads_before

    def test_lru_eviction(self, cache):
        for block in range(6):
            cache.read_block(block * BLOCK_SECTORS)
        reads_before = cache.disk.stats.reads
        cache.read_block(0)  # evicted: re-read
        assert cache.disk.stats.reads == reads_before + 1

    def test_invalidate(self, cache):
        cache.read_block(0)
        cache.invalidate()
        reads_before = cache.disk.stats.reads
        cache.read_block(0)
        assert cache.disk.stats.reads == reads_before + 1

    def test_block_padding(self, cache):
        cache.write_block(8, b"x")
        assert len(cache.read_block(8)) == BLOCK_SECTORS * 512

    def test_cpu_charges(self, cache):
        before = cache.disk.clock.cpu_busy_ms
        cache.read_block(0)
        assert cache.disk.clock.cpu_busy_ms > before
