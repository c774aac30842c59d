"""The data-page buffer cache: unit behavior, FSD integration, and
the strict-invalidation edges (truncate, delete/recreate, rename,
crash replay, read-ahead racing a write)."""

from __future__ import annotations

import pytest

from repro.core.data_cache import BUFFER_WINDOWS, DataPageCache
from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.workloads.generators import payload
from tests.conftest import TEST_FSD_PARAMS

SECTOR = 512


@pytest.fixture
def cached_fsd(disk: SimDisk) -> FSD:
    FSD.format(disk, TEST_FSD_PARAMS)
    return FSD.mount(disk, data_cache_pages=64, readahead_pages=8)


def paged_read(fs: FSD, handle, pages: int) -> bytes:
    """Read ``pages`` sequential 512-byte pages, one call each (the
    cached-client access pattern that triggers read-ahead)."""
    out = b""
    for page in range(pages):
        length = min(SECTOR, handle.byte_size - page * SECTOR)
        out += fs.read(handle, page * SECTOR, length)
    return out


# ----------------------------------------------------------------------
# unit behavior
# ----------------------------------------------------------------------
def page(fill: int) -> bytes:
    return bytes([fill]) * SECTOR


class TestUnit:
    def test_disabled_cache_is_inert(self):
        dc = DataPageCache(capacity_pages=0, readahead_pages=0)
        dc.store(7, [page(1)], uid=1)
        assert dc.lookup(7) is None
        assert dc.hits == 0 and dc.misses == 0 and len(dc) == 0
        assert not dc.readahead(1, 1, 1, 8)

    def test_lookup_counts_and_lru_eviction(self):
        dc = DataPageCache(capacity_pages=2)
        dc.store(1, [page(1), page(2)], uid=1)
        assert dc.lookup(1) == [page(1)]        # 1 is now most recent
        dc.store(3, [page(3)], uid=1)           # evicts 2, not 1
        assert dc.lookup(2) is None
        assert dc.lookup(1) is not None
        assert dc.evictions == 1
        assert dc.hits == 2 and dc.misses == 1
        assert dc.hit_ratio == pytest.approx(2 / 3)

    def test_span_lookup_reports_each_sector(self):
        dc = DataPageCache(capacity_pages=8)
        dc.store(10, [page(0)], uid=1)
        dc.store(12, [page(2)], uid=1)
        assert dc.lookup(10, 4) == [page(0), None, page(2), None]
        assert dc.hits == 2 and dc.misses == 2
        assert dc.lookup(20, 3) is None
        assert dc.misses == 5

    def test_short_sector_padded(self):
        dc = DataPageCache(capacity_pages=4, sector_bytes=SECTOR)
        dc.store(9, [b"tail"], uid=1)
        assert dc.lookup(9) == [b"tail" + b"\x00" * (SECTOR - 4)]

    def test_sequential_detection(self):
        dc = DataPageCache(capacity_pages=4)
        assert dc.readahead(5, 0, 2, 100)          # page 0 starts a stream
        assert dc.readahead(5, 2, 2, 100)
        assert not dc.readahead(5, 7, 1, 100)  # jump
        assert dc.readahead(5, 8, 1, 100)
        dc.forget_file(5)
        assert not dc.readahead(5, 9, 1, 100)

    def test_readahead_accuracy_tracking(self):
        dc = DataPageCache(capacity_pages=8)
        dc.store(1, [page(1), page(2)], uid=1, prefetched=True)
        assert dc.readahead_issued == 2
        assert dc.lookup(1) is not None
        assert dc.readahead_used == 1
        assert dc.readahead_accuracy == pytest.approx(0.5)
        # a second demand hit on the same page counts once
        assert dc.lookup(1) is not None
        assert dc.readahead_used == 1

    def test_window_stops_at_the_cap_and_at_a_held_sector(self):
        dc = DataPageCache(capacity_pages=32, readahead_pages=8)

        def window() -> int:
            dc.readahead(7, 0, 1, 99)            # a new pass...
            return dc.readahead(7, 1, 1, 100)    # ...continued

        assert window() == 8
        dc.store(102, [page(0)], uid=1)
        assert window() == 2

    def test_invalidate_and_discard(self):
        dc = DataPageCache(capacity_pages=8)
        dc.store(0, [page(a) for a in range(4)], uid=1)
        assert dc.invalidate(1, 2) == 2
        assert dc.lookup(1, 2) is None
        assert dc.lookup(0) is not None
        dc.discard_all()
        assert len(dc) == 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            DataPageCache(capacity_pages=-1)
        with pytest.raises(ValueError):
            DataPageCache(capacity_pages=4, readahead_pages=-1)


class TestBufferUnit:
    """``capacity_pages == 0``: prefetched sectors only, until used."""

    def test_holds_prefetched_sectors_until_their_first_demand(self):
        dc = DataPageCache(readahead_pages=4)
        dc.store(1, [page(1)], uid=1)               # demanded: not kept
        assert len(dc) == 0
        dc.store(2, [page(2), page(3)], uid=1, prefetched=True)
        assert len(dc) == 2
        assert dc.lookup(2) == [page(2)]
        assert len(dc) == 1 and not dc.contains(2)  # the client's now
        assert dc.lookup(2) is None
        assert dc.hits == 1 and dc.misses == 1 and dc.readahead_used == 1

    def test_write_drops_the_prefetched_image(self):
        dc = DataPageCache(readahead_pages=4)
        dc.store(5, [page(5), page(6), page(7)], uid=1, prefetched=True)
        dc.store(6, [page(9)], uid=1)               # a write to sector 6
        assert not dc.contains(6) and dc.contains(5) and dc.contains(7)
        assert dc.invalidations == 1

    def test_room_is_a_few_windows(self):
        dc = DataPageCache(readahead_pages=4)
        for uid in range(BUFFER_WINDOWS + 1):
            dc.store(100 * uid, [page(uid)] * 4, uid=uid, prefetched=True)
        assert len(dc) == BUFFER_WINDOWS * 4
        assert not dc.contains(0) and dc.contains(100)
        assert dc.evictions == 4

    def test_wasted_window_backs_the_stream_off_until_it_hits(self):
        dc = DataPageCache(readahead_pages=4)
        assert dc.readahead(1, 0, 1, 7000)          # page 0 starts it
        assert dc.readahead(1, 1, 1, 7000)
        dc.store(10, [page(1)] * 4, uid=1, prefetched=True)
        # other streams push half of stream 1's window out unused
        for uid in range(2, BUFFER_WINDOWS + 1):
            dc.store(100 * uid, [page(uid)] * 4, uid=uid, prefetched=True)
        dc.store(900, [page(9)] * 2, uid=9, prefetched=True)
        assert not dc.contains(11) and dc.contains(12)
        assert not dc.readahead(1, 2, 1, 7000)
        assert dc.lookup(10) is None                # evicted: a miss
        assert not dc.readahead(1, 3, 1, 7000)
        assert dc.lookup(12) == [page(1)]           # a survivor: a hit
        assert dc.readahead(1, 4, 1, 7000)

    def test_new_pass_clears_the_back_off(self):
        dc = DataPageCache(readahead_pages=2)
        dc.readahead(1, 0, 1, 7000)
        dc.store(10, [page(1)] * 2, uid=1, prefetched=True)
        for uid in range(2, BUFFER_WINDOWS + 2):
            dc.store(100 * uid, [page(uid)] * 2, uid=uid, prefetched=True)
        assert not dc.readahead(1, 1, 1, 7000)
        assert dc.readahead(1, 0, 1, 7000)          # a new pass prefetches
        assert dc.readahead(1, 1, 1, 7000)


# ----------------------------------------------------------------------
# FSD integration
# ----------------------------------------------------------------------
class TestFsdIntegration:
    def test_cache_off_by_default(self, fsd):
        assert fsd.data_cache.capacity == 0
        fsd.create("d/f", payload(3_000, 1))
        assert fsd.read(fsd.open("d/f")) == payload(3_000, 1)
        assert fsd.data_cache.hits == 0 and len(fsd.data_cache) == 0

    def test_cached_reads_match_platter(self, cached_fsd):
        blob = payload(9_000, 7)
        cached_fsd.create("d/f", blob)
        handle = cached_fsd.open("d/f")
        assert cached_fsd.read(handle) == blob           # warm (write-through)
        assert cached_fsd.read(handle, 700, 1500) == blob[700:2200]
        assert cached_fsd.read(handle, 0, 1) == blob[:1]

    def test_cold_sequential_read_uses_readahead(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        blob = payload(12 * SECTOR, 3)
        fs.create("d/seq", blob)
        fs.force()
        fs.unmount()
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        handle = fs.open("d/seq")
        assert paged_read(fs, handle, 12) == blob
        assert fs.data_cache.readahead_issued > 0
        assert fs.data_cache.readahead_used == fs.data_cache.readahead_issued
        assert fs.data_cache.hits >= fs.data_cache.readahead_used

    def test_cached_content_identical_to_uncached_mount(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64)
        blob = payload(20 * SECTOR + 37, 11)
        fs.create("d/x", blob)
        fs.unmount()
        cold = FSD.mount(disk)                     # cache off
        expected = cold.read(cold.open("d/x"))
        cold.unmount()
        warm = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        handle = warm.open("d/x")
        assert paged_read(warm, handle, 21) == expected == blob
        assert warm.read(handle) == expected       # fully cached pass

    def test_write_through_population(self, cached_fsd):
        blob = payload(4 * SECTOR, 5)
        handle = cached_fsd.create("d/w", blob)
        reads_before = cached_fsd.io.stats.reads
        assert cached_fsd.read(handle) == blob
        # every page was populated by the write; the read does no I/O
        assert cached_fsd.io.stats.reads == reads_before


# ----------------------------------------------------------------------
# invalidation edges
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_truncate_then_read(self, cached_fsd):
        blob = payload(8 * SECTOR, 2)
        handle = cached_fsd.create("d/t", blob)
        assert cached_fsd.read(handle) == blob
        cached_fsd.truncate(handle, 3 * SECTOR)
        freed = [
            address
            for run in handle.runs.runs
            for address in range(run.start, run.end)
        ]
        assert cached_fsd.read(handle) == blob[: 3 * SECTOR]
        # regrow with different bytes: no stale image may resurface
        tail = payload(5 * SECTOR, 9)
        cached_fsd.write(handle, 3 * SECTOR, tail)
        assert (
            cached_fsd.read(handle) == blob[: 3 * SECTOR] + tail
        ), freed

    def test_delete_invalidates_freed_sectors(self, cached_fsd):
        blob = payload(6 * SECTOR, 4)
        handle = cached_fsd.create("d/del", blob)
        assert cached_fsd.read(handle) == blob
        freed = [
            address
            for run in handle.runs.runs
            for address in range(run.start, run.end)
        ]
        cached_fsd.delete("d/del")
        for address in freed:
            assert not cached_fsd.data_cache.contains(address)

    def test_delete_then_recreate_same_name(self, cached_fsd):
        old = payload(6 * SECTOR, 4)
        new = payload(6 * SECTOR, 8)
        cached_fsd.create("d/name", old)
        assert cached_fsd.read(cached_fsd.open("d/name")) == old
        cached_fsd.delete("d/name")
        cached_fsd.force()          # freed sectors become allocatable
        cached_fsd.create("d/name", new)
        assert cached_fsd.read(cached_fsd.open("d/name")) == new

    def test_rename_then_read(self, cached_fsd):
        blob = payload(6 * SECTOR, 6)
        handle = cached_fsd.create("d/old", blob)
        assert cached_fsd.read(handle) == blob
        cached_fsd.rename("d/old", "d/new")
        assert cached_fsd.read(cached_fsd.open("d/new")) == blob

    def test_read_after_crash_replay(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        blob = payload(8 * SECTOR, 13)
        fs.create("d/crash", blob)
        fs.force()
        assert fs.read(fs.open("d/crash")) == blob   # cache is warm
        assert len(fs.data_cache) > 0
        fs.crash()
        assert len(fs.data_cache) == 0               # discarded at crash
        recovered = FSD.mount(disk, data_cache_pages=64, readahead_pages=8)
        assert len(recovered.data_cache) == 0        # mounts start cold
        handle = recovered.open("d/crash")
        assert paged_read(recovered, handle, 8) == blob

    def test_readahead_racing_concurrent_write(self, disk):
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=16)
        blob = payload(20 * SECTOR, 1)
        fs.create("d/race", blob)
        fs.force()
        fs.unmount()
        fs = FSD.mount(disk, data_cache_pages=64, readahead_pages=16)
        handle = fs.open("d/race")
        # page 0's read starts the stream and prefetches behind it
        assert fs.read(handle, 0, SECTOR) == blob[:SECTOR]
        assert fs.read(handle, SECTOR, SECTOR) == blob[SECTOR : 2 * SECTOR]
        assert fs.data_cache.readahead_issued > 0
        # overwrite a page inside the prefetched range, then read it:
        # the write-through copy must win over the prefetched image
        fresh = payload(SECTOR, 99)
        fs.write(handle, 5 * SECTOR, fresh)
        assert fs.read(handle, 5 * SECTOR, SECTOR) == fresh
        expected = blob[: 5 * SECTOR] + fresh + blob[6 * SECTOR :]
        assert fs.read(handle) == expected
