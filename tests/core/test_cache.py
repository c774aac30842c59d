"""Unit tests for the metadata cache state machine.

The crucial invariant (from the WAL-steal analysis): the third-entry
writeback writes the *logged* image home, never a newer unlogged one —
otherwise a crash could leave a multi-page update half-applied.
"""

from __future__ import annotations

import pytest

from repro.core.cache import MetadataCache
from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE, LoggedPage
from repro.errors import CorruptMetadata


class Home:
    """Fake home store recording writes."""

    def __init__(self):
        self.pages: dict[int, bytes] = {}
        self.leaders: dict[int, bytes] = {}
        self.reads = 0

    def read_page(self, page_no: int) -> bytes:
        self.reads += 1
        return self.pages.get(page_no, b"\x00" * 512)

    def write_pages(self, batch, leaders=()):
        for page_no, data in batch:
            self.pages[page_no] = data
        self.leaders.update(leaders)
        return len(batch) + len(leaders)


@pytest.fixture
def home() -> Home:
    return Home()


@pytest.fixture
def cache(home: Home) -> MetadataCache:
    return MetadataCache(
        capacity_pages=4,
        nt_reader=home.read_page,
        writer=home.write_pages,
    )


class TestReadPath:
    def test_miss_then_hit(self, cache, home):
        home.pages[7] = b"seven".ljust(512, b"\x00")
        assert cache.read_nt(7).startswith(b"seven")
        assert cache.read_nt(7).startswith(b"seven")
        assert home.reads == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_of_clean_pages(self, cache, home):
        for page in range(8):
            cache.read_nt(page)
        assert cache.pinned_pages + cache.clean_pages <= 4
        assert cache.evictions >= 4

    def test_lru_order(self, cache):
        for page in range(4):
            cache.read_nt(page)
        cache.read_nt(0)  # refresh page 0
        cache.read_nt(99)  # evicts page 1 (oldest)
        assert (PAGE_NAME_TABLE, 1) not in cache._entries
        assert (PAGE_NAME_TABLE, 0) in cache._entries


class TestDirtyLifecycle:
    def test_write_marks_needs_log(self, cache):
        cache.write_nt(3, b"x" * 512)
        pages = cache.pages_needing_log()
        assert [(p.kind, p.page_id) for p in pages] == [(PAGE_NAME_TABLE, 3)]

    def test_note_logged_clears_needs_log(self, cache):
        cache.write_nt(3, b"x" * 512)
        pages = cache.pages_needing_log()
        cache.note_logged(pages, third=0)
        assert cache.pages_needing_log() == []
        assert cache.pending_log_pages() == 0

    def test_dirty_entries_are_pinned(self, cache):
        cache.write_nt(3, b"x" * 512)
        for page in range(10, 20):
            cache.read_nt(page)
        assert (PAGE_NAME_TABLE, 3) in cache._entries

    def test_logged_but_not_home_pages_are_pinned(self, cache):
        cache.write_nt(3, b"x" * 512)
        cache.note_logged(cache.pages_needing_log(), third=0)
        for page in range(10, 20):
            cache.read_nt(page)
        assert (PAGE_NAME_TABLE, 3) in cache._entries

    def test_logging_unknown_page_is_corruption(self, cache):
        with pytest.raises(CorruptMetadata):
            cache.note_logged(
                [LoggedPage(PAGE_NAME_TABLE, 42, b"")], third=0
            )


class TestFlushThird:
    def test_flush_writes_logged_image_home(self, cache, home):
        cache.write_nt(3, b"v1".ljust(512, b"\x00"))
        cache.note_logged(cache.pages_needing_log(), third=1)
        cache.flush_third(1)
        assert home.pages[3].startswith(b"v1")

    def test_flush_other_third_is_noop(self, cache, home):
        cache.write_nt(3, b"v1" * 256)
        cache.note_logged(cache.pages_needing_log(), third=1)
        cache.flush_third(2)
        assert 3 not in home.pages

    def test_flush_never_writes_unlogged_data(self, cache, home):
        """The steal-avoidance invariant."""
        cache.write_nt(3, b"v1".ljust(512, b"\x00"))
        cache.note_logged(cache.pages_needing_log(), third=1)
        cache.write_nt(3, b"v2-unlogged".ljust(512, b"\x00"))  # newer, dirty
        cache.flush_third(1)
        assert home.pages[3].startswith(b"v1")
        # ...and the newer version is still awaiting its own commit.
        assert cache.pending_log_pages() == 1

    def test_flush_idempotent(self, cache, home):
        cache.write_nt(3, b"v1".ljust(512, b"\x00"))
        cache.note_logged(cache.pages_needing_log(), third=1)
        cache.flush_third(1)
        writes_before = cache.home_writes
        cache.flush_third(1)
        assert cache.home_writes == writes_before

    def test_flush_batches_contiguous_pages(self, cache, home):
        for page in (5, 6, 7, 20):
            cache.write_nt(page, bytes([page]) * 512)
        cache.note_logged(cache.pages_needing_log(), third=0)
        cache.flush_third(0)
        assert set(home.pages) == {5, 6, 7, 20}

    def test_flush_all_home(self, cache, home):
        for page, third in ((1, 0), (2, 1), (3, 2)):
            cache.write_nt(page, bytes([page]) * 512)
            cache.note_logged(cache.pages_needing_log(), third=third)
        cache.flush_all_home()
        assert set(home.pages) == {1, 2, 3}

    def test_flushed_page_becomes_evictable(self, cache, home):
        cache.write_nt(3, b"x" * 512)
        cache.note_logged(cache.pages_needing_log(), third=0)
        cache.flush_third(0)
        for page in range(10, 20):
            cache.read_nt(page)
        assert (PAGE_NAME_TABLE, 3) not in cache._entries


class TestLeaders:
    def test_leader_logged_and_flushed(self, cache, home):
        cache.write_leader(500, b"leader!")
        pages = cache.pages_needing_log()
        assert pages[-1].kind == PAGE_LEADER
        cache.note_logged(pages, third=2)
        cache.flush_third(2)
        assert home.leaders[500].startswith(b"leader!")

    def test_piggyback_pending_until_home(self, cache):
        cache.write_leader(500, b"leader!")
        assert cache.leader_pending_piggyback(500) == b"leader!"
        cache.note_leader_home(500)
        assert cache.leader_pending_piggyback(500) is None

    def test_piggyback_skips_logging_code_write(self, cache, home):
        """The paper: a piggybacked leader avoids the write by the
        logging code at third entry."""
        cache.write_leader(500, b"leader!")
        cache.note_logged(cache.pages_needing_log(), third=0)
        cache.note_leader_home(500)  # piggybacked onto a data write
        cache.flush_third(0)
        assert 500 not in home.leaders  # no second write

    def test_drop_leader(self, cache):
        cache.write_leader(500, b"leader!")
        cache.drop_leader(500)
        assert cache.pages_needing_log() == []

    def test_unknown_leader_queries(self, cache):
        assert cache.leader_pending_piggyback(123) is None
        cache.note_leader_home(123)  # no error
        cache.drop_leader(123)  # no error


class TestCrash:
    def test_discard_all(self, cache):
        cache.write_nt(1, b"x" * 512)
        cache.write_leader(2, b"y")
        cache.discard_all()
        assert cache.pinned_pages + cache.clean_pages == 0
        assert cache.pages_needing_log() == []
