"""The retaining data cache against a reference model.

``read_stream`` and ``traffic_steady`` mount thousands of retained
pages, a configuration the buffer's twin machine
(``test_readahead_buffer.py``, capacity 0) never reaches.  Here random
lookups, stores (demanded, written, prefetched), read-ahead decisions,
invalidations, forgets and crashes run on a small retaining
:class:`DataPageCache` and on :class:`Reference`, a plain list-and-dict
rendering of the documented rules; a read-ahead that grants a window
fetches it, as the read path does.  After every step the returned
values, every counter, the LRU order and each sector's owner and
prefetched flag must agree; back-off decisions show in what
``readahead`` returns.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data_cache import DataPageCache

SECTOR = 8
COUNTERS = ("hits", "misses", "evictions", "invalidations",
            "readahead_issued", "readahead_used")


class Reference:
    """The cache's rules, written for clarity: ``lru`` is every held
    address, least recently used first."""

    def __init__(self, room: int, readahead_pages: int):
        self.room, self.window = room, readahead_pages
        self.lru: list[int] = []
        self.held: dict[int, list] = {}  # address -> [uid, image, prefetched]
        self.seq: dict[int, int] = {}  # uid -> next page, oldest first
        self.backed_off: set[int] = set()
        for name in COUNTERS:
            setattr(self, name, 0)

    def lookup(self, address, count):
        found = [None] * count
        for offset in range(count):
            entry = self.held.get(address + offset)
            if entry is None:
                continue
            found[offset] = entry[1]
            if entry[2]:
                entry[2] = False
                self.backed_off.discard(entry[0])
                self.readahead_used += 1
            self.lru.remove(address + offset)
            self.lru.append(address + offset)
        hits = count - found.count(None)
        self.hits += hits
        self.misses += count - hits
        return found if hits else None

    def store(self, address, sectors, uid, prefetched):
        if prefetched:
            self.readahead_issued += len(sectors)
        for at, image in enumerate(sectors, address):
            if at in self.held:
                self.lru.remove(at)
            self.held[at] = [uid, image.ljust(SECTOR, b"\x00"), prefetched]
            self.lru.append(at)
            if len(self.lru) > self.room:
                owner, _, unused = self.held.pop(self.lru.pop(0))
                if unused:
                    self.backed_off.add(owner)
                self.evictions += 1

    def readahead(self, uid, first_page, page_count, next_address):
        if not self.window:
            return 0
        sequential = self.seq.pop(uid, None) == first_page
        # Two uids never reach the cache's cap on tracked streams.
        self.seq[uid] = first_page + page_count
        if first_page == 0 or not sequential:
            self.backed_off.discard(uid)
            if first_page:
                return 0
        elif uid in self.backed_off:
            return 0
        count = 0
        while count < self.window and next_address + count not in self.held:
            count += 1
        return count

    def invalidate(self, address, count):
        dropped = [at for at in range(address, address + count) if at in self.held]
        for at in dropped:
            del self.held[at]
            self.lru.remove(at)
        self.invalidations += len(dropped)
        return len(dropped)

    def invalidate_file(self, uid):
        owned = [at for at, entry in self.held.items() if entry[0] == uid]
        dropped = sum(self.invalidate(at, 1) for at in owned)
        self.forget_file(uid)
        return dropped

    def forget_file(self, uid):
        self.seq.pop(uid, None)
        self.backed_off.discard(uid)

    def discard_all(self):
        self.lru.clear()
        self.held.clear()
        self.seq.clear()
        self.backed_off.clear()


# Few addresses, uids and pages, so that re-owned sectors, evictions
# of unused prefetches and streams that continue are all common.
addresses = st.integers(0, 5)
uids = st.integers(1, 2)
stores = st.tuples(
    st.just("store"), addresses,
    st.lists(st.binary(min_size=1, max_size=SECTOR), min_size=1, max_size=3),
    uids, st.booleans(),
)
# A window from past the stored addresses is never cut short.
readaheads = st.tuples(
    st.just("readahead"), uids, st.integers(0, 1), st.just(1), st.integers(0, 11)
)
# Stores and read-aheads are drawn twice as often as the rest.
operations = st.one_of(
    st.tuples(st.just("lookup"), addresses, st.integers(1, 3)),
    stores, stores, readaheads, readaheads,
    st.tuples(st.just("invalidate"), addresses, st.integers(1, 3)),
    st.tuples(st.just("invalidate_file"), uids),
    st.tuples(st.just("forget_file"), uids),
    st.tuples(st.just("discard_all")),
)


@settings(max_examples=200, deadline=None)
@given(
    room=st.integers(1, 4),
    window=st.integers(0, 3),
    steps=st.lists(operations, min_size=20, max_size=80),
)
def test_retaining_cache_follows_the_reference(room, window, steps):
    cache = DataPageCache(capacity_pages=room, readahead_pages=window,
                          sector_bytes=SECTOR)
    reference = Reference(room, window)
    for step in steps:
        name, *args = step
        got = getattr(cache, name)(*args)
        want = getattr(reference, name)(*args)
        assert got == want, step
        if name == "readahead" and got:
            # Fetch the window granted, as the read path does.
            uid, _, _, at = args
            window_images = [bytes([at])] * got
            cache.store(at, window_images, uid, prefetched=True)
            reference.store(at, window_images, uid, True)
        for counter in COUNTERS:
            assert getattr(cache, counter) == getattr(reference, counter), (
                counter, step)
        assert cache.entries() == [
            (at, *reference.held[at]) for at in reference.lru
        ], step
