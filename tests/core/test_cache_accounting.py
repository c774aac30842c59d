"""Property tests for the metadata cache's pinned/clean accounting.

``MetadataCache`` keeps, per entry, a ``pinned`` flag and, per cache, a
recency list of the clean entries only, both updated at the transitions
that can change them, so that eviction never looks at a page image.
Here arbitrary operation sequences are run and, after every step, the
maintained state is compared with the one recomputed from the images
(``CacheEntry.evictable``, the reference predicate), and the eviction
rule with its definition:

* no pinned entry is ever evicted;
* an eviction pass removes ``min(len − capacity, clean − capacity // 4)``
  clean entries: first the cold pages a listing has read (in the order
  it read them), then the warm ones least recently used first, then the
  cold pages no read has reached yet (in the order they arrived);
* so a listing never evicts a warm page while a cold page it has
  already read is resident;
* a page a listing prefetched is cold (``CacheEntry.cold``, in one of
  the cold segment's lists) until its second read, warm after it;
* so after a pass ``len ≤ max(capacity, pinned + capacity // 4)`` (a
  staged write does not run a pass — it did not before either — so
  between passes the cache can be over by the writes since);
* while the log pins at most ``capacity − capacity // 4`` entries the
  survivors are exactly those of the rule this one replaced: evict the
  least recently used evictable entries until ``len ≤ capacity``;
* a leader leaves exactly when it becomes evictable (logged and home):
  no resident leader is ever clean, and none leaves owing a write
  unless it was dropped or rolled back.  That is a removal on purpose,
  not an eviction, for this cache and the reference alike.

Which pages are cold, and in what order, is kept here too
(:class:`Segments`), from the operations and what was resident before
each, not from the cache's lists.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cache import CLEAN_RESERVE_SHARE, MetadataCache
from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE

CAPACITIES = [4, 16, 96]
LEADER_BASE = 10_000


def image(page_id: int, variant: int) -> bytes:
    return f"{page_id}:{variant}".encode().ljust(64, b".")


class Home:
    """The home copies: every name-table page starts as variant 0."""

    def __init__(self):
        self.pages: dict[int, bytes] = {}
        self.leaders: dict[int, bytes] = {}

    def read_page(self, page_no: int) -> bytes:
        return self.pages.get(page_no, image(page_no, 0))

    def write_pages(self, batch, leaders=()) -> int:
        self.pages.update(batch)
        self.leaders.update(leaders)
        return len(batch) + len(leaders)


COLD_READ, WARM, COLD_UNREAD = range(3)


class Segments:
    """The cold segment as its definition states it, kept beside a
    cache: per page a listing installed that no second read has warmed,
    whether a read reached it yet and a stamp of when (the install, or
    that read).  Fed each operation before it runs (``before``, which
    sees what is resident then) and pruned of what left after it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cold: dict[tuple[int, int], tuple[int, int]] = {}
        self.clock = 0

    def _stamp(self) -> int:
        self.clock += 1
        return self.clock

    def before(self, cache: MetadataCache, op: tuple) -> None:
        kind = op[0]
        if kind == "read":
            key = (PAGE_NAME_TABLE, op[1])
            state = self.cold.get(key)
            if state is None:
                return
            if state[0] == COLD_UNREAD:
                self.cold[key] = (COLD_READ, self._stamp())
            else:
                del self.cold[key]  # the second read warms it
        elif kind == "install" and op[2]:
            for page_no in op[1][max(0, len(op[1]) - self.capacity):]:
                key = (PAGE_NAME_TABLE, page_no)
                if key not in cache._entries:
                    self.cold[key] = (COLD_UNREAD, self._stamp())
        elif kind == "write_nt":
            self.cold.pop((PAGE_NAME_TABLE, op[1]), None)
        elif kind == "write_run":
            for page_no in range(op[1], op[1] + op[2]):
                self.cold.pop((PAGE_NAME_TABLE, page_no), None)

    def after(self, cache: MetadataCache) -> None:
        for key in [key for key in self.cold if key not in cache._entries]:
            del self.cold[key]

    def rank(self, entry) -> tuple[int, int]:
        """Eviction order: lower goes first."""
        state = self.cold.get((entry.kind, entry.page_id))
        return (WARM, entry.lru_tick) if state is None else state


class ParentRuleCache(MetadataCache):
    """The eviction rule before the reserve, as its comment defined it:
    the entries a sort over the evictable ones selects, until the cache
    is back at capacity, extended with the cold segment: the sort is by
    :meth:`Segments.rank` (``lru_tick`` alone when nothing is cold).
    Decided from the images and the test's own :class:`Segments`."""

    def _evict_if_needed(self) -> None:
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        victims = sorted(
            (entry for entry in self._entries.values() if entry.evictable),
            key=self.segments.rank,
        )[:excess]
        for entry in victims:
            key = (entry.kind, entry.page_id)
            del self._entries[key]
            for clean in (self._lru, self._cold, self._cold_read):
                clean.pop(key, None)


def build(cls, capacity: int):
    home = Home()
    cache = cls(
        capacity_pages=capacity,
        nt_reader=home.read_page,
        writer=home.write_pages,
    )
    cache.segments = Segments(capacity)
    return cache, home


def step(cache: MetadataCache, home: "Home", op: tuple) -> dict:
    """Run ``op`` with the cache's :class:`Segments` fed beside it;
    returns the entries from before it.  The segments still hold what
    the op evicted (its rank at the pass) until ``segments.after``."""
    before = dict(cache._entries)
    cache.segments.before(cache, op)
    apply(cache, home, op)
    return before


def apply(cache: MetadataCache, home: Home, op: tuple) -> None:
    """Run one generated operation against ``cache``."""
    kind = op[0]
    if kind == "read":
        cache.read_nt(op[1])
    elif kind == "write_nt":
        cache.write_nt(op[1], image(op[1], op[2]))
    elif kind == "write_run":
        for page_no in range(op[1], op[1] + op[2]):
            cache.write_nt(page_no, image(page_no, op[3]))
    elif kind == "write_leader":
        cache.write_leader(LEADER_BASE + op[1], image(op[1], op[2]))
    elif kind == "force":
        pages = cache.pages_needing_log()
        if pages and op[2] is not None:
            # A page modified again while the force is in progress
            # stays dirty although its older image is now logged.
            victim = pages[op[2] % len(pages)]
            again = victim.data + b"+"
            if victim.kind == PAGE_NAME_TABLE:
                cache.write_nt(victim.page_id, again)
            else:
                cache.write_leader(victim.page_id, again)
        cache.note_logged(pages, op[1])
    elif kind == "flush":
        cache.flush_third(op[1])
    elif kind == "install":
        # Only images equal to home may be installed; a resident page
        # is skipped, so home is the right image for every other one.
        # ``op[2]``: a listing's prefetch, which installs cold.
        cache.install_clean(
            [(page_no, home.read_page(page_no)) for page_no in op[1]],
            cold=op[2],
        )
    elif kind == "leader_home":
        cache.note_leader_home(LEADER_BASE + op[1])
    elif kind == "drop_leader":
        cache.drop_leader(LEADER_BASE + op[1])
    elif kind == "rollback":
        cache.rollback_uncommitted()
    else:
        raise AssertionError(kind)


#: operations that end in an eviction pass; so does a read that misses.
EVICTING = {"force", "flush", "install"}


#: operations that can leave a leader logged and home.
RELEASING = {"force", "flush", "leader_home", "rollback"}


def released_leaders(before: dict, op: tuple) -> set:
    """Leaders ``op`` left owing no write.  Read after ``op``: an entry
    object stays the one ``before`` holds, and a removed one is final."""
    if op[0] not in RELEASING:
        return set()
    return {
        key for key, entry in before.items()
        if entry.kind == PAGE_LEADER and entry.evictable
    }


def removed_on_purpose(before: dict, op: tuple) -> set:
    """Keys ``op`` removes by definition (not by eviction)."""
    if op[0] == "drop_leader":
        return {(PAGE_LEADER, LEADER_BASE + op[1])}
    released = released_leaders(before, op)
    if op[0] == "rollback":
        return released | {
            key for key, entry in before.items()
            if entry.needs_log and entry.logged_image is None
        }
    return released


def check_accounting(cache: MetadataCache) -> None:
    """Maintained flags, counts and lists against the images."""
    entries = cache._entries
    clean = {key for key, entry in entries.items() if entry.evictable}
    for key, entry in entries.items():
        assert entry.pinned == (not entry.evictable), key
        assert entry.pinned or entry.kind == PAGE_NAME_TABLE, key
    warm, cold, cold_read = (
        set(cache._lru), set(cache._cold), set(cache._cold_read)
    )
    assert warm | cold | cold_read == clean
    assert len(warm) + len(cold) + len(cold_read) == len(clean)
    segments = cache.segments.cold
    assert cold == {
        key for key, (state, _) in segments.items() if state == COLD_UNREAD
    }
    assert cold_read == {
        key for key, (state, _) in segments.items() if state == COLD_READ
    }
    for key, entry in entries.items():
        assert entry.cold == (key in segments), key
    # each cold list in the order the definition gives it
    for keys in (cache._cold, cache._cold_read):
        stamps = [segments[key][1] for key in keys]
        assert stamps == sorted(stamps)
    assert cache.misaccounted() == []
    assert cache.clean_pages == len(clean)
    assert cache.pinned_pages == len(entries) - len(clean)
    assert set(cache._dirty) == {
        key for key, entry in entries.items() if entry.needs_log
    }


def check_eviction(
    cache: MetadataCache, before: dict, op: tuple, ran_pass: bool
) -> None:
    """What left the cache during ``op``, against the rule."""
    after = cache._entries
    dropped = removed_on_purpose(before, op)
    # a leader leaves exactly when it becomes evictable
    left = {key for key in before if key[0] == PAGE_LEADER} - set(after)
    assert released_leaders(before, op) <= left
    assert left <= dropped
    evicted = [
        entry for key, entry in before.items()
        if key not in after and key not in dropped
    ]
    if not ran_pass:
        assert not evicted
        return
    reserve = cache.capacity // CLEAN_RESERVE_SHARE
    clean = [entry for entry in after.values() if entry.evictable]
    # never a pinned entry (an evicted entry's fields are final)
    assert all(entry.evictable for entry in evicted)
    # the first clean ones in eviction order, and so no warm page while
    # a cold page the listing has read stays
    rank = cache.segments.rank
    if evicted and clean:
        assert max(map(rank, evicted)) < min(map(rank, clean))
    if any(rank(entry)[0] == WARM for entry in evicted):
        assert all(rank(entry)[0] != COLD_READ for entry in clean)
    # exactly min(len - capacity, clean - reserve) of them: the pass
    # stopped no earlier ...
    assert len(after) <= cache.capacity or len(clean) <= reserve
    # ... and no later than that
    if evicted:
        assert len(after) >= cache.capacity and len(clean) >= reserve
    assert len(after) <= max(
        cache.capacity, cache.pinned_pages + reserve
    )


def operations(capacity: int):
    pages = st.integers(0, 2 * capacity + 4)
    leaders = st.integers(0, max(2, capacity // 2))
    variants = st.integers(0, 2)
    thirds = st.integers(0, 2)
    return st.lists(
        st.one_of(
            st.tuples(st.just("read"), pages),
            st.tuples(st.just("write_nt"), pages, variants),
            st.tuples(
                st.just("write_run"), pages,
                st.integers(1, capacity), variants,
            ),
            st.tuples(st.just("write_leader"), leaders, variants),
            st.tuples(
                st.just("force"), thirds,
                st.one_of(st.none(), st.integers(0, 1000)),
            ),
            st.tuples(st.just("flush"), thirds),
            st.tuples(
                st.just("install"),
                st.lists(pages, max_size=capacity + 2, unique=True),
                st.booleans(),
            ),
            st.tuples(
                st.just("list"),
                st.lists(pages, max_size=capacity + 2, unique=True),
            ),
            st.tuples(st.just("leader_home"), leaders),
            st.tuples(st.just("drop_leader"), leaders),
            st.tuples(st.just("rollback")),
        ),
        max_size=120,
    ).map(expand)


def expand(ops: list[tuple]) -> list[tuple]:
    """A ``list`` is what a listing does to the cache: its prefetch
    installs the pages cold, then its scan reads each of them once."""
    out = []
    for op in ops:
        if op[0] == "list":
            out.append(("install", op[1], True))
            out.extend(("read", page_no) for page_no in op[1])
        else:
            out.append(op)
    return out


@pytest.mark.parametrize("capacity", CAPACITIES)
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_accounting_and_eviction_rule(capacity, data):
    ops = data.draw(operations(capacity))
    cache, home = build(MetadataCache, capacity)
    reference, reference_home = build(ParentRuleCache, capacity)
    #: True while no eviction pass has yet run with more than
    #: ``capacity - reserve`` entries pinned: until then the reserve
    #: cannot have withheld anything.
    same_as_parent = True
    for op in ops:
        misses = cache.misses
        before = step(cache, home, op)
        ran_pass = op[0] in EVICTING or cache.misses > misses
        check_eviction(cache, before, op, ran_pass)
        cache.segments.after(cache)
        check_accounting(cache)
        step(reference, reference_home, op)
        reference.segments.after(reference)
        if ran_pass and cache.pinned_pages > (
            capacity - capacity // CLEAN_RESERVE_SHARE
        ):
            same_as_parent = False
        if same_as_parent:
            assert set(cache._entries) == set(reference._entries)
            assert cache.reserve_holds == 0


def run_burst(cls, capacity: int, pinned: int):
    """``pinned`` pages logged and not home, then lookups that each
    descend root -> interior -> a fresh leaf: returns the misses on the
    root and the cache."""
    cache, home = build(cls, capacity)
    for page_no in range(100, 100 + pinned):
        cache.write_nt(page_no, image(page_no, 1))
    cache.note_logged(cache.pages_needing_log(), third=0)
    root_reads = 0
    real_reader = cache._nt_reader

    def reader(page_no: int) -> bytes:
        nonlocal root_reads
        root_reads += page_no == 0
        return real_reader(page_no)

    cache._nt_reader = reader
    for lookup in range(50):
        cache.read_nt(0)
        cache.read_nt(1 + lookup % 3)
        cache.read_nt(1000 + lookup)
    return root_reads, cache


@pytest.mark.parametrize("capacity", [16, 96])
def test_pinned_pages_cannot_push_out_the_root(capacity):
    """The case the reserve exists for: the log pins as many entries as
    the cache holds.  The replaced rule re-reads the root on every
    lookup; with the reserve (at least the three pages a lookup
    touches) it is read once."""
    reserve = capacity // CLEAN_RESERVE_SHARE
    root_reads, cache = run_burst(MetadataCache, capacity, pinned=capacity)
    assert root_reads == 1
    assert cache.pinned_pages == capacity
    assert cache.clean_pages == reserve
    assert cache.pinned_pages + cache.clean_pages == capacity + reserve
    assert cache.reserve_holds > 0
    assert cache.evictions == cache.misses - reserve
    parent_root_reads, _ = run_burst(ParentRuleCache, capacity, pinned=capacity)
    assert parent_root_reads == 50


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_identical_to_the_replaced_rule_below_the_threshold(capacity):
    """With at most ``capacity - reserve`` entries pinned the reserve
    withholds nothing: same survivors, same eviction count."""
    pinned = capacity - capacity // CLEAN_RESERVE_SHARE
    root_reads, cache = run_burst(MetadataCache, capacity, pinned)
    parent_root_reads, parent = run_burst(ParentRuleCache, capacity, pinned)
    assert set(cache._entries) == set(parent._entries)
    assert root_reads == parent_root_reads
    assert cache.pinned_pages + cache.clean_pages == capacity
    assert cache.reserve_holds == 0


def test_released_entry_rejoins_by_last_use_not_by_release_time():
    """A page released from its pin takes the place in the recency
    order its last use gives it (as a sort by ``lru_tick`` would)."""
    cache, _ = build(MetadataCache, 4)
    cache.write_nt(1, image(1, 1))          # oldest use of all
    cache.note_logged(cache.pages_needing_log(), third=0)
    for page_no in (2, 3, 4):
        cache.read_nt(page_no)
    cache.flush_third(0)                    # page 1 released, now clean
    cache.read_nt(5)                        # one over: page 1 must go
    assert (PAGE_NAME_TABLE, 1) not in cache._entries
    assert {key[1] for key in cache._entries} == {2, 3, 4, 5}
