"""The metadata page cache (paper §5.3).

"Updates are applied to buffered copies of pages, but the copies are
not forced to disk — they are just written to the log."  The cache
therefore distinguishes, per page:

* ``needs_log``   — modified since the page was last logged (waiting
  for the next group commit),
* ``logged_image``— the image most recently written to the log (what
  recovery would reconstruct),
* ``home_image``  — what is on the page's home sectors.

The third-entry writeback ("dirty but logged" pages) writes the
*logged* image home, never the possibly newer unlogged one: writing an
uncommitted image home would break the atomicity the log provides
(a multi-page B-tree split could reach disk half-done).

The cache holds two populations.  *Pinned* entries (``needs_log``, or a
logged image that differs from home) are obligations: their number is
set by the log — how much was modified since the third now being
overwritten was last entered — not by ``capacity``.  *Clean* entries
are the cache proper, evicted never below a reserve of
``capacity // CLEAN_RESERVE_SHARE``, so that however much the log pins
there is room for the B-tree root and the interior nodes every lookup
descends through.  Resident entries are therefore bounded by
``max(capacity, pinned + reserve)``.  A leader is never clean: nothing
reads it here once it is logged and home, so it leaves.

Clean pages are *warm*, in recency order, or *cold*: the pages a
listing prefetched (``install_clean(..., cold=True)``) join a FIFO
segment instead, and the listing's own read of each leaves it there;
any later read moves it to the warm most-recently-used end.  Eviction
takes the cold pages already read first (oldest first), then the warm
ones (least recently used first), then the cold ones no read has
reached yet.  A listing of a directory larger than the cache therefore
recycles its own pages and leaves the warm set (interior nodes, the
leaves lookups live on) where it was.  The rule only chooses which
clean page leaves, so no disk image or result depends on it.

The cache itself never touches the disk: writeback goes through the
injected ``writer`` callable, which a mounted volume points at
:meth:`~repro.core.name_table.NameTableHome.write_pages`: a third's
(at a checkpoint or unmount, every third's) name-table pages and
leaders go home as one planned batch, all on the platter when the
callable returns.

Cached name-table pages are conceptually read-only between updates —
the paper keeps them read-protected to catch wild stores.  Here the
analogous guard is that the cache hands out ``bytes`` (immutable) and
only :meth:`write_nt`/:meth:`write_leader` can change cache state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable

from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE, LoggedPage
from repro.errors import CorruptMetadata
from repro.obs import NULL_OBS

#: clean entries the cache keeps whatever the log pins, as a share of
#: ``capacity``.  EXPERIMENTS.md "§5.3 — clean-page reserve" has the
#: sweep behind the value.
CLEAN_RESERVE_SHARE = 4

_BY_TICK = attrgetter("lru_tick")


@dataclass(slots=True)
class CacheEntry:
    kind: int              # PAGE_NAME_TABLE or PAGE_LEADER
    page_id: int
    data: bytes
    needs_log: bool = False
    logged_image: bytes | None = None
    home_image: bytes | None = None
    last_logged_third: int | None = None
    lru_tick: int = 0
    #: ``not evictable``, maintained by the cache at every transition
    #: that can change it so that eviction never compares page images.
    pinned: bool = False
    #: a clean page a listing prefetched that no later read has warmed:
    #: it lives in the cache's cold segment, not its recency order.
    cold: bool = False

    @property
    def home_stale(self) -> bool:
        """True when the last logged image has not been written home."""
        return self.logged_image is not None and (
            self.logged_image != self.home_image
        )

    @property
    def evictable(self) -> bool:
        return not self.needs_log and not self.home_stale


class _NullCounter:
    """Stand-in counter bound on detached (NULL observer) hot paths:
    the increment lands on a throwaway slot instead of re-entering the
    no-op observer on every hit."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class MetadataCache:
    """Cache of name-table pages and pending leader pages.

    ``nt_reader(page_no)`` must return the page from its home copies
    (the double read); ``writer(pages, leaders)`` must write ``(page_no,
    data)`` pairs to both home copies and ``(address, data)`` leader
    pages home, and return the number of transfers it made
    (:meth:`NameTableHome.write_pages`).
    """

    def __init__(
        self,
        capacity_pages: int,
        nt_reader: Callable[[int], bytes],
        writer: Callable[
            [list[tuple[int, bytes]], list[tuple[int, bytes]]], int
        ],
    ):
        self.capacity = capacity_pages
        #: clean entries eviction never goes below.
        self.reserve = capacity_pages // CLEAN_RESERVE_SHARE
        self._nt_reader = nt_reader
        self._writer = writer
        self._entries: dict[tuple[int, int], CacheEntry] = {}
        #: entries with ``needs_log`` set, maintained incrementally so
        #: the admission/pressure checks on every operation are O(1)
        #: instead of a full cache scan.
        self._dirty: dict[tuple[int, int], CacheEntry] = {}
        #: the warm clean entries (exactly those with ``pinned`` and
        #: ``cold`` unset) in recency order, oldest first: eviction pops
        #: the front and never sees a pinned entry.
        self._lru: OrderedDict[tuple[int, int], CacheEntry] = OrderedDict()
        #: the cold segment: pages a listing prefetched that no read
        #: has reached yet, in the order they arrived ...
        self._cold: OrderedDict[tuple[int, int], CacheEntry] = OrderedDict()
        #: ... and those the listing has read once, in the order it
        #: read them: the first pages eviction takes.
        self._cold_read: OrderedDict[
            tuple[int, int], CacheEntry
        ] = OrderedDict()
        #: while entries released from their pin sit at the tail of
        #: ``_lru`` rather than where ``lru_tick`` puts them, the oldest
        #: ``lru_tick`` among them (else None); the next eviction
        #: restores the order first.
        self._released_from: int | None = None
        #: lazily bound handle for the ``cache.hits`` counter (the
        #: hottest metric in the system); ``read_nt`` binds it on the
        #: first hit with a live observer attached.
        self._hit_counter = None
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: the evictions that took a page from the cold segment.
        self.cold_evictions = 0
        #: evictions the reserve withheld (see ``_evict_if_needed``).
        self.reserve_holds = 0
        #: most pinned entries seen at a force.
        self.pinned_peak = 0
        self.home_writes = 0
        #: observability attach point (``FSD.mount`` rebinds it).
        self.obs = NULL_OBS

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        # Rebinding the observer invalidates any bound counter handle.
        self._obs = value
        self._hit_counter = None

    @property
    def pinned_pages(self) -> int:
        """Entries the log holds here: modified and not yet logged, or
        logged and not yet written home."""
        return len(self._entries) - self.clean_pages

    @property
    def clean_pages(self) -> int:
        """Entries equal to their home copies (the evictable ones),
        warm and cold."""
        return len(self._lru) + len(self._cold) + len(self._cold_read)

    # ------------------------------------------------------------------
    # name-table pages
    # ------------------------------------------------------------------
    def read_nt(self, page_no: int) -> bytes:
        """Read a name-table page, via the cache (miss = double read)."""
        key = (PAGE_NAME_TABLE, page_no)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            counter = self._hit_counter
            if counter is not None:
                counter.value += 1
            else:
                # First hit goes through the normal path (so the
                # counter is created lazily, exactly as before), then
                # the handle is bound for every later hit.
                obs = self.obs
                obs.count("cache.hits")
                if obs.enabled:
                    self._hit_counter = obs.metrics.counter("cache.hits")
                else:
                    self._hit_counter = _NullCounter()
            # The hottest cache path (NameTablePager.read carries a
            # copy of these statements): a pinned entry has no place
            # in the recency order until it is released.
            self._tick += 1
            entry.lru_tick = self._tick
            if entry.cold:
                self.touch_cold(key, entry)
            elif not entry.pinned:
                self._lru.move_to_end(key)
            return entry.data
        self.misses += 1
        self.obs.count("cache.misses")
        data = self._nt_reader(page_no)
        self._add_clean(key, data)
        self._evict_if_needed()
        return data

    def touch_cold(self, key: tuple[int, int], entry: CacheEntry) -> None:
        """The recency part of a hit on a cold page (``read_nt`` and
        ``NameTablePager.read`` do the rest).  The first read is the
        listing's own: the page stays cold, now among those eviction
        takes first.  Any later read warms it: it joins the recency
        order at the most recently used end."""
        cold = self._cold
        if key in cold:
            del cold[key]
            self._cold_read[key] = entry
            return
        del self._cold_read[key]
        entry.cold = False
        self._lru[key] = entry

    def write_nt(self, page_no: int, data: bytes) -> None:
        """Apply an update to a cached name-table page (dirty until logged)."""
        self._stage(PAGE_NAME_TABLE, page_no, data)

    def resident_nt(self, page_no: int) -> bytes | None:
        """Current image of a resident name-table page, else None.

        For bulk readers that fetch home images themselves and only
        need to know where the cache is newer: no hit is counted and
        recency is untouched.
        """
        entry = self._entries.get((PAGE_NAME_TABLE, page_no))
        return None if entry is None else entry.data

    def clean_nt_pages(self) -> list[tuple[int, bytes]]:
        """Resident name-table pages with no pending obligation, as
        ``(page_no, data)``.  Each must equal both of its home copies;
        the verifier holds the cache to that.  Decided from the images
        (``CacheEntry.evictable``), not from the maintained flag."""
        return [
            (entry.page_id, entry.data)
            for entry in self._entries.values()
            if entry.evictable
        ]

    def misaccounted(self) -> list[tuple[int, int]]:
        """Keys of entries whose maintained ``pinned`` flag, or place
        among the clean lists, disagrees with their images: a clean
        entry is in exactly one, the warm list or (when ``cold``) one of
        the cold segment's two, a pinned one in none.  Always empty;
        the verifier holds the cache to that too."""
        out = []
        for key, entry in self._entries.items():
            cold = (key in self._cold) + (key in self._cold_read)
            if (
                entry.pinned == entry.evictable
                or (key in self._lru) + cold != (not entry.pinned)
                or cold != entry.cold
            ):
                out.append(key)
        return out

    def install_clean(
        self, pages: list[tuple[int, bytes]], cold: bool = False
    ) -> int:
        """Adopt name-table images known to equal their home copies
        (recovery hands over what it just redid), oldest first, as
        clean evictable entries: warm, or in the cold segment when
        ``cold`` (a listing's prefetch).  Only as many as fit are
        taken, from the newest end; a page already resident keeps its
        entry.  Returns the number of pages installed.
        """
        installed = 0
        for page_no, data in pages[max(0, len(pages) - self.capacity):]:
            key = (PAGE_NAME_TABLE, page_no)
            if key in self._entries:
                continue
            self._add_clean(key, data, cold)
            installed += 1
        self._evict_if_needed()
        return installed

    # ------------------------------------------------------------------
    # leader pages
    # ------------------------------------------------------------------
    def write_leader(self, address: int, data: bytes) -> None:
        """Stage a leader page image (logged at the next commit)."""
        self._stage(PAGE_LEADER, address, data)

    def leader_pending_piggyback(self, address: int) -> bytes | None:
        """If this leader's home copy is stale, return the bytes to
        piggyback onto an adjacent data write (paper §5.3: leader pages
        for a create are normally written by piggybacking)."""
        entry = self._entries.get((PAGE_LEADER, address))
        if entry is None:
            return None
        if entry.data != entry.home_image:
            return entry.data
        return None

    def note_leader_home(self, address: int) -> None:
        """The piggybacked write carried the leader home."""
        key = (PAGE_LEADER, address)
        entry = self._entries.get(key)
        if entry is not None:
            entry.home_image = entry.data
            if self._settle(key, entry):
                del self._entries[key]

    def drop_leader(self, address: int) -> None:
        """Forget a leader (its file was deleted before writeback)."""
        self._entries.pop((PAGE_LEADER, address), None)
        self._dirty.pop((PAGE_LEADER, address), None)

    # ------------------------------------------------------------------
    # group-commit interface
    # ------------------------------------------------------------------
    def pages_needing_log(self) -> list[LoggedPage]:
        """Everything modified since the last force, ready to batch."""
        out = [
            LoggedPage(kind=entry.kind, page_id=entry.page_id, data=entry.data)
            for entry in self._dirty.values()
        ]
        out.sort(key=lambda page: (page.kind, page.page_id))
        return out

    def note_logged(self, pages: Iterable[LoggedPage], third: int) -> None:
        """Mark pages as carried by a record starting in ``third``."""
        for page in pages:
            key = (page.kind, page.page_id)
            entry = self._entries.get(key)
            if entry is None:
                raise CorruptMetadata(f"logged page {key} not in cache")
            if entry.data == page.data:
                entry.needs_log = False
                self._dirty.pop(key, None)
            # else: modified again while the force was in progress —
            # it stays dirty for the next commit.
            entry.logged_image = page.data
            entry.last_logged_third = third
            if self._settle(key, entry):
                del self._entries[key]
        self._evict_if_needed()
        pinned = self.pinned_pages
        if pinned > self.pinned_peak:
            self.pinned_peak = pinned
        obs = self.obs
        obs.gauge("cache.pinned_pages", pinned)
        obs.gauge("cache.pinned_peak", self.pinned_peak)
        obs.gauge("cache.clean_pages", self.clean_pages)

    def flush_third(self, third: int) -> tuple[int, int, int]:
        """The paper's writeback: write home every page whose newest
        log copy lives in ``third`` (it is about to be overwritten).
        Returns the batch's name-table pages, leaders and transfers."""
        return self._write_home((third,))

    def flush_all_home(self) -> None:
        """Clean shutdown or a checkpoint: every logged image goes home,
        all three thirds in one batch."""
        self._write_home((0, 1, 2))

    def pending_log_pages(self) -> int:
        """Pages modified since the last force (awaiting commit)."""
        return len(self._dirty)

    # ------------------------------------------------------------------
    # crash simulation
    # ------------------------------------------------------------------
    def discard_all(self) -> None:
        """A crash: volatile state vanishes."""
        self._entries.clear()
        self._dirty.clear()
        self._lru.clear()
        self._cold.clear()
        self._cold_read.clear()
        self._released_from = None

    def rollback_uncommitted(self) -> int:
        """Degraded-mode switch: abandon every update not yet logged.

        A mutation that died mid-flight (e.g. a B-tree split whose page
        read exhausted the escalation ladder) may have left half its
        pages modified in cache; committing that half later would
        persist exactly the inconsistency logging exists to prevent.
        Pages revert to their last *logged* image (what a crash-restart
        would reconstruct); never-logged fresh pages are dropped.
        Returns the number of pages rolled back.
        """
        rolled_back = 0
        for key, entry in list(self._dirty.items()):
            rolled_back += 1
            if entry.logged_image is None:
                # Dirty, hence pinned: it has no place in ``_lru``.
                del self._entries[key]
            else:
                entry.data = entry.logged_image
                entry.needs_log = False
                if self._settle(key, entry):
                    del self._entries[key]
        self._dirty.clear()
        self.obs.count("cache.rollbacks", rolled_back)
        return rolled_back

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _write_home(self, thirds: tuple[int, ...]) -> tuple[int, int, int]:
        """Hand every logged image not yet home whose newest log copy
        lies in one of ``thirds`` to the writer, as one batch."""
        pages: list[tuple[int, bytes]] = []
        leaders: list[tuple[int, bytes]] = []
        released = []
        for key, entry in self._entries.items():
            if (
                entry.last_logged_third not in thirds
                or not entry.pinned
                or not entry.home_stale
            ):
                continue
            assert entry.logged_image is not None
            batch = pages if entry.kind == PAGE_NAME_TABLE else leaders
            batch.append((entry.page_id, entry.logged_image))
            entry.home_image = entry.logged_image
            if self._settle(key, entry):
                released.append(key)
        for key in released:
            del self._entries[key]
        written = len(pages) + len(leaders)
        transfers = 0
        if written:
            pages.sort()
            transfers = self._writer(pages, leaders)
            self.home_writes += written
        self.obs.count("cache.dirty_writebacks", written)
        self._evict_if_needed()
        return len(pages), len(leaders), transfers

    def _add_clean(
        self, key: tuple[int, int], data: bytes, cold: bool = False
    ) -> None:
        """A name-table image straight from home joins the clean
        population as its most recently used entry, or (``cold``) as
        the newest unread page of the cold segment."""
        self._tick += 1
        entry = CacheEntry(
            kind=PAGE_NAME_TABLE, page_id=key[1], data=data,
            home_image=data, lru_tick=self._tick, cold=cold,
        )
        self._entries[key] = entry
        if cold:
            self._cold[key] = entry
        else:
            self._lru[key] = entry

    def _unlink_clean(self, key: tuple[int, int], entry: CacheEntry) -> None:
        """A clean entry becomes pinned: it leaves its clean list."""
        if not entry.cold:
            del self._lru[key]
            return
        entry.cold = False
        if key in self._cold:
            del self._cold[key]
        else:
            del self._cold_read[key]

    def _stage(self, kind: int, page_id: int, data: bytes) -> None:
        """A modified image: pinned until it is logged *and* home."""
        key = (kind, page_id)
        entry = self._entries.get(key)
        if entry is None:
            entry = CacheEntry(kind=kind, page_id=page_id, data=data,
                               pinned=True)
            self._entries[key] = entry
        elif not entry.pinned:
            entry.pinned = True
            self._unlink_clean(key, entry)
        entry.data = data
        entry.needs_log = True
        self._dirty[key] = entry
        self._tick += 1
        entry.lru_tick = self._tick

    def _settle(self, key: tuple[int, int], entry: CacheEntry) -> bool:
        """Re-derive ``entry.pinned`` (``not entry.evictable``, inline)
        after ``needs_log`` or one of its images changed: the one place
        the maintained state looks at page images.  True when a leader
        was released: the caller removes it from ``_entries``."""
        pinned = entry.needs_log or (
            entry.logged_image is not None
            and entry.logged_image != entry.home_image
        )
        if pinned == entry.pinned:
            return False
        entry.pinned = pinned
        if pinned:
            self._unlink_clean(key, entry)
        elif entry.kind == PAGE_NAME_TABLE:
            # Released: its place in the recency order is wherever
            # its last use puts it, not the tail it joins here.
            self._lru[key] = entry
            oldest = self._released_from
            if oldest is None or entry.lru_tick < oldest:
                self._released_from = entry.lru_tick
        return not pinned and entry.kind == PAGE_LEADER

    def _restore_order(self) -> None:
        """Move released entries from the tail of ``_lru`` to where
        ``lru_tick`` places them.  Entries last used before the oldest
        of them are in order already, so only the tail from there on
        is sorted."""
        lru = self._lru
        oldest = self._released_from
        tail = []
        for entry in reversed(lru.values()):
            if entry.lru_tick < oldest:
                break
            tail.append(entry)
        tail.sort(key=_BY_TICK)
        for entry in tail:
            lru.move_to_end((entry.kind, entry.page_id))
        self._released_from = None

    def _evict_if_needed(self) -> None:
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        lru = self._lru
        cold, cold_read = self._cold, self._cold_read
        clean = len(lru)
        if cold or cold_read:
            clean += len(cold) + len(cold_read)
        spare = clean - self.reserve
        if spare < excess:
            # The log pins more than ``capacity - reserve`` entries:
            # the reserve stays, and the cache runs over capacity.
            held = min(excess, clean) - max(spare, 0)
            if held:
                self.reserve_holds += held
                self.obs.count("cache.reserve_holds", held)
            if spare <= 0:
                return
            excess = spare
        entries = self._entries
        from_cold = 0
        if cold or cold_read:
            # The pages a listing has read go first, oldest first; the
            # ones it has not read yet only once the warm ones are gone.
            from_cold = len(cold_read)
            if from_cold > excess:
                from_cold = excess
            for _ in range(from_cold):
                key, _entry = cold_read.popitem(last=False)
                del entries[key]
            unread = excess - from_cold - len(lru)
            if unread > 0:
                for _ in range(unread):
                    key, _entry = cold.popitem(last=False)
                    del entries[key]
                from_cold += unread
            if from_cold:
                self.cold_evictions += from_cold
                self.obs.count("cache.cold_evictions", from_cold)
        warm = excess - from_cold
        if warm:
            if self._released_from is not None:
                self._restore_order()
            for _ in range(warm):
                key, _entry = lru.popitem(last=False)
                del entries[key]
        self.evictions += excess
        self.obs.count("cache.evictions", excess)
