"""The data-page cache and read-ahead buffer.

The paper's evaluation assumes clients work from *cached* files, and
the 4.2 BSD baseline it compares against owes much of its read
throughput to the kernel buffer cache and block clustering.  FSD files
are written once and lie in a few long disk runs (paper §5.3), so a
client reading one a page at a time should pay transfer cost, not a
rotational wait per page.  This module holds *data* sectors for the one
FSD read path; metadata pages stay in
:class:`~repro.core.cache.MetadataCache`, whose logging obligations
this cache deliberately does not share.

Design rules:

* **Sequential read-ahead.**  A read of a file's page 0, or one that
  continues the previous read of the file (tracked per file uid), also
  fetches the rest of the file's current disk run, capped by
  ``readahead_pages``, in the same transfer
  (:meth:`~repro.disk.sched.IoScheduler.merge_reads`) — one rotational
  wait instead of one per page.  Page 0's window rides behind the
  leader the first read carries (paper §5.7).
* **What is retained is a matter of capacity.**  With
  ``capacity_pages > 0`` demanded, written and prefetched sectors share
  one LRU.  With ``capacity_pages == 0`` (every mount's default) this
  is a pure read-ahead buffer: prefetched sectors only, each until its
  first demand, at most ``BUFFER_WINDOWS`` windows of them.
  ``readahead_pages == 0`` on top of that holds nothing and counts
  nothing — the paper's mount.
* **A stream that wastes its window stops prefetching.**  A prefetched
  sector evicted before any demand means its stream over-subscribes the
  cache; it plans no further prefetch until one of its remaining
  sectors is hit or it starts a new pass (reads page 0 again, or
  jumps), so interleaved readers that do not fit fall back to demand
  reads, not to evicting each other.
* **Write-through, never write-behind.**  Data pages are not logged
  (paper §5.3), so the platter copy is the only durable copy: a write
  goes to the disk first, then :meth:`DataPageCache.store` replaces —
  or, in the buffer, drops — the image its addresses had.
* **Strict invalidation.**  Truncate and delete free sectors that the
  allocator may hand to a different file (or to a new leader page,
  which is written through a path this cache never sees); their images
  are dropped immediately.  Rename drops the file's pages too — cheaper
  to be strict than to prove each exception safe.  A crash or unmount
  discards everything, exactly like the metadata cache.

Layout: one LRU-ordered entry per held sector, ``address -> (uid,
image, prefetched)``, plus the index ``uid -> addresses`` that
:meth:`DataPageCache.invalidate_file` reads.  Each held address is in
its entry's uid's index and no other; ``prefetched`` holds until the
sector's first demand; at most ``room`` sectors are held.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs import NULL_OBS

#: default capacity when the cache is enabled without an explicit size
#: (256 sectors = 128 KB at the Trident's 512-byte sectors — small
#: beside the Dorado's real memory, large beside one file's run).
DEFAULT_DATA_CACHE_PAGES = 256

#: default read-ahead window, in pages (sectors): one track of the
#: Trident T-300.  A window then transfers in at most one revolution,
#: so the read that pays for it waits about two — at most one for its
#: first sector to come round, one to transfer, ≈ 34 ms at 16.67 ms a
#: turn — level with the slowest cold random page reads (the 99th
#: percentile of ``read_stream``'s one-page reads is 32 ms).  A 24-page
#: MakeDo source file is then one transfer: leader, page 0 and its
#: window.  EXPERIMENTS.md "Read-ahead from page 0, a track at a time"
#: has the wider windows and ramps measured against it.
DEFAULT_READAHEAD_PAGES = 30

#: read-ahead windows a capacity-0 mount may hold at once (EXPERIMENTS.md
#: "Read-ahead on every mount" has the client-count sweep behind it).
BUFFER_WINDOWS = 4

#: sequential-detection states tracked at once; beyond this the oldest
#: file's state is forgotten (it only costs a missed prefetch).
_MAX_SEQ_STREAMS = 64


class DataPageCache:
    """LRU store of data sectors keyed by disk address.  Counters are
    mirrored to ``obs`` under ``cache.data.*``; the ratio gauges are
    derived from them at snapshot time (:mod:`repro.obs.metrics`)."""

    def __init__(
        self,
        capacity_pages: int = 0,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
        sector_bytes: int = 512,
        obs=NULL_OBS,
    ):
        if capacity_pages < 0:
            raise ValueError("negative data-cache capacity")
        if readahead_pages < 0:
            raise ValueError("negative read-ahead window")
        self.capacity = capacity_pages
        self.readahead_pages = readahead_pages
        self.sector_bytes = sector_bytes
        self.obs = obs
        #: most sectors held at once.
        self.room = capacity_pages or BUFFER_WINDOWS * readahead_pages
        #: address -> (uid, image, prefetched), least recently used first.
        self._pages: OrderedDict[int, tuple[int, bytes, bool]] = OrderedDict()
        #: per-file sequential detector: uid -> next expected page.
        self._seq: OrderedDict[int, int] = OrderedDict()
        #: streams that had a prefetched sector evicted unused.
        self._backed_off: set[int] = set()
        #: the held addresses of each uid, so delete/rename can
        #: invalidate by uid even when the caller's run list is stale
        #: under interleaved clients.
        self._by_uid: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.readahead_issued = 0
        self.readahead_used = 0

    def __len__(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    # lookups and population
    # ------------------------------------------------------------------
    def lookup(self, address: int, count: int = 1) -> list[bytes | None] | None:
        """A demand lookup of ``count`` consecutive sectors: one image
        (or None) per sector, or None when not one of them is held.
        A hit refreshes its LRU position or, in the buffer, lets the
        sector go: a demanded page is the client's from then on."""
        pages = self._pages
        hits = 0
        if pages:
            held = list(map(pages.get, range(address, address + count)))
            hits = count - held.count(None)
        recorder = getattr(self.obs, "attribution", None)
        if hits:
            found: list[bytes | None] = []
            used = 0
            for hit, entry in enumerate(held, address):
                if entry is None:
                    found.append(None)
                    continue
                uid, image, prefetched = entry
                found.append(image)
                if prefetched:
                    self._backed_off.discard(uid)
                    used += 1
                if not self.capacity:
                    del pages[hit]
                    self._disown(hit, uid)
                else:
                    if prefetched:
                        pages[hit] = (uid, image, False)
                    pages.move_to_end(hit)
                if recorder is not None:
                    recorder.note_cache(hit=True)
            self.hits += hits
            self.obs.count("cache.data.hits", hits)
            if used:
                self.readahead_used += used
                self.obs.count("cache.data.readahead_used", used)
        else:
            found = None
        if hits < count and self.room:
            self.misses += count - hits
            self.obs.count("cache.data.misses", count - hits)
            if recorder is not None:
                for _ in range(count - hits):
                    recorder.note_cache(hit=False)
        return found

    def contains(self, address: int) -> bool:
        """Presence probe (no hit/miss count, no LRU effect)."""
        return address in self._pages

    def entries(self) -> list[tuple[int, int, bytes, bool]]:
        """What is held, least recently used first, as ``(address, uid,
        image, prefetched)``: a snapshot, no count, no LRU effect."""
        return [(address, *entry) for address, entry in self._pages.items()]

    def store(
        self,
        address: int,
        sectors: list[bytes],
        uid: int,
        prefetched: bool = False,
    ) -> None:
        """``sectors`` are what the platter holds from ``address`` on
        for file ``uid``: just read on demand, just written, or
        (``prefetched``) fetched by a read-ahead.  The buffer keeps
        only the last kind and forgets any image a write made stale;
        kept images are padded exactly as they lie on the platter."""
        if prefetched:
            self.readahead_issued += len(sectors)
            self.obs.count("cache.data.readahead_windows")
            self.obs.count("cache.data.readahead_issued", len(sectors))
        elif not self.capacity:
            if self._pages:
                self.invalidate(address, len(sectors))
            return
        sector_bytes = self.sector_bytes
        if min(map(len, sectors), default=sector_bytes) < sector_bytes:
            sectors = [bytes(data).ljust(sector_bytes, b"\x00") for data in sectors]
        pages = self._pages
        room = self.room
        by_uid = self._by_uid
        owned = by_uid.setdefault(uid, set())
        evicted = 0
        for address, data in enumerate(sectors, address):
            # Popped and re-inserted: the entry lands most recent.
            old = pages.pop(address, None)
            if old is not None and old[0] != uid:
                self._disown(address, old[0])
            pages[address] = (uid, bytes(data), prefetched)
            owned.add(address)
            # At most one over: each sector adds at most one entry.
            if len(pages) > room:
                victim, (owner, _, unused) = pages.popitem(last=False)
                if unused:
                    self._backed_off.add(owner)
                # _disown, inlined: a full cache evicts on every store.
                held = by_uid[owner]
                held.discard(victim)
                if not held:
                    del by_uid[owner]
                evicted += 1
        if evicted:
            self.evictions += evicted
            self.obs.count("cache.data.evictions", evicted)

    def _disown(self, address: int, uid: int) -> None:
        owned = self._by_uid[uid]
        owned.discard(address)
        if not owned:
            del self._by_uid[uid]

    # ------------------------------------------------------------------
    # sequential detection and the prefetch window
    # ------------------------------------------------------------------
    def readahead(
        self, uid: int, first_page: int, page_count: int, next_address: int
    ) -> int:
        """Record one read of file ``uid`` covering logical pages
        ``[first_page, first_page + page_count)``; returns how many
        sectors from ``next_address`` on may be prefetched behind it:
        none unless the read starts at page 0 or directly continues the
        previous one, and a continuing stream has not backed off; then
        ``readahead_pages``, less what is already held.  The caller
        cuts that to what is left of the disk run and of the file."""
        if not self.readahead_pages:
            return 0
        seq = self._seq
        sequential = seq.get(uid) == first_page
        seq[uid] = first_page + page_count
        seq.move_to_end(uid)
        if len(seq) > _MAX_SEQ_STREAMS:
            self._backed_off.discard(seq.popitem(last=False)[0])
        if first_page == 0 or not sequential:
            # A new pass clears the back-off: page 0 starts a stream,
            # a jump anywhere else starts none.
            self._backed_off.discard(uid)
            if first_page:
                return 0
        elif uid in self._backed_off:
            return 0
        pages, limit = self._pages, self.readahead_pages
        count = 0
        while count < limit and next_address + count not in pages:
            count += 1
        return count

    def forget_file(self, uid: int) -> None:
        """Drop the sequential-detection state of one file."""
        self._seq.pop(uid, None)
        self._backed_off.discard(uid)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, address: int, count: int = 1) -> int:
        """Drop ``count`` sectors starting at ``address``; returns how
        many were actually held."""
        pages = self._pages
        dropped = 0
        if pages:
            for victim in range(address, address + count):
                entry = pages.pop(victim, None)
                if entry is not None:
                    dropped += 1
                    self._disown(victim, entry[0])
        if dropped:
            self.invalidations += dropped
            self.obs.count("cache.data.invalidations", dropped)
        return dropped

    def invalidate_file(self, uid: int) -> int:
        """Drop every held sector owned by file ``uid`` (and its
        sequential-detection state).  Delete and rename invalidate by
        identity *in addition to* run lists: under interleaved clients
        a stale handle may have populated pages outside the run list
        the invalidating operation resolved, and those images must not
        survive the file they belonged to."""
        dropped = 0
        for address in list(self._by_uid.get(uid, ())):
            dropped += self.invalidate(address)
        self.forget_file(uid)
        return dropped

    def invalidate_runs(self, runs) -> int:
        """Drop every sector of the given runs (truncate/delete/rename
        free or re-home these sectors; stale images must not survive)."""
        if not self._pages:
            return 0
        run_list = getattr(runs, "runs", runs)
        dropped = 0
        for run in run_list:
            dropped += self.invalidate(run.start, run.count)
        return dropped

    def discard_all(self) -> None:
        """A crash (or unmount): volatile state vanishes, exactly like
        the metadata cache."""
        self._pages.clear()
        self._seq.clear()
        self._backed_off.clear()
        self._by_uid.clear()

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        return self.hits / max(self.hits + self.misses, 1)

    @property
    def readahead_accuracy(self) -> float:
        return self.readahead_used / max(self.readahead_issued, 1)
