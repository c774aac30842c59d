"""FSD's file name table (paper §5.1).

A B-tree keyed by (name, version) whose entries hold *everything* FSD
knows about a file — uid, properties, and the run table, which CFS
kept in per-file header pages.  "There is no need for a disk read for
the properties since they are already available in the file name
table."

Robustness: "the file name table is written twice: every page is
written on two different sectors with independent failure modes...
When a page is read, both copies are read and checked."  The two
copies of a page live in one cylinder near the centre of the volume,
on different heads (:mod:`repro.core.layout` decides where).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.btree import INTERNAL, LEAF, BTree, Node
from repro.core.cache import MetadataCache, _NullCounter
from repro.core.wal import PAGE_NAME_TABLE
from repro.core.layout import VolumeLayout
from repro.core.types import (
    MAX_INLINE_RUNS,
    MAX_RUNS_PER_CHUNK,
    FileProperties,
    RunTable,
    decode_continuation,
    decode_main_entry,
    encode_continuation,
    encode_key,
    encode_main_entry,
    parse_key,
    parse_main_entry,
    prefix_range,
    version_range,
)
from repro.disk.clock import SimClock
from repro.disk.disk import SimDisk
from repro.disk.sched import as_scheduler
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    FileNotFound,
    VolumeFull,
)
from repro.obs import NULL_OBS


def bitmap_pages(layout: VolumeLayout) -> int:
    """Pages of the allocation bitmap, which follows the meta page
    (page 0): one bit per name-table page."""
    return -(-layout.params.nt_pages // (8 * layout.geometry.sector_bytes))


def bitmap_location(page_no: int, page_size: int) -> tuple[int, int, int]:
    """Where ``page_no``'s allocation bit lives: (bitmap page, byte, bit)."""
    bits = 8 * page_size
    return 1 + page_no // bits, (page_no % bits) // 8, page_no % 8


def page_allocated(
    read_page: Callable[[int], bytes], page_no: int, page_size: int
) -> bool:
    """True when the bitmap, read through ``read_page(page_no)``, marks
    ``page_no`` allocated."""
    bitmap_page, byte_index, bit = bitmap_location(page_no, page_size)
    return bool(read_page(bitmap_page)[byte_index] & (1 << bit))


def leaf_entries(image: bytes) -> list[tuple[tuple[str, int, int], bytes]]:
    """``((name, version, chunk), value)`` for every entry of a page read
    on its own terms, skipping keys that do not decode; nothing for a
    page that is not a parseable leaf.  For readers that cannot trust
    the tree around the page: recovery's leader check and salvage."""
    try:
        node = Node.from_bytes(image)
    except CorruptMetadata:
        return []
    if node.kind != LEAF:
        return []
    entries = []
    for key, value in zip(node.keys, node.values):
        try:
            entries.append((parse_key(key), value))
        except (CorruptMetadata, UnicodeDecodeError):
            continue
    return entries


def gather_runs(
    name: str, version: int, runs: RunTable, total_runs: int,
    chunk_value: Callable[[int], bytes | None],
) -> None:
    """Complete ``runs``, a chunk-0 entry's inline runs, to ``total_runs``
    from continuation chunks 1, 2, ... (``chunk_value(n)``: chunk ``n``'s
    value or None); raises :class:`CorruptMetadata` if one is missing."""
    chunk = 1
    while len(runs.runs) < total_runs:
        more = chunk_value(chunk)
        if more is None:
            raise CorruptMetadata(
                f"missing run-table continuation {chunk} for {name}!{version}"
            )
        runs.runs.extend(decode_continuation(more))
        chunk += 1
    del runs.runs[total_runs:]


class NameTableHome:
    """The double-written home copies of the name table on disk.

    With ``VolumeParams.single_nt_copy`` (the §6 "no double write"
    ablation) only copy A exists: reads cost one I/O, writes one, and
    a damaged sector is unrecoverable — exactly the trade the paper's
    model weighed and rejected.

    Reads climb the escalation ladder: a failed sector read is retried
    once (a transient fault costs about a revolution and succeeds), a
    single dead copy is rebuilt from its twin, and only when *both*
    copies are genuinely gone does the read raise
    :class:`DegradedVolumeError` — after telling the volume, via
    ``on_degraded``, to stop accepting mutations.
    """

    def __init__(self, disk: SimDisk, layout: VolumeLayout):
        #: home-copy I/O goes through the volume's shared I/O port (a
        #: raw disk gets a pass-through wrapper).
        self.io = as_scheduler(disk)
        self.layout = layout
        self.single_copy = layout.params.single_nt_copy
        self.repairs = 0
        self.retries = 0
        #: multi-sector transfers issued by :meth:`read_run`, and pages
        #: of those transfers that had to drop to the per-page ladder.
        self.bulk_reads = 0
        self.ladder_fallbacks = 0
        #: called with a reason string when a read exhausts the ladder
        #: (``FSD.mount`` points this at the volume's degraded switch).
        self.on_degraded = None
        #: observability attach point (``FSD.mount`` rebinds it).
        self.obs = NULL_OBS

    def _read_copy(self, address: int) -> bytes | None:
        """One ladder-aware sector read: retry a failed read once.

        The retry is a real second I/O — the platter has moved on, so
        it naturally costs about one revolution of simulated time.
        """
        data = self.io.read_maybe(address, 1)[0]
        if data is not None:
            return data
        self.retries += 1
        self.obs.count("ladder.retries")
        data = self.io.read_maybe(address, 1)[0]
        if data is not None:
            self.obs.count("ladder.retry_successes")
        return data

    def _degrade(
        self, reason: str, fault_site: int | None = None
    ) -> DegradedVolumeError:
        self.obs.count("ladder.nt_read_failures")
        if self.on_degraded is not None:
            self.on_degraded(reason, fault_site)
        return DegradedVolumeError(reason, fault_site=fault_site)

    def read_page(self, page_no: int) -> bytes:
        """Read both copies and cross-check (the paper's double read).

        One damaged copy is corrected from the other and repaired in
        place; two differing healthy copies mean corruption beyond the
        failure model (e.g. a wild write) and degrade the volume, as
        does the loss of both copies.
        """
        addr_a, addr_b = self.layout.nt_page_addresses(page_no)
        if self.single_copy:
            data = self._read_copy(addr_a)
            if data is None:
                raise self._degrade(
                    f"name-table page {page_no} damaged and unreplicated",
                    fault_site=addr_a,
                )
            return data
        clock = self.io.clock
        start_ms = clock.now_ms
        copy_a = self._read_copy(addr_a)
        copy_b = self._read_copy(addr_b)
        # What a cache miss costs, set-up and any retry included; the
        # model's "fsd name-table page miss" script predicts its mean.
        self.obs.observe("nt.double_read_ms", clock.now_ms - start_ms)
        if copy_a is not None and copy_b is not None:
            if copy_a != copy_b:
                raise self._degrade(
                    f"name-table page {page_no}: copies differ",
                    fault_site=addr_a,
                )
            return copy_a
        survivor = copy_a if copy_a is not None else copy_b
        if survivor is None:
            raise self._degrade(
                f"name-table page {page_no}: both copies damaged",
                fault_site=addr_a,
            )
        bad_addr = addr_a if copy_a is None else addr_b
        self.io.write(bad_addr, [survivor])
        self.repairs += 1
        self.obs.count("ladder.copy_repairs")
        return survivor

    def read_run(
        self, first_page: int, count: int, holes: frozenset[int] = frozenset()
    ) -> list[bytes | None]:
        """Bulk double read of ``count`` consecutive pages: one
        multi-sector transfer per copy (and per stripe the run
        touches) instead of two single-sector I/Os per page.

        The cross-check is still page by page.  A page whose copies
        are both present and equal is served from the transfer; any
        other page (a copy missing, or the copies differ) is re-read
        through :meth:`read_page`, so it climbs exactly the ladder a
        single-page read would — retry, repair from the twin, degrade
        — and its neighbours in the transfer are unaffected.

        Pages in ``holes`` ride along in the transfer only because
        skipping them would cost a second seek: the caller does not
        want them (they may be unallocated, or newer in the cache), so
        they come back as ``None`` — never compared, never re-read,
        whatever state their sectors are in.
        """
        copies_a: list[bytes | None] = []
        copies_b: list[bytes | None] = []
        for _, piece, addr_a, addr_b in self.layout.nt_extents(
            first_page, count
        ):
            copies_a += self.io.read_maybe(addr_a, piece)
            self.bulk_reads += 1
            if not self.single_copy:
                copies_b += self.io.read_maybe(addr_b, piece)
                self.bulk_reads += 1
        if self.single_copy:
            copies_b = copies_a
        pages: list[bytes | None] = []
        for page_no, (copy_a, copy_b) in enumerate(
            zip(copies_a, copies_b), first_page
        ):
            if page_no in holes:
                pages.append(None)
                continue
            if copy_a is None or copy_a != copy_b:
                self.ladder_fallbacks += 1
                copy_a = self.read_page(page_no)
            pages.append(copy_a)
        return pages

    def page_writes(
        self, pages: list[tuple[int, bytes]]
    ) -> list[tuple[int, list[bytes]]]:
        """The home writes, ``(address, sectors)`` each, that put
        ``pages`` in both copies: contiguous page numbers batch into
        one multi-sector write per copy (a group that crosses a stripe
        boundary is one per stripe), copy A's before copy B's."""
        writes: list[tuple[int, list[bytes]]] = []
        for group in _contiguous_groups(pages):
            first_page = group[0][0]
            images = [data for _, data in group]
            for start, piece, addr_a, addr_b in self.layout.nt_extents(
                first_page, len(group)
            ):
                offset = start - first_page
                sectors = images[offset : offset + piece]
                writes.append((addr_a, sectors))
                if not self.single_copy:
                    writes.append((addr_b, sectors))
        return writes

    def write_pages(self, pages: list[tuple[int, bytes]], leaders=()) -> int:
        """The volume's one write-home path: ``(page_no, data)`` pages
        and ``(address, data)`` leaders as one batch in the order the
        disk finishes them (:meth:`IoScheduler.write_batch`), all on the
        platter when this returns.  Returns the number of transfers."""
        writes = [(address, [data]) for address, data in leaders]
        writes += self.page_writes(pages)
        self.io.write_batch(writes)
        return len(writes)


def _contiguous_groups(
    pages: list[tuple[int, bytes]]
) -> Iterator[list[tuple[int, bytes]]]:
    group: list[tuple[int, bytes]] = []
    for page_no, data in sorted(pages):
        if group and page_no != group[-1][0] + 1:
            yield group
            group = []
        group.append((page_no, data))
    if group:
        yield group


#: Unwanted pages a prefetch transfer may read through to reach the
#: next wanted one.  A bridged sector costs ~0.5 ms of transfer against
#: ~23 ms for the seek and rotational wait of a transfer of its own;
#: the limit keeps the sectors a list reads beyond the ones it needs to
#: a small constant per transfer (EXPERIMENTS.md, "list prefetch").
PREFETCH_MAX_GAP = 2


def _prefetch_runs(
    pages: list[int], max_gap: int, max_len: int
) -> Iterator[list[int]]:
    """Split ascending page numbers into transfers: consecutive wanted
    pages stay together while at most ``max_gap`` unwanted pages lie
    between them and the transfer spans at most ``max_len`` pages."""
    run = [pages[0]]
    for page_no in pages[1:]:
        if page_no - run[-1] - 1 <= max_gap and page_no - run[0] < max_len:
            run.append(page_no)
        else:
            yield run
            run = [page_no]
    yield run


class NameTablePager:
    """B-tree pager over the metadata cache.

    Page allocation within the preallocated name-table extent uses a
    bitmap stored in the first pages of the table itself, so it is
    logged and recovered exactly like every other name-table page.
    """

    #: pages reserved at the front: page 0 is the B-tree meta page,
    #: pages 1..bitmap_pages hold the allocation bitmap.
    def __init__(
        self,
        cache: MetadataCache,
        layout: VolumeLayout,
        clock: SimClock,
        home: NameTableHome,
    ):
        self.cache = cache
        self.layout = layout
        self.clock = clock
        #: where :meth:`prefetch` fetches from (demand misses reach the
        #: same object through the cache's ``nt_reader``).
        self.home = home
        #: True while a listing's scan runs (:meth:`FsdNameTable.
        #: enumerate`, :meth:`FsdNameTable.enumerate_props`): what it
        #: prefetches joins the cache's cold segment.
        self.listing = False
        #: the fixed per-node CPU charge (CpuCostModel is frozen).
        self._node_ms = clock.cpu.btree_node_ms
        self.page_size = layout.geometry.sector_bytes
        self.nt_pages = layout.params.nt_pages
        self.bitmap_pages = bitmap_pages(layout)
        self._alloc_cursor = 1 + self.bitmap_pages
        #: observability attach point (``FSD.mount`` rebinds it).
        self.obs = NULL_OBS

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        # Rebinding the observer invalidates any bound counter handle.
        self._obs = value
        self._read_counter = None
        self._write_counter = None

    # -- Pager protocol -------------------------------------------------
    def read(self, page_no: int) -> bytes:
        """B-tree pager read: one cached name-table page."""
        clock = self.clock
        # advance_cpu inlined: btree_node_ms is a fixed positive cost
        # and this is the hottest clock charge in the metadata path.
        ms = self._node_ms
        clock.now_ms += ms
        clock.cpu_busy_ms += ms
        counter = self._read_counter
        if counter is not None:
            counter.value += 1
        else:
            # First read creates the counter through the normal path,
            # then binds the handle (a throwaway slot when detached)
            # for every later read.
            obs = self._obs
            obs.count("btree.page_reads")
            if obs.enabled:
                self._read_counter = obs.metrics.counter("btree.page_reads")
            else:
                self._read_counter = _NullCounter()
        # cache.read_nt's hit path inlined (same statements, one frame
        # for the whole pager read); a miss, and the first hit of a
        # mount (which binds the counter), go through the method.
        cache = self.cache
        key = (PAGE_NAME_TABLE, page_no)
        entry = cache._entries.get(key)
        if entry is None:
            data = cache.read_nt(page_no)
            # A demand miss: say which level of the tree paid for it
            # (the meta page is neither).
            if data[0] == LEAF:
                self._obs.count("cache.misses_leaf")
            elif data[0] == INTERNAL:
                self._obs.count("cache.misses_interior")
            return data
        hit_counter = cache._hit_counter
        if hit_counter is None:
            return cache.read_nt(page_no)
        cache.hits += 1
        hit_counter.value += 1
        cache._tick += 1
        entry.lru_tick = cache._tick
        if entry.cold:
            cache.touch_cold(key, entry)
        elif not entry.pinned:
            cache._lru.move_to_end(key)
        return entry.data

    def write(self, page_no: int, data: bytes) -> None:
        """B-tree pager write: stage the page for the next commit."""
        clock = self.clock
        ms = self._node_ms
        clock.now_ms += ms
        clock.cpu_busy_ms += ms
        counter = self._write_counter
        if counter is not None:
            counter.value += 1
        else:
            obs = self._obs
            obs.count("btree.page_writes")
            if obs.enabled:
                self._write_counter = obs.metrics.counter("btree.page_writes")
            else:
                self._write_counter = _NullCounter()
        self.cache.write_nt(page_no, data)

    def allocate(self) -> int:
        """Allocate a free name-table page from the logged bitmap."""
        reserved = 1 + self.bitmap_pages
        for probe in range(reserved, self.nt_pages):
            page_no = reserved + (
                (self._alloc_cursor - reserved + probe - reserved)
                % (self.nt_pages - reserved)
            )
            if not page_allocated(self.cache.read_nt, page_no, self.page_size):
                self._set_bit(page_no, True)
                self._alloc_cursor = page_no + 1
                self.obs.count("btree.page_allocs")
                return page_no
        raise VolumeFull("file name table is out of pages")

    def free(self, page_no: int) -> None:
        """Return a name-table page to the logged bitmap."""
        if not page_allocated(self.cache.read_nt, page_no, self.page_size):
            raise CorruptMetadata(f"double free of name-table page {page_no}")
        self._set_bit(page_no, False)
        self.obs.count("btree.page_frees")

    def prefetch(self, page_nos: list[int]) -> None:
        """Fetch pages a scan will read, in bulk.

        Of ``page_nos`` (the scan's frontier, in its read order: the
        node's children, then the pages it pops after them) the first
        the cache can hold that are not resident are sorted by page
        number and cut into transfers of at most ``max_io_sectors``
        pages (:func:`_prefetch_runs`); every transfer holding at least
        two of them is read with :meth:`NameTableHome.read_run` — both
        copies, compared page by page, ladder for any odd page — and
        adopted as clean cache entries: cold ones under a listing
        (:attr:`listing`), which its own read of each leaves cold, warm
        ones under a version walk.  A lone page is left to the demand
        miss it would have been anyway.  Resident pages are never
        touched: their cached image may be newer than home.  No B-tree
        node visit is charged and no ``btree.page_reads`` counted here;
        the scan's own ``read`` of each page does both, and finds the
        page resident.
        """
        resident = self.cache.resident_nt
        wanted = [page_no for page_no in page_nos if resident(page_no) is None]
        if len(wanted) < 2:
            return
        wanted = sorted(wanted[: self.cache.capacity])
        fetched: list[tuple[int, bytes]] = []
        gap_sectors = 0
        copies = 1 if self.home.single_copy else 2
        bulk_reads = self.home.bulk_reads
        for run in _prefetch_runs(
            wanted, PREFETCH_MAX_GAP, self.layout.params.max_io_sectors
        ):
            if len(run) < 2:
                continue
            span = run[-1] - run[0] + 1
            holes = frozenset(range(run[0], run[-1])).difference(run)
            images = self.home.read_run(run[0], span, holes)
            fetched.extend(
                (page_no, images[page_no - run[0]]) for page_no in run
            )
            gap_sectors += copies * len(holes)
        if not fetched:
            return
        obs = self._obs
        obs.count(
            "nt.prefetch_pages",
            self.cache.install_clean(fetched, cold=self.listing),
        )
        # A run that crosses a stripe boundary is two transfers a copy.
        obs.count("nt.prefetch_transfers", self.home.bulk_reads - bulk_reads)
        obs.count("nt.prefetch_gap_sectors", gap_sectors)

    # -- bitmap plumbing -------------------------------------------------
    def format_bitmap(self) -> None:
        """Mark the meta page and the bitmap pages themselves used."""
        for bitmap_page in range(1, 1 + self.bitmap_pages):
            self.cache.write_nt(bitmap_page, b"\x00" * self.page_size)
        for reserved in range(0, 1 + self.bitmap_pages):
            self._set_bit(reserved, True)

    def _set_bit(self, page_no: int, value: bool) -> None:
        bitmap_page, byte_index, bit = bitmap_location(page_no, self.page_size)
        data = bytearray(self.cache.read_nt(bitmap_page))
        if value:
            data[byte_index] |= 1 << bit
        else:
            data[byte_index] &= ~(1 << bit)
        self.cache.write_nt(bitmap_page, bytes(data))

    def allocated_pages(self) -> int:
        """Pages currently marked used in the allocation bitmap."""
        total = 0
        for bitmap_page in range(1, 1 + self.bitmap_pages):
            data = self.cache.read_nt(bitmap_page)
            total += sum(bin(byte).count("1") for byte in data)
        return total

    def allocated_runs(self) -> list[tuple[int, int]]:
        """Maximal ``(first_page, count)`` runs of allocated tree pages
        (the reserved meta and bitmap pages excluded), ascending.  Each
        bitmap page is read once, through the cache."""
        reserved = 1 + self.bitmap_pages
        bits = int.from_bytes(
            b"".join(self.cache.read_nt(page) for page in range(1, reserved)),
            "little",
        )
        runs = []
        first = None
        for page_no in range(reserved, self.nt_pages):
            if bits >> page_no & 1:
                if first is None:
                    first = page_no
            elif first is not None:
                runs.append((first, page_no - first))
                first = None
        if first is not None:
            runs.append((first, self.nt_pages - first))
        return runs


class NameKeys:
    """Every key of one name, as :meth:`FsdNameTable.walk` found them:
    ``(version, chunk, value)`` in key order."""

    __slots__ = ("name", "found")

    def __init__(self, name: str, found: list[tuple[int, int, bytes]]):
        self.name = name
        self.found = found

    def versions(self) -> list[int]:
        """The versions with a chunk-0 entry, ascending."""
        return [version for version, chunk, _ in self.found if chunk == 0]

    def highest_version(self) -> int | None:
        """The newest version with a chunk-0 entry, or None."""
        for version, chunk, _ in reversed(self.found):
            if chunk == 0:
                return version
        return None

    def next_version(self) -> int:
        """The version a create of this name takes."""
        return (self.highest_version() or 0) + 1

    def holds(self, version: int) -> bool:
        """True when the walk saw any key of ``version``."""
        return any(key_version == version for key_version, _, _ in self.found)

    def chunks(self, version: int) -> dict[int, bytes]:
        """``chunk -> value`` of every key of ``version``."""
        return {
            chunk: value
            for key_version, chunk, value in self.found
            if key_version == version
        }


class FsdNameTable:
    """Typed operations over the raw B-tree: the FS-facing name table."""

    def __init__(self, tree: BTree, clock: SimClock):
        self.tree = tree
        self.clock = clock

    @classmethod
    def format(cls, pager: NameTablePager, clock: SimClock) -> "FsdNameTable":
        pager.format_bitmap()
        tree = BTree.create(pager)
        return cls(tree, clock)

    @classmethod
    def open(cls, pager: NameTablePager, clock: SimClock) -> "FsdNameTable":
        return cls(BTree.open(pager), clock)

    # ------------------------------------------------------------------
    # entry operations
    # ------------------------------------------------------------------
    def walk(self, name: str) -> NameKeys:
        """Every key of ``name``, from one walk of its key range.

        The one way an FSD operation resolves a name: the versions, each
        version's chunk-0 entry and its continuation chunks all come
        from this walk, so a lookup, create or delete descends the tree
        once.  A leaf some walk has decoded is read from its view.  Any
        other is decoded key by key, over the name's range only:
        decoding a whole leaf for the few keys a lookup reads costs
        more than it saves."""
        found = []
        for leaf, first, last in self.tree.scan_leaves(*version_range(name)):
            view = leaf.view
            decoded = (
                map(parse_key, leaf.keys[first:last]) if view is None
                else view.keys[first:last]
            )
            for (_, version, chunk), value in zip(
                decoded, leaf.values[first:last]
            ):
                found.append((version, chunk, value))
        return NameKeys(name, found)

    def entry(
        self, keys: NameKeys, version: int | None = None
    ) -> tuple[FileProperties, RunTable]:
        """The entry of ``version`` (the newest when None) from a walk,
        its continuations from the same walk; one entry-interpretation
        charge.  Raises :class:`FileNotFound` when the walk saw no
        chunk-0 key of it."""
        name = keys.name
        if version is None:
            version = keys.highest_version()
            if version is None:
                raise FileNotFound(name)
        chunks = keys.chunks(version)
        value = chunks.get(0)
        if value is None:
            raise FileNotFound(f"{name}!{version}")
        self.clock.advance_cpu(self.clock.cpu.entry_interpret_ms)
        props, runs, total_runs = decode_main_entry(name, version, value)
        if len(runs.runs) < total_runs:
            gather_runs(name, version, runs, total_runs, chunks.get)
        return props, runs

    def insert(
        self, props: FileProperties, runs: RunTable, fresh: bool = False
    ) -> None:
        """Insert (or replace) a file's entry, spilling long run tables.

        ``fresh`` says the caller's walk saw no key of this version, so
        no stale continuation chunk can follow the ones written; an
        entry that may have had a longer run table probes for them."""
        self.clock.advance_cpu(self.clock.cpu.entry_interpret_ms)
        self.tree.insert(
            encode_key(props.name, props.version, 0),
            encode_main_entry(props, runs),
        )
        self._write_continuations(props.name, props.version, runs, fresh)

    def update(self, props: FileProperties, runs: RunTable) -> None:
        """Rewrite an entry whose properties or runs changed.  A handle
        may hold fewer runs than the table does, so this probes."""
        self.insert(props, runs)

    def _write_continuations(
        self, name: str, version: int, runs: RunTable, fresh: bool
    ) -> None:
        spill = runs.runs[MAX_INLINE_RUNS:]
        chunk = 1
        for start in range(0, len(spill), MAX_RUNS_PER_CHUNK):
            self.tree.insert(
                encode_key(name, version, chunk),
                encode_continuation(spill[start : start + MAX_RUNS_PER_CHUNK]),
            )
            chunk += 1
        if fresh:
            return
        # Drop stale continuation chunks from an earlier, longer table.
        while self.tree.delete(encode_key(name, version, chunk)):
            chunk += 1

    def get(
        self, name: str, version: int
    ) -> tuple[FileProperties, RunTable] | None:
        """Full entry for (name, version), continuations resolved; None
        when there is none."""
        try:
            return self.entry(self.walk(name), version)
        except FileNotFound:
            return None

    def remove(self, keys: NameKeys, version: int) -> None:
        """Delete exactly the keys of ``version`` that the walk saw."""
        name = keys.name
        for key_version, chunk, _ in keys.found:
            if key_version == version:
                self.tree.delete(encode_key(name, version, chunk))

    def delete(
        self, name: str, version: int | None = None
    ) -> tuple[FileProperties, RunTable]:
        """Remove an entry (the newest when ``version`` is None) and its
        continuations, resolved in one walk; returns what it held."""
        keys = self.walk(name)
        props, runs = self.entry(keys, version)
        self.remove(keys, props.version)
        return props, runs

    def trim(
        self, keys: NameKeys, keep: int, created: int | None = None
    ) -> list[tuple[FileProperties, RunTable]]:
        """Remove the oldest versions of the walk's name until ``keep``
        remain (0 keeps every version), counting ``created`` (a version
        inserted since the walk); returns the removed entries, oldest
        first."""
        if keep <= 0:
            return []
        versions = keys.versions()
        if created is not None:
            versions.append(created)
        removed = []
        for version in versions[: max(0, len(versions) - keep)]:
            removed.append(self.entry(keys, version))
            self.remove(keys, version)
        return removed

    # ------------------------------------------------------------------
    # version helpers
    # ------------------------------------------------------------------
    def versions(self, name: str) -> list[int]:
        """All existing versions of ``name``, ascending."""
        return self.walk(name).versions()

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def enumerate(
        self, prefix: str = ""
    ) -> Iterator[tuple[FileProperties, RunTable]]:
        """Iterate complete entries (with full run tables) in name order.

        This is the paper's "list" operation: properties come straight
        from the name table, no per-file I/O.  Keys come from each
        leaf's view; the caller runs between entries, so each entry is
        charged as it is reached.  The scan's prefetches are a
        listing's (:attr:`NameTablePager.listing`) only while this
        generator runs, not while the caller does.
        """
        current: tuple[FileProperties, RunTable] | None = None
        clock = self.clock
        interpret_ms = clock.cpu.entry_interpret_ms
        pager = self.tree.pager
        pager.listing = True
        try:
            for leaf, first, last in self.tree.scan_leaves(
                *prefix_range(prefix)
            ):
                view = _leaf_view(leaf)
                decoded = (
                    map(parse_key, leaf.keys[first:last]) if view is None
                    else view.keys[first:last]
                )
                for (name, version, chunk), value in zip(
                    decoded, leaf.values[first:last]
                ):
                    if prefix and not name.startswith(prefix):
                        if current is not None:
                            pager.listing = False
                            yield current
                        return
                    # advance_cpu inlined: fixed positive cost, once
                    # per entry of every list operation.
                    clock.now_ms += interpret_ms
                    clock.cpu_busy_ms += interpret_ms
                    if chunk == 0:
                        if current is not None:
                            pager.listing = False
                            yield current
                            pager.listing = True
                        current = decode_main_entry(name, version, value)[:2]
                    else:
                        if current is None:
                            raise _orphan(name, version)
                        current[1].runs.extend(decode_continuation(value))
        finally:
            pager.listing = False
        if current is not None:
            yield current

    def enumerate_props(self, prefix: str = "") -> list[FileProperties]:
        """Properties-only listing for ``fsd.list``.

        The entries :meth:`enumerate` reaches, with the same per-entry
        CPU charge, but only chunk-0 entries' properties are returned
        and no run table is built.  Each leaf is served from its view:
        one check of where the walk stops in it, one charge loop and one
        slice.  The charges accumulate in the per-entry walk's float
        order and are written back before the scan reads the next page.
        The scan's prefetches are a listing's
        (:attr:`NameTablePager.listing`).
        """
        pager = self.tree.pager
        pager.listing = True
        try:
            return self._list_props(prefix)
        finally:
            pager.listing = False

    def _list_props(self, prefix: str) -> list[FileProperties]:
        """:meth:`enumerate_props`' walk."""
        out: list[FileProperties] = []
        have_main = False
        clock = self.clock
        interpret_ms = clock.cpu.entry_interpret_ms
        # Every key in ``prefix_range(prefix)`` begins with the prefix's
        # bytes, so its name begins with the prefix unless the prefix
        # holds a NUL, which ends a name: only then are names checked.
        nul_prefix = "\x00" in prefix
        for leaf, first, last in self.tree.scan_leaves(*prefix_range(prefix)):
            view = leaf.view
            if view is None or view.props is None:
                view = _leaf_view(leaf, props=True)
            if view is None:
                # An entry that does not decode: walk the page entry by
                # entry, so that its error is raised where it stands.
                for index in range(first, last):
                    name, version, chunk = parse_key(leaf.keys[index])
                    if prefix and not name.startswith(prefix):
                        return out
                    clock.now_ms += interpret_ms
                    clock.cpu_busy_ms += interpret_ms
                    if chunk == 0:
                        have_main = True
                        out.append(parse_main_entry(
                            leaf.values[index]
                        ).properties(name, version))
                    elif not have_main:
                        raise _orphan(name, version)
                continue
            keys = view.keys
            end = last
            if nul_prefix:
                end = next(
                    (index for index in range(first, last)
                     if not keys[index][0].startswith(prefix)),
                    last,
                )
            if end > first and not have_main:
                name, version, chunk = keys[first]
                if chunk:
                    clock.now_ms += interpret_ms
                    clock.cpu_busy_ms += interpret_ms
                    raise _orphan(name, version)
                have_main = True
            now = clock.now_ms
            busy = clock.cpu_busy_ms
            for _ in range(end - first):
                now += interpret_ms
                busy += interpret_ms
            clock.now_ms = now
            clock.cpu_busy_ms = busy
            out.extend(filter(None, view.props[first:end]))
            if end < last:
                return out
        return out


def _orphan(name: str, version: int) -> CorruptMetadata:
    return CorruptMetadata(f"orphan continuation entry for {name}!{version}")


class _LeafView:
    """What the FSD name table decoded from one leaf's page image, kept
    in the leaf's parse template (``Node.view``).  The template is the
    B-tree's memo entry for those very bytes, so a view is never stale;
    it goes when the memo drops the template."""

    __slots__ = ("keys", "props")

    def __init__(self, keys: list[tuple[str, int, int]]):
        #: ``(name, version, chunk)`` per entry.
        self.keys = keys
        #: per entry, a chunk-0 entry's properties (None for a
        #: continuation); built by the first listing that reads the leaf.
        self.props: list[FileProperties | None] | None = None


def _leaf_view(leaf: Node, props: bool = False) -> _LeafView | None:
    """``leaf``'s view, built on first use, with its ``props`` when
    asked for; None when an entry of the page does not decode (the
    walks then decode it entry by entry, as far as they read)."""
    view = leaf.view
    try:
        if view is None:
            view = leaf.view = _LeafView([parse_key(key) for key in leaf.keys])
        if props and view.props is None:
            view.props = [
                None if chunk
                else parse_main_entry(value).properties(name, version)
                for (name, version, chunk), value in zip(view.keys, leaf.values)
            ]
    except (CorruptMetadata, ValueError):
        return None
    return view
