"""Crash recovery (paper §5.9).

"Recovery is fast and easy.  There are two types of recovery.  First,
the VAM can be reconstructed using the name table.  Second, the file
name table and leaders are recovered from the log.  The log is a
physical redo log and the algorithm to perform recovery is simple:
log records are read and the copies of pages in the log are written
to disk."

Redo here coalesces: the newest image of each page across all scanned
records is written home once (redo is idempotent, so this is
equivalent to the paper's record-at-a-time replay but cheaper).  Both
steps stream: the scan reads the record area in multi-sector windows,
and the home writes go to the disk as one batch in the order that
positions the arm least
(:meth:`~repro.core.name_table.NameTableHome.write_pages`, the write-home
path a third entry and the checkpointer take too).
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.btree.node import LEAF, Node
from repro.core.layout import RootPage, VolumeLayout
from repro.core.leader import decode_leader
from repro.core.name_table import (
    FsdNameTable,
    NameTableHome,
    bitmap_pages,
    leaf_entries,
    page_allocated,
)
from repro.core.types import (
    decode_continuation,
    parse_key,
    parse_main_entry,
)
from repro.core.vam import VolumeAllocationMap
from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE, WriteAheadLog
from repro.disk.disk import SimDisk
from repro.disk.sched import as_scheduler
from repro.errors import CorruptMetadata, DegradedVolumeError
from repro.obs import NULL_OBS

#: Test-only fault hook: when true, replay drops the last scanned log
#: record, simulating a recovery implementation that misses the tail
#: of the log.  The crashcheck semantic oracle must catch this (a
#: committed op's pages never reach home); it exists so the checker's
#: own sensitivity is testable.  Never set outside tests.
TEST_DROP_LAST_RECORD = False


@dataclass
class MountReport:
    """What happened during a mount, for the recovery benchmarks."""

    boot_count: int = 0
    log_records_replayed: int = 0
    pages_replayed: int = 0
    vam_loaded: bool = False
    vam_rebuild_entries: int = 0
    #: name-table pages the VAM rebuild swept in physical order.
    vam_sweep_pages: int = 0
    #: replayed name-table images left resident in the metadata cache.
    cache_warm_pages: int = 0
    #: :func:`replay_log` alone: the log scan plus the redo writes.
    replay_ms: float = 0.0
    #: loading or rebuilding the free map (a phase of ``total_ms``).
    vam_ms: float = 0.0
    total_ms: float = 0.0
    #: the log scan stopped at detectably damaged sectors — under the
    #: single-fault model that is only the crash's own torn tail, but a
    #: multi-fault history may have cost a committed tail record, so
    #: recovery cannot *prove* completeness.  Honest-degradation flag.
    log_damage: bool = False
    #: record pieces newer than the scan's stopping point were found
    #: beyond a damage hole: committed records were definitely lost and
    #: the volume is mounted degraded read-only.
    log_records_lost: bool = False
    #: the mount's phases, from consecutive clock stamps, so that with
    #: ``vam_ms`` they sum to ``total_ms``: reading the root, scanning
    #: the log, the redo (its home writes, warming the cache and opening
    #: the tree) and writing the new root.
    root_read_ms: float = 0.0
    scan_ms: float = 0.0
    redo_ms: float = 0.0
    root_write_ms: float = 0.0


# ----------------------------------------------------------------------
# root page handling (replicated boot-critical pages)
# ----------------------------------------------------------------------
def read_root(disk: SimDisk, layout: VolumeLayout) -> RootPage:
    """Read the volume root, tolerating damage to either copy and
    repairing the bad one from the survivor.  A root of the previous
    on-disk format is not damage: ``RootPage.decode`` raises
    :class:`~repro.errors.UnsupportedFormat`, which passes straight
    through — before any repair write."""
    io = as_scheduler(disk)
    survivors: list[tuple[int, RootPage]] = []
    for address in (layout.root_a, layout.root_b):
        sector = io.read_maybe(address, 1)[0]
        if sector is None:
            continue
        try:
            survivors.append((address, RootPage.decode(sector)))
        except CorruptMetadata:
            continue
    if not survivors:
        raise DegradedVolumeError("both volume root copies unreadable")
    if len(survivors) == 1:
        address, root = survivors[0]
        other = layout.root_b if address == layout.root_a else layout.root_a
        io.write(other, [root.encode(io.geometry.sector_bytes)])
        return root
    root_a, root_b = survivors[0][1], survivors[1][1]
    # The two copies are written A-then-B; after a crash between the
    # two writes, A is newer.  Prefer the higher boot count.
    return root_a if root_a.boot_count >= root_b.boot_count else root_b


def write_root(disk: SimDisk, layout: VolumeLayout, root: RootPage) -> None:
    """Write both replicas of the volume root page.

    The copies land A-then-B (recovery prefers A on a tie): writes
    reach the platter in program order.
    """
    io = as_scheduler(disk)
    encoded = root.encode(io.geometry.sector_bytes)
    io.write(layout.root_a, [encoded])
    io.write(layout.root_b, [encoded])


# ----------------------------------------------------------------------
# log replay
# ----------------------------------------------------------------------
def replay_log(
    disk: SimDisk,
    layout: VolumeLayout,
    wal: WriteAheadLog,
    report: MountReport,
    obs=NULL_OBS,
) -> list[tuple[int, bytes]]:
    """Scan the log from its anchor and write every page image home.

    Returns the name-table images just redone as ``(page_no, data)``,
    ordered by their last appearance in the log (newest last).  After
    the redo each equals both of its home copies, and they
    are by construction the most recently updated pages of the table,
    so the mount seeds its metadata cache with them.

    Name-table pages live in fixed extents, so their redo is
    unconditional.  Leader pages are different: their sectors return to
    the allocator when a file is deleted and may since have been
    reallocated as plain *data* — blindly redoing a stale leader image
    would overwrite committed file contents.  Each leader image is
    therefore checked against the logged name-table state before it is
    written home (:func:`_redo_live_leaders`).
    """
    start_ms = disk.clock.now_ms
    with obs.span("recovery.replay") as replay_span:
        with obs.span("recovery.scan"):
            records = wal.scan()
        report.scan_ms = disk.clock.now_ms - start_ms
        if TEST_DROP_LAST_RECORD and records:
            records = records[:-1]
        newest: dict[tuple[int, int], bytes] = {}
        #: name-table page -> position of its newest image in the scan.
        nt_last_seen: dict[int, int] = {}
        pages_scanned = 0
        for record in records:
            for page in record.pages:
                pages_scanned += 1
                newest[(page.kind, page.page_id)] = page.data
                if page.kind == PAGE_NAME_TABLE:
                    nt_last_seen[page.page_id] = pages_scanned
        with obs.span("recovery.redo", pages=len(newest)):
            home = NameTableHome(wal.io, layout)
            nt_images = {
                page_id: data
                for (kind, page_id), data in newest.items()
                if kind == PAGE_NAME_TABLE
            }
            # A scan stopped short of committed records knows an older
            # state: a leader it calls live may since have been deleted
            # and its sector reused for data, so no leader goes home.
            leaders, stale_leaders = (
                ([], 0)
                if wal.lost_records_detected
                else _redo_live_leaders(home, layout, newest, nt_images)
            )
            # Redo is idempotent and no client waits on it: the whole
            # batch goes in the order that positions the arm least.
            home.write_pages(sorted(nt_images.items()), leaders)
        replay_span.set(records=len(records), pages=len(newest))
    report.log_damage = wal.scan_damage
    report.log_records_lost = wal.lost_records_detected
    obs.count("recovery.records_replayed", len(records))
    obs.count("recovery.pages_replayed", len(newest))
    # Stale images superseded within the scanned window (redo coalesces).
    obs.count("recovery.pages_skipped", pages_scanned - len(newest))
    if stale_leaders:
        obs.count("recovery.stale_leaders_skipped", stale_leaders)
    report.log_records_replayed = len(records)
    report.pages_replayed = len(newest)
    report.replay_ms = disk.clock.now_ms - start_ms
    return [
        (page_id, nt_images[page_id])
        for page_id in sorted(nt_last_seen, key=nt_last_seen.__getitem__)
    ]


def _redo_live_leaders(
    home: NameTableHome,
    layout: VolumeLayout,
    newest: dict[tuple[int, int], bytes],
    nt_images: dict[int, bytes],
) -> tuple[list[tuple[int, bytes]], int]:
    """The replayed leader images that are still live, ``(address,
    image)`` each, and the number of stale images skipped.

    A leader is live iff the *final* name-table state still maps its
    (name, version) to its address and uid.  That state is derivable
    from the log alone: the commit that logged a leader logged the
    name-table leaf holding its entry in the same record, and every
    later move, split, or delete of that entry relogged the affected
    leaves — so searching the newest logged image of each leaf that is
    still allocated (per the logged bitmap; the home bitmap covers
    pages untouched in the window) finds the entry exactly when the
    file survived.  Pure CPU over pages already scanned: no extra
    I/O beyond at most one home bitmap read.
    """
    pending = {
        page_id: data
        for (kind, page_id), data in newest.items()
        if kind == PAGE_LEADER
    }
    if not pending:
        return [], 0
    page_size = layout.geometry.sector_bytes
    last_bitmap_page = bitmap_pages(layout)
    bitmaps: dict[int, bytes] = {}

    def bitmap(page_no: int) -> bytes:
        if page_no not in bitmaps:
            bitmaps[page_no] = nt_images.get(page_no) or home.read_page(page_no)
        return bitmaps[page_no]

    live: dict[tuple[str, int], tuple[int, int]] = {}
    for page_no, data in nt_images.items():
        if page_no <= last_bitmap_page or not page_allocated(
            bitmap, page_no, page_size
        ):
            continue
        for (name, version, chunk), value in leaf_entries(data):
            if chunk != 0:
                continue
            try:
                entry = parse_main_entry(value)
            except (CorruptMetadata, ValueError):
                continue
            live[(name, version)] = (entry.leader_addr, entry.uid)

    live_leaders: list[tuple[int, bytes]] = []
    for address, data in sorted(pending.items()):
        try:
            image = decode_leader(data)
        except CorruptMetadata:
            image = None
        if (
            image is not None
            and live.get((image.name, image.version))
            == (address, image.uid)
        ):
            live_leaders.append((address, data))
    return live_leaders, len(pending) - len(live_leaders)


# ----------------------------------------------------------------------
# VAM reconstruction
# ----------------------------------------------------------------------
def rebuild_vam(
    disk: SimDisk,
    layout: VolumeLayout,
    name_table: FsdNameTable,
    home: NameTableHome,
    report: MountReport,
    obs=NULL_OBS,
    memo: bool = True,
) -> VolumeAllocationMap:
    """Reconstruct the free map from the name table (paper §5.5): mark
    the metadata extents, then every file's leader and data runs.
    Without ``memo`` every page is parsed afresh and the disk's sweep
    memo is neither read nor replaced: ``verify_volume`` builds its
    reference that way, so a fault in the memo cannot hide from it.

    The rebuild needs every entry's runs, not their order, so the name
    table is swept in *physical* order (:func:`_sweep_name_table`)
    rather than walked in key order.  The sweep trusts the allocation
    bitmap to say which pages belong to the tree; the tree's own logged
    entry count is the cross-check.  If the two disagree (or a swept
    page does not parse, or two entries claim one sector) the bitmap
    and the tree are out of step, and the rebuild is redone by walking
    the tree, which reads only what is reachable from the root.
    """
    bulk_reads = home.bulk_reads
    ladder_fallbacks = home.ladder_fallbacks
    with obs.span("recovery.vam_rebuild") as span:
        try:
            swept = _sweep_name_table(
                disk, layout, name_table, home, obs, memo
            )
        except DegradedVolumeError:
            raise
        except (CorruptMetadata, ValueError):
            swept = None
        if swept is None:
            obs.count("recovery.vam_sweep_mismatch")
            vam = _metadata_vam(disk, layout, obs)
            files = 0
            for props, runs in name_table.enumerate():
                files += 1
                claims = [(props.leader_addr, 1)] if props.leader_addr else []
                vam.claim(claims + [(run.start, run.count) for run in runs.runs])
        else:
            vam, files, report.vam_sweep_pages = swept
            obs.count("recovery.vam_sweep_pages", report.vam_sweep_pages)
        span.set(
            entries=files,
            pages=report.vam_sweep_pages,
            transfers=home.bulk_reads - bulk_reads,
            ladder_fallbacks=home.ladder_fallbacks - ladder_fallbacks,
        )
    obs.count("recovery.vam_rebuilds")
    obs.count("recovery.vam_rebuild_entries", files)
    report.vam_rebuild_entries = files
    return vam


def _metadata_vam(
    disk: SimDisk, layout: VolumeLayout, obs
) -> VolumeAllocationMap:
    vam = VolumeAllocationMap(disk.geometry.total_sectors)
    vam.obs = obs
    vam.claim([(run.start, run.count) for run in layout.metadata_runs()])
    return vam


#: What the sweep takes from one name-table page image: whether it is
#: a leaf, its entry count, its chunk-0 (file) count, and its leaders
#: and runs as ``(start, count)`` claims in entry order.
PageSummary = tuple[bool, int, int, tuple[tuple[int, int], ...]]

_INTERIOR: PageSummary = (False, 0, 0, ())

#: Each disk's last sweep, ``{image: summary}`` for every page it swept.
#: Scoped to the disk, so one volume's sweep never reads another's, and
#: dropped with it; a summary is a pure function of the image bytes, so
#: a hit is exactly the parse it replaces.
_SWEEP_MEMO: WeakKeyDictionary[SimDisk, dict[bytes, PageSummary]] = (
    WeakKeyDictionary()
)


def sweep_page(image: bytes) -> PageSummary:
    """Parse one name-table page image for the VAM rebuild.

    Raises :class:`CorruptMetadata` or ``ValueError`` on an image that
    does not parse (a bad node, key, entry or continuation chunk).
    """
    node = Node.from_bytes(image)
    if node.kind != LEAF:
        return _INTERIOR
    claims: list[tuple[int, int]] = []
    files = 0
    for key, value in zip(node.keys, node.values):
        if parse_key(key)[2]:
            claims.extend(
                (run.start, run.count) for run in decode_continuation(value)
            )
        else:
            entry = parse_main_entry(value)
            files += 1
            if entry.leader_addr:
                claims.append((entry.leader_addr, 1))
            claims.extend(entry.runs)
    return True, len(node.keys), files, tuple(claims)


def _sweep_name_table(
    disk: SimDisk,
    layout: VolumeLayout,
    name_table: FsdNameTable,
    home: NameTableHome,
    obs,
    memo: bool,
) -> tuple[VolumeAllocationMap, int, int] | None:
    """Build a VAM from every allocated name-table page, read in
    ascending page order as multi-sector transfers.

    Returns (vam, files, pages swept), or None when the leaf entries
    swept are not as many as the tree says it holds.  Both home copies
    of every page are read and compared (:meth:`NameTableHome.read_run`);
    an image resident in the metadata cache overrides the home image,
    because on a live mount (``verify_volume``) the newest pages are
    dirty or logged-but-not-home.  CPU is charged as the key-order walk
    charged it: one B-tree node visit per page, one entry
    interpretation per leaf entry, and each leaf is one
    :meth:`VolumeAllocationMap.claim` of its leaders and runs.

    On the host a page is parsed (:func:`sweep_page`) only when its
    image is not one this disk's previous sweep parsed (with ``memo``):
    after a crash most of the table is what the last mount swept.  A
    page that does not parse is never remembered, so it fails every
    sweep that meets it.
    """
    pager = name_table.tree.pager
    cache = pager.cache
    clock = disk.clock
    node_ms = clock.cpu.btree_node_ms
    interpret_ms = clock.cpu.entry_interpret_ms
    max_io = layout.params.max_io_sectors
    vam = _metadata_vam(disk, layout, obs)
    previous = _SWEEP_MEMO.get(disk, {}) if memo else {}
    swept: dict[bytes, PageSummary] = {}
    files = entries = pages = 0
    for first, count in pager.allocated_runs():
        for start in range(first, first + count, max_io):
            images = home.read_run(start, min(max_io, first + count - start))
            for page_no, image in enumerate(images, start):
                resident = cache.resident_nt(page_no)
                if resident is not None:
                    image = resident
                summary = previous.get(image)
                if summary is None:
                    try:
                        summary = sweep_page(image)
                    except (CorruptMetadata, ValueError):
                        # Charged as far as the parse got: a leaf whose
                        # entries fail has had its visit and entries; an
                        # image that is no node raises again, uncharged.
                        node = Node.from_bytes(image)
                        clock.advance_cpu(node_ms)
                        clock.advance_cpu(interpret_ms * len(node.keys))
                        raise
                if memo:
                    swept[image] = summary
                clock.advance_cpu(node_ms)
                pages += 1
                leaf, keys, chunk0, claims = summary
                if not leaf:
                    continue
                clock.advance_cpu(interpret_ms * keys)
                entries += keys
                files += chunk0
                vam.claim(claims)
    if memo:
        _SWEEP_MEMO[disk] = swept
    if entries != len(name_table.tree):
        return None
    return vam, files, pages
