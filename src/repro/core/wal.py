"""FSD's circular physical redo log (paper §5.3).

Record layout on disk, exactly as the paper describes: *"a header page,
a blank page, a copy of the header page, the data pages being logged,
an end page, copies of the data pages being logged, and a copy of the
end page"* — 5 sectors of overhead plus twice the data, and the same
data never on adjacent sectors, so the 1–2-consecutive-sector failure
model can never destroy both copies of anything.  A one-page record is
7 sectors; 14 pages make 33 sectors (both figures from §5.4).

The record area is divided into thirds.  Each cached metadata page
remembers the third in which it was last logged; when appending is
about to enter a new third, every page whose latest log copy lives in
that third is written home first (via the ``flush_third`` callback),
and then the anchor — the pointer to the first valid record, kept in
log page 0 and replicated in log page 2 — advances past it.  This
simple scheme keeps 5/6 of the log usable on average.

End-of-log detection on recovery matches the paper: header-page pair,
record numbers, boot count, end-page pair, and magic bit patterns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.core.layout import VolumeLayout
from repro.disk.disk import SimDisk
from repro.disk.sched import as_scheduler
from repro.errors import CorruptMetadata, LogFull
from repro.obs import NULL_OBS
from repro.serial import Unpacker, checksum

_HEADER_MAGIC = 0x4C4F4748  # "LOGH"
_END_MAGIC = 0x4C4F4745     # "LOGE"
_ANCHOR_MAGIC = 0x4C4F4741  # "LOGA"
_END_PATTERN = 0xA5C3A5C3   # the paper's "special bit patterns"

#: precompiled record codecs (the Packer equivalents, byte for byte):
#: header prefix magic/kind/number/boot/pages, one per-page meta
#: triple, the end page, and the anchor body.
_HDR_PREFIX = struct.Struct("<IBQIH")
_HDR_PAGE = struct.Struct("<BQI")
_END_PAGE = struct.Struct("<IQIHI")
_ANCHOR_BODY = struct.Struct("<IQ")
_ANCHOR_PREFIX = struct.Struct("<II")

RECORD_DATA = 1
RECORD_SKIP = 2

PAGE_NAME_TABLE = 1
PAGE_LEADER = 2

#: sectors that are pure overhead in every data record.
RECORD_OVERHEAD_SECTORS = 5
#: sectors in a skip (wrap) record: header, blank, header copy.
SKIP_RECORD_SECTORS = 3

#: histogram bounds for on-disk record sizes: the paper's 7-sector
#: one-page record up through the 33-sector 14-page record and beyond.
RECORD_SECTOR_BUCKETS = (7.0, 9.0, 13.0, 17.0, 25.0, 33.0, 49.0, 83.0)


@dataclass(frozen=True)
class LoggedPage:
    """One page image carried by a log record.

    ``kind`` is :data:`PAGE_NAME_TABLE` (``page_id`` = logical name-table
    page number, rewritten to *both* home copies on redo) or
    :data:`PAGE_LEADER` (``page_id`` = disk sector address).
    """

    kind: int
    page_id: int
    data: bytes


@dataclass
class LogRecord:
    record_number: int
    boot_count: int
    pages: list[LoggedPage] = field(default_factory=list)


def record_sectors(page_count: int) -> int:
    """On-disk size of a data record carrying ``page_count`` pages."""
    return RECORD_OVERHEAD_SECTORS + 2 * page_count


class WriteAheadLog:
    """The circular redo log of one FSD volume."""

    def __init__(self, disk: SimDisk, layout: VolumeLayout, io=None):
        #: all log I/O goes through the volume's shared I/O port; a
        #: raw disk is wrapped in one of its own.
        self.io = io if io is not None else as_scheduler(disk)
        self.disk = disk
        self.layout = layout
        self.sector_bytes = disk.geometry.sector_bytes
        self.area_start = layout.log_start + 3  # after anchor/blank/anchor
        self.area_sectors = layout.params.log_record_sectors
        self.third_sectors = self.area_sectors // 3
        if record_sectors(layout.params.max_record_pages) > self.third_sectors:
            # A record must fit inside one third so it can span at most
            # two, keeping the third-entry protocol sound.
            raise ValueError(
                "log too small: the largest record must fit in one third"
            )
        #: called with the third index before its records are
        #: overwritten; returns the name-table pages, leaders and
        #: transfers it wrote home (``MetadataCache.flush_third``).
        self.flush_third: Callable[[int], tuple[int, int, int]] | None = None
        #: observability attach point (``FSD.mount`` rebinds it).
        self.obs = NULL_OBS

        self.write_offset = 0
        self.next_record_number = 1
        self.current_third = 0
        self.anchor_offset = 0
        self.anchor_record_number = 1
        # first (offset, record_number) written into each third this pass
        self._third_first: list[tuple[int, int] | None] = [None, None, None]
        self.records_written = 0
        self.sectors_logged = 0
        self.pages_logged = 0
        #: cumulative simulated ms the appender spent blocked inside the
        #: third-entry protocol (synchronous write-home + anchor write),
        #: and how many times the protocol ran.
        self.stall_ms = 0.0
        self.third_entries = 0
        self.record_sizes: list[int] = []
        #: set by :meth:`scan`: the scan stopped at a record whose
        #: sectors were detectably damaged (media fault, not just the
        #: usual stale-bytes end of log).
        self.scan_damage = False
        #: set by :meth:`scan`: valid record pieces *newer* than the
        #: stopping point exist beyond it — committed records were lost
        #: to mid-log damage (impossible under the single-fault model).
        self.lost_records_detected = False
        self._reads_damaged = False

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def third_of(self, offset: int) -> int:
        """Which third of the record area ``offset`` falls in (0-2)."""
        return min(offset // self.third_sectors, 2)

    def _disk_addr(self, offset: int) -> int:
        return self.area_start + offset

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def format(self) -> None:
        """Initialize an empty log: anchor at offset 0, record 1."""
        self.write_offset = 0
        self.next_record_number = 1
        self.current_third = 0
        self._third_first = [None, None, None]
        self._write_anchor(0, 1)

    # ------------------------------------------------------------------
    # anchor (log page 0, replicated at log page 2)
    # ------------------------------------------------------------------
    def _encode_anchor(self, offset: int, record_number: int) -> bytes:
        body = _ANCHOR_BODY.pack(offset, record_number)
        data = _ANCHOR_PREFIX.pack(_ANCHOR_MAGIC, checksum(body)) + body
        return data.ljust(self.sector_bytes, b"\x00")

    def _write_anchor(self, offset: int, record_number: int) -> None:
        page = self._encode_anchor(offset, record_number)
        blank = b""
        # Every home write and record issued before this is already on
        # the platter, so the anchor cannot advance past them.
        self.io.write(self.layout.log_start, [page, blank, page])
        self.anchor_offset = offset
        self.anchor_record_number = record_number

    def read_anchor(self) -> tuple[int, int]:
        """Read the anchor, tolerating damage to either copy."""
        sectors = self.io.read_maybe(self.layout.log_start, 3)
        for candidate in (sectors[0], sectors[2]):
            if candidate is None:
                continue
            try:
                reader = Unpacker(candidate)
                if reader.u32() != _ANCHOR_MAGIC:
                    continue
                expect = reader.u32()
                body = reader.raw(12)
                if checksum(body) != expect:
                    continue
                inner = Unpacker(body)
                return inner.u32(), inner.u64()
            except CorruptMetadata:
                continue
        raise CorruptMetadata("both log anchor copies unreadable")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append_records(
        self, pages: list[LoggedPage]
    ) -> list[tuple[int, int, list[LoggedPage]]]:
        """Write ``pages`` as one or more records; returns
        ``(record_number, start_third, pages)`` per record so the cache
        can track which third holds each page's newest log copy.  Every
        record is on the platter when this returns.
        """
        if not pages:
            return []
        cap = self.layout.params.max_record_pages
        out: list[tuple[int, int, list[LoggedPage]]] = []
        for start in range(0, len(pages), cap):
            chunk = pages[start : start + cap]
            record_number, third = self._append_record(chunk)
            out.append((record_number, third, chunk))
        return out

    def _append_record(self, pages: list[LoggedPage]) -> tuple[int, int]:
        pages = [self._normalize(page) for page in pages]
        size = record_sectors(len(pages))
        if size > self.third_sectors:
            raise LogFull(
                f"record of {size} sectors exceeds one third "
                f"({self.third_sectors} sectors) of the log"
            )
        if self.write_offset + size > self.area_sectors:
            self._wrap()
        offset = self.write_offset
        self._cross_thirds(offset, size)
        record_number = self.next_record_number
        self._note_record_start(offset, record_number)
        sectors = self._encode_record(record_number, pages)
        self.io.submit_write(self._disk_addr(offset), sectors)
        self.write_offset = offset + size
        self.current_third = self.third_of(self.write_offset - 1)
        self.next_record_number += 1
        self.records_written += 1
        self.sectors_logged += size
        self.pages_logged += len(pages)
        self.record_sizes.append(size)
        self.obs.count("wal.records_appended")
        self.obs.count("wal.sectors_logged", size)
        self.obs.count("wal.pages_logged", len(pages))
        self.obs.observe(
            "wal.record_sectors", size, bounds=RECORD_SECTOR_BUCKETS
        )
        return record_number, self.third_of(offset)

    def _wrap(self) -> None:
        """Wrap to offset 0, leaving a skip record when one fits."""
        self.obs.count("wal.wraparounds")
        remaining = self.area_sectors - self.write_offset
        if remaining >= SKIP_RECORD_SECTORS:
            self._cross_thirds(self.write_offset, SKIP_RECORD_SECTORS)
            record_number = self.next_record_number
            self._note_record_start(self.write_offset, record_number)
            header = self._encode_header(RECORD_SKIP, record_number, [])
            self.io.submit_write(
                self._disk_addr(self.write_offset), [header, b"", header]
            )
            self.next_record_number += 1
            self.records_written += 1
            self.sectors_logged += SKIP_RECORD_SECTORS
        self.write_offset = 0

    def _cross_thirds(self, offset: int, size: int) -> None:
        """Fire the third-entry protocol for every new third the write
        [offset, offset+size) touches.  Records fit in one third, so at
        most two consecutive thirds are involved."""
        touched = sorted(
            {self.third_of(s) for s in (offset, offset + size - 1)}
        )
        for third in touched:
            if third != self.current_third:
                self._enter_third(third, offset)

    def _enter_third(self, third: int, upcoming_offset: int) -> None:
        """The paper's third-entry protocol: write home every page whose
        newest log copy is in ``third``, then advance the anchor.

        The anchor moves to the first record of the oldest third that
        still holds live record *starts*; if neither other third has
        one (degenerately small logs), it moves to the record about to
        be written."""
        self.obs.count("wal.third_entries")
        self.third_entries += 1
        clock = self.io.clock
        start_ms = clock.now_ms
        with self.obs.span("wal.third_entry") as span:
            if self.flush_third is not None:
                pages, leaders, transfers = self.flush_third(third)
                span.set(pages=pages, leaders=leaders, transfers=transfers)
            if self.third_of(self.anchor_offset) == third:
                new_anchor = (upcoming_offset, self.next_record_number)
                for step in (1, 2):
                    successor = self._third_first[(third + step) % 3]
                    if successor is not None:
                        new_anchor = successor
                        break
                # A checkpoint that left the cursor exactly on this
                # third's boundary has already put the anchor on the
                # record about to be written: nothing to move.
                if new_anchor != (self.anchor_offset, self.anchor_record_number):
                    self._write_anchor(*new_anchor)
        self._third_first[third] = None
        # Commit-path stall: the appender (and therefore the commit in
        # progress) was blocked behind this write-home + anchor advance.
        # A background checkpointer that keeps ahead of the cursor makes
        # this 0 — the third is already clean and the anchor already past.
        self.stall_ms += clock.now_ms - start_ms
        self.obs.count("wal.stall_ms", clock.now_ms - start_ms)

    def _note_record_start(self, offset: int, record_number: int) -> None:
        third = self.third_of(offset)
        if self._third_first[third] is None:
            self._third_first[third] = (offset, record_number)

    def _normalize(self, page: LoggedPage) -> LoggedPage:
        """Pad page images to a full sector so the on-disk bytes (and
        their checksums) are what a scan will read back."""
        if len(page.data) == self.sector_bytes:
            return page
        if len(page.data) > self.sector_bytes:
            raise LogFull(
                f"page image of {len(page.data)} bytes exceeds a sector"
            )
        return LoggedPage(
            kind=page.kind,
            page_id=page.page_id,
            data=page.data.ljust(self.sector_bytes, b"\x00"),
        )

    # ------------------------------------------------------------------
    # record encoding
    # ------------------------------------------------------------------
    def _encode_header(
        self, kind: int, record_number: int, pages: list[LoggedPage]
    ) -> bytes:
        pack_page = _HDR_PAGE.pack
        parts = [
            _HDR_PREFIX.pack(
                _HEADER_MAGIC, kind, record_number, self.boot_count,
                len(pages),
            )
        ]
        parts.extend(
            pack_page(page.kind, page.page_id, checksum(page.data))
            for page in pages
        )
        data = b"".join(parts)
        if len(data) > self.sector_bytes:
            raise ValueError(
                f"packed structure overflows capacity {self.sector_bytes}"
            )
        return data.ljust(self.sector_bytes, b"\x00")

    def _encode_end(self, record_number: int, page_count: int) -> bytes:
        return _END_PAGE.pack(
            _END_MAGIC, record_number, self.boot_count, page_count,
            _END_PATTERN,
        ).ljust(self.sector_bytes, b"\x00")

    def _encode_record(
        self, record_number: int, pages: list[LoggedPage]
    ) -> list[bytes]:
        header = self._encode_header(RECORD_DATA, record_number, pages)
        end = self._encode_end(record_number, len(pages))
        datas = [page.data for page in pages]
        return [header, b"", header, *datas, end, *datas, end]

    #: set by the volume at mount; recorded in every record for the
    #: paper's end-of-log checks.
    boot_count: int = 0

    # ------------------------------------------------------------------
    # recovery scan
    # ------------------------------------------------------------------
    def scan(self) -> list[LogRecord]:
        """Read every valid record from the anchor forward, set the
        append position after the last one, and return the records.

        Damage to one copy of any page is corrected from the other; a
        torn final record (crash during the log write itself) fails the
        end-page check and cleanly terminates the scan.

        The first read is the anchor's header pair alone, so an empty
        log costs one 3-sector read.  Once a record is found the scan
        streams: it reads on in windows of ``max_io_sectors``
        (:class:`_ScanWindow`).  Each record is still parsed, and its
        damage judged, from its own sectors only.
        """
        anchor_offset, anchor_record = self.read_anchor()
        self.anchor_offset, self.anchor_record_number = (
            anchor_offset,
            anchor_record,
        )
        records: list[LogRecord] = []
        self._third_first = [None, None, None]
        self.scan_damage = False
        self.lost_records_detected = False
        offset = anchor_offset
        expected = anchor_record
        scanned = 0
        suspicious = False
        window = _ScanWindow(
            self.io, self.area_start, self.area_sectors,
            self.layout.params.max_io_sectors,
        )
        while scanned < self.area_sectors:
            if self.area_sectors - offset < SKIP_RECORD_SECTORS:
                scanned += self.area_sectors - offset
                offset = 0
                continue
            self._reads_damaged = False
            head = self._read_header_pair(window.get(offset, 3), expected)
            if head is None:
                suspicious = self._reads_damaged
                break
            window.streaming = True
            kind, _, page_meta, boot_count = head
            if kind == RECORD_SKIP:
                self._note_record_start(offset, expected)
                scanned += self.area_sectors - offset
                offset = 0
                expected += 1
                continue
            self._reads_damaged = False
            record = self._read_record_body(
                window, offset, expected, boot_count, page_meta
            )
            if record is None:
                suspicious = self._reads_damaged
                break
            self._note_record_start(offset, expected)
            records.append(record)
            size = record_sectors(len(record.pages))
            offset += size
            scanned += size
            expected += 1
            if offset >= self.area_sectors:
                offset = 0
        else:
            # Records fill the whole area: the last read decides, as it
            # does at a stop (the per-record scan's rule).
            suspicious = self._reads_damaged
        self.write_offset = offset
        self.next_record_number = expected
        if records or offset:
            self.current_third = self.third_of(
                (offset - 1) % self.area_sectors
            )
        else:
            self.current_third = 0
        if suspicious:
            # The scan stopped *because of* damaged sectors, not the
            # usual stale bytes.  Under the single-fault model that is
            # only ever the torn tail record of the crash itself; probe
            # for record pieces strictly newer than the stopping point,
            # which would prove committed records beyond a damage hole.
            self.scan_damage = True
            self.obs.count("wal.scan_damage_stops")
            if self._probe_lost_records(expected):
                self.lost_records_detected = True
                self.obs.count("wal.lost_records_detected")
        return records

    def _probe_lost_records(self, expected: int) -> bool:
        """Sweep the record area for header/end pages numbered strictly
        above ``expected``.  Record numbers only ever grow, and the
        stopping record's own pieces carry exactly ``expected``, so any
        newer piece means a committed record sits beyond a damage hole
        the scan could not cross.
        """
        chunk = 128
        for start in range(0, self.area_sectors, chunk):
            count = min(chunk, self.area_sectors - start)
            sectors = self.io.read_maybe(self._disk_addr(start), count)
            for data in sectors:
                head = _parse_header(data)
                if head is not None:
                    if head[1] > expected:
                        return True
                elif data is not None:
                    try:
                        reader = Unpacker(data)
                        if reader.u32() == _END_MAGIC and reader.u64() > expected:
                            return True
                    except CorruptMetadata:
                        continue
        return False

    def _read_header_pair(
        self, sectors: list[bytes | None], expected: int
    ) -> tuple[int, int, list[tuple[int, int, int]], int] | None:
        """The record header carried by ``sectors`` (header, blank,
        header copy), if either copy holds record ``expected``."""
        if sectors[0] is None or sectors[2] is None:
            self._reads_damaged = True
        for candidate in (sectors[0], sectors[2]):
            parsed = _parse_header(candidate, expected)
            if parsed is not None:
                return parsed
        return None

    def _read_record_body(
        self,
        window: "_ScanWindow",
        offset: int,
        record_number: int,
        boot_count: int,
        page_meta: list[tuple[int, int, int]],
    ) -> LogRecord | None:
        count = len(page_meta)
        size = record_sectors(count)
        if offset + size > self.area_sectors:
            return None
        sectors = window.get(offset, size)
        if any(sector is None for sector in sectors):
            self._reads_damaged = True
        end_a = sectors[3 + count]
        end_b = sectors[3 + 2 * count + 1]
        if not any(
            self._end_valid(end, record_number, count) for end in (end_a, end_b)
        ):
            return None
        pages: list[LoggedPage] = []
        for kind, page_id, data in _record_pages(sectors, 0, page_meta):
            if data is None:
                return None  # both copies bad: treat as torn record
            pages.append(LoggedPage(kind=kind, page_id=page_id, data=data))
        return LogRecord(
            record_number=record_number, boot_count=boot_count, pages=pages
        )

    def _end_valid(
        self, data: bytes | None, record_number: int, count: int
    ) -> bool:
        if data is None:
            return False
        try:
            reader = Unpacker(data)
            return (
                reader.u32() == _END_MAGIC
                and reader.u64() == record_number
                and reader.u32() >= 0
                and reader.u16() == count
                and reader.u32() == _END_PATTERN
            )
        except CorruptMetadata:
            return False

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def admission_capacity_pages(self) -> int:
        """Metadata pages the bracket layer may let accumulate before
        ``begin_op`` blocks: what one third of the record area can
        absorb as a single record (each logged page costs two sectors
        plus the 5-sector record overhead).  Admission against this
        budget keeps every group commit inside the active third, so a
        force never triggers the third-entry writeback protocol
        mid-commit.  Never less than one worst-case operation, or no
        client could ever be admitted."""
        usable = (self.third_sectors - RECORD_OVERHEAD_SECTORS) // 2
        return max(usable, self.layout.params.max_record_pages)

    def utilization(self) -> float:
        """Fraction of the record area between the anchor and the write
        position — the "in use" share the paper says averages 5/6."""
        span = (self.write_offset - self.anchor_offset) % self.area_sectors
        if span == 0 and self.next_record_number > self.anchor_record_number:
            return 1.0
        return span / self.area_sectors

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Advance the anchor to the current append position (used at
        clean unmount, after every page has been written home)."""
        self.obs.count("wal.checkpoints")
        self._write_anchor(self.write_offset, self.next_record_number)
        self._third_first = [None, None, None]


class _ScanWindow:
    """The record-area sectors a scan holds, and how it reads more.

    Until :attr:`streaming` is set a read fetches exactly the span
    asked for (the anchor's header pair); from then on it fetches a
    window of ``window`` sectors, or the span if that is longer, capped
    at the end of the record area.  A span that starts inside the held
    sectors reads only its missing tail.
    """

    def __init__(self, io, area_start: int, area_sectors: int, window: int):
        self.io = io
        self.area_start = area_start
        self.area_sectors = area_sectors
        self.window = window
        self.streaming = False
        self.start = 0
        self.held: list[bytes | None] = []

    def get(self, offset: int, count: int) -> list[bytes | None]:
        """Sectors ``[offset, offset + count)`` of the record area."""
        if self.start <= offset < self.start + len(self.held):
            del self.held[: offset - self.start]
        else:
            self.held = []
        self.start = offset
        missing = count - len(self.held)
        if missing > 0:
            end = offset + len(self.held)
            if self.streaming:
                missing = max(
                    missing, min(self.window, self.area_sectors - end)
                )
            self.held += self.io.read_maybe(self.area_start + end, missing)
        return self.held[:count]


def _parse_header(
    data: bytes | None, expected: int | None = None
) -> tuple[int, int, list[tuple[int, int, int]], int] | None:
    """A record header as ``(kind, record number, [(page kind, page id,
    checksum)], boot count)``, carrying record ``expected`` unless that
    is None; None for any other sector."""
    if data is None:
        return None
    try:
        reader = Unpacker(data)
        if reader.u32() != _HEADER_MAGIC:
            return None
        kind = reader.u8()
        if kind not in (RECORD_DATA, RECORD_SKIP):
            return None
        record_number = reader.u64()
        boot_count = reader.u32()
        if expected is not None and record_number != expected:
            return None
        count = reader.u16()
        meta = [
            (reader.u8(), reader.u64(), reader.u32()) for _ in range(count)
        ]
        return kind, record_number, meta, boot_count
    except CorruptMetadata:
        return None


def _record_pages(
    sectors: list[bytes | None], start: int, page_meta: list[tuple[int, int, int]]
) -> list[tuple[int, int, bytes | None]]:
    """``(kind, page_id, data)`` per page of the record whose header is
    ``sectors[start]``: ``data`` is the first of its two copies to match
    the header's checksum, None if neither does or both lie outside."""
    count = len(page_meta)
    pages = []
    for index, (kind, page_id, expect_sum) in enumerate(page_meta):
        data = None
        for position in (start + 3 + index, start + 4 + count + index):
            if 0 <= position < len(sectors):
                candidate = sectors[position]
                if candidate is not None and checksum(candidate) == expect_sum:
                    data = candidate
                    break
        pages.append((kind, page_id, data))
    return pages


def salvage_pages(read, layout: VolumeLayout) -> dict[tuple[int, int], bytes]:
    """The newest checksum-valid image of every page in the record area,
    found without the anchor or the record-number chain (``read(address,
    count)`` returns sectors, None where unreadable).  Any sector that
    parses as a data-record header is tried as the first header and as
    its copy two sectors on; the highest record number wins per page."""
    area = read(layout.log_start + 3, layout.params.log_record_sectors)
    newest: dict[tuple[int, int], tuple[int, bytes]] = {}
    for index, sector in enumerate(area):
        head = _parse_header(sector)
        if head is None or head[0] != RECORD_DATA:
            continue
        _, record_number, page_meta, _ = head
        if record_sectors(len(page_meta)) > len(area):
            continue
        for start in (index, index - 2):
            for kind, page_id, data in _record_pages(area, start, page_meta):
                held = newest.get((kind, page_id))
                if data is not None and (held is None or held[0] < record_number):
                    newest[(kind, page_id)] = (record_number, data)
    return {key: data for key, (_, data) in newest.items()}
