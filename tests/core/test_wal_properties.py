"""Property-based tests for the write-ahead log.

The contract under randomness: for ANY sequence of appended batches,
with a crash torn into any batch at any point, a scan returns exactly
the records whose append completed after the current anchor — in
order, with correct contents — and appending can resume afterwards.
"""

from __future__ import annotations

import struct

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.wal import LoggedPage, PAGE_NAME_TABLE, WriteAheadLog
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import SimulatedCrash
from repro.serial import checksum

GEO = DiskGeometry(cylinders=60, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(
    nt_pages=64, log_record_sectors=231, cache_pages=8, max_record_pages=16
)

batches_strategy = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),   # page id
            st.integers(min_value=0, max_value=255),  # fill byte
        ),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=40,
)


def make_batch(spec) -> list[LoggedPage]:
    # Deduplicate page ids within a batch (cache semantics: one image
    # per page per force).
    seen = {}
    for page_id, fill in spec:
        seen[page_id] = LoggedPage(
            kind=PAGE_NAME_TABLE, page_id=page_id, data=bytes([fill]) * 512
        )
    return list(seen.values())


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches=batches_strategy)
def test_scan_returns_all_live_records(batches):
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, PARAMS)
    wal = WriteAheadLog(disk, layout)
    wal.boot_count = 1
    wal.format()
    wal.flush_third = lambda third: (0, 0, 0)

    written: dict[int, list[LoggedPage]] = {}
    for spec in batches:
        batch = make_batch(spec)
        for record_number, _, pages in wal.append_records(batch):
            written[record_number] = pages

    scanned = WriteAheadLog(disk, layout).scan()
    numbers = [record.record_number for record in scanned]
    # Strictly increasing, ending at the newest record; gaps only where
    # skip (wrap) records consumed a number without carrying data.
    assert numbers == sorted(set(numbers))
    assert numbers[-1] == wal.next_record_number - 1
    data_numbers = set(written)
    gap_numbers = set(
        range(numbers[0], numbers[-1] + 1)
    ) - set(numbers)
    assert gap_numbers.isdisjoint(data_numbers)
    # Anchor-to-end contents match what was appended.
    for record in scanned:
        expected = written[record.record_number]
        assert [(p.page_id, p.data) for p in record.pages] == [
            (p.page_id, p.data) for p in expected
        ]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    batches=batches_strategy,
    crash_io=st.integers(min_value=0, max_value=80),
    surviving=st.integers(min_value=0, max_value=30),
    tail=st.integers(min_value=0, max_value=2),
)
# The counter-example PR 12 saw replayed from a stale example database,
# pinned so it runs every time: the crash tears the data record that
# follows a wrap's skip record, after exactly its first copy (header
# pair, ten pages, end page: 14 of 25 sectors) reached the disk.  The
# scan rightly accepts that record — every page has one good copy — and
# the skip record used up a number no append reported, so the recovered
# record is numbered two past the last *completed* one.  The scan was
# right and the oracle's "+ 1" was wrong.
@example(
    batches=[
        [(page, index) for page in range(size)]
        for index, size in enumerate(
            [1, 1, 1, 2, 2, 3, 4, 5, 5, 6, 6, 6, 8, 9, 10, 10]
        )
    ],
    crash_io=17,
    surviving=14,
    tail=0,
)
def test_scan_after_torn_append_is_a_prefix(batches, crash_io, surviving, tail):
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, PARAMS)
    wal = WriteAheadLog(disk, layout)
    wal.boot_count = 1
    wal.format()
    wal.flush_third = lambda third: (0, 0, 0)

    completed: set[int] = set()
    disk.faults.arm_crash(
        after_ios=crash_io, surviving_sectors=surviving, damage_tail=tail
    )
    try:
        for spec in batches:
            for record_number, _, _ in wal.append_records(make_batch(spec)):
                completed.add(record_number)
        disk.faults.disarm_crash()
    except SimulatedCrash:
        pass

    scanned = WriteAheadLog(disk, layout).scan()
    numbers = [record.record_number for record in scanned]
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == len(numbers)
    # Every record whose append completed and which is at/after the
    # anchor must be recovered.  The only other record a scan may
    # return is the one the crash tore, if enough of it persisted: its
    # number is the appender's ``next_record_number``, which is not
    # advanced until the write returns (a wrap's skip record takes a
    # number too, so this is not always the last completed one + 1).
    recovered = set(numbers)
    anchor_number = WriteAheadLog(disk, layout).read_anchor()[1]
    assert {n for n in completed if n >= anchor_number} <= recovered
    assert max(recovered, default=0) <= wal.next_record_number
    # Appending resumes cleanly after recovery.
    resumed = WriteAheadLog(disk, layout)
    resumed.boot_count = 2
    resumed.scan()
    resumed.flush_third = lambda third: (0, 0, 0)
    resumed.append_records(make_batch([(1, 99)]))
    final = WriteAheadLog(disk, layout).scan()
    assert final[-1].pages[0].data == bytes([99]) * 512


# ----------------------------------------------------------------------
# the windowed scan against a per-record reference
# ----------------------------------------------------------------------
#: the record format, restated from the paper's layout (header, blank,
#: header copy, data pages, end page, data copies, end copy).
_HEADER = struct.Struct("<IBQIH")   # magic, kind, record number, boot, pages
_PAGE_META = struct.Struct("<BQI")  # page kind, page id, checksum
_END = struct.Struct("<IQIHI")      # magic, record number, boot, pages, pattern
_HEADER_MAGIC, _END_MAGIC, _END_PATTERN = 0x4C4F4748, 0x4C4F4745, 0xA5C3A5C3
_DATA, _SKIP = 1, 2


def _ref_header(data, expected=None):
    if data is None:
        return None
    magic, kind, number, boot, count = _HEADER.unpack_from(data)
    if magic != _HEADER_MAGIC or kind not in (_DATA, _SKIP):
        return None
    if expected is not None and number != expected:
        return None
    if _HEADER.size + count * _PAGE_META.size > len(data):
        return None
    meta = [
        _PAGE_META.unpack_from(data, _HEADER.size + i * _PAGE_META.size)
        for i in range(count)
    ]
    return kind, number, meta, boot


def _ref_end_valid(data, number, count) -> bool:
    if data is None:
        return False
    magic, got, _, pages, pattern = _END.unpack_from(data)
    return (magic, got, pages, pattern) == (_END_MAGIC, number, count, _END_PATTERN)


def reference_scan(disk: SimDisk, layout: VolumeLayout) -> dict:
    """The scan as it read before windows: per record a read of the
    header pair, then a read of the whole record; then, if the stop was
    at damaged sectors, a probe of the whole area for newer pieces."""
    wal = WriteAheadLog(disk, layout)
    area = wal.area_sectors

    def read(offset, count):
        return disk.read_maybe(wal.area_start + offset, count)

    offset, expected = wal.read_anchor()
    scanned, records, damaged = 0, [], False
    while scanned < area:
        if area - offset < 3:
            scanned += area - offset
            offset = 0
            continue
        sectors = read(offset, 3)
        damaged = sectors[0] is None or sectors[2] is None
        head = _ref_header(sectors[0], expected) or _ref_header(
            sectors[2], expected
        )
        if head is None:
            break
        kind, _, meta, boot = head
        if kind == _SKIP:
            scanned += area - offset
            offset = 0
            expected += 1
            continue
        count, damaged = len(meta), False
        size = 5 + 2 * count
        if offset + size > area:
            break
        sectors = read(offset, size)
        damaged = None in sectors
        if not any(
            _ref_end_valid(end, expected, count)
            for end in (sectors[3 + count], sectors[4 + 2 * count])
        ):
            break
        pages = []
        for index, (page_kind, page_id, expect_sum) in enumerate(meta):
            copies = (sectors[3 + index], sectors[4 + count + index])
            good = [c for c in copies if c is not None and checksum(c) == expect_sum]
            if not good:
                break
            pages.append((page_kind, page_id, good[0]))
        else:
            records.append((expected, boot, pages))
            offset += size
            scanned += size
            expected += 1
            if offset >= area:
                offset = 0
            continue
        break
    lost = False
    if damaged:
        for data in read(0, area):
            head = _ref_header(data)
            if head is not None:
                lost = lost or head[1] > expected
            elif data is not None:
                magic, number = struct.unpack_from("<IQ", data)
                lost = lost or (magic == _END_MAGIC and number > expected)
    third = wal.third_of((offset - 1) % area) if records or offset else 0
    return {
        "records": records,
        "write_offset": offset,
        "next_record_number": expected,
        "current_third": third,
        "scan_damage": damaged,
        "lost_records_detected": lost,
    }


def windowed_scan(disk: SimDisk, layout: VolumeLayout) -> dict:
    wal = WriteAheadLog(disk, layout)
    records = wal.scan()
    return {
        "records": [
            (r.record_number, r.boot_count,
             [(p.kind, p.page_id, p.data) for p in r.pages])
            for r in records
        ],
        "write_offset": wal.write_offset,
        "next_record_number": wal.next_record_number,
        "current_third": wal.current_third,
        "scan_damage": wal.scan_damage,
        "lost_records_detected": wal.lost_records_detected,
    }


#: where to damage the log after the history: inside the last completed
#: record, in the sectors a window reads past the end of the log, or
#: anywhere in the record area; 1 or 2 consecutive sectors each.
damage_strategy = st.lists(
    st.tuples(
        st.sampled_from(["last", "past", "any"]),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=2),
    ),
    max_size=2,
)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    batches=batches_strategy,
    crash=st.none() | st.tuples(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2),
    ),
    damage=damage_strategy,
)
# Records that fill the whole area, the last one with a damaged
# header copy: with no stop, the last read decides scan_damage.
@example(
    batches=(
        [[(0, 0)]] * 5
        + [[(0, 0), (1, 0)]] * 4
        + [[(0, 0), (1, 0), (2, 0)]] * 4
        + [[(0, 0), (1, 0), (2, 7)]]
        + [[(0, 0), (1, 0), (2, 0), (3, 0)]] * 2
        + [[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]]
        + [[(5, 0), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]]
        + [[(i, 0) for i in range(8)], [(i, 0) for i in range(10)]]
    ),
    crash=None,
    damage=[("last", 0, 1)],
)
def test_windowed_scan_equals_per_record_reference(batches, crash, damage):
    """Reading the record area in windows changes what is read at once,
    never what the scan concludes: records, append position, third and
    both damage verdicts equal the per-record scan's — with wraps and
    skip records, a torn tail, damage inside the last record and damage
    past the end of the log that a window carries."""
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, PARAMS)
    wal = WriteAheadLog(disk, layout)
    wal.boot_count = 1
    wal.format()
    wal.flush_third = lambda third: (0, 0, 0)
    if crash is not None:
        crash_io, surviving, tail = crash
        disk.faults.arm_crash(
            after_ios=crash_io, surviving_sectors=surviving, damage_tail=tail
        )
    try:
        for spec in batches:
            wal.append_records(make_batch(spec))
    except SimulatedCrash:
        pass
    disk.faults.disarm_crash()

    area, end = wal.area_sectors, wal.write_offset
    for where, position, count in damage:
        if where == "last" and wal.record_sizes:
            size = wal.record_sizes[-1]
            offset = end - size + position % size
        elif where == "past":
            offset = (end + position % PARAMS.max_io_sectors) % area
        else:
            offset = position % area
        disk.faults.damage(wal.area_start + offset, min(count, area - offset))

    assert windowed_scan(disk, layout) == reference_scan(disk, layout)
