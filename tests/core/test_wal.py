"""Unit tests for the circular redo log: record format, thirds
protocol, anchor management, wrap handling and damage tolerance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.wal import (
    LoggedPage,
    PAGE_LEADER,
    PAGE_NAME_TABLE,
    RECORD_OVERHEAD_SECTORS,
    WriteAheadLog,
    record_sectors,
    salvage_pages,
)
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import CorruptMetadata, LogFull, SimulatedCrash

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=16)


def fresh_wal(params: VolumeParams = PARAMS) -> tuple[SimDisk, WriteAheadLog]:
    disk = SimDisk(geometry=GEO)
    layout = VolumeLayout.compute(GEO, params)
    wal = WriteAheadLog(disk, layout)
    wal.boot_count = 1
    wal.format()
    return disk, wal


def nt_page(page_id: int, fill: int) -> LoggedPage:
    return LoggedPage(
        kind=PAGE_NAME_TABLE, page_id=page_id, data=bytes([fill]) * 512
    )


class TestRecordArithmetic:
    def test_paper_sizes(self):
        assert RECORD_OVERHEAD_SECTORS == 5
        assert record_sectors(1) == 7
        assert record_sectors(14) == 33

    def test_log_must_hold_max_record(self):
        disk = SimDisk(geometry=GEO)
        params = VolumeParams(
            nt_pages=512, log_record_sectors=150, max_record_pages=36
        )
        layout = VolumeLayout.compute(GEO, params)
        with pytest.raises(ValueError):
            WriteAheadLog(disk, layout)


class TestAppendScan:
    def test_empty_scan(self):
        _, wal = fresh_wal()
        assert wal.scan() == []
        assert wal.next_record_number == 1
        assert wal.write_offset == 0

    def test_empty_scan_reads_only_the_header_pair(self):
        """A clean or fresh mount's scan: the anchor, then the 3-sector
        header pair at it — no window."""
        disk, wal = fresh_wal()
        reads, sectors = disk.stats.reads, disk.stats.sectors_read
        assert WriteAheadLog(disk, wal.layout).scan() == []
        assert disk.stats.reads - reads == 2
        assert disk.stats.sectors_read - sectors == 6

    def test_scan_streams_in_windows(self):
        """After the first header the scan reads on in windows of
        ``max_io_sectors``: ten 7-sector records (70 sectors) and the
        end of the log all fit one window after the header pair."""
        disk, wal = fresh_wal()
        for index in range(10):
            wal.append_records([nt_page(index, index)])
        reads = disk.stats.reads
        assert len(WriteAheadLog(disk, wal.layout).scan()) == 10
        assert disk.stats.reads - reads == 3  # anchor, header pair, window

    def test_single_record_roundtrip(self):
        disk, wal = fresh_wal()
        pages = [nt_page(3, 0xAA), nt_page(9, 0xBB)]
        wal.append_records(pages)
        layout = wal.layout
        reopened = WriteAheadLog(disk, layout)
        records = reopened.scan()
        assert len(records) == 1
        assert records[0].record_number == 1
        assert [(p.kind, p.page_id) for p in records[0].pages] == [
            (PAGE_NAME_TABLE, 3),
            (PAGE_NAME_TABLE, 9),
        ]
        assert records[0].pages[0].data == bytes([0xAA]) * 512

    def test_scan_resumes_append_position(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(1, 1)])
        wal.append_records([nt_page(2, 2)])
        reopened = WriteAheadLog(disk, wal.layout)
        reopened.scan()
        assert reopened.write_offset == wal.write_offset
        assert reopened.next_record_number == 3
        # Appending after recovery continues the sequence.
        reopened.boot_count = 2
        reopened.append_records([nt_page(3, 3)])
        final = WriteAheadLog(disk, wal.layout)
        assert len(final.scan()) == 3

    def test_leader_pages_carry_disk_addresses(self):
        disk, wal = fresh_wal()
        wal.append_records(
            [LoggedPage(kind=PAGE_LEADER, page_id=4242, data=b"leader")]
        )
        records = WriteAheadLog(disk, wal.layout).scan()
        assert records[0].pages[0].kind == PAGE_LEADER
        assert records[0].pages[0].page_id == 4242

    def test_batch_splits_at_record_cap(self):
        disk, wal = fresh_wal()
        cap = wal.layout.params.max_record_pages
        results = wal.append_records([nt_page(i, i % 250) for i in range(cap + 5)])
        assert len(results) == 2
        assert len(results[0][2]) == cap
        assert len(results[1][2]) == 5

    def test_record_too_big_for_a_third(self):
        _, wal = fresh_wal()
        huge = (wal.third_sectors - RECORD_OVERHEAD_SECTORS) // 2 + 1
        with pytest.raises(LogFull):
            wal._append_record([nt_page(i, 0) for i in range(huge)])

    def test_empty_append_is_noop(self):
        disk, wal = fresh_wal()
        assert wal.append_records([]) == []
        assert disk.stats.writes == 1  # only the format anchor write

    def test_record_size_accounting(self):
        _, wal = fresh_wal()
        wal.append_records([nt_page(1, 1)])
        assert wal.record_sizes == [7]
        assert wal.sectors_logged == 7
        assert wal.pages_logged == 1


class TestOnDiskFormat:
    def test_no_identical_adjacent_sectors(self):
        """The paper's rule: the same data never on adjacent sectors,
        so one 2-sector fault cannot kill both copies of anything."""
        disk, wal = fresh_wal()
        wal.append_records([nt_page(i, 10 + i) for i in range(5)])
        size = record_sectors(5)
        sectors = [disk.peek(wal.area_start + i) for i in range(size)]
        for a, b in zip(sectors, sectors[1:]):
            assert a != b

    def test_one_page_record_is_seven_sectors(self):
        _, wal = fresh_wal()
        wal.append_records([nt_page(1, 1)])
        assert wal.write_offset == 7


class TestDamageTolerance:
    def test_header_copy_damaged(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(5, 0x55)])
        disk.faults.damage(wal.area_start + 0)  # primary header
        records = WriteAheadLog(disk, wal.layout).scan()
        assert len(records) == 1

    def test_data_copy_damaged(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(5, 0x55)])
        disk.faults.damage(wal.area_start + 3)  # primary data page
        records = WriteAheadLog(disk, wal.layout).scan()
        assert records[0].pages[0].data == bytes([0x55]) * 512

    def test_end_page_damaged(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(5, 0x55)])
        disk.faults.damage(wal.area_start + 4)  # end page (copy survives)
        assert len(WriteAheadLog(disk, wal.layout).scan()) == 1

    def test_two_consecutive_sectors_damaged(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(5, 0x55), nt_page(6, 0x66)])
        disk.faults.damage(wal.area_start + 3, count=2)  # both primary datas
        records = WriteAheadLog(disk, wal.layout).scan()
        assert len(records) == 1
        assert records[0].pages[1].data == bytes([0x66]) * 512

    def test_torn_final_record_discarded(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(1, 1)])
        disk.faults.arm_crash(after_ios=0, surviving_sectors=4, damage_tail=2)
        with pytest.raises(SimulatedCrash):
            wal.append_records([nt_page(2, 2), nt_page(3, 3)])
        records = WriteAheadLog(disk, wal.layout).scan()
        assert len(records) == 1
        assert records[0].pages[0].page_id == 1

    def test_anchor_copy_damaged(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(1, 1)])
        disk.faults.damage(wal.layout.log_start)  # anchor page 0
        reopened = WriteAheadLog(disk, wal.layout)
        assert reopened.read_anchor() == (0, 1)
        assert len(reopened.scan()) == 1

    def test_both_anchor_copies_damaged_is_fatal(self):
        disk, wal = fresh_wal()
        disk.faults.damage(wal.layout.log_start)
        disk.faults.damage(wal.layout.log_start + 2)
        with pytest.raises(CorruptMetadata):
            WriteAheadLog(disk, wal.layout).read_anchor()


class TestThirdsProtocol:
    def test_flush_called_on_entering_new_third(self):
        _, wal = fresh_wal()
        entered = []

        def flush_third(third):
            entered.append(third)
            return 0, 0, 0

        wal.flush_third = flush_third
        pages_per_record = 10
        appended = 0
        while wal.third_of(wal.write_offset) == 0 and appended < 50:
            wal.append_records([nt_page(i, i) for i in range(pages_per_record)])
            appended += 1
        # The write position reached third 1; the next record (or the
        # one that crossed) must have announced entering it.
        wal.append_records([nt_page(0, 0)])
        assert 1 in entered

    def test_anchor_advances_when_wrapping(self):
        _, wal = fresh_wal()
        wal.flush_third = lambda third: (0, 0, 0)
        first_anchor = wal.anchor_offset, wal.anchor_record_number
        # Fill well past one full log cycle.
        for i in range(60):
            wal.append_records([nt_page(i % 30, i % 251) for _ in range(10)])
        assert (wal.anchor_offset, wal.anchor_record_number) != first_anchor
        assert wal.anchor_record_number > 1

    def test_no_anchor_write_when_the_anchor_is_already_there(self):
        """A checkpoint that leaves the cursor exactly on a third
        boundary has put the anchor on the record about to be written;
        entering that third moves nothing and writes nothing."""
        disk, wal = fresh_wal()
        wal.flush_third = lambda third: (0, 0, 0)
        for fill in range(4):  # 4 x 25 sectors: one third exactly
            wal.append_records([nt_page(i, fill) for i in range(10)])
        assert wal.write_offset == wal.third_sectors
        wal.checkpoint()
        writes = disk.stats.writes
        wal.append_records([nt_page(7, 0x77)])
        assert wal.third_entries == 1
        assert wal.stall_ms == 0.0
        assert disk.stats.writes == writes + 1  # the record alone
        assert wal.read_anchor() == (wal.third_sectors, 5)
        (record,) = WriteAheadLog(disk, wal.layout).scan()
        assert record.record_number == 5

    def test_scan_after_many_wraps(self):
        disk, wal = fresh_wal()
        wal.flush_third = lambda third: (0, 0, 0)
        for i in range(80):
            wal.append_records([nt_page(i % 40, (i * 3) % 251) for _ in range(8)])
        records = WriteAheadLog(disk, wal.layout).scan()
        assert records, "wrapped log must still recover its tail"
        # Record numbers are consecutive from the anchor.
        numbers = [r.record_number for r in records]
        assert numbers == list(range(numbers[0], numbers[0] + len(numbers)))
        assert numbers[-1] == wal.next_record_number - 1

    def test_skip_record_at_tail(self):
        """A record that does not fit the tail wraps via a skip record
        and scanning follows it."""
        disk, wal = fresh_wal()
        wal.flush_third = lambda third: (0, 0, 0)
        # Append 8-page records (21 sectors); 300 is not a multiple of
        # 21, so the last record cannot fit the tail exactly.
        while wal.area_sectors - wal.write_offset >= 21:
            wal.append_records([nt_page(i, 7) for i in range(8)])
        tail_before_wrap = wal.write_offset
        wal.append_records([nt_page(1, 8) for _ in range(8)])  # forces the wrap
        assert wal.write_offset < tail_before_wrap  # wrapped
        records = WriteAheadLog(disk, wal.layout).scan()
        assert records[-1].pages[0].data == bytes([8]) * 512

    def test_checkpoint_empties_recovery(self):
        disk, wal = fresh_wal()
        wal.append_records([nt_page(1, 1)])
        wal.checkpoint()
        assert WriteAheadLog(disk, wal.layout).scan() == []


#: one record's pages: distinct (kind, page id) pairs, as a commit logs
#: every dirty page once.
record_keys = st.lists(
    st.tuples(
        st.sampled_from([PAGE_NAME_TABLE, PAGE_LEADER]),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


class TestSalvageSweep:
    """``salvage_pages`` reads the record area without the anchor or the
    record-number chain; on an undamaged log it must agree with the
    anchored scan whose newest images recovery writes home."""

    @settings(max_examples=40, deadline=None)
    @given(history=st.lists(record_keys, min_size=1, max_size=60))
    def test_agrees_with_the_scan_on_an_undamaged_log(self, history):
        disk, wal = fresh_wal()
        wal.flush_third = lambda third: (0, 0, 0)
        last_logged: dict[tuple[int, int], int] = {}
        for step, keys in enumerate(history):
            pages = [
                LoggedPage(
                    kind, page_id, f"{step}:{kind}:{page_id}".encode() * 40
                )
                for kind, page_id in keys
            ]
            for number, _, chunk in wal.append_records(pages):
                for page in chunk:
                    last_logged[(page.kind, page.page_id)] = number
        records = WriteAheadLog(disk, wal.layout).scan()
        redone: dict[tuple[int, int], bytes] = {}
        for record in records:
            for page in record.pages:
                redone[(page.kind, page.page_id)] = page.data
        swept = salvage_pages(disk.read_maybe, wal.layout)
        for key, data in redone.items():
            assert swept[key] == data, key
        # What the sweep finds beyond the scan was last logged before
        # the anchor: records recovery rightly no longer reads.
        first = records[0].record_number if records else wal.next_record_number
        for key in swept.keys() - redone.keys():
            assert last_logged[key] < first, key

