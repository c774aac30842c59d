"""Table 1 — Disk data structures for local files in CFS and FSD.

Table 1 is structural, not timed: it inventories where each piece of
metadata lives.  This bench builds live volumes, decodes the actual
on-disk bytes, and checks every placement claim of the table:

CFS: name table holds (text name, version, keep, uid, header addr);
     headers hold (run table, byte size, keep, create time, version,
     text name); labels hold (uid, page number, page type).
FSD: name table holds everything (name, version, keep, uid, run
     table, byte size, create time); leaders hold (uid, name, run-table
     preamble, run-table checksum) behind a checksummed header.
"""

from __future__ import annotations

from repro.cfs.header import decode_header
from repro.cfs.labels import PAGE_DATA, PAGE_HEADER, parse_label
from repro.core.leader import MAX_LEADER_RUNS, decode_leader, verify_leader
from repro.harness.report import Table
from repro.harness.scenarios import SMALL, cfs_volume, fsd_volume


def test_table1_structures(once):
    def run():
        rows = Table("Table 1: disk data structures (verified on live volumes)")

        # ---------------- CFS ----------------
        disk, cfs, _ = cfs_volume(SMALL)
        handle = cfs.create("table1/file", b"cedar" * 200, keep=3)

        entry = cfs.name_table.get("table1/file", 1)
        assert entry is not None
        uid, keep, header_addr = entry
        assert uid == handle.props.uid
        assert keep == 3
        rows.add(
            "CFS name table",
            "name, version, keep, uid, header addr",
            "verified", note="B-tree entry decodes to exactly these",
        )

        sectors = disk.peek(header_addr), disk.peek(header_addr + 1)
        props, runs = decode_header(list(sectors), 512)
        assert props.name == "table1/file"
        assert props.byte_size == 1000
        assert props.keep == 3
        assert runs.total_sectors == 2
        rows.add(
            "CFS header",
            "run table, byte size, keep, create time, version, name",
            "verified", note="2-sector header on disk",
        )

        label_uid, page, page_type = parse_label(disk.peek_label(header_addr))
        assert (label_uid, page, page_type) == (uid, 0, PAGE_HEADER)
        data_sector = runs.runs[0].start
        label_uid, page, page_type = parse_label(disk.peek_label(data_sector))
        assert (label_uid, page, page_type) == (uid, 0, PAGE_DATA)
        rows.add(
            "CFS labels",
            "uid, page number, page type",
            "verified", note="every sector labelled in 'hardware'",
        )

        # ---------------- FSD ----------------
        disk2, fsd, _ = fsd_volume(SMALL)
        handle2 = fsd.create("table1/file", b"cedar" * 200, keep=3)
        got = fsd.name_table.get("table1/file", 1)
        assert got is not None
        props2, runs2 = got
        assert props2.uid == handle2.props.uid
        assert props2.keep == 3
        assert props2.byte_size == 1000
        assert runs2.total_sectors == 2
        assert props2.create_time_ms >= 0
        rows.add(
            "FSD name table",
            "name, version, keep, uid, run table, size, create time",
            "verified", note="all metadata in one B-tree entry",
        )

        fsd.force()
        fsd.unmount()
        leader = decode_leader(disk2.peek(props2.leader_addr))
        assert (leader.uid, leader.version) == (props2.uid, 1)
        assert leader.name == "table1/file"
        assert leader.total_runs == len(runs2.runs)
        assert leader.runs.runs == runs2.runs[:MAX_LEADER_RUNS]
        verify_leader(disk2.peek(props2.leader_addr), props2, runs2)
        rows.add(
            "FSD leader",
            "uid, name, run-table preamble, run-table checksum",
            "verified", note="used only for software checking",
        )
        rows.print()
        return True

    assert once(run)
