"""§5.4 — log record sizes.

"Records have five pages of overhead and write twice the data to be
logged.  [A one-data-page record] is logged in seven 512 byte sectors.
The longest log record observed is 83 sectors long.  Under high load,
a typical log record has 14 pages logged, for a log record size of 33
sectors."
"""

from __future__ import annotations

import statistics

from repro.core.wal import RECORD_OVERHEAD_SECTORS, record_sectors
from repro.harness.report import Table
from repro.harness.scenarios import FULL, fsd_volume
from repro.workloads.generators import BulkUpdateWorkload, payload


def test_log_record_sizes(once):
    def run():
        # Arithmetic of the record format, straight from the paper.
        assert RECORD_OVERHEAD_SECTORS == 5
        assert record_sectors(1) == 7
        assert record_sectors(14) == 33

        # A single cached-file open in an otherwise idle interval logs
        # one page in seven sectors.
        disk, fs, adapter = fsd_volume(FULL)
        from repro.core.types import FileKind

        fs.create("remote/cached.df", b"df", kind=FileKind.CACHED)
        fs.force()
        before = fs.wal.record_sizes[-1] if fs.wal.record_sizes else 0
        disk.clock.drain(1_000)
        fs.open("remote/cached.df")  # updates last-used-time: one page
        count_before = len(fs.wal.record_sizes)
        fs.force()
        one_page_record = fs.wal.record_sizes[count_before]

        # High load: bulk updates produce multi-page records.
        workload = BulkUpdateWorkload(files=48, rounds=4)
        workload.setup(adapter)
        high_load_start = len(fs.wal.record_sizes)
        utilization_samples = []
        for round_index in range(1, workload.rounds + 1):
            for index in range(workload.files):
                fs.create(
                    f"{workload.directory}/module-{index:03d}",
                    payload(workload.size_bytes, index + round_index),
                )
                disk.clock.drain(25.0)
                utilization_samples.append(fs.wal.utilization())
        fs.force()
        sizes = fs.wal.record_sizes[high_load_start:]
        # Only steady-state samples count (after the first full lap).
        steady = utilization_samples[len(utilization_samples) // 2:]
        return one_page_record, sizes, steady

    one_page_record, sizes, utilization = once(run)

    mean_utilization = statistics.mean(utilization)
    table = Table("§5.4: log record sizes (sectors)")
    table.add("1-page record", 7.0, float(one_page_record))
    table.add("typical under load", 33.0, float(statistics.median(sizes)))
    table.add("largest observed", 83.0, float(max(sizes)))
    table.add("overhead sectors", 5.0, float(RECORD_OVERHEAD_SECTORS))
    table.add(
        "log in use (steady state)", "5/6 = 0.83",
        round(mean_utilization, 2),
        note="§5.3: 'averages 5/6ths of the log in use'",
    )
    table.print()

    assert one_page_record == 7
    # Typical high-load records carry on the order of 10–36 pages.
    assert 15 <= statistics.median(sizes) <= 80
    # The cap keeps the largest record at or under the paper's 83.
    assert max(sizes) <= 83
    # Every record is odd-sized: 5 + 2n.
    assert all(size % 2 == 1 for size in sizes)
    # The thirds algorithm keeps roughly 5/6 of the log live.
    assert 0.60 <= mean_utilization <= 1.0
