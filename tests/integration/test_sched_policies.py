"""Whole-stack tests for the I/O scheduler policies.

Two acceptance criteria live here:

* ``fifo`` is **bit-identical** to the direct-disk path — the golden
  numbers below are per on-disk format (they pin where the sectors
  are, not only how the code is factored), so under one format any
  drift in op counts or simulated time under fifo is a regression in
  the pass-through;
* ``scan`` (and ``deadline``) produce the same file-system *content*
  while spending less simulated seek time on a writeback-heavy
  workload.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.harness.adapters import FsdAdapter
from repro.harness.batches import measure_batches
from repro.harness.scenarios import SMALL, fsd_volume, populate
from repro.workloads.generators import payload

#: What the direct-disk path produced for the exact workload in
#: ``golden_workload`` below.  First captured on the pre-scheduler tree
#: (commit f94857a); re-captured when the volume format moved copy B
#: of the name table into copy A's cylinder ("FSD2": 18 fewer seeks,
#: 241 ms less seek time, and a group commit that closes at a
#: different moment — one more write, nine fewer sectors).  fifo must
#: reproduce every one of these, bit for bit.
GOLDEN = dict(
    reads=112,
    writes=233,
    label_reads=0,
    label_writes=0,
    sectors_read=334,
    sectors_written=1661,
    seeks=17,
    short_seeks=31,
    seek_ms=469.85959102351075,
    rotational_ms=3286.9648256433975,
    transfer_ms=692.8468750000026,
    now_ms=9935.667291666668,
    create_ios=108,
    list_ios=0,
    read_ios=100,
)


def golden_workload(sched: str):
    """The deterministic mixed workload the golden numbers pin."""
    disk, fs, adapter = fsd_volume(SMALL, sched=sched)
    names = populate(adapter, 60)
    result = measure_batches(disk, adapter)
    for name in names[:20]:
        adapter.delete(name)
    for index in range(20):
        adapter.create(f"bulk/u-{index:03d}", payload(1400, 100 + index))
    fs.force()
    fs.unmount()
    return disk, result


class TestFifoBitCompat:
    def test_fifo_matches_pre_refactor_golden_numbers(self):
        """``GOLDEN`` pins a *format*, not a refactor: a change to
        ``core/layout.py`` that moves a metadata sector legitimately
        moves these numbers and re-captures them; a change anywhere
        else must not."""
        disk, result = golden_workload("fifo")
        st = disk.stats
        got = dict(
            reads=st.reads,
            writes=st.writes,
            label_reads=st.label_reads,
            label_writes=st.label_writes,
            sectors_read=st.sectors_read,
            sectors_written=st.sectors_written,
            seeks=st.seeks,
            short_seeks=st.short_seeks,
            seek_ms=st.seek_ms,
            rotational_ms=st.rotational_ms,
            transfer_ms=st.transfer_ms,
            now_ms=disk.clock.now_ms,
            create_ios=result.create_ios,
            list_ios=result.list_ios,
            read_ios=result.read_ios,
        )
        assert got == GOLDEN


def bulk_update_run(sched: str):
    """Populate then rewrite every file: the writeback-heavy workload
    where dispatch order matters most."""
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, SMALL.fsd_params)
    fs = FSD.mount(disk, sched=sched)
    adapter = FsdAdapter(fs)
    names = populate(adapter, 80)
    for index, name in enumerate(names):
        handle = fs.open(name)
        fs.write(handle, 0, payload(900, 500 + index))
    fs.force()
    sched_stats = fs.io.sched_stats
    fs.unmount()
    return disk, names, sched_stats


def reread(disk: SimDisk, names: list[str], sched: str):
    """Remount, verify integrity, and read back a sample of files."""
    fs = FSD.mount(disk, sched=sched)
    report = verify_volume(fs)
    adapter = FsdAdapter(fs)
    contents = {
        name: adapter.read(adapter.open(name)) for name in names[:10]
    }
    fs.unmount()
    return report, contents


class TestPolicyEquivalenceAndWins:
    @pytest.mark.parametrize("sched", ["scan", "deadline"])
    def test_policies_preserve_content(self, sched):
        base_disk, base_names, _ = bulk_update_run("fifo")
        base_report, base_contents = reread(base_disk, base_names, "fifo")
        assert base_report.clean

        disk, names, _ = bulk_update_run(sched)
        report, contents = reread(disk, names, sched)
        assert report.clean
        assert contents == base_contents

    def test_scan_reduces_seek_time_on_bulk_update(self):
        fifo_disk, _, fifo_stats = bulk_update_run("fifo")
        scan_disk, _, scan_stats = bulk_update_run("scan")
        assert scan_disk.stats.seek_ms < fifo_disk.stats.seek_ms
        # The elevator only helps because writes actually queued up
        # and some of them merged.
        assert scan_stats.max_queue_depth > 1
        assert scan_stats.coalesced >= 1
        assert scan_disk.stats.writes <= fifo_disk.stats.writes
        assert fifo_stats.max_queue_depth == 0

    def test_crash_under_scan_recovers_committed_state(self):
        """Queued writes are volatile; the log still covers everything
        committed, so a crash with a non-empty queue must recover."""
        disk = SimDisk(geometry=SMALL.geometry)
        FSD.format(disk, SMALL.fsd_params)
        fs = FSD.mount(disk, sched="scan")
        adapter = FsdAdapter(fs)
        names = populate(adapter, 30)
        fs.force()  # durability point: all 30 committed
        fs.crash()
        fs = FSD.mount(disk, sched="scan")
        assert verify_volume(fs).clean
        adapter = FsdAdapter(fs)
        for name in names:
            assert adapter.exists(name)
        fs.unmount()
