"""The simulation must be fully deterministic: identical workloads on
identical volumes produce bit-identical disks and equal clocks.  Every
benchmark number in EXPERIMENTS.md depends on this."""

from __future__ import annotations

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.harness.batches import measure_batches
from repro.harness.scenarios import SMALL, fsd_volume, populate
from repro.workloads.generators import OperationMix, payload
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY


def run_workload() -> tuple[float, float, bytes, int]:
    disk = SimDisk(geometry=TEST_GEOMETRY)
    FSD.format(disk, TEST_FSD_PARAMS)
    fs = FSD.mount(disk)
    from repro.harness.adapters import FsdAdapter

    adapter = FsdAdapter(fs)
    names = []
    for index in range(25):
        name = f"det/f{index:02d}"
        adapter.create(name, payload(300 + index * 77, index))
        names.append(name)
    OperationMix(seed=13).run(adapter, names, operations=120)
    fs.force()
    fs.crash()
    fs = FSD.mount(disk)
    digest_input = b"".join(
        disk.peek(sector)
        for sector in range(0, TEST_GEOMETRY.total_sectors, 977)
    )
    from repro.serial import checksum

    return (
        disk.clock.now_ms,
        disk.clock.cpu_busy_ms,
        digest_input,
        checksum(digest_input),
    )


def test_bit_identical_replay():
    first = run_workload()
    second = run_workload()
    assert first[0] == second[0]  # identical virtual clocks
    assert first[1] == second[1]
    assert first[2] == second[2]  # identical on-disk bytes
    assert first[3] == second[3]


#: What the direct-disk path produced for the exact workload in
#: ``golden_workload`` below.  First captured on the pre-scheduler tree
#: (commit f94857a); re-captured when the volume format moved copy B
#: of the name table into copy A's cylinder ("FSD2": 18 fewer seeks,
#: 241 ms less seek time, and a group commit that closes at a
#: different moment — one more write, nine fewer sectors); and again
#: when the B-tree began splitting an appended-to node at its last
#: slot (fewer name-table pages to write home: 233 -> 215 writes, 82
#: fewer sectors; the reads are the same); and again when each new
#: small file began three sectors past the last one (the same 180 data
#: writes and 834 ms less rotation; the populate ends 891 ms sooner, so
#: the commit timer ticks at other moments: one more log write inside
#: the measured create batch, two fewer outside it, 25 logged sectors
#: fewer in all); and again when a version lookup stopped reading at
#: the end of its name's key range (the leaf after it is no longer
#: read, so less B-tree CPU comes before some I/Os, and their wait for
#: the same sectors grows by as much: 0.75 ms more rotation, the same
#: I/Os and the same end time).  The I/O port must reproduce every one
#: of these, bit for bit.
GOLDEN = dict(
    reads=112,
    writes=214,
    label_reads=0,
    label_writes=0,
    sectors_read=334,
    sectors_written=1554,
    seeks=15,
    short_seeks=30,
    seek_ms=450.7711064878843,
    rotational_ms=2308.463518512359,
    transfer_ms=655.6866666666689,
    now_ms=8852.117291666667,
    create_ios=109,
    list_ios=0,
    read_ios=100,
)


def golden_workload():
    """The deterministic mixed workload the golden numbers pin."""
    disk, fs, adapter = fsd_volume(SMALL)
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
        """``GOLDEN`` pins where metadata lies, not a refactor: a
        change to ``core/layout.py`` that moves a metadata sector, or
        to how many name-table pages the B-tree fills, legitimately
        moves these numbers and re-captures them; a change anywhere
        else must not.  Since the reordering policies went, program
        order is *the* dispatch order, so this pins every mount's
        writes, not one policy's."""
        disk, result = golden_workload()
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
