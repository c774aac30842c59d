"""Unit tests for the volume's I/O port (repro.disk.sched)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.sched import IoScheduler, as_scheduler
from repro.errors import SimulatedCrash
from repro.obs import Observer

GEO = DiskGeometry(cylinders=100, heads=4, sectors_per_track=16)


def sector(byte: int, geo: DiskGeometry = GEO) -> bytes:
    return bytes([byte]) * geo.sector_bytes


class TestFifoPassThrough:
    """The port must be byte- and time-identical to direct disk calls."""

    def test_identical_stats_and_time(self):
        workload = [(10, 3), (500, 2), (10, 1), (2000, 4)]

        direct = SimDisk(geometry=GEO)
        for address, count in workload:
            direct.write(address, [sector(7)] * count)
        direct.read(10, 2)

        disk = SimDisk(geometry=GEO)
        io = IoScheduler(disk)
        for address, count in workload:
            io.submit_write(address, [sector(7)] * count)
        io.read(10, 2)

        assert disk.stats.__dict__ == direct.stats.__dict__
        assert disk.clock.now_ms == direct.clock.now_ms
        assert io.queue_depth == 0

    def test_as_scheduler_wraps_and_passes_through(self):
        disk = SimDisk(geometry=GEO)
        io = as_scheduler(disk)
        assert isinstance(io, IoScheduler)
        assert as_scheduler(io) is io
        assert io.geometry is disk.geometry
        assert io.clock is disk.clock
        assert io.stats is disk.stats
        assert io.faults is disk.faults


#: one write: (synchronous?, address, sector count).  Addresses are
#: drawn from a narrow band so writes overlap and land out of order.
WRITES = st.lists(
    st.tuples(st.booleans(), st.integers(0, 400), st.integers(1, 4)),
    min_size=1, max_size=12,
)


def issue(io: IoScheduler, index: int, write: tuple[bool, int, int]) -> None:
    synchronous, address, count = write
    call = io.write if synchronous else io.submit_write
    call(address, [sector(index + 1)] * count)


class TestNoVolatileWriteState:
    """A write is on the platter when the call that issued it returns:
    the sentence the module docstring rests on."""

    @settings(max_examples=60, deadline=None)
    @given(writes=WRITES)
    def test_every_write_is_home_on_return(self, writes):
        disk = SimDisk(geometry=GEO)
        io = IoScheduler(disk)
        for index, write in enumerate(writes):
            issue(io, index, write)
            _, address, count = write
            for offset in range(count):
                assert disk.peek(address + offset) == sector(index + 1)
        assert disk.stats.writes == len(writes)

    @settings(max_examples=60, deadline=None)
    @given(writes=WRITES, data=st.data())
    def test_crash_on_write_n_keeps_every_earlier_write(self, writes, data):
        crash_at = data.draw(st.integers(0, len(writes) - 1))
        expected: dict[int, bytes] = {}
        disk = SimDisk(geometry=GEO)
        io = IoScheduler(disk)
        disk.faults.arm_crash(after_ios=crash_at)
        for index, write in enumerate(writes):
            _, address, count = write
            span = range(address, address + count)
            if index == crash_at:
                with pytest.raises(SimulatedCrash):
                    issue(io, index, write)
                # The torn write may hit only the sectors it addressed.
                for torn in span:
                    expected.pop(torn, None)
                break
            issue(io, index, write)
            expected.update(dict.fromkeys(span, sector(index + 1)))
        for address, image in expected.items():
            assert disk.peek(address) == image


class TestReadMerging:
    def test_adjacent_reads_fuse(self):
        io = IoScheduler(SimDisk(geometry=GEO))
        merged = io.merge_reads([(100, 2), (102, 1), (200, 1)])
        assert merged == [(100, 3), (200, 1)]
        assert io.sched_stats.read_merged == 1

    def test_gap_keeps_transfers_apart(self):
        io = IoScheduler(SimDisk(geometry=GEO))
        assert io.merge_reads([(100, 1), (102, 1)]) == [(100, 1), (102, 1)]
        assert io.sched_stats.read_merged == 0

    def test_limit_splits_long_spans(self):
        io = IoScheduler(SimDisk(geometry=GEO))
        merged = io.merge_reads([(100, 2), (102, 2)], limit=3)
        assert merged == [(100, 3), (103, 1)]

    def test_empty_and_zero_counts_skipped(self):
        io = IoScheduler(SimDisk(geometry=GEO))
        assert io.merge_reads([]) == []
        assert io.merge_reads([(100, 0), (100, 2)]) == [(100, 2)]

    def test_obs_counter(self):
        disk = SimDisk(geometry=GEO)
        obs = Observer(disk.clock)
        io = IoScheduler(disk, obs=obs)
        io.merge_reads([(10, 1), (11, 1), (12, 1)])
        assert obs.snapshot().counter("sched.coalesced_reads") == 2
