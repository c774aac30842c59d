"""Unit tests for the volume's I/O port (repro.disk.sched)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.disk.sched import IoScheduler, as_scheduler, plan_writes
from repro.errors import SimulatedCrash
from repro.obs import Observer
from tests.disk.reference_plan import reference_plan_writes

GEO = DiskGeometry(cylinders=100, heads=4, sectors_per_track=16)
#: the benchmarks' track length and heads, on fewer cylinders.
WIDE_GEO = DiskGeometry(cylinders=50, heads=24, sectors_per_track=30)


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


#: a batch for write_batch: (address, sector count) per write, over a
#: few cylinders of GEO (64 sectors each) so that some writes overlap.
BATCH = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 4)), max_size=24
)


def batch_writes(spec) -> list[tuple[int, list[bytes]]]:
    return [
        (address, [sector(index + 1)] * count)
        for index, (address, count) in enumerate(spec)
    ]


def disk_at(
    head: int, idle_ms: float, charge_cpu: bool = True, mirrored: bool = False
) -> SimDisk:
    """A drive whose arm rests on cylinder ``head`` at ``idle_ms``."""
    make = MirroredDisk if mirrored else SimDisk
    disk = make(geometry=GEO, charge_cpu=charge_cpu)
    disk.head_cylinder = head
    disk.clock.advance_idle(idle_ms)
    return disk


class TestWriteBatch:
    """The one reordering: a batch is planned for the least positioning
    and still leaves what program order would have left."""

    @settings(max_examples=80, deadline=None)
    @given(spec=BATCH, head=st.integers(0, 99))
    def test_final_image_is_program_orders(self, spec, head):
        writes = batch_writes(spec)
        in_order = disk_at(head, 0.0)
        for address, sectors in writes:
            in_order.write(address, sectors)
        batched = disk_at(head, 0.0)
        io = IoScheduler(batched)
        io.write_batch(writes)
        assert batched._data == in_order._data
        assert batched.stats.writes == len(writes)
        assert io.sched_stats.submitted == io.sched_stats.dispatched == len(writes)

    @settings(max_examples=80, deadline=None)
    @given(
        spec=BATCH, head=st.integers(0, 99),
        idle_ms=st.floats(0.0, 1000.0), charge_cpu=st.booleans(),
        mirrored=st.booleans(),
    )
    def test_predicted_finish_is_the_disks_clock(
        self, spec, head, idle_ms, charge_cpu, mirrored
    ):
        """The planner and the disk cannot drift apart: each write ends
        exactly, bit for bit, when the plan said it would, on a single
        drive or a shadowed pair, with or without CPU charged."""
        writes = batch_writes(spec)
        disk = disk_at(head, idle_ms, charge_cpu, mirrored)
        start_ms = disk.clock.now_ms
        plan = plan_writes(disk, writes)
        assert disk.clock.now_ms == start_ms  # planning is free
        assert sorted(index for index, _ in plan) == list(range(len(writes)))
        for index, finish_ms in plan:
            disk.write(*writes[index])
            assert disk.clock.now_ms == finish_ms

    @settings(max_examples=300, deadline=None)
    @given(
        geometry=st.sampled_from([GEO, WIDE_GEO]),
        spec=st.lists(
            st.tuples(st.integers(0, 3 * 720 - 1), st.integers(1, 5)),
            max_size=70,
        ),
        head=st.integers(0, 40), idle_ms=st.floats(0.0, 1e8),
        charge_cpu=st.booleans(), mirrored=st.booleans(),
    )
    def test_the_plan_of_pricing_every_write(
        self, geometry, spec, head, idle_ms, charge_cpu, mirrored
    ):
        """The planner prices few candidates a pick, and its plan is
        still the one pricing every pending write at every pick makes,
        index for index and finish for finish: batches crowded onto a
        few cylinders, long and short writes, many on one slot, clocks
        from zero to a day."""
        spc = geometry.sectors_per_cylinder
        writes = [
            (address % (3 * spc), [sector(index % 250 + 1, geometry)] * count)
            for index, (address, count) in enumerate(spec)
        ]
        make = MirroredDisk if mirrored else SimDisk
        disk = make(geometry=geometry, charge_cpu=charge_cpu)
        disk.head_cylinder = head
        disk.clock.advance_idle(idle_ms)
        assert plan_writes(disk, writes) == reference_plan_writes(disk, writes)

    def test_prices_few_candidates_a_pick(self):
        """A hundred writes on one cylinder: pricing every pending write
        at every pick is 5 050 prices; the planner makes under a
        quarter of them and plans the same."""
        rng = random.Random(5)
        spc = WIDE_GEO.sectors_per_cylinder
        writes = [
            (3 * spc + rng.randrange(spc - 4),
             [sector(index + 1, WIDE_GEO)] * rng.choice([1, 1, 1, 2, 3]))
            for index in range(100)
        ]
        disk = SimDisk(geometry=WIDE_GEO)
        priced = 0
        price = disk.price

        def counting(*args):
            nonlocal priced
            priced += 1
            return price(*args)

        disk.price = counting
        plan = plan_writes(disk, writes)
        del disk.price
        assert plan == reference_plan_writes(disk, writes)
        assert priced * 4 < 100 * 101 // 2

    def test_empty_and_single_batches_are_program_order(self):
        disk = disk_at(3, 5.0)
        assert plan_writes(disk, []) == []
        IoScheduler(disk).write_batch([])
        assert disk.stats.writes == 0
        (only,) = plan_writes(disk, [(300, [sector(1)])])
        assert only[0] == 0

    def test_overlapping_writes_keep_their_order(self):
        # The later write starts on a cylinder the sweep reaches first.
        writes = [(60, [sector(1)] * 8), (64, [sector(2)])]
        disk = disk_at(1, 0.0)
        assert [index for index, _ in plan_writes(disk, writes)] == [0, 1]

    def test_beats_ascending_slots_on_one_track(self):
        """Neighbours one slot apart cost a revolution each in address
        order (set-up outlasts the gap); the plan takes them in about
        two passes."""
        writes = [(address, [sector(address)]) for address in range(16)]
        ascending = disk_at(0, 0.0)
        for address, sectors in writes:
            ascending.write(address, sectors)
        planned = disk_at(0, 0.0)
        IoScheduler(planned).write_batch(writes)
        revolution = planned.timing.rotation_ms
        assert ascending.clock.now_ms > 14 * revolution
        assert planned.clock.now_ms < 3 * revolution


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
