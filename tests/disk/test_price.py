"""Reference test for the price of a disk I/O.

``SimDisk.price`` is the one place an I/O's CPU set-up and copy, seek
and rotational wait are computed, and every charge to the clock
applies it.  This file keeps its own reference: the timing formulas
written out from scratch (the seek curve, the platter's angle, the
per-sector transfer) and accumulated in the order ``price`` documents
— set-up, copy, seek, rotational wait, then the transfer.  Hypothesis
drives random drives, CPU models and I/O sequences (reads, writes, torn
writes, label I/O, a mirror's repair pass) through the disk and
compares every clock reading, every ``DiskStats`` field and every
traced event with the reference, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from hypothesis import given, settings, strategies as st

from repro.disk.clock import CpuCostModel, SimClock
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.disk.stats import DiskStats
from repro.disk.timing import DiskTiming
from repro.disk.trace import IoTracer
from repro.errors import LabelCheckError, SimulatedCrash

geometries = st.builds(
    DiskGeometry,
    cylinders=st.integers(min_value=1, max_value=40),
    heads=st.integers(min_value=1, max_value=4),
    sectors_per_track=st.integers(min_value=1, max_value=32),
    sector_bytes=st.just(16),
)
timings = st.builds(
    DiskTiming,
    rotation_ms=st.floats(min_value=1.0, max_value=40.0),
    seek_settle_ms=st.floats(min_value=0.0, max_value=20.0),
    seek_coeff_ms=st.floats(min_value=0.0, max_value=5.0),
    short_seek_cylinders=st.integers(min_value=0, max_value=8),
)
cpu_models = st.builds(
    CpuCostModel,
    io_setup_ms=st.floats(min_value=0.0, max_value=3.0),
    per_sector_copy_ms=st.floats(min_value=0.0, max_value=1.0),
)
KINDS = ("read", "write", "label_read", "label_write", "repair")


@dataclass
class Reference:
    """The disk's clock, arm and counters, re-derived from the formulas."""

    geometry: DiskGeometry
    timing: DiskTiming
    cpu: CpuCostModel
    charge_cpu: bool
    now_ms: float = 0.0
    cpu_busy_ms: float = 0.0
    disk_busy_ms: float = 0.0
    head: int = 0

    def __post_init__(self) -> None:
        self.stats = DiskStats()

    def charge(
        self, address: int, count: int, cpu_overlap: bool, moved: int,
        cpu: bool = True,
    ) -> tuple[int, float, float, float, float]:
        """One I/O; returns (distance, seek, wait, transfer, start)."""
        geometry, timing, stats = self.geometry, self.timing, self.stats
        start_ms = self.now_ms
        if cpu and self.charge_cpu:
            setup = self.cpu.io_setup_ms
            copy = self.cpu.per_sector_copy_ms * count
            self.now_ms += setup
            self.cpu_busy_ms += setup
            if not cpu_overlap:
                self.now_ms += copy
            self.cpu_busy_ms += copy
        spc = geometry.heads * geometry.sectors_per_track
        cylinder = address // spc
        distance = abs(cylinder - self.head)
        seek = 0.0
        if distance:
            seek = timing.seek_settle_ms + timing.seek_coeff_ms * math.sqrt(
                distance
            )
            self.now_ms += seek
            self.disk_busy_ms += seek
            stats.seek_ms += seek
            if distance <= timing.short_seek_cylinders:
                stats.short_seeks += 1
            else:
                stats.seeks += 1
        rotation = timing.rotation_ms
        spt = geometry.sectors_per_track
        target_angle = (address % spt) / spt
        platter_angle = (self.now_ms % rotation) / rotation
        wait = ((target_angle - platter_angle) % 1.0) * rotation
        self.now_ms += wait
        self.disk_busy_ms += wait
        stats.rotational_ms += wait
        transfer = moved * (rotation / spt)
        self.now_ms += transfer
        self.disk_busy_ms += transfer
        stats.transfer_ms += transfer
        self.head = (address + moved - 1) // spc if moved else cylinder
        return distance, seek, wait, transfer, start_ms


@st.composite
def io_ops(draw, geometry: DiskGeometry):
    total = geometry.total_sectors
    kind = draw(st.sampled_from(KINDS))
    count = draw(st.integers(min_value=1, max_value=min(total, 40)))
    address = draw(st.integers(min_value=0, max_value=total - count))
    crash = None
    if kind != "repair" and draw(st.integers(0, 3)) == 0:
        crash = (
            draw(st.none() | st.integers(min_value=0, max_value=count)),
            draw(st.integers(min_value=0, max_value=2)),
        )
    return {
        "kind": kind,
        "address": address,
        "count": count,
        "cpu_overlap": kind in ("read", "write") and draw(st.booleans()),
        "crash": crash,
        "label_mismatch": kind == "write" and draw(st.integers(0, 5)) == 0,
        "idle_ms": draw(st.floats(min_value=0.0, max_value=50.0)),
    }


def _run(disk: SimDisk, ref: Reference, op: dict) -> list:
    """Issue ``op`` on the disk and the reference; returns the
    reference's (kind, moved, charge) for the event it should trace."""
    kind, address, count = op["kind"], op["address"], op["count"]
    overlap = op["cpu_overlap"]
    disk.clock.advance_idle(op["idle_ms"])
    ref.now_ms += op["idle_ms"]
    stats = ref.stats
    if op["crash"] is not None:
        surviving, tail = op["crash"]
        disk.faults.arm_crash(
            after_ios=0, surviving_sectors=surviving, damage_tail=tail
        )
    crashed = op["crash"] is not None
    sectors = [bytes([address % 251])] * count
    labels = [b"L%d" % (address + offset) for offset in range(count)]
    if kind == "read":
        moved = 0 if crashed else count
        charge = ref.charge(address, count, overlap, moved)
        if crashed:
            _raises(SimulatedCrash, disk.read, address, count, None, overlap)
            return []
        disk.read(address, count, cpu_overlap=overlap)
        stats.reads += 1
        stats.sectors_read += count
        return [("read", moved, charge)]
    if kind == "write":
        if op["label_mismatch"]:
            ref.charge(address, count, overlap, 0)
            _raises(LabelCheckError, disk.write, address, sectors,
                    [b"\xff"] * count, None, overlap)
            return []
        persist = count
        if crashed and op["crash"][0] is not None:
            persist = min(op["crash"][0], count)
        moved = max(persist, 1)
        charge = ref.charge(address, count, overlap, moved)
        stats.writes += 1
        stats.sectors_written += persist
        if crashed:
            _raises(SimulatedCrash, disk.write, address, sectors,
                    None, labels, overlap)
            # The torn tail's damage is not what this test prices.
            disk.faults.damaged.clear()
        else:
            disk.write(address, sectors, set_labels=labels,
                       cpu_overlap=overlap)
        return [("write", moved, charge)]
    if kind == "label_read":
        moved = 0 if crashed else count
        charge = ref.charge(address, count, False, moved)
        if crashed:
            _raises(SimulatedCrash, disk.read_labels, address, count)
            return []
        disk.read_labels(address, count)
        stats.label_reads += 1
        return [("label_read", moved, charge)]
    if kind == "label_write":
        charge = ref.charge(address, count, False, count)
        stats.label_writes += 1
        if crashed:
            _raises(SimulatedCrash, disk.write_labels, address, labels)
        else:
            disk.write_labels(address, labels)
        return [("label_write", count, charge)]
    # A damaged primary sector on a mirrored pair: the read, then the
    # repair pass from the mirror, which charges no CPU and traces no
    # event.  On a single drive the read just reports the damage.
    disk.faults.damaged.add(address)
    charge = ref.charge(address, count, overlap, count)
    stats.reads += 1
    stats.sectors_read += count
    disk.read_maybe(address, count, cpu_overlap=overlap)
    if isinstance(disk, MirroredDisk):
        ref.charge(address, count, False, count, cpu=False)
    else:
        disk.faults.damaged.discard(address)
    return [("read", count, charge)]


def _raises(error: type, call, *args) -> None:
    try:
        call(*args)
    except error:
        return
    raise AssertionError(f"{call.__name__} did not raise {error.__name__}")


@settings(max_examples=150, deadline=None)
@given(
    geometry=geometries, timing=timings, cpu=cpu_models,
    charge_cpu=st.booleans(), mirrored=st.booleans(), data=st.data(),
)
def test_every_charge_is_the_reference_price(
    geometry, timing, cpu, charge_cpu, mirrored, data
):
    make = MirroredDisk if mirrored else SimDisk
    disk = make(
        geometry=geometry, timing=timing, clock=SimClock(cpu),
        charge_cpu=charge_cpu,
    )
    disk.tracer = IoTracer()
    ref = Reference(geometry, timing, cpu, charge_cpu)
    ops = data.draw(st.lists(io_ops(geometry), min_size=1, max_size=12))
    for op in ops:
        before = len(disk.tracer.events)
        expected_events = _run(disk, ref, op)
        clock = disk.clock
        assert clock.now_ms == ref.now_ms, op
        assert clock.cpu_busy_ms == ref.cpu_busy_ms, op
        assert clock.disk_busy_ms == ref.disk_busy_ms, op
        assert disk.head_cylinder == ref.head, op
        for field in fields(DiskStats):
            assert getattr(disk.stats, field.name) == getattr(
                ref.stats, field.name
            ), (field.name, op)
        events = disk.tracer.events[before:]
        assert len(events) == len(expected_events), op
        for event, (kind, moved, charge) in zip(events, expected_events):
            distance, seek, wait, transfer, start = charge
            assert event.kind == kind
            assert event.sectors == moved
            assert event.cylinder_distance == distance
            assert event.seek_ms == seek
            assert event.rotational_ms == wait
            assert event.transfer_ms == transfer
            assert event.start_ms == start
