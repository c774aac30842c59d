"""Tests for the I/O tracer."""

from __future__ import annotations

import pytest

from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.timing import TRIDENT_TIMING, DiskTiming
from repro.disk.trace import IoEvent, IoTracer

GEO = DiskGeometry(cylinders=40, heads=4, sectors_per_track=16)


@pytest.fixture
def traced() -> tuple[SimDisk, IoTracer]:
    disk = SimDisk(geometry=GEO)
    tracer = IoTracer()
    disk.tracer = tracer
    return disk, tracer


class TestTracing:
    def test_no_tracer_no_overhead(self):
        disk = SimDisk(geometry=GEO)
        disk.read(0, 1)  # must not blow up without a tracer

    def test_events_recorded_per_io(self, traced):
        disk, tracer = traced
        disk.write(10, [b"x", b"y"])
        disk.read(10, 2)
        disk.read_labels(100, 1)
        disk.write_labels(100, [b"l"])
        kinds = [event.kind for event in tracer.events]
        assert kinds == ["write", "read", "label_read", "label_write"]

    def test_event_fields(self, traced):
        disk, tracer = traced
        disk.read(GEO.sectors_per_cylinder * 10, 3)
        event = tracer.events[0]
        assert event.sectors == 3
        assert event.cylinder_distance == 10
        assert event.seek_ms > 0
        assert event.transfer_ms == pytest.approx(
            disk.timing.transfer_ms(3, GEO.sectors_per_track)
        )
        assert event.total_ms == pytest.approx(
            event.seek_ms + event.rotational_ms + event.transfer_ms
        )

    def test_seek_classification(self):
        near = IoEvent("read", 0, 1, 2, 1.0, 1.0, 1.0, 0.0)
        far = IoEvent("read", 0, 1, 30, 1.0, 1.0, 1.0, 0.0)
        none = IoEvent("read", 0, 1, 0, 0.0, 1.0, 1.0, 0.0)
        assert near.classify_seek() == "short seek"
        assert far.classify_seek() == "seek"
        assert none.classify_seek() == "none"

    def test_seek_classification_threshold_boundary(self):
        """The default short-seek threshold (4 cylinders) is inclusive."""
        at = IoEvent("read", 0, 1, 4, 1.0, 1.0, 1.0, 0.0)
        past = IoEvent("read", 0, 1, 5, 1.0, 1.0, 1.0, 0.0)
        assert at.classify_seek() == "short seek"
        assert past.classify_seek() == "seek"

    def test_seek_classification_custom_threshold(self):
        event = IoEvent("read", 0, 1, 10, 1.0, 1.0, 1.0, 0.0)
        assert event.classify_seek(short_threshold=10) == "short seek"
        assert event.classify_seek(short_threshold=9) == "seek"
        assert event.classify_seek(short_threshold=0) == "seek"

    def test_script_rendering(self, traced):
        disk, tracer = traced
        disk.read(GEO.sectors_per_cylinder * 20, 2)
        lines = tracer.script()
        assert len(lines) == 1
        assert "seek" in lines[0]
        assert "transfer 2" in lines[0]

    def test_totals(self, traced):
        disk, tracer = traced
        disk.read(0, 4)
        disk.read(4, 4)
        totals = tracer.totals()
        assert totals["events"] == 2
        assert totals["sectors"] == 8
        assert totals["transfer_ms"] == pytest.approx(
            disk.timing.transfer_ms(8, GEO.sectors_per_track)
        )

    def test_lost_revolution_counted_and_scripted(self):
        """An I/O that starts where the previous one ended, on the same
        cylinder, after the head has passed its first sector waits
        almost a revolution: totals() counts it, script() names it."""
        disk = SimDisk(geometry=GEO, charge_cpu=False)
        tracer = IoTracer()
        disk.tracer = tracer
        disk.write(0, [b"a"])
        disk.write(1, [b"b"])  # back to back: catches its sector
        disk.clock.advance_cpu(disk.timing.sector_time_ms(GEO.sectors_per_track))
        disk.write(2, [b"c"])  # one slot of CPU: the sector has gone by
        disk.write(40, [b"d"])  # not where the previous one ended
        lost = [event.lost_revolution for event in tracer.events]
        assert lost == [False, False, True, False]
        assert tracer.events[2].rotational_ms > disk.timing.rotation_ms / 2
        assert tracer.totals()["lost_revolutions"] == 1
        script = tracer.script()
        assert "lost revolution" in script[2]
        assert all("lost revolution" not in line for line in script[:2])

    def test_lost_revolution_is_judged_by_the_disks_own_revolution(self):
        """On a slower drive a wait longer than half a T-300 revolution
        but shorter than half of its own is an ordinary latency."""
        timing = DiskTiming(rotation_ms=40.0)
        disk = SimDisk(geometry=GEO, timing=timing, charge_cpu=False)
        disk.tracer = IoTracer()
        disk.write(0, [b"a"])
        disk.clock.advance_cpu(25.0)
        disk.write(1, [b"b"])
        wait = disk.tracer.events[1].rotational_ms
        assert TRIDENT_TIMING.rotation_ms / 2 < wait < timing.rotation_ms / 2
        assert disk.tracer.totals()["lost_revolutions"] == 0
        disk.clock.advance_cpu(5.0)
        disk.write(2, [b"c"])
        assert disk.tracer.events[2].rotational_ms > timing.rotation_ms / 2
        assert disk.tracer.events[2].lost_revolution

    def test_lost_revolution_needs_the_same_cylinder(self):
        """Starting the next cylinder after a seek is not a lost
        revolution, however long the rotational wait."""
        disk = SimDisk(geometry=GEO, charge_cpu=False)
        tracer = IoTracer()
        disk.tracer = tracer
        end = GEO.sectors_per_cylinder - 1
        disk.write(end, [b"a"])
        disk.write(end + 1, [b"b"])
        assert tracer.events[1].cylinder_distance == 1
        assert tracer.totals()["lost_revolutions"] == 0

    def test_disable_and_clear(self, traced):
        disk, tracer = traced
        disk.read(0, 1)
        tracer.enabled = False
        disk.read(0, 1)
        assert len(tracer.events) == 1

    def test_str_is_readable(self, traced):
        disk, tracer = traced
        disk.read(0, 1)
        text = str(tracer.events[0])
        assert "read" in text and "x1" in text

    def test_str_all_kinds_and_fields(self):
        """Every event kind renders its timing decomposition."""
        for kind in ("read", "write", "label_read", "label_write"):
            event = IoEvent(kind, 1234, 7, 3, 12.5, 8.25, 0.5, 987.65)
            text = str(event)
            assert kind in text
            assert "@1234" in text
            assert "x7" in text
            assert "seek= 12.5" in text
            assert "rot=  8.2" in text
            assert "xfer=  0.5" in text
            assert "987.65 ms" in text

    def test_timeline_export_includes_io_events(self, traced):
        """Satellite check: tracer events merge into the obs JSONL
        timeline with their full timing decomposition."""
        from repro.obs.export import io_dict, timeline

        disk, tracer = traced
        disk.write(10, [b"a", b"b"])
        disk.read(10, 2)
        records = timeline([], tracer.events)
        assert [r["kind"] for r in records] == ["write", "read"]
        first = io_dict(tracer.events[0])
        assert first["type"] == "io"
        assert first["end_ms"] == pytest.approx(
            tracer.events[0].start_ms + tracer.events[0].total_ms
        )


class TestTraceMatchesModelShape:
    def test_fsd_small_create_trace_is_one_write(self):
        """The warm-path trace must match the §4 description: one
        combined leader+data write, no seeks back and forth."""
        from repro.core.fsd import FSD
        from repro.core.layout import VolumeParams

        disk = SimDisk(
            geometry=DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
        )
        FSD.format(disk, VolumeParams(nt_pages=512, log_record_sectors=300))
        fs = FSD.mount(disk)
        fs.create("warm/up", b"w")
        tracer = IoTracer()
        disk.tracer = tracer
        fs.create("warm/measured", b"x")
        assert [event.kind for event in tracer.events] == ["write"]
        assert tracer.events[0].sectors == 2  # leader + one data page
