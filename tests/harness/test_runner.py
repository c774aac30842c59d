"""Unit tests for the measurement plumbing."""

from __future__ import annotations

import pytest

from repro.disk.disk import SimDisk
from repro.harness.runner import measure
from repro.harness.scenarios import SMALL


def small_disk():
    return SimDisk(geometry=SMALL.geometry)


class TestMeasure:
    def test_windows_capture_deltas(self):
        disk = small_disk()
        disk.read(0, 4)  # outside the window
        took = measure(disk, lambda: disk.read(100, 2))
        assert took.io.reads == 1
        assert took.io.sectors_read == 2
        assert took.elapsed_ms > 0
        assert took.disk_ms > 0

    def test_result_passthrough(self):
        disk = small_disk()
        took = measure(disk, lambda: "hello")
        assert took.result == "hello"


class TestDrainClock:
    def test_advances_idle_time(self):
        disk = small_disk()
        before = disk.clock.now_ms
        disk.clock.drain(500.0)
        assert disk.clock.now_ms - before == pytest.approx(500.0)
        assert disk.clock.cpu_busy_ms == 0.0

    def test_fires_timers_along_the_way(self):
        disk = small_disk()
        fired = []
        disk.clock.add_timer(100.0, lambda c: fired.append(c.now_ms))
        disk.clock.drain(1_000.0, step_ms=50.0)
        assert len(fired) >= 9
