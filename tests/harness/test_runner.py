"""Unit tests for the measurement plumbing."""

from __future__ import annotations

import pytest

from repro.disk.geometry import TRIDENT_T300
from repro.harness.runner import build_disk, drain_clock, measure
from repro.harness.scenarios import SMALL


def small_disk():
    return build_disk(SMALL.geometry)


class TestBuilders:
    def test_default_disk_is_trident(self):
        disk = build_disk()
        assert disk.geometry == TRIDENT_T300

    def test_small_disk_is_smaller(self):
        assert small_disk().geometry.total_sectors < build_disk().geometry.total_sectors


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

    def test_per_scales(self):
        disk = small_disk()
        took = measure(disk, lambda: disk.read(0, 1))
        per = took.per(4)
        assert per.elapsed_ms == pytest.approx(took.elapsed_ms / 4)

    def test_per_rejects_zero(self):
        disk = small_disk()
        took = measure(disk, lambda: None)
        with pytest.raises(ValueError):
            took.per(0)


class TestDrainClock:
    def test_advances_idle_time(self):
        disk = small_disk()
        before = disk.clock.now_ms
        drain_clock(disk.clock, 500.0)
        assert disk.clock.now_ms - before == pytest.approx(500.0)
        assert disk.clock.cpu_busy_ms == 0.0

    def test_fires_timers_along_the_way(self):
        disk = small_disk()
        fired = []
        disk.clock.add_timer(100.0, lambda c: fired.append(c.now_ms))
        drain_clock(disk.clock, 1_000.0, step_ms=50.0)
        assert len(fired) >= 9
