"""Unit tests for DiskStats arithmetic."""

from __future__ import annotations

from repro.disk.stats import DiskStats, StatsWindow


def test_totals():
    stats = DiskStats(reads=2, writes=3, label_reads=1, label_writes=4)
    assert stats.total_ios == 10


def test_busy_ms():
    stats = DiskStats(seek_ms=1.0, rotational_ms=2.0, transfer_ms=3.0)
    assert stats.busy_ms == 6.0


def test_subtraction():
    early = DiskStats(reads=1, sectors_read=5, seek_ms=10.0)
    late = DiskStats(reads=4, sectors_read=25, seek_ms=30.0)
    delta = late - early
    assert delta.reads == 3
    assert delta.sectors_read == 20
    assert delta.seek_ms == 20.0


def test_copy_is_independent():
    stats = DiskStats(reads=1)
    snap = stats.copy()
    stats.reads = 99
    assert snap.reads == 1


def test_as_dict_includes_total():
    assert DiskStats(reads=2, writes=1).as_dict()["total_ios"] == 3


def test_window_delta():
    live = DiskStats(reads=5)
    window = StatsWindow(live)
    live.reads += 7
    assert window.delta(live).reads == 7


def test_window_snapshot_frozen_at_creation():
    live = DiskStats(reads=5)
    window = StatsWindow(live)
    live.reads = 100
    assert window.start.reads == 5
