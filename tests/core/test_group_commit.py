"""Unit tests for the group-commit coordinator."""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300, cache_pages=48)


@pytest.fixture
def fs() -> FSD:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    return FSD.mount(disk)


class TestForce:
    def test_force_writes_one_record_for_many_updates(self, fs):
        for index in range(8):
            fs.create(f"d/f{index}", b"x")
        records_before = fs.wal.records_written
        fs.force()
        assert fs.wal.records_written == records_before + 1

    def test_empty_force_writes_nothing(self, fs):
        fs.force()
        records = fs.wal.records_written
        fs.force()
        assert fs.wal.records_written == records
        assert fs.coordinator.empty_forces >= 1

    def test_force_applies_shadow_frees(self, fs):
        handle = fs.create("d/doomed", b"payload")
        fs.force()
        sector = handle.runs.runs[0].start
        fs.delete("d/doomed")
        assert not fs.vam.is_free(sector)
        fs.force()
        assert fs.vam.is_free(sector)

    def test_commit_hook_runs(self, fs):
        fired = []
        fs.coordinator.add_commit_hook(lambda: fired.append(1))
        fs.force()
        assert fired == [1]


class TestTimer:
    def test_daemon_forces_on_interval(self, fs):
        fs.create("d/file", b"x")
        assert fs.cache.pending_log_pages() > 0
        # Let more than one commit interval pass, then enter the FS.
        fs.clock.advance_idle(PARAMS.commit_interval_ms + 50)
        fs.exists("d/file")  # any entry point fires due timers
        assert fs.cache.pending_log_pages() == 0

    def test_no_force_before_interval(self, fs):
        fs.create("d/file", b"x")
        fs.clock.advance_idle(PARAMS.commit_interval_ms / 4)
        fs.exists("d/file")
        assert fs.cache.pending_log_pages() > 0

    def test_uncertainty_bounded_by_half_second(self, fs):
        """The paper: 'the uncertainty is only half a second'."""
        fs.create("d/file", b"x")
        created_at = fs.clock.now_ms
        fs.clock.advance_idle(PARAMS.commit_interval_ms)
        fs.exists("d/file")
        committed_by = fs.coordinator.last_force_ms
        assert committed_by - created_at <= 2 * PARAMS.commit_interval_ms

    def test_shutdown_stops_timer(self, fs):
        fs.coordinator.shutdown()
        fs.create_calls = 0
        fs.cache.write_nt(400, b"x" * 512)
        fs.clock.advance_idle(10_000)
        fs.clock.tick()
        assert fs.cache.pending_log_pages() > 0


class TestLogPressure:
    def test_pressure_forces_when_timer_cannot(self):
        """With the timer effectively disabled (a pathological one-hour
        interval), the backlog must still be bounded by the pressure
        force (§5.3: "the log is forced long before" an oversized
        entry could occur)."""
        from dataclasses import replace

        disk = SimDisk(geometry=GEO)
        params = replace(PARAMS, commit_interval_ms=3_600_000.0)
        FSD.format(disk, params)
        fs = FSD.mount(disk)
        threshold = fs.coordinator.pressure_pages
        peak = 0
        for index in range(400):
            fs.create(f"burst/f{index:04d}", b"x" * 300)
            peak = max(peak, fs.cache.pending_log_pages())
        assert fs.coordinator.pressure_forces >= 1
        assert peak < threshold + 16

    def test_no_pressure_force_for_light_work(self, fs):
        fs.create("light/a", b"x")
        fs.create("light/b", b"y")
        assert fs.coordinator.pressure_forces == 0

    def test_pending_pages_bounded_during_bulk(self, fs):
        threshold = fs.coordinator.pressure_pages
        peak = 0
        for index in range(200):
            fs.create(f"bulk/f{index:04d}", b"z" * 200)
            peak = max(peak, fs.cache.pending_log_pages())
        # Pressure keeps the backlog within one op of the threshold
        # plus the pages that single op dirties.
        assert peak < threshold + 16


class TestMultiClientForce:
    """Regressions for the single-client assumptions the coordinator
    held before transaction brackets existed."""

    def test_force_during_force_does_not_recurse(self, fs):
        """A commit hook that calls force again (the old re-entrancy
        hazard) must not run a second commit inside the first: the
        inner call is deferred like any force arriving mid-commit, and
        the commit in progress satisfies it."""
        fs.create("r/a", b"x")
        records = []
        fs.coordinator.add_commit_hook(
            lambda: records.append(fs.coordinator.force())
        )
        deferred = fs.coordinator.deferred_forces
        written = fs.force()
        assert written > 0
        assert records == [0]          # inner call ran no commit
        assert fs.coordinator.forces == 1
        assert fs.coordinator.deferred_forces == deferred + 1
        assert not fs.txn.commit_pending

    def test_force_mid_bracket_defers_not_commits(self, fs):
        fs.create("r/b", b"x")
        fs.txn.begin_op()
        try:
            assert fs.force() == 0
            assert fs.txn.commit_pending
            assert fs.coordinator.deferred_forces == 1
            assert fs.cache.pending_log_pages() > 0
        finally:
            fs.txn.end_op()
        # The drain ran the deferred force.
        assert fs.cache.pending_log_pages() == 0
        assert not fs.txn.commit_pending

    def test_update_after_drain_lands_in_next_batch(self, fs):
        """A second client's update arriving after a force's batch is
        taken must be absorbed by the *next* force, not lost."""
        fs.create("r/c", b"x")
        fs.force()
        absorbed_first = fs.coordinator.updates_absorbed
        fs.create("r/d", b"y")       # the "second client"
        fs.force()
        assert fs.coordinator.updates_absorbed > absorbed_first

    def test_durable_latency_observed_per_update(self):
        from repro.obs.instrument import instrument

        disk = SimDisk(geometry=GEO)
        FSD.format(disk, PARAMS)
        obs, _ = instrument(disk, trace=False)
        fs = FSD.mount(disk, obs=obs)
        fs.create("r/e", b"x")
        fs.create("r/f", b"y")
        fs.clock.advance_idle(137.0)
        fs.force()
        hist = obs.snapshot().histograms["commit.durable_latency_ms"]
        assert hist.count >= 2
        assert hist.mean >= 137.0
