"""Background checkpointer: stall elimination, incremental REDO,
and idempotence of the install/anchor window."""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.wal import PAGE_LEADER
from repro.disk.disk import SimDisk
from repro.harness.scenarios import SMALL
from repro.obs import Observer
from repro.workloads.generators import payload
from repro.workloads.traffic import TrafficConfig, TrafficEngine


def _volume(checkpoint_interval_ms=None, obs=None, **mount):
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, SMALL.fsd_params)
    fs = FSD.mount(
        disk, obs=obs, checkpoint_interval_ms=checkpoint_interval_ms, **mount
    )
    return disk, fs


class TestCheckpointerOff:
    def test_default_mount_has_no_checkpointer(self):
        _, fs = _volume()
        assert fs.checkpointer is None
        fs.unmount()

    def test_stall_accrues_without_checkpointer(self):
        obs = Observer()
        _, fs = _volume(obs=obs)
        for index in range(400):
            fs.create(f"w/f-{index:04d}", payload(1200, index))
        fs.unmount()
        snap = obs.snapshot()
        assert snap.counters["wal.third_entries"] > 0
        # The synchronous protocol pays write-home on the commit path.
        assert snap.counters["wal.stall_ms"] > 0
        assert fs.wal.stall_ms == pytest.approx(
            snap.counters["wal.stall_ms"]
        )


class TestCheckpointerTick:
    def test_tick_installs_and_advances_anchor(self):
        obs = Observer()
        _, fs = _volume(checkpoint_interval_ms=1e12, obs=obs)
        for index in range(20):
            fs.create(f"w/f-{index:02d}", payload(900, index))
        fs.force()
        assert fs.wal.anchor_offset != fs.wal.write_offset
        written = fs.checkpointer.tick()
        assert written > 0
        assert fs.wal.anchor_offset == fs.wal.write_offset
        assert fs.wal.anchor_record_number == fs.wal.next_record_number
        snap = obs.snapshot()
        assert snap.counters["ckpt.pages_written"] == written
        assert snap.counters["ckpt.anchor_advances"] == 1
        assert snap.gauges["ckpt.lsn"] == fs.wal.anchor_record_number
        fs.unmount()

    def test_idle_tick_is_free(self):
        obs = Observer()
        _, fs = _volume(checkpoint_interval_ms=1e12, obs=obs)
        fs.create("one", payload(600, 1))
        fs.force()
        fs.checkpointer.tick()
        checkpoints = obs.snapshot().counters["wal.checkpoints"]
        assert fs.checkpointer.tick() == 0
        # No new anchor write: the volume was idle since the last tick.
        assert obs.snapshot().counters["wal.checkpoints"] == checkpoints
        fs.unmount()

    def test_checkpointed_state_survives_crash(self):
        disk, fs = _volume(checkpoint_interval_ms=1e12)
        for index in range(30):
            fs.create(f"keep/f-{index:02d}", payload(1500, index))
        fs.force()
        fs.checkpointer.tick()
        fs.crash()
        recovered = FSD.mount(disk)
        # Everything up to the checkpoint LSN is already home: redo has
        # nothing newer to replay.
        assert recovered.mount_report.log_records_replayed == 0
        for index in range(30):
            handle = recovered.open(f"keep/f-{index:02d}")
            assert recovered.read(handle, 0, 1500) == payload(1500, index)
        recovered.unmount()

    def test_crash_between_install_and_anchor_is_idempotent(self):
        """The mid-checkpoint window: home writes durable, anchor not
        yet advanced.  Recovery replays the still-anchored records over
        the already-installed pages — redo must be idempotent."""
        disk, fs = _volume(checkpoint_interval_ms=1e12)
        for index in range(30):
            fs.create(f"keep/f-{index:02d}", payload(1500, index))
        fs.force()
        # First half of a checkpoint only: install every logged image
        # and make it durable, but crash before the anchor advances.
        fs.cache.flush_all_home()
        fs.crash()
        recovered = FSD.mount(disk)
        assert recovered.mount_report.log_records_replayed > 0
        for index in range(30):
            handle = recovered.open(f"keep/f-{index:02d}")
            assert recovered.read(handle, 0, 1500) == payload(1500, index)
        recovered.unmount()

    def test_unmount_removes_timer(self):
        disk, fs = _volume(checkpoint_interval_ms=500.0)
        fs.create("one", payload(600, 1))
        fs.unmount()
        assert disk.clock.next_timer_due_ms() is None

    def test_crash_removes_timer(self):
        disk, fs = _volume(checkpoint_interval_ms=500.0)
        fs.crash()
        assert disk.clock.next_timer_due_ms() is None


class TestStallElimination:
    @pytest.mark.parametrize(
        "interval_ms", [200.0, 250.0, 300.0, 400.0, 450.0, 500.0]
    )
    @pytest.mark.parametrize(
        "mount", [{"readahead_pages": 0}, {}], ids=["paper", "default"]
    )
    def test_steady_state_stall_is_zero_under_traffic(self, interval_ms, mount):
        """The acceptance criterion: with the checkpointer keeping
        ahead of the append cursor, third entries find the third clean
        and the anchor already advanced — commits never block on a
        page the checkpointer left behind, whatever the interval.

        Two coincidences used to need an interval sized round them.  A
        tick that finds the append cursor exactly on a third boundary
        (400 ms on the default mount) leaves the anchor on the record
        about to be written; the entry that follows has nothing to move
        and writes no anchor.  And a data write since the last tick may
        have piggybacked a leader of the commit in progress home ahead
        of its log record: the entry puts the logged image back (one
        sector; 200 ms on the default mount, 300 and 500 on the
        paper's).  That is the protocol, not a lagging checkpointer, so
        it is recognised here, not avoided: it is all a third entry may
        spend time on."""
        obs = Observer()
        disk, fs = _volume(checkpoint_interval_ms=interval_ms, obs=obs, **mount)
        clock, cache, flush_third = disk.clock, fs.cache, fs.wal.flush_third
        restore_ms = 0.0

        def only_piggybacked_leaders(third):
            nonlocal restore_ms
            for entry in cache._entries.values():
                if (
                    entry.last_logged_third == third
                    and entry.pinned
                    and entry.home_stale
                ):
                    assert entry.kind == PAGE_LEADER and entry.needs_log
            start_ms = clock.now_ms
            written = flush_third(third)
            restore_ms += clock.now_ms - start_ms
            return written

        fs.wal.flush_third = only_piggybacked_leaders
        engine = TrafficEngine(
            fs,
            TrafficConfig(
                clients=8,
                ops_per_client=60,
                mean_think_ms=30.0,
                seed=7,
            ),
        )
        engine.run()
        fs.unmount()
        snap = obs.snapshot()
        assert snap.counters["wal.third_entries"] > 0
        assert snap.counters["wal.stall_ms"] == pytest.approx(restore_ms)
        assert snap.counters["ckpt.anchor_advances"] > 0

    def test_same_traffic_stalls_without_checkpointer(self):
        obs = Observer()
        _, fs = _volume(obs=obs)
        engine = TrafficEngine(
            fs,
            TrafficConfig(
                clients=8,
                ops_per_client=60,
                mean_think_ms=30.0,
                seed=7,
            ),
        )
        engine.run()
        fs.unmount()
        assert obs.snapshot().counters["wal.stall_ms"] > 0
