"""Observer wired through a live FSD volume: metrics agree with the
existing per-component counters, recovery emits a valid span timeline,
and a detached observer changes nothing at all."""

from __future__ import annotations

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.disk.trace import IoTracer
from repro.obs import Observer
from repro.obs.export import folded_stacks, timeline, validate_timeline
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY


def _mounted_with_observer() -> tuple[FSD, Observer]:
    disk = SimDisk(geometry=TEST_GEOMETRY)
    FSD.format(disk, TEST_FSD_PARAMS)
    obs = Observer(disk.clock)
    return FSD.mount(disk, obs=obs), obs


def _scripted_ops(fs: FSD) -> None:
    for index in range(8):
        fs.create(f"w/{index}", b"payload" * 40)
    handle = fs.open("w/0")
    fs.read(handle)
    fs.write(handle, handle.byte_size, b"more")
    fs.rename("w/1", "w/renamed")
    fs.delete("w/2")
    fs.list("w/")
    fs.force()


class TestMetricsMatchOpCounts:
    def test_fsd_counters_equal_ops_struct(self):
        fs, obs = _mounted_with_observer()
        base = obs.snapshot()
        _scripted_ops(fs)
        delta = obs.snapshot() - base
        assert delta.counter("fsd.creates") == fs.ops.creates == 8
        assert delta.counter("fsd.opens") == fs.ops.opens
        assert delta.counter("fsd.reads") == fs.ops.reads
        assert delta.counter("fsd.writes") == fs.ops.writes
        assert delta.counter("fsd.deletes") == fs.ops.deletes
        assert delta.counter("fsd.renames") == fs.ops.renames
        assert delta.counter("fsd.lists") == fs.ops.lists

    def test_cache_counters_track_cache_struct(self):
        # Full snapshots, not deltas: the cache's own counters also
        # start at mount time, when the observer was already attached.
        fs, obs = _mounted_with_observer()
        _scripted_ops(fs)
        snap = obs.snapshot()
        assert snap.counter("cache.hits") == fs.cache.hits
        assert snap.counter("cache.misses") == fs.cache.misses
        assert snap.counter("cache.evictions") == fs.cache.evictions

    def test_wal_counters_track_wal_struct(self):
        fs, obs = _mounted_with_observer()
        _scripted_ops(fs)
        snap = obs.snapshot()
        assert snap.counter("wal.records_appended") == fs.wal.records_written
        assert snap.counter("wal.sectors_logged") == fs.wal.sectors_logged
        assert snap.counter("wal.pages_logged") == fs.wal.pages_logged

    def test_batch_histogram_count_equals_forces(self):
        fs, obs = _mounted_with_observer()
        _scripted_ops(fs)
        snap = obs.snapshot()
        hist = snap.histograms["commit.batch_pages"]
        assert hist.count == fs.coordinator.forces
        assert snap.counter("commit.forces") == fs.coordinator.forces
        assert (
            snap.counter("commit.empty_forces")
            == fs.coordinator.empty_forces
        )
        # Every force absorbed the updates made since the previous one.
        absorbed = snap.histograms["commit.ops_absorbed"]
        assert absorbed.count == fs.coordinator.forces
        assert absorbed.total > 0

    def test_five_layers_populated(self):
        fs, obs = _mounted_with_observer()
        _scripted_ops(fs)
        layers = {
            name.split(".", 1)[0]
            for name, value in obs.snapshot().counters.items()
            if value > 0
        }
        assert {"wal", "commit", "cache", "btree", "vam", "fsd"} <= layers


class TestSetKeepIsAnUpdate:
    """``set_keep`` is a mutating entry point like the others: the
    commit that logs it counts it, and ``repro trace`` shows its span."""

    def _keep_one(self):
        fs, obs = _mounted_with_observer()
        tracer = IoTracer()
        fs.disk.tracer = tracer
        for _ in range(3):
            fs.create("k", b"v" * 600)
        fs.force()
        base = obs.snapshot()
        fs.set_keep("k", 1)
        fs.force()
        return fs, obs, tracer, obs.snapshot() - base

    def test_counted_and_absorbed_by_its_commit(self):
        fs, _, _, delta = self._keep_one()
        assert fs.versions("k") == [3]
        assert delta.counter("fsd.set_keeps") == 1
        # commit.batching_factor: updates absorbed per force
        assert delta.counter("commit.forces") == 1
        assert delta.histograms["commit.ops_absorbed"].total == 1

    def test_span_in_the_trace(self):
        _, obs, tracer, _ = self._keep_one()
        records = timeline(obs.span_records(), tracer.events)
        assert validate_timeline(records) == []
        spans = [
            r for r in records
            if r["type"] == "span" and r["name"] == "fsd.set_keep"
        ]
        assert len(spans) == 1
        assert any(
            line.startswith("fsd.set_keep")
            for line in folded_stacks(obs.span_records())
        )


class TestThirdEntrySpan:
    """A third entry is a ``wal.third_entry`` span: its duration is the
    commit-path stall it caused, and its attributes say what it wrote
    home, so ``repro trace`` explains each stall."""

    def _wrap_log(self):
        fs, obs = _mounted_with_observer()
        tracer = IoTracer()
        fs.disk.tracer = tracer
        for index in range(240):
            name = f"t/{index * 37 % 240:03d}-{index}"
            fs.create(name, b"x" * 200)
            if index % 4 == 3:
                fs.rename(name, f"r/{index}")  # relogs the leader
            if index % 3 == 2:
                fs.force()
        spans = [r for r in obs.span_records() if r.name == "wal.third_entry"]
        return fs, obs, tracer, spans

    def test_one_span_per_entry_summing_to_the_stall(self):
        fs, obs, _, spans = self._wrap_log()
        assert len(spans) == fs.wal.third_entries >= 3
        assert sum(span.duration_ms for span in spans) == fs.wal.stall_ms
        assert obs.snapshot().counter("wal.stall_ms") == fs.wal.stall_ms

    def test_attributes_name_what_went_home(self):
        fs, _, tracer, spans = self._wrap_log()
        anchor = range(fs.layout.log_start, fs.layout.log_start + 3)
        assert any(span.attrs["leaders"] for span in spans)
        assert any(span.attrs["transfers"] > 2 for span in spans)
        for span in spans:
            home = [
                event for event in tracer.events
                if span.start_ms <= event.start_ms < span.end_ms
                and event.address not in anchor
            ]
            assert all(event.kind == "write" for event in home)
            assert len(home) == span.attrs["transfers"]
            # Both copies of each page, one sector per leader.
            assert sum(event.sectors for event in home) == (
                2 * span.attrs["pages"] + span.attrs["leaders"]
            )


class TestRecoveryTimeline:
    def test_recovery_spans_form_valid_nested_timeline(self):
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        for index in range(6):
            fs.create(f"crash/{index}", b"x" * 600)
        fs.force()
        fs.crash()

        obs = Observer(disk.clock)
        tracer = IoTracer()
        disk.tracer = tracer
        fs = FSD.mount(disk, obs=obs)
        records = timeline(obs.span_records(), tracer.events)
        assert validate_timeline(records) == []
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "fsd.mount" in names
        assert "recovery.replay" in names
        assert "recovery.scan" in names
        assert "recovery.redo" in names
        # The crash left the VAM unsaved: it must have been rebuilt.
        assert "recovery.vam_rebuild" in names
        assert obs.snapshot().counter("recovery.records_replayed") > 0
        # Simulated timestamps are monotone non-decreasing per sort key.
        starts = [r["start_ms"] for r in records]
        assert starts == sorted(starts)
        fs.crash()

    def test_replayed_metric_matches_mount_report(self):
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        fs.create("a", b"1" * 700)
        fs.create("b", b"2" * 700)
        fs.force()
        fs.crash()
        obs = Observer(disk.clock)
        fs = FSD.mount(disk, obs=obs)
        snap = obs.snapshot()
        assert (
            snap.counter("recovery.records_replayed")
            == fs.mount_report.log_records_replayed
        )
        assert (
            snap.counter("recovery.pages_replayed")
            == fs.mount_report.pages_replayed
        )
        fs.crash()


class TestZeroOverheadDetached:
    def _run(self, obs) -> tuple[dict, dict, float]:
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = (
            FSD.mount(disk, obs=obs) if obs is not None else FSD.mount(disk)
        )
        _scripted_ops(fs)
        fs.unmount()
        return (
            disk.stats.as_dict(),
            {"creates": fs.ops.creates, "reads": fs.ops.reads},
            disk.clock.now_ms,
        )

    def test_observer_never_perturbs_simulation(self):
        """Same workload with and without an observer: identical op
        counts, identical I/O counters, bit-identical simulated time."""
        plain = self._run(None)
        observed = self._run(Observer())
        assert plain == observed

    def test_null_observer_records_nothing(self):
        from repro.obs import NULL_OBS

        assert NULL_OBS.snapshot().counters == {}
        assert NULL_OBS.span_records() == []
        with NULL_OBS.span("anything", attr=1) as span:
            span.set(more=2)
        assert NULL_OBS.span_records() == []
