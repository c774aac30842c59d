"""Tests for the crash-point explorer: synthesis, enumeration, sweeps."""

from __future__ import annotations

import pytest

from repro.crashcheck import (
    SCENARIOS,
    explore,
    get_scenario,
    materialize,
)
from repro.crashcheck.engine import (
    CrashPoint,
    _select,
    enumerate_points,
    variants_for,
)
from repro.core.fsd import TUNED
from repro.crashcheck.workload import DiskState, IoRec
from tests.crashcheck.replay import crashed_image, run_with_armed_crash

#: the bounded sweeps: every scenario on the default mount, and the
#: three quick ones on the mount ``traffic_steady`` is benchmarked on
#: (scan, data cache, 250 ms checkpointer), whose I/O stream differs.
BOUNDED_SWEEPS = [pytest.param(name, {}, id=name) for name in sorted(SCENARIOS)] + [
    pytest.param(name, {"options": TUNED}, id=f"{name}-tuned")
    for name in ("concurrent_burst", "mid_checkpoint", "quickstart")
]


class TestSynthesis:
    """Synthesized crash images must match what a live armed
    :class:`CrashPlan` actually leaves on the platter."""

    @pytest.mark.parametrize("surviving,damage", [(None, 0), (0, 1), (1, 2)])
    def test_matches_live_armed_crash(
        self, quickstart_recording, surviving, damage
    ):
        recording = quickstart_recording
        scenario = recording.scenario
        # Spot-check one early, one middle and one late write boundary.
        write_boundaries = [
            boundary
            for boundary, rec in enumerate(recording.records)
            if rec.kind == "write" and rec.count > 1
        ]
        picks = {
            write_boundaries[0],
            write_boundaries[len(write_boundaries) // 2],
            write_boundaries[-1],
        }
        for boundary in sorted(picks):
            image = crashed_image(recording, boundary, surviving, damage)
            live = run_with_armed_crash(scenario, boundary, surviving, damage)
            live_state = DiskState.snapshot(live)
            assert image.state.data == live_state.data, f"io={boundary}"
            assert image.state.labels == live_state.labels, f"io={boundary}"
            assert image.state.damaged == live_state.damaged, f"io={boundary}"

    def test_end_boundary_is_the_uncrashed_final_state(
        self, quickstart_recording
    ):
        recording = quickstart_recording
        image = crashed_image(recording, recording.io_total)
        state = recording.base.clone()
        from repro.crashcheck.engine import apply_full

        for rec in recording.records:
            apply_full(state, rec)
        assert image.state.data == state.data

    def test_materialize_roundtrips(self, quickstart_recording):
        image = crashed_image(quickstart_recording, 3, 0, 1)
        disk = materialize(image)
        rebuilt = DiskState.snapshot(disk)
        assert rebuilt.data == image.state.data
        assert rebuilt.labels == image.state.labels
        assert rebuilt.damaged == image.state.damaged

    def test_read_boundary_equals_previous_write_full_persist(
        self, quickstart_recording
    ):
        """The dedup premise: crashing on a read leaves exactly the
        image of everything before it."""
        recording = quickstart_recording
        reads = [
            boundary
            for boundary, rec in enumerate(recording.records)
            if rec.kind in ("read", "label_read")
        ]
        if not reads:
            pytest.skip("no read boundaries in this recording")
        boundary = reads[0]
        torn = crashed_image(recording, boundary)
        completed = crashed_image(recording, boundary, None, 0)
        assert torn.digest() == completed.digest()


class TestEnumeration:
    def test_write_variant_count(self):
        rec = IoRec("write", 10, 3, payloads=(b"a", b"b", b"c"))
        variants = variants_for(rec, 7)
        # surviving 0..2 x damage {0,1,2} plus full persistence
        assert len(variants) == 3 * 3 + 1
        assert {(v.surviving_sectors, v.damage_tail) for v in variants} == {
            (s, d) for s in range(3) for d in (0, 1, 2)
        } | {(None, 0)}

    def test_read_has_single_variant(self):
        assert len(variants_for(IoRec("read", 5, 2), 0)) == 1

    def test_enumerate_includes_end_boundary(self, quickstart_recording):
        points = enumerate_points(quickstart_recording)
        assert points[-1].boundary == quickstart_recording.io_total

    def test_select_bounds_and_keeps_extremes(self):
        points = [CrashPoint(i, None, 0, str(i)) for i in range(100)]
        subset = _select(points, 10)
        assert len(subset) == 10
        assert subset[0] is points[0] and subset[-1] is points[-1]
        assert _select(points, None) is points
        assert _select(points, 500) is points


class TestSweeps:
    @pytest.mark.parametrize("name,mount", BOUNDED_SWEEPS)
    def test_bounded_sweep_is_clean(self, name, mount):
        summary = explore(name, max_points=36, **mount)
        assert summary.ok, [str(v) for v in summary.violations]
        assert summary.checked + summary.deduplicated == summary.selected
        assert summary.selected <= 36

    def test_tuned_mount_records_a_different_io_stream(self):
        from repro.crashcheck.workload import record_scenario

        scenario = get_scenario("quickstart")
        default = record_scenario(scenario)
        tuned = record_scenario(scenario, options=TUNED)
        assert tuned.io_total != default.io_total

    @pytest.mark.parametrize("name", ["quickstart", "concurrent_burst"])
    def test_default_mount_sweep_reads_through_the_buffer(self, name):
        """No flag needed: the cache-coherence oracle meets the
        read-ahead buffer of every default remount."""
        from repro.obs import Observer

        obs = Observer()
        summary = explore(name, max_points=12, obs=obs)
        assert summary.ok, [str(v) for v in summary.violations]
        counters = obs.snapshot().counters
        assert counters["cache.data.readahead_used"] > 0
        assert (
            counters["cache.data.readahead_used"]
            == counters["cache.data.readahead_issued"]
        )

    def test_concurrent_burst_clean_with_data_cache(self):
        """The multi-client scenario passes the full oracle stack —
        including cache coherence — with the data-page cache live in
        the baseline run and every post-crash remount."""
        summary = explore(
            "concurrent_burst", max_points=36, data_cache_pages=16
        )
        assert summary.ok, [str(v) for v in summary.violations]
        assert summary.checked > 0

    def test_concurrent_burst_batches_multiple_clients(self):
        """Guard the scenario's premise: at least one force's record
        carries creates from more than one client stream."""
        from repro.crashcheck.workload import record_scenario

        recording = record_scenario(get_scenario("concurrent_burst"))
        ops = recording.scenario.body
        forces = [i for i, op in enumerate(ops) if op.kind == "force"]
        first_batch = ops[: forces[0]]
        clients = {op.name.split("/")[0] for op in first_batch
                   if op.kind == "create"}
        assert len(clients) >= 2

    def test_mid_checkpoint_clean_with_data_cache(self):
        """Crashes inside background checkpoints — between write-home
        and the anchor advance — pass the full oracle stack (structural,
        cache coherence, semantic) with the data cache live."""
        summary = explore(
            "mid_checkpoint", max_points=48, data_cache_pages=16
        )
        assert summary.ok, [str(v) for v in summary.violations]
        assert summary.checked > 0

    def test_mid_checkpoint_records_the_install_anchor_window(self):
        """Guard the scenario's premise: every checkpoint op records
        home-page writes *followed by* the anchor write, so boundaries
        in between are genuine mid-checkpoint crashes."""
        from repro.crashcheck.workload import record_scenario

        from repro.core.layout import VolumeLayout

        recording = record_scenario(get_scenario("mid_checkpoint"))
        scale = recording.scenario.scale
        anchor = VolumeLayout.compute(
            scale.geometry, scale.fsd_params
        ).log_start
        spans = [
            recording.records[a.start_io:a.end_io]
            for a in recording.applied
            if a.op.kind == "checkpoint"
        ]
        assert spans, "scenario lost its checkpoint ops"
        for span in spans:
            assert all(rec.kind == "write" for rec in span)
            # Home writes first, then exactly one anchor write, last.
            assert span[-1].address == anchor
            assert len(span) > 1
            assert all(rec.address != anchor for rec in span[:-1])

    def test_dedup_skips_identical_images(self, quickstart_recording):
        summary = explore(
            get_scenario("quickstart"), recording=quickstart_recording
        )
        assert summary.ok, [str(v) for v in summary.violations]
        assert summary.deduplicated > 0
        assert summary.checked + summary.deduplicated == summary.candidates

    def test_progress_callback_sees_every_point(self, quickstart_recording):
        seen = []
        explore(
            get_scenario("quickstart"),
            max_points=12,
            recording=quickstart_recording,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (len(seen), len(seen))
        assert [done for done, _ in seen] == list(range(1, len(seen) + 1))


class TestBrokenRecoveryIsCaught:
    def test_semantic_oracle_flags_dropped_log_record(
        self, monkeypatch, quickstart_recording
    ):
        """Acceptance check: a recovery that silently skips redo of the
        last log record must be caught by the semantic oracle."""
        import repro.core.recovery as recovery

        monkeypatch.setattr(recovery, "TEST_DROP_LAST_RECORD", True)
        summary = explore(
            get_scenario("quickstart"),
            max_points=80,
            recording=quickstart_recording,
        )
        assert not summary.ok
        assert any(
            violation.oracle == "semantic"
            and "committed" in violation.detail
            for violation in summary.violations
        )


class TestCrashDuringRecovery:
    """Recover, crash at each I/O of that recovery, recover again: the
    image must be the one an uninterrupted recovery leaves.  Redo is
    idempotent and the VAM sweep only reads (apart from ladder repairs),
    so this holds at every prefix of the mount."""

    @staticmethod
    def _image(disk, layout):
        roots = {layout.root_a, layout.root_b}
        return (
            {a: d for a, d in disk._data.items() if a not in roots},
            dict(disk._labels),
            set(disk.faults.damaged) - roots,
        )

    @pytest.mark.parametrize("surviving,damage", [(0, 0), (1, 1), (None, 0)])
    def test_churn_recovery_is_idempotent_at_every_io(self, surviving, damage):
        from repro.core.fsd import FSD
        from repro.crashcheck import record_scenario
        from repro.errors import SimulatedCrash

        recording = record_scenario(get_scenario("churn"))
        # The un-crashed end of the body: three committed rounds in the
        # log plus an uncommitted tail the crash loses.
        crashed = crashed_image(recording, recording.io_total)

        disk = materialize(crashed)
        before = disk.stats.total_ios
        reference_fs = FSD.mount(disk)
        mount_ios = disk.stats.total_ios - before
        assert reference_fs.mount_report.log_records_replayed > 0
        assert reference_fs.mount_report.vam_sweep_pages > 0
        layout = reference_fs.layout
        reference_fs.crash()
        reference = self._image(disk, layout)

        for crash_io in range(mount_ios):
            disk = materialize(crashed)
            disk.faults.arm_crash(
                after_ios=crash_io,
                surviving_sectors=surviving,
                damage_tail=damage,
            )
            with pytest.raises(SimulatedCrash):
                FSD.mount(disk)
            disk.faults.disarm_crash()
            again = FSD.mount(disk)
            assert again.mount_report.vam_sweep_pages > 0
            again.crash()
            assert self._image(disk, layout) == reference, f"io={crash_io}"
