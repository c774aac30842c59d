"""Tests for per-operation latency attribution: the exact phase
partition, the zero-overhead contract, bit-identical runs, and the
reporting helpers."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.errors import FsError
from repro.obs import NULL_OBS, NullObserver, Observer
from repro.obs.attribution import (
    DETAIL_KEYS,
    PHASES,
    AttributionRecorder,
    OpTrace,
    build_report,
    report_lines,
    slo_burn,
)
from repro.workloads.traffic import TrafficConfig, TrafficEngine
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY


class _FakeClock:
    def __init__(self):
        self.now_ms = 0.0


class _FakeOp:
    kind = "write"
    name = "file"
    sync = True


def _digest(disk) -> str:
    h = hashlib.sha256()
    for sector in range(disk.geometry.total_sectors):
        h.update(disk.peek(sector))
    return h.hexdigest()


def _attributed_fs(disk):
    obs = NullObserver()
    obs.attribution = AttributionRecorder()
    return FSD.mount(disk, obs=obs)


def _traffic(fs, **overrides) -> TrafficEngine:
    base = dict(
        clients=6,
        ops_per_client=25,
        seed=42,
        sync_fraction=0.3,
        hold_ms=2.0,
        population=10,
    )
    base.update(overrides)
    return TrafficEngine(fs, TrafficConfig(**base))


class TestRecorderLifecycle:
    def test_sequential_trace_ids(self):
        recorder = AttributionRecorder(clock=_FakeClock())
        first = recorder.op_issued(0, _FakeOp, 0.0)
        second = recorder.op_issued(1, _FakeOp, 1.0)
        assert (first.trace_id, second.trace_id) == (1, 2)
        assert recorder.traces == [first, second]

    def test_block_reasons_accumulate(self):
        recorder = AttributionRecorder(clock=_FakeClock())
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        recorder.op_blocked(trace, "log_space")
        recorder.op_blocked(trace, "log_space")
        recorder.op_blocked(trace, "committing")
        assert trace.admission_blocks == 3
        assert trace.block_reasons == {"log_space": 2, "committing": 1}

    def test_measure_restores_previous_current(self):
        recorder = AttributionRecorder(clock=_FakeClock())
        outer = recorder.op_issued(0, _FakeOp, 0.0)
        inner = recorder.op_issued(1, _FakeOp, 0.0)
        with recorder.measure(outer):
            assert recorder.current is outer
            with recorder.measure(inner):
                assert recorder.current is inner
            assert recorder.current is outer
        assert recorder.current is None

    def test_measure_accumulates_service_on_the_clock(self):
        clock = _FakeClock()
        recorder = AttributionRecorder(clock=clock)
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        with recorder.measure(trace):
            clock.now_ms = 3.0
        with recorder.measure(trace):
            clock.now_ms = 5.0
        assert trace.service_ms == pytest.approx(5.0)
        assert trace.body_end_ms == 5.0

    def test_note_cache_only_inside_a_body(self):
        recorder = AttributionRecorder(clock=_FakeClock())
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        recorder.note_cache(hit=True)  # no current body: dropped
        with recorder.measure(trace):
            recorder.note_cache(hit=True)
            recorder.note_cache(hit=False)
        assert trace.cache_hits == 1
        assert trace.cache_misses == 1

    def test_commit_sub_attribution_from_force_timing(self):
        clock = _FakeClock()
        recorder = AttributionRecorder(clock=clock)
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        recorder.op_admitted(trace, 0.0)
        recorder.op_end(trace, 10.0)
        recorder.force_begin(12.0)
        recorder.force_logged(18.0)
        recorder.force_done(19.0)
        recorder.op_durable(trace, 19.0)
        assert trace.commit_batch_wait_ms == pytest.approx(2.0)
        assert trace.commit_log_append_ms == pytest.approx(6.0)
        assert trace.commit_publish_ms == pytest.approx(1.0)

    def test_partition_is_exact_for_a_sync_mutation(self):
        clock = _FakeClock()
        recorder = AttributionRecorder(clock=clock)
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        recorder.op_admitted(trace, 2.0)
        clock.now_ms = 2.0
        with recorder.measure(trace):
            clock.now_ms = 7.0
        recorder.op_end(trace, 9.0)
        recorder.op_durable(trace, 15.0)
        recorder.op_finished(trace, 15.0)
        assert trace.phases == pytest.approx(
            {"retry": 0.0, "admission": 2.0, "service": 5.0,
             "hold": 2.0, "commit": 6.0, "slack": 0.0}
        )
        assert sum(trace.phases.values()) == pytest.approx(15.0)

    def test_async_mutation_clips_hold_to_the_window(self):
        """An async op's latency window closes at body end while the
        bracket stays open: hold and commit clip to zero rather than
        driving slack negative."""
        clock = _FakeClock()
        recorder = AttributionRecorder(clock=clock)
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        recorder.op_admitted(trace, 0.0)
        with recorder.measure(trace):
            clock.now_ms = 4.0
        recorder.op_finished(trace, 4.0)  # window closes at body end
        recorder.op_end(trace, 9.0)  # bracket closes later
        assert trace.phases["hold"] == 0.0
        assert trace.phases["commit"] == 0.0
        assert sum(trace.phases.values()) == pytest.approx(4.0)

    def test_service_other_is_service_minus_disk(self):
        clock = _FakeClock()
        recorder = AttributionRecorder(clock=clock)
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        recorder.op_admitted(trace, 0.0)
        with recorder.measure(trace):
            clock.now_ms = 10.0
        trace.disk_seek_ms = 2.0
        trace.disk_rotation_ms = 3.0
        trace.disk_transfer_ms = 1.0
        recorder.op_finished(trace, 10.0)
        assert trace.service_other_ms == pytest.approx(4.0)

    def test_detail_view_has_every_key(self):
        recorder = AttributionRecorder(clock=_FakeClock())
        trace = recorder.op_issued(0, _FakeOp, 0.0)
        assert set(trace.detail) == set(DETAIL_KEYS)


class TestPartitionProperty:
    """The acceptance property: recorded phases partition every op's
    end-to-end latency exactly, across a real concurrent run."""

    def _finished_traces(self, sync_fraction: float) -> list[OpTrace]:
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = _attributed_fs(disk)
        engine = _traffic(fs, sync_fraction=sync_fraction)
        engine.run()
        traces = [
            t for t in fs.obs.attribution.traces if t.finish_ms is not None
        ]
        fs.unmount()
        return traces

    @pytest.mark.parametrize("sync_fraction", [0.0, 0.3, 1.0])
    def test_phases_sum_to_latency_exactly(self, sync_fraction):
        traces = self._finished_traces(sync_fraction)
        assert traces, "run produced no finished traces"
        for trace in traces:
            assert set(trace.phases) == set(PHASES)
            assert sum(trace.phases.values()) == pytest.approx(
                trace.latency_ms, abs=1e-9
            )
            for name, value in trace.phases.items():
                assert value >= -1e-9, f"negative {name} on #{trace.trace_id}"

    def test_report_consistency_within_one_percent(self):
        traces = self._finished_traces(0.3)
        report = build_report(traces)
        assert report["consistency"]["relative_error"] <= 0.01

    def test_every_issued_op_is_traced(self):
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = _attributed_fs(disk)
        engine = _traffic(fs)
        report = engine.run()
        assert len(fs.obs.attribution.traces) == report.ops_issued
        assert report.attribution is not None
        assert report.attribution["ops"] == report.ops_completed
        fs.unmount()


class TestZeroOverheadContract:
    def test_null_obs_has_no_recorder(self):
        assert NULL_OBS.attribution is None
        assert Observer().attribution is None

    def test_plain_run_records_nothing(self, fsd):
        engine = _traffic(fsd, clients=3, ops_per_client=10)
        report = engine.run()
        assert engine.recorder is None
        assert report.attribution is None
        assert NULL_OBS.attribution is None

    def test_attributed_run_is_bit_identical(self):
        """Same seed with and without attribution: identical disk
        image and identical simulated clock."""
        results = []
        for attrib in (False, True):
            disk = SimDisk(geometry=TEST_GEOMETRY)
            FSD.format(disk, TEST_FSD_PARAMS)
            fs = _attributed_fs(disk) if attrib else FSD.mount(disk)
            _traffic(fs).run()
            clock_ms = fs.clock.now_ms
            fs.unmount()
            results.append((_digest(disk), clock_ms))
        assert results[0] == results[1]

    def test_one_client_attributed_matches_serial(self):
        """The acceptance bar: a 1-client attributed engine run lands
        on the same disk state and clock as the serial reference."""
        results = []
        for mode in ("serial", "attributed"):
            disk = SimDisk(geometry=TEST_GEOMETRY)
            FSD.format(disk, TEST_FSD_PARAMS)
            fs = (
                _attributed_fs(disk) if mode == "attributed"
                else FSD.mount(disk)
            )
            engine = _traffic(
                fs, clients=1, ops_per_client=30, hold_ms=0.0,
                sync_fraction=0.0,
            )
            if mode == "serial":
                engine.run_serial()
            else:
                engine.run()
            clock_ms = fs.clock.now_ms
            fs.unmount()
            results.append((_digest(disk), clock_ms))
        assert results[0] == results[1]


class TestReporting:
    def test_empty_report(self):
        report = build_report([])
        assert report["ops"] == 0
        assert report_lines(report) == [
            "attribution: no finished operations recorded"
        ]

    def test_slo_burn_rejects_nonpositive_slo(self):
        with pytest.raises(FsError):
            slo_burn([], 0.0)

    def _trace(self, trace_id: int, latency: float, commit: float):
        trace = OpTrace(
            trace_id=trace_id, client=0, kind="write", name="f",
            sync=True, issue_ms=0.0,
        )
        trace.latency_ms = latency
        trace.finish_ms = latency
        trace.phases = {
            "admission": 0.0,
            "service": latency - commit,
            "hold": 0.0,
            "commit": commit,
            "slack": 0.0,
        }
        return trace

    def test_slo_burn_names_dominant_phase(self):
        traces = [
            self._trace(1, 5.0, commit=1.0),
            self._trace(2, 50.0, commit=40.0),
            self._trace(3, 60.0, commit=45.0),
        ]
        burn = slo_burn(traces, slo_ms=20.0)
        assert burn["violations"] == 2
        assert burn["dominant_phases"] == {"commit": 2}
        assert burn["worst"][0]["trace_id"] == 3
        assert burn["worst"][0]["dominant_phase"] == "commit"

    def test_build_report_phase_totals_partition_latency(self):
        traces = [
            self._trace(1, 10.0, commit=4.0),
            self._trace(2, 20.0, commit=5.0),
        ]
        report = build_report(traces, slo_ms=15.0)
        assert report["ops"] == 2
        assert report["consistency"]["relative_error"] == 0.0
        totals = sum(
            report["phases"][name]["total_ms"] for name in PHASES
        )
        assert totals == pytest.approx(30.0)
        assert report["slo"]["violations"] == 1
        shares = sum(report["phases"][name]["share"] for name in PHASES)
        assert shares == pytest.approx(1.0, abs=0.01)

    def test_report_lines_render_phases_and_slo(self):
        traces = [self._trace(1, 30.0, commit=25.0)]
        lines = report_lines(build_report(traces, slo_ms=10.0))
        text = "\n".join(lines)
        assert "attribution over 1 ops" in text
        for name in PHASES:
            assert name in text
        assert "SLO burn" in text


class TestRetryPhase:
    """An actually-retried op charges its failed attempts and backoff
    to the ``retry`` phase, and the partition stays exact."""

    def test_retried_op_charges_backoff_to_retry_phase(self):
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = _attributed_fs(disk)
        config = TrafficConfig(
            clients=1, ops_per_client=1, seed=7, population=1,
            shared_fraction=1.0, zipf_theta=0.0,
            weights={"create": 0.0, "write": 0.0, "read": 1.0,
                     "delete": 0.0, "list": 0.0},
            max_file_bytes=900, settle=False, max_retries=3,
        )
        engine = TrafficEngine(fs, config)
        engine.prepare()
        site = fs.open(engine._pop_name(0)).props.leader_addr + 1
        # Both ladder reads fail, so the client contract retries; the
        # transient then clears and the second attempt succeeds.
        disk.faults.damage_transient(site, failures=2)
        engine.run()
        traces = [
            t for t in fs.obs.attribution.traces
            if t.finish_ms is not None
        ]
        fs.crash()
        [trace] = traces
        assert trace.attempts == 2
        assert trace.error_class is None  # the retry eventually landed
        assert trace.phases["retry"] > 0.0
        assert sum(trace.phases.values()) == pytest.approx(
            trace.latency_ms, abs=1e-9
        )

    def test_failed_op_records_its_error_class(self):
        """With no retry left, the failed op's trace is closed as an
        error carrying the contract's class, and still partitions."""
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = _attributed_fs(disk)
        config = TrafficConfig(
            clients=1, ops_per_client=1, seed=7, population=1,
            shared_fraction=1.0, zipf_theta=0.0,
            weights={"create": 0.0, "write": 0.0, "read": 1.0,
                     "delete": 0.0, "list": 0.0},
            max_file_bytes=900, settle=False, max_retries=0,
        )
        engine = TrafficEngine(fs, config)
        engine.prepare()
        site = fs.open(engine._pop_name(0)).props.leader_addr + 1
        disk.faults.damage_transient(site, failures=2)
        report = engine.run()
        [trace] = fs.obs.attribution.traces
        fs.crash()
        assert report.errors == 1
        assert trace.attempts == 1
        assert trace.error
        assert trace.error_class == "retryable"  # but no retry was left
        assert sum(trace.phases.values()) == pytest.approx(
            trace.latency_ms, abs=1e-9
        )
