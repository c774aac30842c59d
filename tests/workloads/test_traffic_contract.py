"""The client error contract: classification, retry/backoff, deadlines
and degraded-mode fast-fail — all on the simulated clock, all
deterministic given the seed."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import (
    CorruptMetadata,
    DamagedSectorError,
    DegradedVolumeError,
    FileNotFound,
    NotMounted,
    VolumeFull,
    classify_error,
)
from repro.obs import Observer
from repro.workloads import traffic
from repro.workloads.traffic import TrafficConfig, TrafficEngine

GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(nt_pages=512, log_record_sectors=231, cache_pages=32)


def _engine(config: TrafficConfig) -> tuple[SimDisk, FSD, TrafficEngine]:
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    fs = FSD.mount(disk, obs=Observer())
    return disk, fs, TrafficEngine(fs, config)


def _pure(kind: str) -> dict[str, float]:
    """A single-kind mix (weights merge over the defaults, so the
    other kinds must be explicitly zeroed)."""
    mix = {"create": 0.0, "write": 0.0, "read": 0.0, "delete": 0.0,
           "list": 0.0}
    mix[kind] = 1.0
    return mix


def _one_reader(**overrides) -> TrafficConfig:
    knobs = dict(
        clients=1,
        ops_per_client=1,
        seed=7,
        population=1,
        shared_fraction=1.0,
        zipf_theta=0.0,
        weights=_pure("read"),
        max_file_bytes=900,
        settle=False,
        max_retries=3,
    )
    knobs.update(overrides)
    return TrafficConfig(**knobs)


def _backoff(monkeypatch, *, base_ms: float = traffic.RETRY_BASE_MS,
             cap_ms: float = traffic.RETRY_CAP_MS,
             jitter: float = traffic.RETRY_JITTER) -> None:
    """Set the engine's backoff constants for one test."""
    monkeypatch.setattr(traffic, "RETRY_BASE_MS", base_ms)
    monkeypatch.setattr(traffic, "RETRY_CAP_MS", cap_ms)
    monkeypatch.setattr(traffic, "RETRY_JITTER", jitter)


def _population_data_sector(engine: TrafficEngine) -> int:
    """Disk address of the population file's first data sector."""
    engine.prepare()
    name = engine._pop_name(0)
    return engine.fs.open(name).props.leader_addr + 1


class TestClassification:
    def test_media_and_crash_races_are_retryable(self):
        assert classify_error(DamagedSectorError(9)) == "retryable"
        assert classify_error(NotMounted("crashed")) == "retryable"

    def test_semantic_errors_are_fatal(self):
        assert classify_error(FileNotFound("gone")) == "fatal"
        assert classify_error(VolumeFull("full")) == "fatal"
        assert classify_error(CorruptMetadata("bad")) == "fatal"

    def test_degraded_is_its_own_class(self):
        assert classify_error(DegradedVolumeError("dead", 5)) == "degraded"


class TestRetry:
    def test_transient_fault_retried_to_success(self):
        _, fs, engine = _engine(_one_reader())
        site = _population_data_sector(engine)
        # Two failing reads exhaust the ladder's retry rung, so the
        # *client* contract retries; the fault clears and the op lands.
        engine.fs.disk.faults.damage_transient(site, failures=2)
        report = engine.run()
        fs.crash()
        assert report.errors == 0
        assert report.ops_completed == report.ops_issued == 1
        avail = report.availability
        assert avail["retries"] >= 1
        assert avail["ops_ok"] == 1
        metrics = fs.obs.metrics.snapshot().counters
        assert metrics["retry.attempts"] >= 1

    def test_exhausted_budget_resolves_as_typed_failure(self):
        _, fs, engine = _engine(_one_reader(max_retries=2))
        site = _population_data_sector(engine)
        engine.fs.disk.faults.damage(site)  # permanent: no retry helps
        report = engine.run()
        fs.crash()
        # The op still resolves — typed, not hung.
        assert report.ops_completed == report.ops_issued == 1
        assert report.availability["ops_failed"] == {"retryable": 1}
        assert report.availability["retries"] == 2
        metrics = fs.obs.metrics.snapshot().counters
        assert metrics["retry.exhausted"] == 1

    def test_deadline_converts_retry_to_timeout(self, monkeypatch):
        _backoff(monkeypatch, base_ms=50.0, jitter=0.0)
        _, fs, engine = _engine(_one_reader(max_retries=8, deadline_ms=60.0))
        site = _population_data_sector(engine)
        engine.fs.disk.faults.damage(site)
        report = engine.run()
        fs.crash()
        assert report.ops_completed == report.ops_issued == 1
        assert "timeout" in report.availability["ops_failed"]

    def test_fatal_errors_never_retried(self):
        # The shared file vanishes before the read: FileNotFound is
        # fatal — retrying would deterministically repeat it.
        _, fs, engine = _engine(_one_reader())
        engine.prepare()
        fs.delete(engine._pop_name(0))
        report = engine.run()
        fs.crash()
        assert report.ops_completed == report.ops_issued == 1
        assert report.availability["ops_failed"] == {"fatal": 1}
        assert report.availability["retries"] == 0

    def test_degraded_volume_fails_writes_fast(self):
        _, fs, engine = _engine(_one_reader(weights=_pure("write")))
        engine.prepare()
        fs._note_degraded("test degradation", fault_site=123)
        report = engine.run()
        fs.crash()
        assert report.ops_completed == report.ops_issued == 1
        # Fast-fail: no retries burned on a read-only volume.
        assert report.availability["ops_failed"] == {"degraded": 1}
        assert report.availability["retries"] == 0


class TestBackoff:
    def _client(self, attempts: int) -> SimpleNamespace:
        return SimpleNamespace(cid=0, index=0, attempts=attempts)

    def test_doubles_then_caps_without_jitter(self, monkeypatch):
        _backoff(monkeypatch, base_ms=5.0, cap_ms=40.0, jitter=0.0)
        _, fs, engine = _engine(_one_reader())
        delays = [
            engine._backoff_ms(self._client(n)) for n in range(1, 7)
        ]
        fs.crash()
        assert delays == [5.0, 10.0, 20.0, 40.0, 40.0, 40.0]

    def test_jitter_bounded_and_deterministic(self, monkeypatch):
        _backoff(monkeypatch, base_ms=8.0, cap_ms=100.0, jitter=0.5)
        _, fs, engine = _engine(_one_reader())
        first = engine._backoff_ms(self._client(2))
        second = engine._backoff_ms(self._client(2))
        fs.crash()
        assert first == second  # keyed RNG: same inputs, same wait
        assert 8.0 <= first <= 16.0


class TestInertDefaults:
    def test_no_availability_section_without_contract_knobs(self):
        _, fs, engine = _engine(_one_reader(max_retries=0))
        report = engine.run()
        fs.crash()
        assert not engine.config.contract_active
        assert report.availability is None
        assert report.as_dict()["availability"] is None
