"""Chaos campaigns: fault injection riding on the live traffic engine.

Covers the campaign-level contract the chaos engine guarantees —
every issued op resolves (success, typed failure or timeout; never a
hang), crash/recover cycles re-drive interrupted clients through the
retry contract, same-seed campaigns are bit-identical, and the final
oracle never reports silent corruption on a surviving volume.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.recovery as recovery
from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import FsError
from repro.harness.fingerprint import fingerprint
from repro.obs import Observer
from repro.workloads import chaos as chaos_module
from repro.workloads.chaos import (
    PROFILES,
    ChaosConfig,
    ChaosEngine,
    ChaosReport,
    chaos_bench_doc,
    run_chaos,
)
from repro.workloads.traffic import TrafficConfig, TrafficEngine
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

SMALL_GEO = DiskGeometry(cylinders=150, heads=8, sectors_per_track=32)
SMALL_PARAMS = VolumeParams(
    nt_pages=512, log_record_sectors=300, cache_pages=48
)


def _small_traffic(seed: int = 11, **overrides) -> TrafficConfig:
    knobs = dict(
        clients=6,
        ops_per_client=8,
        seed=seed,
        mean_think_ms=60.0,
        population=12,
        max_file_bytes=4_000,
        max_retries=3,
        settle=False,
    )
    knobs.update(overrides)
    return TrafficConfig(**knobs)


def _small_chaos(**overrides) -> ChaosConfig:
    knobs = dict(
        faults=24,
        fault_interval_ms=50.0,
        crash_cycles=2,
    )
    knobs.update(overrides)
    return ChaosConfig(**knobs)


def _small_campaign(seed: int = 11, **chaos_overrides) -> ChaosReport:
    # A tighter crash window than the CLI's: armed crashes fire sooner.
    with mock.patch.object(chaos_module, "CRASH_IO_WINDOW", 30):
        return run_chaos(
            _small_traffic(seed),
            _small_chaos(**chaos_overrides),
            geometry=SMALL_GEO,
            params=SMALL_PARAMS,
        )


class TestConfig:
    def test_rejects_negative_faults(self):
        with pytest.raises(FsError):
            ChaosConfig(faults=-1)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(FsError):
            ChaosConfig(fault_interval_ms=0.0)

    def test_crash_points_evenly_spaced(self):
        config = ChaosConfig(faults=60, crash_cycles=2)
        assert config.crash_points == frozenset({20, 40})

    def test_no_crash_points_without_cycles(self):
        assert ChaosConfig(faults=60, crash_cycles=0).crash_points == frozenset()

    def test_mirror_fail_point(self):
        assert ChaosConfig(faults=60, mirror=True).mirror_fail_point == 20
        assert ChaosConfig(faults=60).mirror_fail_point is None


class TestCampaign:
    def test_small_campaign_survives(self):
        report = _small_campaign()
        assert report.ok, report.summary_lines()
        # Ticks stop when traffic drains, so the target is a ceiling.
        assert 15 <= report.faults_injected <= 24
        assert report.crashes >= 1
        assert report.hung_ops == 0
        assert report.verdict in ("recovered", "degraded", "salvaged")
        assert sum(report.faults_by_kind.values()) == report.faults_injected

    def test_report_says_how_many_armed_crashes_fired(self):
        """An armed crash fires only after its plan's I/Os; one armed
        late can meet the end of the traffic first and never fire."""
        report = _small_campaign()
        assert report.crashes_armed == len(_small_chaos().crash_points)
        assert report.crashes <= report.crashes_armed
        assert report.as_dict()["crashes_armed"] == report.crashes_armed
        assert (
            f"{report.crashes} of {report.crashes_armed} armed crashes fired"
            in report.summary_lines()[0]
        )

    def test_availability_section_shape(self):
        report = _small_campaign()
        avail = report.traffic["availability"]
        assert avail["faults"]["injected"] == report.faults_injected
        assert avail["crashes"] == report.crashes
        # Every recovery row carries the SLO-restoration metric (which
        # may be None when the run ended first).
        for recovery in avail["recoveries"]:
            assert "time_to_restored_slo_ms" in recovery
            assert recovery["mounted"] in (0, 1)
        # Epoch and goodput rows partition the completed ops.
        assert sum(e["ops"] for e in avail["epochs"]) == report.ops_completed
        assert (
            sum(r["ok"] + r["failed"] for r in avail["goodput"])
            == report.ops_completed
        )

    def test_bench_doc_is_flat_and_numeric(self):
        doc = chaos_bench_doc(_small_campaign())
        for key in (
            "goodput_ops_per_s",
            "errors_per_1k_ops",
            "retry_amplification",
            "mean_recover_ms",
            "files_verified_share",
        ):
            assert isinstance(doc[key], (int, float)), key
        # None when no recovery restored the SLO before the run ended.
        assert isinstance(
            doc["mean_time_to_restored_slo_ms"], (int, float, type(None))
        )

    def test_mirror_campaign_loses_and_resilvers_a_unit(self):
        report = _small_campaign(seed=13, mirror=True)
        assert report.ok, report.summary_lines()
        events = [
            e["event"]
            for e in report.traffic["availability"].get("mirror", [])
        ]
        assert "unit_b_lost" in events


class TestDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_same_seed_campaigns_bit_identical(self, seed):
        first = _small_campaign(seed=seed)
        second = _small_campaign(seed=seed)
        assert first.fingerprint == second.fingerprint
        assert first.to_json() == second.to_json()


def _churn(seed: int) -> ChaosReport:
    return run_chaos(**PROFILES["churn"](seed))


class TestChurnProfile:
    """``repro chaos --profile churn``: one client creating and deleting
    small files under 18 faults and three armed crashes."""

    VERDICTS = {"recovered", "degraded", "salvaged"}

    def test_campaign_ends_honestly(self):
        report = _churn(1987)
        assert report.ok, report.summary_lines()
        assert report.silent_corruptions == []
        assert report.verdict in self.VERDICTS
        assert report.clients == 1
        assert report.faults_injected == 18

    def test_deterministic_for_a_seed(self):
        assert _churn(77).to_json() == _churn(77).to_json()

    def test_different_seeds_diverge(self):
        assert _churn(1).fingerprint != _churn(2).fingerprint

    def test_salvaged_verdict_reachable(self):
        """Faults sometimes land hard enough that the volume cannot
        remount; the campaign must then prove salvage works, orphan
        leaders included, rather than call the run a loss."""
        report = _churn(12)
        assert report.ok, report.summary_lines()
        assert report.verdict == "salvaged"
        assert "via orphan leaders" in report.salvage_summary

    def test_report_json_shape(self):
        blob = json.loads(_churn(9).to_json())
        assert blob["seed"] == 9
        assert blob["ok"] is True
        assert blob["verdict"] in self.VERDICTS
        assert sum(blob["faults_by_kind"].values()) == blob["faults_injected"]
        assert blob["hung_ops"] == 0

    def test_broken_recovery_is_caught(self):
        """The oracle itself must be falsifiable: against a recovery
        that drops the last scanned log record, some campaign of a
        short sweep reports silent corruption."""
        recovery.TEST_DROP_LAST_RECORD = True
        try:
            reports = [_churn(seed) for seed in range(1, 9)]
        finally:
            recovery.TEST_DROP_LAST_RECORD = False
        assert any(report.silent_corruptions for report in reports)
        assert not all(report.ok for report in reports)

    @pytest.fixture(scope="class")
    def sweep(self):
        """The CI sweep, seeds 1-40, run once for the tests below:
        each seed's report and its engine."""
        engines = []

        class Spy(ChaosEngine):
            def __init__(self, *args):
                super().__init__(*args)
                engines.append(self)

        with mock.patch.object(chaos_module, "ChaosEngine", Spy):
            reports = [_churn(seed) for seed in range(1, 41)]
        return SimpleNamespace(reports=reports, engines=engines)

    def test_sweep_of_seeds_1_to_40(self, sweep):
        """Every seed honest, no name torn (the profile writes nothing
        in place), both recovered and salvaged verdicts, and the
        double-copy name-table fault fires."""
        reports = sweep.reports
        assert all(report.ok for report in reports)
        assert all(engine.oracle.torn == set() for engine in sweep.engines)
        assert {"recovered", "salvaged"} <= {r.verdict for r in reports}
        assert sum(r.faults_by_kind.get("nt_pair", 0) for r in reports) > 0

    def test_sweep_meets_fault_floor(self, sweep):
        """The acceptance bar: the sweep injects >= 200 faults."""
        assert sum(r.faults_injected for r in sweep.reports) >= 200


class TestTokenGuard:
    def test_stale_continuations_dropped_after_token_bump(self):
        # The guard is the base event loop's: chaos only bumps tokens.
        disk = SimDisk(geometry=SMALL_GEO)
        FSD.format(disk, SMALL_PARAMS)
        fs = FSD.mount(disk, obs=Observer())
        engine = TrafficEngine(
            fs,
            TrafficConfig(clients=1, ops_per_client=1, population=0,
                          settle=False),
        )
        calls: list[str] = []
        client = SimpleNamespace(token=0)
        engine._schedule(1.0, lambda: calls.append("stale"), client)
        client.token += 1  # what _recover does to interrupted clients
        engine._schedule(2.0, lambda: calls.append("fresh"), client)
        while engine._heap:
            engine._pump()
        fs.crash()
        assert calls == ["fresh"]


class TestQuietCampaign:
    def test_campaign_without_faults_is_plain_traffic(self):
        """No faults and no crashes: the chaos engine's oracle hooks
        leave the run exactly the base engine's."""
        config = _small_traffic(seed=11, sync_fraction=0.3)
        runs = []
        for chaos in (None, ChaosConfig(faults=0, crash_cycles=0)):
            disk = SimDisk(geometry=SMALL_GEO)
            FSD.format(disk, SMALL_PARAMS)
            obs = Observer()
            fs = FSD.mount(disk, obs=obs)
            engine = (TrafficEngine(fs, config) if chaos is None
                      else ChaosEngine(disk, fs, config, chaos))
            report = engine.run().as_dict()
            del report["availability"]
            runs.append((fingerprint(disk, obs), report))
            fs.crash()
        assert runs[0] == runs[1]


class TestVolumeLost:
    def test_lost_volume_resolves_every_op_and_salvages(self):
        disk = SimDisk(geometry=SMALL_GEO)
        FSD.format(disk, SMALL_PARAMS)
        obs = Observer()
        fs = FSD.mount(disk, SMALL_PARAMS, obs)
        config = _small_traffic(seed=5, clients=4, ops_per_client=6,
                                mean_think_ms=40.0, population=8,
                                max_file_bytes=2_000)
        engine = ChaosEngine(
            disk, fs, config, ChaosConfig(faults=0, crash_cycles=0)
        )
        layout = fs.layout

        def kill_volume() -> None:
            # Both root copies gone + a crash: the remount cannot find
            # the volume, which is the worst allowed outcome.
            disk.faults.damage(layout.root_a)
            disk.faults.damage(layout.root_b)
            disk.faults.arm_crash(after_ios=0)

        engine._schedule(50.0, kill_volume)
        traffic_report = engine.run()
        disk.faults.disarm_crash()
        assert engine._volume_lost
        # The availability contract: no hangs even with the volume gone.
        assert traffic_report.ops_completed == traffic_report.ops_issued
        assert traffic_report.errors > 0

        # params_hint lets the salvager locate the layout even with
        # both root copies unreadable.
        outcome = engine.oracle.classify(disk, None, SMALL_PARAMS)
        report = ChaosReport(
            seed=config.seed,
            clients=config.clients,
            ops_issued=traffic_report.ops_issued,
            ops_completed=traffic_report.ops_completed,
            faults_injected=2,
            faults_by_kind={"media": 2},
            crashes=engine._crashes,
            crashes_armed=int(obs.metrics.counter("chaos.crashes_armed").value),
            volume_lost=True,
            traffic=traffic_report.as_dict(),
            **vars(outcome),
        )
        assert report.verdict == "salvaged"
        assert report.salvage_summary
        assert not report.silent_corruptions
        assert report.ok


class TestLostLogRecords:
    def test_stale_leaders_are_not_redone_over_newer_data(self):
        """Mid-log damage stops a mount's scan short of committed
        records.  The truncated log still calls live a file whose
        deletion those records held, and its leader must not go home:
        the sector was reused for data committed since.  A chaos
        campaign found this (``repro chaos --seed 3 --max-retries 0``
        once ended this way), but which seed reaches it depends on where
        files land, so the scenario is built directly: a file grows in
        place over a deleted neighbour's leader, and the delete's log
        record is destroyed."""
        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk)
        sector = disk.geometry.sector_bytes
        grow = fs.create("grow", b"g" * sector)
        stale = fs.create("old", b"o" * 2 * sector).props.leader_addr
        fs.force()
        delete_record = fs.wal._disk_addr(fs.wal.write_offset)
        fs.delete("old")
        fs.force()
        newer = b"n" * (6 * sector)
        fs.write(grow, sector, newer)
        fs.force()
        (run,) = grow.runs.runs
        assert run.start < stale < run.end  # the leader's sector reused
        # Header, blank and header copy of the delete's record.
        disk.faults.damaged.update(range(delete_record, delete_record + 3))
        fs.crash()

        recovered = FSD.mount(disk)
        assert recovered.mount_report.log_records_lost
        assert recovered.exists("old")  # the truncated log's view
        disk.faults.damaged.clear()
        offset = (stale - run.start - 1) * sector  # data page 1 onward
        assert disk.read(stale, 1)[0] == newer[offset : offset + sector]
