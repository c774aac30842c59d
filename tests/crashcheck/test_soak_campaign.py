"""The multi-fault soak campaign and its recovery oracle.

Every seeded run ends in exactly one honest verdict — fully
recovered, degraded read-only, or salvaged — and the oracle flags
silent corruption: data loss or wrong contents that the file system
did not admit to.  The campaign is deterministic for a given config.
"""

from __future__ import annotations

import repro.core.recovery as recovery
from repro.crashcheck.soak import SoakConfig, run_campaign

VALID_VERDICTS = {"recovered", "degraded", "salvaged"}


class TestCampaign:
    def test_short_campaign_ends_honestly(self):
        report = run_campaign(SoakConfig(seed=1987, runs=4))
        assert report.ok
        assert report.silent_corruptions == []
        assert set(report.verdict_counts) <= VALID_VERDICTS
        assert report.faults_injected > 0
        assert all(r.verdict in VALID_VERDICTS for r in report.results)

    def test_default_config_meets_fault_floor(self):
        """The acceptance bar: a default campaign injects >= 200 faults."""
        assert run_campaign(SoakConfig()).faults_injected >= 200

    def test_deterministic_for_a_seed(self):
        first = run_campaign(SoakConfig(seed=77, runs=3))
        second = run_campaign(SoakConfig(seed=77, runs=3))
        assert first.to_json() == second.to_json()

    def test_different_seeds_diverge(self):
        a = run_campaign(SoakConfig(seed=1, runs=2))
        b = run_campaign(SoakConfig(seed=2, runs=2))
        assert a.to_json()["results"] != b.to_json()["results"]

    def test_salvaged_verdict_reachable(self):
        """Faults sometimes land hard enough that the volume cannot
        remount; the campaign must then prove salvage works rather
        than calling the run a loss.  Seed 555 is one such history."""
        report = run_campaign(SoakConfig(seed=555))
        assert report.ok
        assert report.verdict_counts.get("salvaged", 0) >= 1

    def test_report_json_shape(self):
        report = run_campaign(SoakConfig(seed=9, runs=2))
        blob = report.to_json()
        assert blob["seed"] == 9
        assert blob["ok"] is True
        assert len(blob["results"]) == 2
        for entry in blob["results"]:
            assert entry["verdict"] in VALID_VERDICTS
            assert "faults" in entry


class TestOracleSensitivity:
    def test_broken_recovery_is_caught(self):
        """The oracle itself must be falsifiable: run the campaign
        against a recovery that drops the last scanned log record and
        it has to report silent corruption, not a clean bill."""
        recovery.TEST_DROP_LAST_RECORD = True
        try:
            report = run_campaign(SoakConfig(seed=1987, runs=8))
        finally:
            recovery.TEST_DROP_LAST_RECORD = False
        assert not report.ok
        assert report.silent_corruptions


class TestFullCampaign:
    def test_full_default_campaign(self):
        """The whole default campaign (>= 200 faults) stays honest."""
        report = run_campaign()
        assert report.ok
        assert report.faults_injected >= 200
