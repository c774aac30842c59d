"""Unit tests for workload generators and their paper moments."""

from __future__ import annotations

from repro.harness.scenarios import SMALL, fsd_volume
from repro.workloads.generators import (
    BulkUpdateWorkload,
    OperationMix,
    PaperFileSizes,
    payload,
    small_fraction_stats,
)


class TestPaperFileSizes:
    def test_deterministic_for_seed(self):
        a = PaperFileSizes(seed=42).sample_many(100)
        b = PaperFileSizes(seed=42).sample_many(100)
        assert a == b

    def test_paper_moments(self):
        """50% of files < 4,000 bytes holding ~8% of the bytes."""
        sizes = PaperFileSizes(seed=1987).sample_many(5_000)
        count_fraction, byte_fraction = small_fraction_stats(sizes)
        assert 0.45 <= count_fraction <= 0.55
        assert 0.05 <= byte_fraction <= 0.13

    def test_range(self):
        sizes = PaperFileSizes(seed=3).sample_many(500)
        assert all(256 <= size <= 60_000 for size in sizes)

    def test_empty_stats(self):
        assert small_fraction_stats([]) == (0.0, 0.0)


class TestPayload:
    def test_exact_length(self):
        for size in (0, 1, 511, 512, 513, 4096):
            assert len(payload(size, 1)) == size

    def test_deterministic_and_seed_sensitive(self):
        assert payload(100, 5) == payload(100, 5)
        assert payload(100, 5) != payload(100, 6)


class TestBulkUpdate:
    def test_runs_and_counts(self):
        disk, fs, adapter = fsd_volume(SMALL)
        workload = BulkUpdateWorkload(files=6, rounds=2)
        workload.setup(adapter)
        operations = workload.run(adapter)
        assert operations == 12
        # keep=2: after 3 total versions the oldest is trimmed.
        assert len(fs.versions("bulk/module-000")) == 2

    def test_localized_to_subdirectory(self):
        disk, fs, adapter = fsd_volume(SMALL)
        workload = BulkUpdateWorkload(files=4, rounds=1)
        workload.setup(adapter)
        workload.run(adapter)
        names = {props.name for props in fs.list()}
        assert all(name.startswith("bulk/") for name in names)


class TestOperationMix:
    def test_mix_executes_all_kinds(self):
        disk, fs, adapter = fsd_volume(SMALL)
        from repro.harness.scenarios import populate

        names = populate(adapter, 20)
        counts = OperationMix(seed=3).run(adapter, names, operations=120)
        assert sum(counts.values()) == 120
        assert counts["create"] > 0
        assert counts["open"] > 0
        assert counts["read"] > 0
        assert counts["delete"] > 0
