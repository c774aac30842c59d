"""Unit tests for workload generators and their paper moments."""

from __future__ import annotations

from repro.harness.scenarios import SMALL, fsd_volume
from repro.workloads.generators import (
    BulkUpdateWorkload,
    PaperFileSizes,
    payload,
    small_fraction_stats,
)
from tests.workloads.operation_mix import OperationMix


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
    def test_localized_to_subdirectory(self):
        disk, fs, adapter = fsd_volume(SMALL)
        workload = BulkUpdateWorkload(files=4, rounds=1)
        workload.setup(adapter)
        names = {props.name for props in fs.list()}
        assert len(names) == 4
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
