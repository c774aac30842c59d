"""Integration: one workload, three file systems, equal answers.

Data integrity must be identical everywhere; the *costs* must differ
the way the paper says they do.
"""

from __future__ import annotations

import random

from repro.harness.scenarios import SMALL, cfs_volume, ffs_volume, fsd_volume
from repro.workloads.generators import payload
from tests.workloads.operation_mix import OperationMix


def run_everywhere(steps):
    """Apply ``steps(adapter)`` to all three systems; return results."""
    out = {}
    for name, factory in (
        ("fsd", fsd_volume),
        ("cfs", cfs_volume),
        ("ffs", ffs_volume),
    ):
        disk, fs, adapter = factory(SMALL)
        out[name] = (disk, fs, adapter, steps(adapter))
    return out


class TestEquivalence:
    def test_same_contents_after_mixed_workload(self):
        def steps(adapter):
            rng = random.Random(99)
            contents = {}
            for index in range(40):
                name = f"w/f{index:03d}"
                data = payload(rng.randrange(100, 4_000), index)
                adapter.create(name, data)
                contents[name] = data
            for victim in list(contents)[::5]:
                adapter.delete(victim)
                del contents[victim]
            adapter.settle()
            return contents

        results = run_everywhere(steps)
        expected = results["fsd"][3]
        for name, (disk, fs, adapter, contents) in results.items():
            assert contents.keys() == expected.keys()
            for file_name, data in contents.items():
                assert adapter.read(adapter.open(file_name)) == data, (
                    name, file_name,
                )
            assert adapter.list("w/") == len(expected)

    def test_operation_mix_runs_everywhere(self):
        def steps(adapter):
            names = []
            for index in range(10):
                name = f"seed/f{index}"
                adapter.create(name, payload(500, index))
                names.append(name)
            return OperationMix(seed=7).run(adapter, names, operations=60)

        results = run_everywhere(steps)
        counts = {name: result[3] for name, result in results.items()}
        # The mix is deterministic, so the op counts agree exactly.
        assert counts["fsd"] == counts["cfs"] == counts["ffs"]


class TestCostShape:
    def test_fsd_uses_fewest_ios_for_metadata_work(self):
        def steps(adapter):
            window_start = adapter_disk_stats_total(adapter)
            for index in range(30):
                adapter.create(f"m/f{index:02d}", b"tiny")
            adapter.settle()
            return adapter_disk_stats_total(adapter) - window_start

        results = run_everywhere(steps)
        ios = {name: result[3] for name, result in results.items()}
        assert ios["fsd"] < ios["ffs"] < ios["cfs"]

    def test_read_costs_similar_everywhere(self):
        def steps(adapter):
            blob = payload(3_000, 1)
            adapter.create("r/file", blob)
            adapter.settle()
            start = adapter_disk_stats_total(adapter)
            handle = adapter.open("r/file")
            assert adapter.read(handle) == blob
            return adapter_disk_stats_total(adapter) - start

        results = run_everywhere(steps)
        ios = {name: result[3] for name, result in results.items()}
        # Within a handful of I/Os of each other.
        assert max(ios.values()) - min(ios.values()) <= 5


def adapter_disk_stats_total(adapter) -> int:
    return adapter.fs.disk.stats.total_ios
