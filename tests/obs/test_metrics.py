"""Registry semantics and the snapshot/delta API."""

from __future__ import annotations

import pytest

from repro.errors import FsError
from repro.obs.export import metric_dicts
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    Snapshot,
    bucket_index,
    percentile,
)


class TestRegistry:
    def test_counter_created_on_first_touch(self):
        reg = MetricsRegistry()
        reg.counter("wal.records").add(3)
        reg.counter("wal.records").add(2)
        assert reg.snapshot().counter("wal.records") == 5

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(FsError):
            reg.counter("x").add(-1)

    def test_gauge_keeps_last_reading(self):
        reg = MetricsRegistry()
        reg.gauge("vam.free").set(100)
        reg.gauge("vam.free").set(42)
        assert reg.snapshot().gauges["vam.free"] == 42

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(FsError):
            reg.gauge("x")
        with pytest.raises(FsError):
            reg.histogram("x")

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2, 4))
        with pytest.raises(FsError):
            reg.histogram("h", bounds=(1, 2, 8))

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]


class TestHistogram:
    def test_bucket_index_inclusive_upper_bounds(self):
        bounds = (1.0, 2.0, 4.0)
        assert bucket_index(bounds, 1) == 0
        assert bucket_index(bounds, 2) == 1
        assert bucket_index(bounds, 3) == 2
        assert bucket_index(bounds, 4) == 2
        assert bucket_index(bounds, 5) == 3  # overflow bucket

    def test_observe_and_mean(self):
        hist = Histogram(name="h", bounds=(2.0, 8.0))
        for value in (1, 2, 5, 100):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [2, 1, 1]
        assert hist.mean == pytest.approx(27.0)

    def test_unsorted_bounds_raise(self):
        with pytest.raises(FsError):
            Histogram(name="h", bounds=(4.0, 2.0))

    def test_nonzero_bucket_labels(self):
        hist = Histogram(name="h", bounds=(2.0, 8.0))
        hist.observe(1)
        hist.observe(50)
        labels = [label for label, _ in _snapshot_of(hist).nonzero_buckets()]
        assert labels == ["<=2", ">8"]


def _snapshot_of(hist: Histogram):
    from repro.obs.metrics import HistogramSnapshot

    return HistogramSnapshot(
        bounds=hist.bounds, counts=tuple(hist.counts), total=hist.total
    )


class TestSnapshotDelta:
    def test_counter_delta(self):
        reg = MetricsRegistry()
        reg.counter("fsd.creates").add(10)
        before = reg.snapshot()
        reg.counter("fsd.creates").add(7)
        reg.counter("fsd.deletes").add(1)
        delta = reg.snapshot() - before
        assert delta.counter("fsd.creates") == 7
        assert delta.counter("fsd.deletes") == 1

    def test_histogram_delta_subtracts_buckets(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(2.0, 8.0)).observe(1)
        before = reg.snapshot()
        reg.histogram("h", bounds=(2.0, 8.0)).observe(5)
        delta = reg.snapshot() - before
        assert delta.histograms["h"].count == 1
        assert delta.histograms["h"].counts == (0, 1, 0)

    def test_histogram_delta_bounds_mismatch_raises(self):
        from repro.obs.metrics import HistogramSnapshot

        a = HistogramSnapshot(bounds=(1.0,), counts=(0, 0), total=0)
        b = HistogramSnapshot(bounds=(2.0,), counts=(0, 0), total=0)
        with pytest.raises(FsError):
            a - b

    def test_gauge_delta_keeps_newer_reading(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(10)
        before = reg.snapshot()
        reg.gauge("g").set(3)
        delta = reg.snapshot() - before
        assert delta.gauges["g"] == 3

    def test_layers_group_by_prefix(self):
        snap = Snapshot(
            counters={"wal.records": 1, "wal.forces": 2, "fsd.creates": 3},
            gauges={"vam.free_count": 9},
        )
        layers = snap.layers()
        assert set(layers) == {"wal", "fsd", "vam"}
        assert set(layers["wal"]) == {"wal.records", "wal.forces"}

    def test_as_dict_is_json_friendly(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").add(1)
        reg.gauge("g").set(2)
        reg.histogram("h", bounds=DEFAULT_BUCKETS).observe(3)
        json.dumps(metric_dicts(reg.snapshot()))


class TestPercentile:
    """Edge cases of the canonical linear-interpolation percentile."""

    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.99) == 0.0

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert percentile([7.5], q) == 7.5

    def test_q_zero_is_min_and_q_one_is_max(self):
        values = [9.0, 1.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_interpolates_between_samples(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5
        assert percentile([0.0, 10.0], 0.75) == 7.5

    def test_does_not_mutate_input(self):
        values = [3.0, 1.0, 2.0]
        percentile(values, 0.5)
        assert values == [3.0, 1.0, 2.0]

    def test_duplicates(self):
        assert percentile([4.0, 4.0, 4.0, 4.0], 0.99) == 4.0
