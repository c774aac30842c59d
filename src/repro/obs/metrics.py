"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The paper's whole evaluation is accounting — Hagmann scripts every
operation as seeks, latencies and transfers and validates the model to
~5% against measurement.  This registry extends that discipline above
the disk: every layer (WAL, group commit, cache, B-tree pager, VAM,
recovery, FSD facade) increments named metrics through an attached
:class:`~repro.obs.Observer`, and benchmarks subtract
:class:`Snapshot`\\ s to get deltas, mirroring ``DiskStats.__sub__``.

Metric names are dotted, with the layer as the first component
(``wal.records_appended``, ``commit.batch_pages``); everything that
groups or filters by layer keys off that prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FsError

#: generic power-of-two buckets for size-ish distributions.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


#: gauges that are ratios of counters, worked out when a snapshot is
#: taken rather than on every increment: gauge -> (part, whole...),
#: the gauge being ``part / sum(whole)`` once the whole is non-zero.
DERIVED_RATIOS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cache.data.hit_ratio":
        ("cache.data.hits", ("cache.data.hits", "cache.data.misses")),
    "cache.data.readahead_accuracy":
        ("cache.data.readahead_used", ("cache.data.readahead_issued",)),
}


def percentile(values: list[float], q: float) -> float:
    """Exact linear-interpolated percentile of raw samples (``q`` in
    ``[0, 1]``); 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def bucket_index(bounds: tuple[float, ...], value: float) -> int:
    """Index of the first bucket whose upper bound holds ``value``
    (the last index is the overflow bucket)."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


@dataclass
class Counter:
    """Monotonically increasing count (events, sectors, pages...)."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1) -> None:
        """Increase by ``amount`` (negative amounts raise)."""
        if amount < 0:
            raise FsError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """Last-written level (free sectors, shadow size...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the level with its newest reading."""
        self.value = value


@dataclass
class Histogram:
    """Fixed-boundary histogram; ``bounds`` are inclusive upper bounds
    and one implicit overflow bucket follows the last bound."""

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise FsError(f"histogram {self.name} needs ascending bounds")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        self.counts[bucket_index(self.bounds, value)] += 1
        self.total += value

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        observed = self.count
        return self.total / observed if observed else 0.0


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time copy of a histogram, delta-subtractable."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: float

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        observed = self.count
        return self.total / observed if observed else 0.0

    def __sub__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.bounds != other.bounds:
            raise FsError("cannot subtract histograms with different bounds")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(
                a - b for a, b in zip(self.counts, other.counts)
            ),
            total=self.total - other.total,
        )

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 1]) by linear
        interpolation inside the containing bucket.  Samples past the
        last bound are attributed to the last bound (the estimate
        saturates there); 0.0 for an empty histogram."""
        observed = self.count
        if not observed:
            return 0.0
        target = q * observed
        cumulative = 0
        for index, count in enumerate(self.counts):
            if not count:
                continue
            lower = self.bounds[index - 1] if index >= 1 else 0.0
            if index >= len(self.bounds):
                return self.bounds[-1]
            cumulative += count
            if cumulative >= target:
                upper = self.bounds[index]
                covered = cumulative - count
                frac = (target - covered) / count
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
        return self.bounds[-1]

    def nonzero_buckets(self) -> list[tuple[str, int]]:
        """(label, count) for every populated bucket, in bound order."""
        out = []
        for index, count in enumerate(self.counts):
            if not count:
                continue
            if index < len(self.bounds):
                label = f"<={_fmt_bound(self.bounds[index])}"
            else:
                label = f">{_fmt_bound(self.bounds[-1])}"
            out.append((label, count))
        return out


def _fmt_bound(bound: float) -> str:
    return f"{bound:g}"


@dataclass(frozen=True)
class Snapshot:
    """Point-in-time copy of a registry; subtract two for a delta,
    exactly like ``DiskStats`` windows."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        counters = {
            name: value - other.counters.get(name, 0.0)
            for name, value in self.counters.items()
        }
        histograms = {}
        for name, hist in self.histograms.items():
            before = other.histograms.get(name)
            histograms[name] = hist - before if before is not None else hist
        # Gauges are levels, not flows: a delta keeps the newer reading.
        return Snapshot(
            counters=counters,
            gauges=dict(self.gauges),
            histograms=histograms,
        )

    def counter(self, name: str, default: float = 0.0) -> float:
        """Counter value by name (``default`` when never touched)."""
        return self.counters.get(name, default)

    def layers(self) -> dict[str, dict[str, object]]:
        """All metrics grouped by their layer prefix (text before the
        first dot), for per-layer reporting."""
        out: dict[str, dict[str, object]] = {}
        for group in (self.counters, self.gauges, self.histograms):
            for name, value in group.items():
                layer = name.split(".", 1)[0]
                out.setdefault(layer, {})[name] = value
        return out


class MetricsRegistry:
    """Named metrics, created on first touch.

    Touching an existing name with a different metric type (or
    different histogram bounds) raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first touch."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first touch."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram called ``name``; re-declaring with different
        ``bounds`` raises."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name=name, bounds=tuple(bounds))
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise FsError(f"metric {name} is not a histogram")
        elif metric.bounds != tuple(bounds):
            raise FsError(f"histogram {name} re-declared with new bounds")
        return metric

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name=name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise FsError(f"metric {name} is not a {cls.__name__.lower()}")
        return metric

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Snapshot:
        """Immutable copy of every metric for the delta API."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, HistogramSnapshot] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = HistogramSnapshot(
                    bounds=metric.bounds,
                    counts=tuple(metric.counts),
                    total=metric.total,
                )
        for name, (part, whole) in DERIVED_RATIOS.items():
            total = sum(counters.get(key, 0.0) for key in whole)
            if total:
                gauges[name] = round(counters.get(part, 0.0) / total, 4)
        return Snapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )
