"""Per-operation causal tracing and latency attribution.

Hagmann's evaluation is an exercise in knowing *where the
milliseconds went* — seeks, rotations, transfers, log forces — yet
the multi-client traffic engine could only report opaque end-to-end
percentiles.  This module closes that gap: every client operation
gets a **trace id** at issue time, the id propagates through the
transaction brackets, the data cache and the group-commit machinery,
and the operation's end-to-end latency is partitioned into named
**phases** on the simulated clock:

=============  =====================================================
``retry``      issue → final attempt start: failed attempts plus the
               backoff waits between them (the client error contract;
               0 for ops that succeed first try)
``admission``  attempt start → transaction-bracket entry (log-space
               admission wait, plus any daemon force that ran at
               arrival)
``service``    the operation body: FSD work including disk I/O
``hold``       bracket held open for client processing (``hold_ms``)
``commit``     ``end_op`` → durable: waiting for the covering group
               commit (sync operations only)
``slack``      residual: streamed-read think gaps between chunks and
               event-loop scheduling slack
=============  =====================================================

The phases are computed from consecutive timestamps, so they
partition ``[issue, issue + latency]`` **exactly** — the property
tests pin ``sum(phases) == latency`` to float precision.  Beneath the
exact partition, a ``detail`` dict sub-attributes where it can:
seek/rotation/transfer milliseconds inside ``service`` (disk-stats
deltas around the body), commit-batch wait / log-append / publish
inside ``commit`` (force timing notes from the coordinator), data
cache hits/misses, and the txn-admission block reasons.

Attachment follows the ``NULL_OBS`` pattern: an
:class:`AttributionRecorder` hangs off ``observer.attribution``
(``None`` by default, including on :data:`~repro.obs.NULL_OBS`), and
every instrumented component guards with one attribute read — a
detached run performs no attribution work and records nothing.
Recording never touches the simulated clock, so an attributed run is
bit-identical on disk state and clock to an unattributed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FsError

#: the top-level phases, in timeline order.  Every operation's latency
#: is partitioned across exactly these (missing phases are 0.0).
PHASES = ("retry", "admission", "service", "hold", "commit", "slack")

#: detail keys always present in a finished trace's ``detail`` dict.
DETAIL_KEYS = (
    "disk_seek_ms",
    "disk_rotation_ms",
    "disk_transfer_ms",
    "service_other_ms",
    "commit_batch_wait_ms",
    "commit_log_append_ms",
    "commit_publish_ms",
    "cache_hits",
    "cache_misses",
)


@dataclass(slots=True)
class OpTrace:
    """One client operation's causal trace.

    Raw timestamps are simulated milliseconds; ``None`` marks a point
    the operation never reached (a read never enters a bracket, an
    async mutation never waits for durability).  ``phases`` is filled
    by :meth:`AttributionRecorder.op_finished`.

    The :data:`DETAIL_KEYS` sub-attribution counters live as slotted
    float fields rather than a per-trace dict — attribution overhead
    is dominated by garbage-collector pressure from tracked
    allocations, so the hot path allocates one slotted object per op
    and no containers (the :attr:`detail` property assembles the dict
    view on demand for reporting).
    """

    trace_id: int
    client: int
    kind: str
    name: str
    sync: bool
    issue_ms: float
    admitted_ms: float | None = None
    body_end_ms: float | None = None
    end_op_ms: float | None = None
    durable_ms: float | None = None
    finish_ms: float | None = None
    latency_ms: float = 0.0
    service_ms: float = 0.0
    admission_blocks: int = 0
    block_reasons: dict[str, int] | None = None
    error: bool = False
    #: how the op resolved under the error contract: ``None`` for a
    #: first-try success, else "retryable"/"fatal"/"degraded"/"timeout"
    #: (or ``None`` again when a retry eventually succeeded).
    error_class: str | None = None
    #: total attempts (1 = no retry); bumped by :meth:`op_retry`.
    attempts: int = 1
    #: when the *final* attempt began (issue_ms unless retried): the
    #: retry phase is everything before it.
    attempt_start_ms: float | None = None
    phases: dict[str, float] = field(default_factory=dict)
    disk_seek_ms: float = 0.0
    disk_rotation_ms: float = 0.0
    disk_transfer_ms: float = 0.0
    service_other_ms: float = 0.0
    commit_batch_wait_ms: float = 0.0
    commit_log_append_ms: float = 0.0
    commit_publish_ms: float = 0.0
    cache_hits: float = 0.0
    cache_misses: float = 0.0

    @property
    def detail(self) -> dict[str, float]:
        """Dict view of the sub-attribution counters (reporting API;
        the recorder writes the slotted fields directly)."""
        return {key: getattr(self, key) for key in DETAIL_KEYS}

    @property
    def dominant_phase(self) -> str:
        """The phase holding the largest share of this op's latency."""
        if not self.phases:
            return "service"
        return max(PHASES, key=lambda p: self.phases.get(p, 0.0))


class _Segment:
    """One measured service segment (see
    :meth:`AttributionRecorder.measure`)."""

    __slots__ = ("recorder", "trace", "start_ms", "seek", "rotation",
                 "transfer", "previous")

    def __init__(self, recorder: "AttributionRecorder", trace: OpTrace):
        self.recorder = recorder
        self.trace = trace

    def __enter__(self) -> OpTrace:
        recorder = self.recorder
        clock = recorder.clock
        self.start_ms = clock.now_ms if clock is not None else 0.0
        stats = recorder.disk_stats
        if stats is not None:
            self.seek = stats.seek_ms
            self.rotation = stats.rotational_ms
            self.transfer = stats.transfer_ms
        else:
            self.seek = self.rotation = self.transfer = 0.0
        self.previous = recorder.current
        recorder.current = self.trace
        return self.trace

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self.recorder
        trace = self.trace
        recorder.current = self.previous
        clock = recorder.clock
        now = clock.now_ms if clock is not None else 0.0
        trace.service_ms += now - self.start_ms
        trace.body_end_ms = now
        stats = recorder.disk_stats
        if stats is not None:
            trace.disk_seek_ms += stats.seek_ms - self.seek
            trace.disk_rotation_ms += stats.rotational_ms - self.rotation
            trace.disk_transfer_ms += stats.transfer_ms - self.transfer


class AttributionRecorder:
    """Collects :class:`OpTrace` records for one traffic run.

    The traffic engine calls the ``op_*`` lifecycle methods; the
    instrumented layers (data cache, group commit, txn)
    call the ``note_*`` methods, keyed off :attr:`current` — the trace
    whose body is executing right now (operation bodies are atomic in
    the single-threaded simulation, so one slot suffices).
    """

    def __init__(self, clock=None, disk_stats=None):
        self.clock = clock
        self.disk_stats = disk_stats
        #: the trace whose operation body is currently executing.
        self.current: OpTrace | None = None
        self.traces: list[OpTrace] = []
        self._next_id = 1
        #: timing of the most recent group-commit force:
        #: (begin_ms, logged_ms, done_ms).
        self._last_force: tuple[float, float, float] | None = None
        self._force_begin_ms: float | None = None
        self._force_logged_ms: float | None = None

    def bind(self, fs) -> None:
        """Point the recorder at a mounted volume's clock and disk
        stats (the stats feed the seek/rotation/transfer detail)."""
        self.clock = fs.clock
        self.disk_stats = fs.io.stats

    # ------------------------------------------------------------------
    # operation lifecycle (called by the traffic engine)
    # ------------------------------------------------------------------
    def op_issued(self, client: int, op, now_ms: float) -> OpTrace:
        """A client issued ``op``: assign the trace id, start the
        end-to-end window."""
        trace = OpTrace(
            trace_id=self._next_id,
            client=client,
            kind=op.kind,
            name=op.name,
            sync=getattr(op, "sync", False),
            issue_ms=now_ms,
        )
        self._next_id += 1
        self.traces.append(trace)
        return trace

    def op_blocked(self, trace: OpTrace, reason: str) -> None:
        """Admission refused; ``reason`` comes from
        :meth:`~repro.core.txn.TxnManager.block_reason`."""
        trace.admission_blocks += 1
        reasons = trace.block_reasons
        if reasons is None:
            reasons = trace.block_reasons = {}
        reasons[reason] = reasons.get(reason, 0) + 1

    def op_admitted(self, trace: OpTrace, now_ms: float) -> None:
        """The bracket opened (or, for non-mutating ops, the body is
        about to start): the admission phase ends here."""
        trace.admitted_ms = now_ms

    def measure(self, trace: OpTrace) -> "_Segment":
        """Measure one service segment (an op body or one streamed
        chunk): accumulates service time, sets :attr:`current` so the
        data-cache/commit layers can stamp this trace, and
        charges the segment's disk seek/rotation/transfer deltas.

        Returns a context manager.  A slotted object reading the disk
        stats' floats directly (instead of snapshotting the dataclass)
        keeps per-segment cost low enough for streamed reads — this is
        the hottest attribution path.
        """
        return _Segment(self, trace)

    def op_error(self, trace: OpTrace, error_class: str | None = None) -> None:
        """The body raised (file vanished mid-stream, etc.)."""
        trace.error = True
        if error_class is not None:
            trace.error_class = error_class

    def op_retry(self, trace: OpTrace, resume_ms: float) -> None:
        """The error contract scheduled another attempt at
        ``resume_ms``: everything accumulated so far — the failed
        attempt's service and the backoff wait about to elapse — folds
        into the ``retry`` phase, and the per-attempt marks reset so
        the final attempt's phases are attributed cleanly."""
        trace.attempts += 1
        trace.attempt_start_ms = resume_ms
        trace.error = False
        trace.error_class = None
        trace.service_ms = 0.0
        trace.admitted_ms = None
        trace.body_end_ms = None
        trace.end_op_ms = None
        trace.durable_ms = None
        trace.disk_seek_ms = 0.0
        trace.disk_rotation_ms = 0.0
        trace.disk_transfer_ms = 0.0

    def op_end(self, trace: OpTrace, now_ms: float) -> None:
        """``end_op`` is about to run: the hold phase ends here."""
        trace.end_op_ms = now_ms

    def op_durable(self, trace: OpTrace, now_ms: float) -> None:
        """The covering group commit completed: close the commit phase
        and sub-attribute it against the force's timing notes."""
        trace.durable_ms = now_ms
        if trace.end_op_ms is None or self._last_force is None:
            return
        begin, logged, done = self._last_force
        trace.commit_batch_wait_ms += max(0.0, begin - trace.end_op_ms)
        trace.commit_log_append_ms += max(0.0, logged - begin)
        trace.commit_publish_ms += max(
            0.0, now_ms - max(logged, trace.end_op_ms)
        )

    def op_finished(self, trace: OpTrace, latency_ms: float) -> None:
        """The latency window closed: partition it into phases.

        The partition is exact by construction: every explicit phase
        is a difference of consecutive marks and ``slack`` absorbs the
        remainder, so ``sum(phases) == latency`` to float precision.
        """
        trace.finish_ms = trace.issue_ms + latency_ms
        trace.latency_ms = latency_ms
        attempt_start = (
            trace.attempt_start_ms
            if trace.attempt_start_ms is not None
            else trace.issue_ms
        )
        attempt_start = min(attempt_start, trace.finish_ms)
        retry = attempt_start - trace.issue_ms
        admitted = trace.admitted_ms if trace.admitted_ms is not None else attempt_start
        admission = max(0.0, admitted - attempt_start)
        service = trace.service_ms
        # An async mutation's latency window closes at body end while
        # its bracket stays open for hold_ms more: clip the hold (and
        # commit) segments to the window so phases partition exactly
        # what the client experienced.
        hold = 0.0
        if trace.end_op_ms is not None and trace.body_end_ms is not None:
            hold = max(
                0.0,
                min(trace.end_op_ms, trace.finish_ms) - trace.body_end_ms,
            )
        commit = 0.0
        if trace.durable_ms is not None and trace.end_op_ms is not None:
            commit = max(
                0.0,
                min(trace.durable_ms, trace.finish_ms) - trace.end_op_ms,
            )
        slack = latency_ms - (retry + admission + service + hold + commit)
        trace.phases = {
            "retry": retry,
            "admission": admission,
            "service": service,
            "hold": hold,
            "commit": commit,
            "slack": slack,
        }
        disk = (
            trace.disk_seek_ms
            + trace.disk_rotation_ms
            + trace.disk_transfer_ms
        )
        trace.service_other_ms = max(0.0, service - disk)

    # ------------------------------------------------------------------
    # layer notes (called by data cache / group commit)
    # ------------------------------------------------------------------
    def note_cache(self, hit: bool) -> None:
        """A data-cache demand lookup inside the current body."""
        trace = self.current
        if trace is None:
            return
        if hit:
            trace.cache_hits += 1
        else:
            trace.cache_misses += 1

    def force_begin(self, now_ms: float) -> None:
        """A group-commit force started writing its batch."""
        self._force_begin_ms = now_ms
        self._force_logged_ms = None

    def force_logged(self, now_ms: float) -> None:
        """The force's log records are on the platter."""
        self._force_logged_ms = now_ms

    def force_done(self, now_ms: float) -> None:
        """The force completed (shadow bitmap applied, hooks run);
        durable waiters are about to wake against this timing."""
        begin = self._force_begin_ms if self._force_begin_ms is not None else now_ms
        logged = self._force_logged_ms if self._force_logged_ms is not None else now_ms
        self._last_force = (begin, logged, now_ms)
        self._force_begin_ms = None
        self._force_logged_ms = None


def _pct(ordered: list[float], q: float) -> float:
    """:func:`~repro.obs.metrics.percentile` on an already-sorted list
    (the report sorts each series once instead of once per quantile)."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _phase_summary(values: list[float], total_latency: float) -> dict:
    total = sum(values)
    ordered = sorted(values)
    return {
        "mean_ms": round(total / len(values), 4) if values else 0.0,
        "p50_ms": round(_pct(ordered, 0.50), 4),
        "p95_ms": round(_pct(ordered, 0.95), 4),
        "p99_ms": round(_pct(ordered, 0.99), 4),
        "total_ms": round(total, 4),
        "share": round(total / total_latency, 4) if total_latency else 0.0,
    }


def build_report(traces: list[OpTrace], slo_ms: float | None = None) -> dict:
    """The per-phase percentile attribution report.

    Percentiles are per-phase marginals (they do not sum — percentiles
    never do); the *means* and *totals* partition end-to-end latency
    exactly, and the ``p99`` section decomposes the mean latency of
    the ops at or above the p99 threshold, which again sums exactly.
    """
    if not traces:
        return {"ops": 0, "phases": {}, "consistency": {}, "p99": {}}
    latencies = [t.latency_ms for t in traces]
    total_latency = sum(latencies)
    phases = {
        name: _phase_summary(
            [t.phases.get(name, 0.0) for t in traces], total_latency
        )
        for name in PHASES
    }
    phase_total = sum(p["total_ms"] for p in phases.values())
    consistency = {
        "latency_total_ms": round(total_latency, 4),
        "phase_total_ms": round(phase_total, 4),
        "relative_error": round(
            abs(phase_total - total_latency) / total_latency, 6
        )
        if total_latency
        else 0.0,
    }
    ordered_latencies = sorted(latencies)
    p99_threshold = _pct(ordered_latencies, 0.99)
    tail = [t for t in traces if t.latency_ms >= p99_threshold]
    report = {
        "ops": len(traces),
        "errors": sum(1 for t in traces if t.error),
        "latency": {
            "mean_ms": round(total_latency / len(traces), 4),
            "p50_ms": round(_pct(ordered_latencies, 0.50), 4),
            "p95_ms": round(_pct(ordered_latencies, 0.95), 4),
            "p99_ms": round(p99_threshold, 4),
        },
        "phases": phases,
        "consistency": consistency,
        "p99": _tail_decomposition(tail, p99_threshold),
        "detail": _detail_totals(traces),
        "admission_blocks": _block_reasons(traces),
    }
    if slo_ms is not None:
        report["slo"] = slo_burn(traces, slo_ms)
    return report


def _tail_decomposition(tail: list[OpTrace], threshold: float) -> dict:
    """Where does p99 go: mean phase breakdown of the tail ops."""
    if not tail:
        return {"threshold_ms": round(threshold, 4), "ops": 0}
    mean_latency = sum(t.latency_ms for t in tail) / len(tail)
    breakdown = {
        name: round(
            sum(t.phases.get(name, 0.0) for t in tail) / len(tail), 4
        )
        for name in PHASES
    }
    dominant = max(breakdown, key=lambda name: breakdown[name])
    return {
        "threshold_ms": round(threshold, 4),
        "ops": len(tail),
        "mean_latency_ms": round(mean_latency, 4),
        "breakdown_ms": breakdown,
        "dominant_phase": dominant,
        "kinds": _count_by(tail, lambda t: t.kind),
    }


def _detail_totals(traces: list[OpTrace]) -> dict[str, float]:
    return {
        key: round(sum(getattr(t, key) for t in traces), 4)
        for key in DETAIL_KEYS
    }


def _block_reasons(traces: list[OpTrace]) -> dict[str, int]:
    out: dict[str, int] = {}
    for trace in traces:
        if not trace.block_reasons:
            continue
        for reason, count in trace.block_reasons.items():
            out[reason] = out.get(reason, 0) + count
    return dict(sorted(out.items()))


def _count_by(traces: list[OpTrace], key) -> dict[str, int]:
    out: dict[str, int] = {}
    for trace in traces:
        out[key(trace)] = out.get(key(trace), 0) + 1
    return dict(sorted(out.items()))


def slo_burn(traces: list[OpTrace], slo_ms: float) -> dict:
    """SLO burn diagnosis: every op whose end-to-end latency exceeded
    ``slo_ms``, with the phase that dominated it — the "where did my
    milliseconds go" answer per violation."""
    if slo_ms <= 0:
        raise FsError("slo_ms must be positive")
    violations = [t for t in traces if t.latency_ms > slo_ms]
    worst = sorted(violations, key=lambda t: -t.latency_ms)[:5]
    return {
        "slo_ms": slo_ms,
        "violations": len(violations),
        "violation_rate": round(len(violations) / len(traces), 4)
        if traces
        else 0.0,
        "dominant_phases": _count_by(violations, lambda t: t.dominant_phase),
        "kinds": _count_by(violations, lambda t: t.kind),
        "worst": [
            {
                "trace_id": t.trace_id,
                "client": t.client,
                "kind": t.kind,
                "name": t.name,
                "latency_ms": round(t.latency_ms, 4),
                "dominant_phase": t.dominant_phase,
                "phases": {k: round(v, 4) for k, v in t.phases.items()},
            }
            for t in worst
        ],
    }


def report_lines(report: dict) -> list[str]:
    """Human-readable attribution summary for the CLI."""
    if not report or not report.get("ops"):
        return ["attribution: no finished operations recorded"]
    lines = [
        f"attribution over {report['ops']} ops "
        f"(phase totals sum to end-to-end within "
        f"{report['consistency'].get('relative_error', 0.0):.4%}):",
        f"  {'phase':<10} {'p50':>8} {'p95':>8} {'p99':>8} "
        f"{'mean':>8}  share",
    ]
    for name in PHASES:
        phase = report["phases"][name]
        lines.append(
            f"  {name:<10} {phase['p50_ms']:>8.2f} {phase['p95_ms']:>8.2f} "
            f"{phase['p99_ms']:>8.2f} {phase['mean_ms']:>8.2f}  "
            f"{phase['share']:.1%}"
        )
    tail = report.get("p99", {})
    if tail.get("ops"):
        breakdown = tail["breakdown_ms"]
        parts = "  ".join(
            f"{name} {breakdown[name]:.2f}" for name in PHASES
            if breakdown[name] > 0.0
        )
        lines.append(
            f"p99 tail ({tail['ops']} ops >= {tail['threshold_ms']:.2f} ms): "
            f"dominant phase {tail['dominant_phase']}; mean ms {parts}"
        )
    blocks = report.get("admission_blocks")
    if blocks:
        parts = ", ".join(f"{k} x{v}" for k, v in blocks.items())
        lines.append(f"admission blocks: {parts}")
    slo = report.get("slo")
    if slo:
        if slo["violations"]:
            parts = ", ".join(
                f"{phase} x{count}"
                for phase, count in slo["dominant_phases"].items()
            )
            lines.append(
                f"SLO burn ({slo['slo_ms']:.0f} ms): {slo['violations']} "
                f"violations ({slo['violation_rate']:.1%}) — dominant: "
                f"{parts}"
            )
            for op in slo["worst"][:3]:
                lines.append(
                    f"  worst: #{op['trace_id']} {op['kind']} "
                    f"{op['name']} {op['latency_ms']:.2f} ms "
                    f"({op['dominant_phase']} "
                    f"{op['phases'][op['dominant_phase']]:.2f} ms)"
                )
        else:
            lines.append(
                f"SLO burn ({slo['slo_ms']:.0f} ms): no violations"
            )
    return lines
