"""Simulated-time multi-client traffic engine for FSD.

The paper's group commit only pays off under *concurrent* load: "if
the system is busy, then many updates are done per log force" (§5.4).
Every workload in this tree so far was a single serial client, so the
batching factor never rose above what one client's bulk updates could
supply.  This module drives a mounted FSD volume with thousands of
interleaved client sessions on the shared simulated clock and measures
what the paper measured: per-operation latency and how many client
updates each log force absorbs.

The simulation is single threaded and operation bodies are atomic, so
"concurrency" here means what it meant on the Dorado: clients overlap
in the *waiting* — for log-space admission, for a group commit to
complete, and in the think/processing gaps between their operations.
The engine is an event loop over :class:`~repro.disk.clock.SimClock`:

* each client runs a pre-generated **activity script** (create, write,
  streamed read, delete, list) with think times drawn from a Poisson,
  bursty, or uniform arrival process;
* every mutating operation runs inside a ``begin_op``/``end_op``
  bracket (:class:`~repro.core.txn.TxnManager`); the bracket is held
  open for ``hold_ms`` of simulated client processing, which is what
  creates real multi-client windows (``outstanding > 1``) and forces
  the deferred-commit drain path;
* a client refused admission parks; the commit that frees log space
  wakes every parked client at once — the amortization the paper
  describes;
* ``sync_fraction`` of mutations wait for durability: the client's
  latency runs to the completion of the covering group commit.

Activity *content* (op kinds, names, sizes, payload seeds) is drawn
from a per-client RNG keyed only by ``(seed, client)``, while *timing*
comes from a separate RNG keyed by ``(seed, client, arrival)``.  Two
runs with the same seed but different arrival processes therefore
perform the same operations in different interleavings — the property
the convergence tests rely on.

With one client the engine never blocks and never defers a commit, and
:meth:`TrafficEngine.run_serial` executes the same script as a plain
adapter loop; the integration tests pin that both produce bit-identical
disks and clocks.

The engine also carries the **client error contract** the chaos
campaigns (:mod:`repro.workloads.chaos`) exercise: every operation
failure is classified (:func:`repro.errors.classify_error` —
``retryable`` / ``fatal`` / ``degraded``), retryable failures are
retried ``max_retries`` times with capped exponential backoff and
deterministic jitter on the simulated clock (:data:`RETRY_BASE_MS`,
:data:`RETRY_CAP_MS`, :data:`RETRY_JITTER`), an optional per-op
``deadline_ms`` bounds the total attempt budget (exceeding it resolves
the op as a typed ``timeout``), and a volume degraded to read-only
rejects mutations *fast* — before entering a bracket — so writers
never park against a log that will refuse them.  With
``max_retries=0`` and no deadline the contract is inert and the report
carries no ``availability`` section.
"""

from __future__ import annotations

import heapq
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    DegradedVolumeError,
    DiskError,
    FsError,
    classify_error,
)
from repro.harness.adapters import FsdAdapter
from repro.obs.attribution import build_report, report_lines
from repro.obs.metrics import percentile
from repro.workloads.generators import payload

__all__ = [
    "ClientOp",
    "TrafficConfig",
    "TrafficEngine",
    "TrafficReport",
    "ZipfSampler",
    "cache_thrash_config",
    "percentile",
    "TRAFFIC_MS_BUCKETS",
    "TRAFFIC_SCHEMA_VERSION",
]

#: bumped whenever the shape of ``TrafficReport.as_dict()`` changes,
#: so downstream tooling (bench diff, dashboards) can detect format
#: drift.  1 = PR 6 shape; 2 = adds ``schema_version`` itself and the
#: optional ``attribution`` section; 3 = adds the ``wal`` section
#: (commit-path stall from the third-entry protocol); 4 = adds the
#: optional ``availability`` section (error taxonomy, retries, and —
#: for chaos runs — the fault/recovery timeline).
TRAFFIC_SCHEMA_VERSION = 4

#: latency histogram bounds (ms) for ``traffic.op_ms``.
TRAFFIC_MS_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                      200.0, 500.0, 1000.0, 2000.0)

ARRIVALS = ("poisson", "bursty", "uniform")

#: bursty arrivals: ops per burst, and the idle gap between bursts
#: (drawn from 0.5x to 1.5x of it).
BURST_SIZE = 8
BURST_GAP_MS = 2_000.0

#: retry backoff: the first wait, doubling per attempt up to the cap,
#: then scaled by a jitter factor drawn from [1 - RETRY_JITTER, 1].
RETRY_BASE_MS = 5.0
RETRY_CAP_MS = 200.0
RETRY_JITTER = 0.5

#: operation kinds that mutate the volume (and therefore bracket).
MUTATING = frozenset({"create", "write", "delete"})

#: default operation mix (fractions; normalized by the sampler).
DEFAULT_WEIGHTS = {
    "create": 0.25,
    "write": 0.30,
    "read": 0.30,
    "delete": 0.10,
    "list": 0.05,
}


@dataclass(frozen=True)
class ClientOp:
    """One scripted client operation.  ``think_ms`` is the idle gap
    *before* the operation is issued."""

    kind: str
    name: str
    think_ms: float
    size: int = 0
    seed: int = 0
    sync: bool = False


@dataclass
class TrafficConfig:
    """Knobs of one traffic run.  Everything is deterministic given
    ``seed`` (content) and ``seed``+``arrival`` (timing)."""

    clients: int = 10
    ops_per_client: int = 40
    seed: int = 1987
    arrival: str = "poisson"        # poisson | bursty | uniform
    mean_think_ms: float = 200.0
    zipf_theta: float = 0.8         # popularity skew over shared files
    population: int = 40            # shared files created before the run
    shared_fraction: float = 0.5    # reads/writes aimed at shared files
    hold_ms: float = 1.0            # client processing inside the bracket
    sync_fraction: float = 0.0      # mutations that wait for durability
    read_chunk_bytes: int = 4096    # streamed-read granularity
    chunk_think_ms: float = 1.0     # gap between streamed chunks
    max_file_bytes: int = 60_000
    settle: bool = True             # force once when the run ends
    weights: dict[str, float] | None = None
    slo_ms: float | None = None     # per-op latency SLO (attribution)
    # --- client error contract (all inert at the defaults) ---
    max_retries: int = 0            # retry budget per op (0: no retries)
    deadline_ms: float | None = None  # per-op budget issue -> resolution

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise FsError("traffic needs at least one client")
        if self.ops_per_client < 1:
            raise FsError("traffic needs at least one op per client")
        if self.arrival not in ARRIVALS:
            raise FsError(f"unknown arrival process: {self.arrival!r}")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise FsError("shared_fraction must be in [0, 1]")
        if not 0.0 <= self.sync_fraction <= 1.0:
            raise FsError("sync_fraction must be in [0, 1]")
        if self.read_chunk_bytes < 1:
            raise FsError("read_chunk_bytes must be positive")
        if self.max_retries < 0:
            raise FsError("max_retries must be >= 0")
        if self.deadline_ms is not None and self.deadline_ms <= 0.0:
            raise FsError("deadline_ms must be positive")

    @property
    def contract_active(self) -> bool:
        """True when any error-contract knob departs from the inert
        defaults (retries or deadlines are in play)."""
        return self.max_retries > 0 or self.deadline_ms is not None


def cache_thrash_config(
    data_cache_pages: int,
    *,
    seed: int = 4242,
    clients: int = 8,
    ops_per_client: int = 25,
    page_bytes: int = 512,
) -> TrafficConfig:
    """An adversarial mix for the data-page cache: a *uniform* shared
    working set sized just past ``data_cache_pages``, read-dominated
    with small chunks, so every page is re-requested soon but LRU can
    never hold them all.  The robustness claim under test is not speed
    — it is that a thrashing cache stays correct and every operation
    still completes."""
    if data_cache_pages < 1:
        raise FsError("cache_thrash_config needs a positive cache size")
    # Mean generated file size under a 1000-byte cap is ~650 bytes
    # (~2 pages with the leader); aim the population's footprint at
    # ~1.25x the cache so eviction never stops.
    target_bytes = int(1.25 * data_cache_pages * page_bytes)
    population = max(8, target_bytes // 650)
    return TrafficConfig(
        clients=clients,
        ops_per_client=ops_per_client,
        seed=seed,
        population=population,
        shared_fraction=1.0,
        zipf_theta=0.0,
        # Zeros matter: weights merge over the default mix, and churn
        # (create/delete) would let the working set drift off-plan.
        weights={"create": 0.0, "write": 0.15, "read": 0.85,
                 "delete": 0.0, "list": 0.0},
        max_file_bytes=1_000,
        mean_think_ms=5.0,
        hold_ms=0.5,
        read_chunk_bytes=page_bytes,
        chunk_think_ms=0.5,
    )


class ZipfSampler:
    """Zipf-like popularity over ``population`` ranks: rank ``r`` has
    weight ``1 / (r + 1) ** theta``.  ``theta == 0`` is uniform."""

    def __init__(self, population: int, theta: float):
        if population < 1:
            raise FsError("zipf needs a non-empty population")
        self._cum: list[float] = []
        total = 0.0
        for rank in range(population):
            total += 1.0 / float(rank + 1) ** theta
            self._cum.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """One rank in ``[0, population)``."""
        return bisect_left(self._cum, rng.random() * self._total)


def _latency_summary(values: list[float]) -> dict[str, float]:
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean_ms": round(sum(values) / len(values), 3),
        "p50_ms": round(percentile(values, 0.50), 3),
        "p95_ms": round(percentile(values, 0.95), 3),
        "p99_ms": round(percentile(values, 0.99), 3),
        "max_ms": round(max(values), 3),
    }


def failure_text(availability: dict) -> str:
    """An availability section's failed ops as ``"class xN, ..."``."""
    failed = availability.get("ops_failed", {})
    return ", ".join(
        f"{cls} x{count}" for cls, count in sorted(failed.items())
    ) or "none"


@dataclass
class TrafficReport:
    """What one traffic run measured."""

    clients: int
    arrival: str
    seed: int
    ops_issued: int
    ops_completed: int
    errors: int
    elapsed_ms: float
    throughput_ops_per_s: float
    ops_by_kind: dict[str, int]
    latency: dict[str, float]
    latency_by_kind: dict[str, dict[str, float]]
    sync_latency: dict[str, float]
    forces: int
    empty_forces: int
    pressure_forces: int
    deferred_forces: int
    updates_absorbed: int
    batching_factor: float
    admission_waits: int
    commit_waits: int
    #: simulated ms commits spent blocked in the synchronous
    #: third-entry write-home, and how many entries the run crossed
    #: (0 ms in steady state with the background checkpointer).
    wal_stall_ms: float = 0.0
    wal_third_entries: int = 0
    clock: dict[str, float] = field(default_factory=dict)
    #: per-phase latency attribution (``repro traffic --attrib``);
    #: ``None`` when the run was not attributed.
    attribution: dict | None = None
    #: error-contract and (for chaos runs) fault/recovery availability
    #: section; ``None`` when the contract was inert.
    availability: dict | None = None
    schema_version: int = TRAFFIC_SCHEMA_VERSION

    def as_dict(self) -> dict:
        """JSON-ready dict with stable key order across runs."""
        return {
            "schema_version": self.schema_version,
            "clients": self.clients,
            "arrival": self.arrival,
            "seed": self.seed,
            "ops_issued": self.ops_issued,
            "ops_completed": self.ops_completed,
            "errors": self.errors,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "throughput_ops_per_s": round(self.throughput_ops_per_s, 3),
            "ops_by_kind": dict(sorted(self.ops_by_kind.items())),
            "latency": self.latency,
            "latency_by_kind": {
                kind: self.latency_by_kind[kind]
                for kind in sorted(self.latency_by_kind)
            },
            "sync_latency": self.sync_latency,
            "commit": {
                "forces": self.forces,
                "empty_forces": self.empty_forces,
                "pressure_forces": self.pressure_forces,
                "deferred_forces": self.deferred_forces,
                "updates_absorbed": self.updates_absorbed,
                "batching_factor": round(self.batching_factor, 3),
            },
            "wal": {
                "stall_ms": round(self.wal_stall_ms, 3),
                "third_entries": self.wal_third_entries,
            },
            "txn": {
                "admission_waits": self.admission_waits,
                "commit_waits": self.commit_waits,
            },
            "clock": {k: round(v, 3) for k, v in self.clock.items()},
            "attribution": self.attribution,
            "availability": self.availability,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`as_dict` as JSON."""
        return json.dumps(self.as_dict(), indent=indent)

    def summary_lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        lat = self.latency
        lines = [
            f"clients {self.clients}  arrival {self.arrival}  "
            f"seed {self.seed}",
            f"ops {self.ops_completed}/{self.ops_issued} completed, "
            f"{self.errors} errors in {self.elapsed_ms:.0f} ms sim "
            f"({self.throughput_ops_per_s:.1f} ops/s)",
            f"latency ms: p50 {lat.get('p50_ms', 0.0):.2f}  "
            f"p95 {lat.get('p95_ms', 0.0):.2f}  "
            f"p99 {lat.get('p99_ms', 0.0):.2f}  "
            f"mean {lat.get('mean_ms', 0.0):.2f}",
            f"commit: {self.forces} forces "
            f"({self.pressure_forces} pressure, "
            f"{self.deferred_forces} deferred), "
            f"batching factor {self.batching_factor:.2f}",
            f"txn: {self.admission_waits} admission waits, "
            f"{self.commit_waits} commit waits",
            f"log stall: {self.wal_stall_ms:.2f} ms write-home across "
            f"{self.wal_third_entries} third entries",
        ]
        if self.sync_latency.get("count"):
            sync = self.sync_latency
            lines.append(
                f"sync durable ms: p50 {sync.get('p50_ms', 0.0):.2f}  "
                f"p95 {sync.get('p95_ms', 0.0):.2f}  "
                f"count {sync['count']}"
            )
        if self.attribution is not None:
            lines.extend(report_lines(self.attribution))
        if self.availability is not None:
            avail = self.availability
            lines.append(
                f"availability: {avail.get('ops_ok', 0)} ok ops, "
                f"failures: {failure_text(avail)}; "
                f"{avail.get('retries', 0)} retries "
                f"(amplification {avail.get('retry_amplification', 1.0):.3f})"
            )
        return lines


class _Client:
    """Run state of one scripted client inside the event loop."""

    __slots__ = ("cid", "ops", "index", "issue_ms", "trace",
                 "attempts", "failed", "inflight", "token")

    def __init__(self, cid: int, ops: list[ClientOp]):
        self.cid = cid
        self.ops = ops
        self.index = 0
        self.issue_ms = 0.0
        self.trace = None       # OpTrace of the op in flight (attrib)
        self.attempts = 1       # attempts made on the op in flight
        self.failed = None      # error class when the op resolved failed
        self.inflight = False   # an op is issued and unresolved
        self.token = 0          # a crash bumps it: drops queued events


class TrafficEngine:
    """Drives one mounted FSD volume with ``config.clients``
    interleaved activity scripts.  FSD-specific: the engine holds the
    volume's transaction brackets open across simulated time, which
    only :class:`~repro.core.fsd.FSD` exposes."""

    def __init__(self, fs, config: TrafficConfig | None = None):
        self.fs = fs
        self.config = config or TrafficConfig()
        self.adapter = FsdAdapter(fs)
        self.obs = fs.obs
        #: latency-attribution recorder, when one is attached to the
        #: observer (``repro traffic --attrib``); ``None`` otherwise.
        self.recorder = getattr(self.obs, "attribution", None)
        if self.recorder is not None and self.recorder.clock is None:
            self.recorder.bind(fs)
        self._trace_start = 0
        mix = dict(DEFAULT_WEIGHTS)
        if self.config.weights:
            mix.update(self.config.weights)
        self._kinds = [k for k in
                       ("create", "write", "read", "delete", "list")
                       if mix.get(k, 0.0) > 0.0]
        if not self._kinds:
            raise FsError("operation mix has no positive weight")
        cum: list[float] = []
        total = 0.0
        for kind in self._kinds:
            total += mix[kind]
            cum.append(total)
        self._mix_cum = cum
        self._zipf = (
            ZipfSampler(self.config.population, self.config.zipf_theta)
            if self.config.population > 0
            else None
        )
        self.scripts = [self._generate(cid)
                        for cid in range(self.config.clients)]
        self._prepared = False
        # event loop state: (due_ms, seq, fn, client or None, token)
        self._heap: list[tuple] = []
        self._eventseq = 0
        self._parked = 0
        self.clients: list[_Client] = []
        # measurements
        self._lat_all: list[float] = []
        self._lat_by_kind: dict[str, list[float]] = {}
        self._sync_lat: list[float] = []
        self._ops_by_kind: dict[str, int] = {}
        self._completed = 0
        self._errors = 0
        # error-contract bookkeeping
        self._errors_by_class: dict[str, int] = {}
        self._retries = 0
        #: every resolved op: (finish_ms, kind, "ok" | error class,
        #: latency_ms) — the availability timeline's raw material.
        self._outcomes: list[tuple[float, str, str, float]] = []
        #: whether the report carries an ``availability`` section; a
        #: plain run's report has none while its contract is inert.
        self._reports_availability = self.config.contract_active

    # ------------------------------------------------------------------
    # script generation (content rng only — arrival-independent)
    # ------------------------------------------------------------------
    def _pop_name(self, rank: int) -> str:
        return f"pop/f{rank:04d}"

    def _client_dir(self, cid: int) -> str:
        return f"c{cid:04d}"

    def _sample_kind(self, crng: random.Random) -> str:
        roll = crng.random() * self._mix_cum[-1]
        return self._kinds[bisect_left(self._mix_cum, roll)]

    def _sample_size(self, crng: random.Random) -> int:
        # The paper's size mixture (§5.6), capped for dense runs.
        roll = crng.random()
        if roll < 0.50:
            size = crng.randint(256, 4_000)
        elif roll < 0.90:
            size = crng.randint(4_001, 20_000)
        else:
            size = crng.randint(20_001, 60_000)
        return min(size, self.config.max_file_bytes)

    def _think(self, trng: random.Random, index: int) -> float:
        cfg = self.config
        if cfg.mean_think_ms <= 0.0:
            return 0.0
        if cfg.arrival == "uniform":
            return trng.uniform(0.0, 2.0 * cfg.mean_think_ms)
        if cfg.arrival == "bursty":
            if index % BURST_SIZE == 0:
                return BURST_GAP_MS * trng.uniform(0.5, 1.5)
            return trng.uniform(0.5, 2.0)
        return trng.expovariate(1.0 / cfg.mean_think_ms)

    def _generate(self, cid: int) -> list[ClientOp]:
        """One client's script.  Content draws depend only on
        ``(seed, cid)``; think times also on the arrival process."""
        cfg = self.config
        crng = random.Random(f"{cfg.seed}:{cid}:content")
        trng = random.Random(f"{cfg.seed}:{cid}:think:{cfg.arrival}")
        live: list[str] = []       # this client's private files
        created = 0
        ops: list[ClientOp] = []
        for index in range(cfg.ops_per_client):
            think = self._think(trng, index)
            kind = self._sample_kind(crng)
            shared_roll = crng.random()
            use_shared = (
                self._zipf is not None
                and shared_roll < cfg.shared_fraction
            )
            if kind in ("read", "write") and not use_shared and not live:
                kind = "create"     # nothing private to touch yet
            if kind == "delete" and not live:
                kind = "create"
            sync = (
                kind in MUTATING
                and crng.random() < cfg.sync_fraction
            )
            if kind == "create":
                name = f"{self._client_dir(cid)}/f{created:05d}"
                created += 1
                live.append(name)
                ops.append(ClientOp(
                    kind, name, think,
                    size=self._sample_size(crng),
                    seed=crng.randrange(1 << 30),
                    sync=sync,
                ))
            elif kind == "write":
                name = (self._pop_name(self._zipf.sample(crng))
                        if use_shared
                        else live[crng.randrange(len(live))])
                ops.append(ClientOp(
                    kind, name, think,
                    size=min(crng.randint(256, 4_000),
                             cfg.max_file_bytes),
                    seed=crng.randrange(1 << 30),
                    sync=sync,
                ))
            elif kind == "read":
                name = (self._pop_name(self._zipf.sample(crng))
                        if use_shared
                        else live[crng.randrange(len(live))])
                ops.append(ClientOp(kind, name, think))
            elif kind == "delete":
                victim = live.pop(crng.randrange(len(live)))
                ops.append(ClientOp(kind, victim, think, sync=sync))
            else:  # list
                prefix = ("pop/" if use_shared
                          else self._client_dir(cid) + "/")
                ops.append(ClientOp(kind, prefix, think))
        return ops

    # ------------------------------------------------------------------
    # shared-population setup
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Create the shared population (idempotent) and settle."""
        if self._prepared or self.config.population == 0:
            self._prepared = True
            return
        rng = random.Random(f"{self.config.seed}:population")
        for rank in range(self.config.population):
            self._create(
                self._pop_name(rank),
                payload(self._sample_size(rng), seed=rank),
            )
        self.adapter.settle()
        self._prepared = True

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _schedule(self, due_ms: float, fn: Callable[[], None],
                  client: _Client | None = None) -> None:
        """Run ``fn`` at ``due_ms``; a continuation of ``client`` is
        dropped unrun if the client's token moved on meanwhile (a crash
        interrupted it, and the remounted volume is not its mount)."""
        self._eventseq += 1
        heapq.heappush(self._heap, (
            due_ms, self._eventseq, fn, client,
            client.token if client is not None else 0,
        ))

    def run(self) -> TrafficReport:
        """Interleave every client script to completion."""
        cfg = self.config
        clock = self.fs.clock
        self.prepare()
        if self.recorder is not None:
            self._trace_start = len(self.recorder.traces)
        start = self._counter_snapshot()
        start_ms = clock.now_ms
        issued = cfg.clients * cfg.ops_per_client
        self.obs.gauge("traffic.clients", cfg.clients)
        self.clients = [_Client(cid, self.scripts[cid])
                        for cid in range(cfg.clients)]
        for client in self.clients:
            self._schedule(
                start_ms + client.ops[0].think_ms,
                lambda c=client: self._arrive(c),
                client,
            )
        self._loop()
        if self.fs.txn.outstanding or self.fs.txn.waiting:
            raise FsError("traffic run ended with brackets outstanding")
        if cfg.settle:
            self.adapter.settle()
        return self._report(start, start_ms, issued)

    def _loop(self) -> None:
        """Drain the event heap (the chaos engine overrides this to
        catch :class:`~repro.errors.SimulatedCrash` and recover)."""
        while self._heap:
            self._pump()

    def _pump(self) -> None:
        """Pop one event, advance idle to its due time, run it unless
        it is a stale client continuation, and walk parked clients
        forward when it drained the heap."""
        clock = self.fs.clock
        due_ms, _, fn, client, token = heapq.heappop(self._heap)
        if due_ms > clock.now_ms:
            clock.advance_idle(due_ms - clock.now_ms)
        if client is None or client.token == token:
            fn()
        if not self._heap and self._parked:
            self._drain_parked()

    def run_serial(self) -> TrafficReport:
        """Execute client 0's script as a plain serial adapter loop —
        no brackets held, no events.  The reference the one-client
        engine must match bit for bit."""
        if self.config.clients != 1:
            raise FsError("run_serial is defined for exactly one client")
        cfg = self.config
        clock = self.fs.clock
        self.prepare()
        start = self._counter_snapshot()
        start_ms = clock.now_ms
        for op in self.scripts[0]:
            clock.advance_idle(op.think_ms)
            issue_ms = clock.now_ms
            try:
                if op.kind == "read":
                    self._serial_read(op)
                else:
                    self._body(op)
            except (FsError, DiskError) as exc:
                self._count_error(classify_error(exc))
            self._record(op, clock.now_ms - issue_ms)
        if cfg.settle:
            self.adapter.settle()
        return self._report(start, start_ms, cfg.ops_per_client)

    def _serial_read(self, op: ClientOp) -> None:
        handle = self.adapter.open(op.name)
        chunk = self.config.read_chunk_bytes
        offset = 0
        while offset < handle.byte_size:
            if offset:
                self.fs.clock.advance_idle(self.config.chunk_think_ms)
            length = min(chunk, handle.byte_size - offset)
            self.adapter.read_at(handle, offset, length)
            offset += length

    def _drain_parked(self) -> None:
        """The heap is empty but clients are parked on a commit: walk
        simulated time to the commit daemon's next wake-up (or force
        directly when no timer exists) until somebody is runnable."""
        clock = self.fs.clock
        guard = 0
        while not self._heap and self._parked:
            guard += 1
            if guard > 100_000:
                raise FsError("traffic engine stalled waking parked "
                              "clients")
            due = clock.next_timer_due_ms()
            if due is None:
                self.fs.coordinator.force()
                if not self._heap and self._parked:
                    raise FsError("no timer and a force freed no "
                                  "parked client")
                continue
            clock.advance_to(due)

    # ------------------------------------------------------------------
    # per-operation flow
    # ------------------------------------------------------------------
    def _arrive(self, client: _Client) -> None:
        client.issue_ms = self.fs.clock.now_ms
        client.attempts = 1
        client.failed = None
        client.inflight = True
        if self.recorder is not None:
            client.trace = self.recorder.op_issued(
                client.cid, client.ops[client.index], client.issue_ms
            )
        self._attempt(client)

    def _attempt(self, client: _Client) -> None:
        op = client.ops[client.index]
        clock = self.fs.clock
        # The pre-step every FSD entry point performs; running it here
        # keeps daemon forces at their serial times even while this
        # client is about to block in admission.
        clock.tick()
        self.fs.coordinator.check_pressure()
        if op.kind in MUTATING:
            if self.fs.degraded_reason is not None:
                # Degraded-mode contract: the volume is read-only and
                # says so — reject the write *before* it parks on
                # admission or holds a bracket open.
                self._fail(client, op, DegradedVolumeError(
                    self.fs.degraded_reason,
                    fault_site=self.fs.degraded_site,
                ))
                return
            self._attempt_mutation(client, op)
        elif op.kind == "read":
            self._start_read(client, op)
        else:
            if client.trace is not None:
                self.recorder.op_admitted(client.trace, clock.now_ms)
            try:
                self._measured(client, self.adapter.list, op.name)
            except (FsError, DiskError) as exc:
                self._fail(client, op, exc)
                return
            self._finish(client, op, clock.now_ms - client.issue_ms)

    def _measured(self, client: _Client, fn, *args):
        """``fn(*args)``, charged to ``client``'s op as one service
        segment when the run is attributed."""
        if client.trace is None:
            return fn(*args)
        with self.recorder.measure(client.trace):
            return fn(*args)

    def _attempt_mutation(self, client: _Client, op: ClientOp) -> None:
        txn = self.fs.txn
        clock = self.fs.clock
        if self.config.clients > 1:
            def waiter() -> None:
                self._parked -= 1
                self._schedule(self.fs.clock.now_ms,
                               lambda: self._attempt(client), client)
        else:
            # Uncontended: nobody else can free log space for us, so
            # blocking is meaningless — take the serial no-wait path.
            waiter = None
        trace = client.trace
        if not txn.begin_op(waiter):
            if trace is not None:
                self.recorder.op_blocked(trace, txn.block_reason())
            self._parked += 1
            return
        if trace is not None:
            self.recorder.op_admitted(trace, clock.now_ms)
        try:
            with txn.passthrough():
                self._measured(client, self._body, op)
        except (FsError, DiskError) as exc:
            if self._op_failed(client, op, exc, in_bracket=True):
                return
        latency = clock.now_ms - client.issue_ms
        if self.config.hold_ms > 0.0:
            self._schedule(
                clock.now_ms + self.config.hold_ms,
                lambda: self._close_bracket(client, op, latency),
                client,
            )
        else:
            self._close_bracket(client, op, latency)

    def _close_bracket(
        self, client: _Client, op: ClientOp, latency: float
    ) -> None:
        coord = self.fs.coordinator
        forces_before = coord.forces + coord.empty_forces
        if client.trace is not None:
            self.recorder.op_end(client.trace, self.fs.clock.now_ms)
        self.fs.txn.end_op()
        if not op.sync:
            self._finish(client, op, latency)
        elif coord.forces + coord.empty_forces > forces_before:
            # Our own end_op ran the deferred force, so the update is
            # already durable — no need to wait for the next one.
            self._durable(client, op, self.fs.clock.now_ms)
        else:
            self._parked += 1

            def durable(now_ms: float) -> None:
                self._parked -= 1
                self._durable(client, op, now_ms)

            self.fs.txn.await_commit(durable)

    def _durable(self, client: _Client, op: ClientOp,
                 now_ms: float) -> None:
        """A sync mutation's update reached the log at ``now_ms``."""
        if client.trace is not None:
            self.recorder.op_durable(client.trace, now_ms)
        self._sync_lat.append(now_ms - client.issue_ms)
        self.obs.observe("traffic.sync_ms", now_ms - client.issue_ms,
                         TRAFFIC_MS_BUCKETS)
        self._finish(client, op, now_ms - client.issue_ms)

    # Named steps of an operation body, which a subclass can extend
    # (the chaos engine records each one in its outcome oracle).
    def _create(self, name: str, data: bytes):
        return self.adapter.create(name, data)

    def _write(self, name: str, handle, data: bytes) -> None:
        self.adapter.write(handle, 0, data)

    def _delete(self, name: str) -> None:
        self.adapter.delete(name)

    def _body(self, op: ClientOp) -> None:
        if op.kind == "create":
            self._create(op.name, payload(op.size, op.seed))
        elif op.kind == "write":
            self._write(op.name, self.adapter.open(op.name),
                        payload(op.size, op.seed))
        elif op.kind == "delete":
            self._delete(op.name)
        elif op.kind == "list":
            self.adapter.list(op.name)
        else:
            raise FsError(f"no inline body for op kind {op.kind!r}")

    def _start_read(self, client: _Client, op: ClientOp) -> None:
        if client.trace is not None:
            self.recorder.op_admitted(client.trace, self.fs.clock.now_ms)
        try:
            handle = self._measured(client, self.adapter.open, op.name)
        except (FsError, DiskError) as exc:
            self._fail(client, op, exc)
            return
        self._read_chunk(client, op, handle, 0)

    def _read_chunk(self, client: _Client, op: ClientOp, handle,
                    offset: int) -> None:
        clock = self.fs.clock
        total = handle.byte_size
        if offset >= total:
            self._finish(client, op, clock.now_ms - client.issue_ms)
            return
        length = min(self.config.read_chunk_bytes, total - offset)
        try:
            self._measured(client, self.adapter.read_at, handle, offset,
                           length)
        except (FsError, DiskError) as exc:
            # A concurrent delete/recreate can invalidate the handle
            # mid-stream (like a Cedar client whose remote file
            # vanished), and under fault injection the media itself
            # can fail the read; a retry restarts the whole op from
            # open, never reusing the stale handle.
            self._fail(client, op, exc)
            return
        offset += length
        if offset >= total:
            self._finish(client, op, clock.now_ms - client.issue_ms)
            return
        self._schedule(
            clock.now_ms + self.config.chunk_think_ms,
            lambda: self._read_chunk(client, op, handle, offset),
            client,
        )

    # ------------------------------------------------------------------
    # the error contract: classification, backoff, retries
    # ------------------------------------------------------------------
    def _op_failed(self, client: _Client, op: ClientOp, error: Exception,
                   in_bracket: bool = False) -> bool:
        """One attempt of ``client``'s current op failed with ``error``.

        Returns True when the contract scheduled another attempt (the
        caller must not finish the op); False when the failure is final
        — the error class is recorded on the client and the caller
        resolves the op through its normal path (for a bracketed
        mutation that means the usual hold/close flow, so async and
        sync semantics stay identical to a successful op's).
        """
        cfg = self.config
        cls = classify_error(error)
        if cls == "retryable" and cfg.max_retries > 0:
            if client.attempts <= cfg.max_retries:
                delay = self._backoff_ms(client)
                resume = self.fs.clock.now_ms + delay
                budget_ok = (
                    cfg.deadline_ms is None
                    or resume - client.issue_ms <= cfg.deadline_ms
                )
                if budget_ok:
                    if in_bracket:
                        # Leave the bracket before backing off: a
                        # failed attempt must not sit on the log's
                        # admission budget while it sleeps.
                        self.fs.txn.end_op()
                    client.attempts += 1
                    self._retries += 1
                    self.obs.count("retry.attempts")
                    self.obs.count(f"retry.attempts.{op.kind}")
                    self.obs.observe("retry.backoff_ms", delay,
                                     TRAFFIC_MS_BUCKETS)
                    self._schedule(
                        resume, lambda: self._retry_fire(client), client
                    )
                    return True
                cls = "timeout"
            else:
                self.obs.count("retry.exhausted")
        client.failed = cls
        self._count_error(cls)
        if client.trace is not None:
            self.recorder.op_error(client.trace, error_class=cls)
        return False

    def _fail(self, client: _Client, op: ClientOp, error: Exception) -> None:
        """An unbracketed attempt failed: resolve the op as failed
        unless the contract scheduled another attempt."""
        if not self._op_failed(client, op, error):
            self._finish(client, op, self.fs.clock.now_ms - client.issue_ms)

    def _count_error(self, cls: str) -> None:
        self._errors += 1
        self._errors_by_class[cls] = self._errors_by_class.get(cls, 0) + 1
        self.obs.count("traffic.errors")
        self.obs.count(f"traffic.errors.{cls}")

    def _backoff_ms(self, client: _Client) -> float:
        """Capped exponential backoff with deterministic jitter: the
        RNG is keyed by (seed, client, op index, attempt), so the same
        seed replays the same waits regardless of interleaving."""
        backoff = min(
            RETRY_CAP_MS, RETRY_BASE_MS * (2.0 ** (client.attempts - 1))
        )
        rng = random.Random(
            f"{self.config.seed}:{client.cid}:retry:{client.index}:"
            f"{client.attempts}"
        )
        return backoff * (1.0 - RETRY_JITTER * rng.random())

    def _retry_fire(self, client: _Client) -> None:
        """The backoff elapsed: start the next attempt from scratch
        (reopen by name — never reuse a pre-failure handle)."""
        if client.trace is not None:
            self.recorder.op_retry(client.trace, self.fs.clock.now_ms)
        self._attempt(client)

    def _finish(self, client: _Client, op: ClientOp,
                latency: float) -> None:
        if client.trace is not None:
            self.recorder.op_finished(client.trace, latency)
            client.trace = None
        self._outcomes.append(
            (self.fs.clock.now_ms, op.kind, client.failed or "ok",
             latency)
        )
        client.failed = None
        client.attempts = 1
        client.inflight = False
        self._record(op, latency)
        client.index += 1
        if client.index >= len(client.ops):
            return
        next_op = client.ops[client.index]
        self._schedule(
            self.fs.clock.now_ms + next_op.think_ms,
            lambda: self._arrive(client),
            client,
        )

    def _record(self, op: ClientOp, latency: float) -> None:
        self._completed += 1
        self._lat_all.append(latency)
        self._lat_by_kind.setdefault(op.kind, []).append(latency)
        self._ops_by_kind[op.kind] = self._ops_by_kind.get(op.kind, 0) + 1
        if self.obs.enabled:
            self.obs.count("traffic.ops")
            self.obs.observe("traffic.op_ms", latency,
                             TRAFFIC_MS_BUCKETS)
            self.obs.observe(f"traffic.op_ms.{op.kind}", latency,
                             TRAFFIC_MS_BUCKETS)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _availability(self) -> dict | None:
        """The report's ``availability`` section: the error contract,
        ok and failed ops by class, retries and retry amplification
        (``None`` unless the run reports availability)."""
        if not self._reports_availability:
            return None
        cfg = self.config
        ok_ops = sum(
            1 for _, _, outcome, _ in self._outcomes if outcome == "ok"
        )
        return {
            "contract": {
                "max_retries": cfg.max_retries,
                "retry_base_ms": RETRY_BASE_MS,
                "retry_cap_ms": RETRY_CAP_MS,
                "deadline_ms": cfg.deadline_ms,
            },
            "ops_ok": ok_ops,
            "ops_failed": dict(sorted(self._errors_by_class.items())),
            "retries": self._retries,
            "retry_amplification": round(
                (self._completed + self._retries) / self._completed, 4
            ) if self._completed else 0.0,
        }

    def _counter_snapshot(self) -> dict[str, float]:
        coord = self.fs.coordinator
        txn = self.fs.txn
        wal = self.fs.wal
        return {
            "forces": coord.forces,
            "empty_forces": coord.empty_forces,
            "pressure_forces": coord.pressure_forces,
            "deferred_forces": coord.deferred_forces,
            "updates_absorbed": coord.updates_absorbed,
            "admission_waits": txn.admission_waits,
            "commit_waits": txn.commit_waits,
            "wal_stall_ms": wal.stall_ms,
            "wal_third_entries": wal.third_entries,
        }

    def _report(self, start: dict[str, int], start_ms: float,
                issued: int) -> TrafficReport:
        end = self._counter_snapshot()
        delta = {key: end[key] - start[key] for key in start}
        elapsed = self.fs.clock.now_ms - start_ms
        forces = delta["forces"]
        absorbed = delta["updates_absorbed"]
        batching = absorbed / forces if forces else 0.0
        throughput = (self._completed / (elapsed / 1000.0)
                      if elapsed > 0 else 0.0)
        attribution = None
        if self.recorder is not None:
            finished = [
                t for t in self.recorder.traces[self._trace_start:]
                if t.finish_ms is not None
            ]
            attribution = build_report(
                finished, slo_ms=self.config.slo_ms
            )
        return TrafficReport(
            clients=self.config.clients,
            arrival=self.config.arrival,
            seed=self.config.seed,
            ops_issued=issued,
            ops_completed=self._completed,
            errors=self._errors,
            elapsed_ms=elapsed,
            throughput_ops_per_s=throughput,
            ops_by_kind=dict(self._ops_by_kind),
            latency=_latency_summary(self._lat_all),
            latency_by_kind={
                kind: _latency_summary(values)
                for kind, values in self._lat_by_kind.items()
            },
            sync_latency=_latency_summary(self._sync_lat),
            forces=forces,
            empty_forces=delta["empty_forces"],
            pressure_forces=delta["pressure_forces"],
            deferred_forces=delta["deferred_forces"],
            updates_absorbed=absorbed,
            batching_factor=batching,
            admission_waits=delta["admission_waits"],
            commit_waits=delta["commit_waits"],
            wal_stall_ms=delta["wal_stall_ms"],
            wal_third_entries=int(delta["wal_third_entries"]),
            clock=self.fs.clock.snapshot(),
            attribution=attribution,
            availability=self._availability(),
        )
