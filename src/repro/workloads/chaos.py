"""Chaos under load: fault injection inside the live traffic engine.

The crash-point explorer is exhaustive over single crashes.  What it
does not answer is the paper's operational claim — that a Cedar file
server keeps *serving* through media decay and machine crashes,
clients see typed errors rather than hangs, and recovery is "a minute
or so" (§1) rather than a multi-hour scavenge.  The chaos engine
closes that gap: it drives the multi-client traffic engine while a
weighted fault mix (:data:`FAULT_KINDS`, past the paper's single-fault
model) lands on the platter between operations, machine crashes fire
*mid-I/O* via the armed crash plan, and — on a mirrored volume — an
entire shadow unit dies and is later resilvered.  A named profile
(:data:`PROFILES`, ``repro chaos --profile``) fixes a campaign's
shape: ``churn`` is one client creating and deleting small files on
the crash explorer's drive.

On top of the traffic engine's client error contract (typed error
classes, capped-backoff retries, deadlines, degraded fast-fail) the
chaos engine adds what only a crash needs:

* a :class:`~repro.errors.SimulatedCrash` unwinds to the event loop,
  which crashes the volume (discarding every parked waiter), tells the
  oracle which ops the crash lost, bumps the token of every
  interrupted client (the base event loop then drops their pre-crash
  hold timers, read chunks and retries), remounts, and re-drives each
  interrupted client through the ordinary retry path with a typed
  :class:`~repro.errors.NotMounted` failure;
* if the remount itself refuses (the volume is past mounting), the
  run flips to **volume-lost** mode: every remaining operation
  resolves immediately with a ``degraded`` error — clients never hang
  — and the campaign ends in the salvage oracle.

The oracle is :class:`~repro.crashcheck.outcome.OutcomeOracle`.  An
op that raised partway, was cut by a crash, or sat past the committed
watermark when a crash hit — the final power-off included — is
*pending*: a committed file may be missing only where some per-name
prefix of its pending ops leaves it missing.  FSD logs *metadata*
only, so a file's data sectors are not crash-atomic: a name an
in-place write was cut on is **torn**.  Everything else must read back
exactly (or a historical value, or fail with an explicit error).
Silent corruption — junk content or a vanished file on a mount that
claims health, with no explicit error anywhere in its story — is the
one verdict that fails a campaign.

Everything is deterministic: faults come from one seeded RNG, crashes
from deterministic I/O countdowns, backoff jitter from per-(client,
op, attempt) keyed RNGs.  The same seed replays the same campaign to
a bit-identical disk, metrics snapshot, and report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.crashcheck.outcome import VERDICTS, Outcome, OutcomeOracle
from repro.crashcheck.scenarios import CRASH_SCALE
from repro.crashcheck.workload import Op
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    FsError,
    NotMounted,
    ReproError,
    SimulatedCrash,
)
from repro.harness.adapters import FsdAdapter
from repro.harness.fingerprint import fingerprint
from repro.harness.scenarios import SMALL
from repro.obs import Observer
from repro.workloads.traffic import (
    TrafficConfig,
    TrafficEngine,
    TrafficReport,
    failure_text,
)

__all__ = [
    "ChaosConfig",
    "ChaosEngine",
    "ChaosReport",
    "PROFILES",
    "chaos_bench_doc",
    "run_chaos",
]

#: report schema version for ``BENCH_chaos.json`` / ``--json`` output.
CHAOS_SCHEMA_VERSION = 1

#: an armed crash fires after 1 to CRASH_IO_WINDOW - 1 more I/Os.
CRASH_IO_WINDOW = 40
#: simulated ms from losing a mirror unit (or remounting with one
#: lost) to resilvering it.
RESILVER_DELAY_MS = 2_500.0
#: service is "restored" after a recovery once SLO_WINDOW consecutive
#: ops finish ok within the SLO: ``TrafficConfig.slo_ms``, else
#: DEFAULT_SLO_MS.
SLO_WINDOW = 5
DEFAULT_SLO_MS = 50.0


#: fault kinds and their selection weights.  ``nt_pair`` destroys both
#: home copies of one name-table page — deliberately past the paper's
#: single-fault model, so the escalation ladder's degraded rung and the
#: salvager actually get exercised.
FAULT_KINDS = (
    ("permanent", 0.30),
    ("transient", 0.20),
    ("latent", 0.15),
    ("wild_write", 0.20),
    ("nt_pair", 0.15),
)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of the fault campaign riding on one traffic run."""

    faults: int = 60                 # total faults to inject
    fault_interval_ms: float = 120.0  # simulated ms between injections
    crash_cycles: int = 2            # mid-run crash/recover cycles
    mirror: bool = False             # run on a shadowed pair

    def __post_init__(self) -> None:
        if self.faults < 0:
            raise FsError("faults must be >= 0")
        if self.fault_interval_ms <= 0.0:
            raise FsError("fault_interval_ms must be positive")
        if self.crash_cycles < 0:
            raise FsError("crash_cycles must be >= 0")

    @property
    def crash_points(self) -> frozenset[int]:
        """Fault counts at which a crash is armed, spaced evenly."""
        if not self.crash_cycles or not self.faults:
            return frozenset()
        spacing = self.faults // (self.crash_cycles + 1)
        if spacing == 0:
            return frozenset()
        return frozenset(
            spacing * (cycle + 1) for cycle in range(self.crash_cycles)
        )

    @property
    def mirror_fail_point(self) -> int | None:
        """Fault count at which the shadow unit dies (mirror runs)."""
        if not self.mirror or not self.faults:
            return None
        return max(1, self.faults // 3)


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
def nt_page(layout, rng: random.Random) -> int:
    """A name-table page number, biased toward the low pages a small
    volume actually uses (uniform hits over thousands of blank pages
    would never stress anything)."""
    nt_pages = layout.params.nt_pages
    if rng.random() < 0.6:
        return rng.randrange(min(32, nt_pages))
    return rng.randrange(nt_pages)


def pick_fault_kind(rng: random.Random) -> str:
    """One kind from :data:`FAULT_KINDS` by weight."""
    roll = rng.random()
    cumulative = 0.0
    kind = FAULT_KINDS[-1][0]
    for name, weight in FAULT_KINDS:
        cumulative += weight
        if roll < cumulative:
            kind = name
            break
    return kind


def fault_target(
    layout, leader_addrs: dict, rng: random.Random
) -> int:
    """Pick a sector for a damage fault: name-table copies, the log,
    or a live file's sectors — the places recovery has to care about.
    ``leader_addrs`` maps live (name, version) pairs to their leader
    sectors."""
    choice = rng.random()
    if choice < 0.3:
        return layout.nt_page_addresses(nt_page(layout, rng))[0]
    if choice < 0.5 and not layout.params.single_nt_copy:
        return layout.nt_page_addresses(nt_page(layout, rng))[1]
    if choice < 0.75:
        return layout.log_start + rng.randrange(
            3 + layout.params.log_record_sectors
        )
    if leader_addrs and choice < 0.9:
        return rng.choice(sorted(leader_addrs.values()))
    area = layout.big_area if rng.random() < 0.5 else layout.small_area
    return area.start + rng.randrange(area.count)


def wild_write_target(
    layout, leader_addrs: dict, rng: random.Random
) -> int:
    """Wild writes model software scribbling over mapped metadata: they
    land only on name-table extents or leader sectors (paper §5.3's
    read-protection motivation)."""
    if leader_addrs and rng.random() < 0.4:
        return rng.choice(sorted(leader_addrs.values()))
    copy = 0 if layout.params.single_nt_copy or rng.random() < 0.5 else 1
    return layout.nt_page_addresses(nt_page(layout, rng))[copy]


def inject_fault(
    disk: SimDisk, layout, leader_addrs: dict, rng: random.Random
) -> str:
    """Inject one weighted fault against ``disk``; returns its kind."""
    kind = pick_fault_kind(rng)
    if kind == "permanent":
        disk.faults.damage(
            fault_target(layout, leader_addrs, rng),
            count=rng.choice((1, 2)),
        )
    elif kind == "transient":
        disk.faults.damage_transient(
            fault_target(layout, leader_addrs, rng),
            failures=rng.choice((1, 2)),
        )
    elif kind == "latent":
        disk.faults.damage_latent(fault_target(layout, leader_addrs, rng))
    elif kind == "nt_pair":
        page_no = nt_page(layout, rng)
        address_a, address_b = layout.nt_page_addresses(page_no)
        disk.faults.damage(address_a)
        if not layout.params.single_nt_copy:
            disk.faults.damage(address_b)
    else:  # wild_write
        junk = bytes(rng.getrandbits(8) for _ in range(48))
        disk.write(wild_write_target(layout, leader_addrs, rng), [junk])
    return kind


class ChaosEngine(TrafficEngine):
    """The traffic engine with a fault campaign and crash recovery."""

    def __init__(
        self,
        disk: SimDisk,
        fs: FSD,
        config: TrafficConfig,
        chaos: ChaosConfig,
    ):
        super().__init__(fs, config)
        self.disk = disk
        self.chaos = chaos
        self._chaos_rng = random.Random(f"{config.seed}:chaos")
        # fault campaign state
        self._faults_injected = 0
        self._faults_by_kind: dict[str, int] = {}
        self._crashes = 0
        self._recoveries: list[dict] = []
        self._mirror_events: list[dict] = []
        self._volume_lost = False
        self._lost_reason: str | None = None
        self._run_start_ms = 0.0
        # Faults make availability worth reporting in every campaign,
        # not only when the retry knobs are set.
        self._reports_availability = True
        self.oracle = OutcomeOracle()
        self.oracle.watch(fs)

    def remount(self, disk: SimDisk) -> FSD:
        """Mount ``disk`` the way the crashed volume was mounted, so
        recovery comes back with the same cache/checkpoint posture."""
        return FSD.mount(disk, self.fs.params, self.obs, self.fs.options)

    # ------------------------------------------------------------------
    # body steps, recorded in the oracle (the population included)
    # ------------------------------------------------------------------
    # A step that raises (an explicit error, or a crash cutting it)
    # may or may not have taken effect: the oracle keeps it pending.
    def _create(self, name, data):
        # Record the payload *before* the call: a create that fails
        # after materializing is then still a known content.
        self.oracle.offered(name, data)
        try:
            handle = super()._create(name, data)
        except ReproError:
            # The adapter creates with keep 2, FSD's default.
            self.oracle.raised(
                Op("create", name, data, keep=FSD.DEFAULT_KEEP)
            )
            raise
        self.oracle.created(name, data, handle.props)
        return handle

    def _write(self, name, handle, data) -> None:
        old = self.oracle.live(name) or b""
        result = data + old[len(data):]
        self.oracle.offered(name, result)
        try:
            super()._write(name, handle, data)
        except ReproError:
            self.oracle.raised(Op("write", name, result))
            raise
        self.oracle.wrote(name, result)

    def _delete(self, name) -> None:
        try:
            super()._delete(name)
        except ReproError:
            self.oracle.raised(Op("delete", name))
            raise
        self.oracle.deleted(name)

    # ------------------------------------------------------------------
    # crashes and the lost volume
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while self._heap:
            try:
                self._pump()
            except SimulatedCrash:
                self._recover()

    def _attempt(self, client) -> None:
        if self._volume_lost:
            error = DegradedVolumeError(self._lost_reason)
            self._fail(client, client.ops[client.index], error)
            return
        super()._attempt(client)

    # ------------------------------------------------------------------
    # the fault campaign tick
    # ------------------------------------------------------------------
    def run(self) -> TrafficReport:
        self.prepare()
        self._run_start_ms = self.fs.clock.now_ms
        if self.chaos.faults:
            self._schedule(
                self._run_start_ms + self.chaos.fault_interval_ms,
                self._tick,
            )
        return super().run()

    def _tick(self) -> None:
        if self._volume_lost or self._faults_injected >= self.chaos.faults:
            return
        clock = self.fs.clock
        # Reschedule *before* injecting: a wild write can trip an armed
        # crash mid-tick, and the campaign must survive its own fault.
        if self._faults_injected + 1 < self.chaos.faults:
            self._schedule(
                clock.now_ms + self.chaos.fault_interval_ms, self._tick
            )
        clock.tick()
        kind = inject_fault(
            self.disk, self.fs.layout, self.oracle.leader_addrs,
            self._chaos_rng,
        )
        self._faults_injected += 1
        self._faults_by_kind[kind] = self._faults_by_kind.get(kind, 0) + 1
        self.obs.count("chaos.faults")
        self.obs.count(f"chaos.faults.{kind}")
        if (
            self._faults_injected in self.chaos.crash_points
            and self.disk.faults.crash_plan is None
        ):
            self.disk.faults.arm_crash(
                after_ios=self._chaos_rng.randrange(1, CRASH_IO_WINDOW)
            )
            self.obs.count("chaos.crashes_armed")
        if self._faults_injected == self.chaos.mirror_fail_point:
            self._fail_mirror()

    def _fail_mirror(self) -> None:
        if not isinstance(self.disk, MirroredDisk) or self.disk.degraded:
            return
        clock = self.fs.clock
        self.disk.massive_failure("b")
        self.obs.count("chaos.mirror_failures")
        self._mirror_events.append(
            {"event": "unit_b_lost", "at_ms": round(clock.now_ms, 3)}
        )
        self._schedule(clock.now_ms + RESILVER_DELAY_MS, self._resilver)

    def _resilver(self) -> None:
        if (self._volume_lost or not isinstance(self.disk, MirroredDisk)
                or not self.disk.degraded):
            return
        copied = self.disk.resilver()
        self.obs.count("chaos.resilvers")
        self._mirror_events.append(
            {
                "event": "resilvered",
                "at_ms": round(self.fs.clock.now_ms, 3),
                "sectors": copied,
            }
        )

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        clock = self.fs.clock
        at_ms = clock.now_ms
        self._crashes += 1
        self.obs.count("chaos.crashes")
        self.fs.crash()
        # The armed plan *was* this crash; it dies with the machine.
        self.disk.faults.disarm_crash()
        self._parked = 0
        self.oracle.crashed()
        interrupted = [c for c in self.clients if c.inflight]
        for client in interrupted:
            client.token += 1
        try:
            fs = self.remount(self.disk)
        except (DegradedVolumeError, CorruptMetadata) as error:
            fs = None
            self._volume_lost = True
            self._lost_reason = str(error)
            self.oracle.honesty_flag = True
            self.obs.count("chaos.volume_lost")
        else:
            self.fs = fs
            self.adapter = FsdAdapter(fs)
            if self.recorder is not None:
                self.recorder.bind(fs)
            self.oracle.watch(fs)
        self._recoveries.append(
            {
                "at_ms": at_ms,
                "recover_ms": clock.now_ms - at_ms,
                "mounted": int(fs is not None),
                "records_replayed": (
                    0 if fs is None else fs.mount_report.log_records_replayed
                ),
            }
        )
        if fs is None:
            # Volume-lost mode: a fresh attempt resolves it degraded.
            for client in interrupted:
                self._attempt(client)
            return
        self.oracle.resync_leaders(fs)
        if isinstance(self.disk, MirroredDisk) and self.disk.degraded:
            self._schedule(clock.now_ms + RESILVER_DELAY_MS, self._resilver)
        # Re-drive every interrupted client through the contract: the
        # crash is a retryable, *typed* failure, never a hang.
        for client in interrupted:
            self._fail(client, client.ops[client.index],
                       NotMounted("crash interrupted the operation"))

    # ------------------------------------------------------------------
    # availability reporting
    # ------------------------------------------------------------------
    def _availability(self) -> dict:
        section = super()._availability()
        section["faults"] = {
            "injected": self._faults_injected,
            "by_kind": dict(sorted(self._faults_by_kind.items())),
            "injector": self.disk.faults.counters(),
        }
        section["crashes"] = self._crashes
        section["volume_lost"] = self._volume_lost
        section["recoveries"] = [
            {
                "at_ms": round(entry["at_ms"], 3),
                "recover_ms": round(entry["recover_ms"], 3),
                "mounted": entry["mounted"],
                "records_replayed": entry["records_replayed"],
                "time_to_restored_slo_ms": self._ttr_slo(entry["at_ms"]),
            }
            for entry in self._recoveries
        ]
        section["epochs"] = self._epochs()
        section["goodput"] = self._goodput_timeline()
        if self._mirror_events:
            section["mirror"] = list(self._mirror_events)
        return section

    def _ttr_slo(self, at_ms: float) -> float | None:
        """Simulated ms from a recovery until :data:`SLO_WINDOW`
        consecutive ops finished ok within the SLO; None when the run
        ended before service was restored to SLO."""
        slo_ms = (DEFAULT_SLO_MS if self.config.slo_ms is None
                  else self.config.slo_ms)
        streak = 0
        for finish_ms, _, outcome, latency in self._outcomes:
            if finish_ms < at_ms:
                continue
            if outcome == "ok" and latency <= slo_ms:
                streak += 1
                if streak >= SLO_WINDOW:
                    return round(finish_ms - at_ms, 3)
            else:
                streak = 0
        return None

    def _epochs(self) -> list[dict]:
        """Per-epoch (between crashes) op counts and failures."""
        bounds = (
            [self._run_start_ms]
            + [entry["at_ms"] for entry in self._recoveries]
            + [self.fs.clock.now_ms]
        )
        epochs = []
        for i in range(len(bounds) - 1):
            low, high = bounds[i], bounds[i + 1]
            last = i == len(bounds) - 2
            ops = [
                o for o in self._outcomes
                if low <= o[0] and (o[0] < high or last)
            ]
            failed = sum(1 for o in ops if o[2] != "ok")
            epochs.append(
                {
                    "start_ms": round(low, 3),
                    "end_ms": round(high, 3),
                    "ops": len(ops),
                    "failed": failed,
                }
            )
        return epochs

    def _goodput_timeline(self, buckets: int = 12) -> list[dict]:
        if not self._outcomes:
            return []
        start = self._run_start_ms
        end = max(o[0] for o in self._outcomes)
        span = max(end - start, 1e-9)
        rows = [
            {
                "t_ms": round(start + span * (i + 1) / buckets, 3),
                "ok": 0,
                "failed": 0,
            }
            for i in range(buckets)
        ]
        for finish_ms, _, outcome, _ in self._outcomes:
            index = min(
                buckets - 1, int((finish_ms - start) / span * buckets)
            )
            rows[index]["ok" if outcome == "ok" else "failed"] += 1
        return rows


# ----------------------------------------------------------------------
# campaign report
# ----------------------------------------------------------------------
@dataclass
class ChaosReport(Outcome):
    """One chaos campaign: the traffic run, the fault story, and the
    oracle's verdict."""

    seed: int
    clients: int
    ops_issued: int
    ops_completed: int
    faults_injected: int
    faults_by_kind: dict[str, int]
    crashes: int
    #: crashes the campaign armed; one whose plan still counted I/Os
    #: when the traffic drained died with the final power-off unfired.
    crashes_armed: int
    volume_lost: bool
    traffic: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    schema_version: int = CHAOS_SCHEMA_VERSION

    @property
    def hung_ops(self) -> int:
        """Issued ops that never resolved — the contract demands 0."""
        return self.ops_issued - self.ops_completed

    @property
    def ok(self) -> bool:
        return (
            not self.silent_corruptions
            and self.hung_ops == 0
            and self.verdict in VERDICTS
        )

    def as_dict(self) -> dict:
        """The campaign as a JSON-ready document (``--json`` output)."""
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "clients": self.clients,
            "ops_issued": self.ops_issued,
            "ops_completed": self.ops_completed,
            "hung_ops": self.hung_ops,
            "faults_injected": self.faults_injected,
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "crashes": self.crashes,
            "crashes_armed": self.crashes_armed,
            "volume_lost": self.volume_lost,
            "verdict": self.verdict,
            "files_expected": self.files_expected,
            "files_verified": self.files_verified,
            "files_honestly_lost": self.files_honestly_lost,
            "salvage_files_expected": self.salvage_files_expected,
            "salvage_files_verified": self.salvage_files_verified,
            "salvage_files_honestly_lost": self.salvage_files_honestly_lost,
            "silent_corruptions": list(self.silent_corruptions),
            "salvage": self.salvage_summary,
            "ok": self.ok,
            "traffic": self.traffic,
            "fingerprint": self.fingerprint,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`as_dict`; bit-identical for equal seeds."""
        return json.dumps(self.as_dict(), indent=indent)

    def summary_lines(self) -> list[str]:
        """Human-readable campaign summary (the CLI's default output)."""
        avail = self.traffic.get("availability") or {}
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos seed={self.seed}: {self.clients} clients, "
            f"{self.faults_injected} faults, {self.crashes} of "
            f"{self.crashes_armed} armed crashes fired — {status}",
            f"ops {self.ops_completed}/{self.ops_issued} resolved "
            f"({self.hung_ops} hung), failures: {failure_text(avail)}, "
            f"{avail.get('retries', 0)} retries",
            f"verdict {self.verdict}: {self.files_verified}/"
            f"{self.files_expected} files verified, "
            f"{self.files_honestly_lost} honestly lost, "
            f"{len(self.silent_corruptions)} silent corruptions",
        ]
        if self.verdict == "degraded":
            lines.append(
                f"salvaged copy: {self.salvage_files_verified}/"
                f"{self.salvage_files_expected} files verified, "
                f"{self.salvage_files_honestly_lost} honestly lost"
            )
        for recovery in avail.get("recoveries", []):
            ttr = recovery.get("time_to_restored_slo_ms")
            ttr_text = f"{ttr:.0f} ms" if ttr is not None else "not restored"
            lines.append(
                f"  crash at {recovery['at_ms']:.0f} ms: recovered in "
                f"{recovery['recover_ms']:.1f} ms "
                f"({recovery['records_replayed']} records), "
                f"SLO back in {ttr_text}"
            )
        for event in avail.get("mirror", []):
            lines.append(
                f"  mirror: {event['event']} at {event['at_ms']:.0f} ms"
            )
        if self.salvage_summary:
            lines.append(f"salvage: {self.salvage_summary}")
        for finding in self.silent_corruptions:
            lines.append(f"SILENT CORRUPTION: {finding}")
        return lines


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def run_chaos(
    traffic: TrafficConfig | None = None,
    chaos: ChaosConfig | None = None,
    *,
    geometry: DiskGeometry | None = None,
    params: VolumeParams | None = None,
    observer=None,
    **mount,
) -> ChaosReport:
    """One seeded chaos campaign: traffic + faults + final oracle, on
    the :data:`~repro.harness.scenarios.SMALL` drive unless told
    otherwise.  ``mount`` is what :meth:`FSD.mount` takes
    (``options=TUNED``, ``data_cache_pages=64``); every post-crash remount
    and the final verification mount reuse what it resolved to."""
    traffic = traffic or TrafficConfig(max_retries=4)
    chaos = chaos or ChaosConfig()
    if traffic.settle:
        # The engine must never force a volume that may be degraded or
        # lost; the final classification settles things its own way.
        traffic = replace(traffic, settle=False)
    geometry = geometry or SMALL.geometry
    params = params or SMALL.fsd_params
    disk_cls = MirroredDisk if chaos.mirror else SimDisk
    disk = disk_cls(geometry=geometry)
    FSD.format(disk, params)
    obs = observer if observer is not None else Observer()
    fs = FSD.mount(disk, params, obs, **mount)
    engine = ChaosEngine(disk, fs, traffic, chaos)
    traffic_report = engine.run()
    if not engine._volume_lost:
        engine.fs.crash()
    # A still-armed crash died with the final power-off; the oracle's
    # classification mounts must not trip over it.
    disk.faults.disarm_crash()
    outcome = engine.oracle.classify(
        disk, None if engine._volume_lost else engine.remount, params
    )
    report = ChaosReport(
        seed=traffic.seed,
        clients=traffic.clients,
        ops_issued=traffic_report.ops_issued,
        ops_completed=traffic_report.ops_completed,
        faults_injected=engine._faults_injected,
        faults_by_kind=dict(engine._faults_by_kind),
        crashes=engine._crashes,
        crashes_armed=int(obs.metrics.counter("chaos.crashes_armed").value),
        volume_lost=engine._volume_lost,
        traffic=traffic_report.as_dict(),
        **vars(outcome),
    )
    report.fingerprint = fingerprint(disk, obs).as_dict()
    return report


def churn_profile(seed: int) -> dict:
    """``run_chaos`` arguments of the ``churn`` profile: one client
    creating and deleting small files on the crash explorer's drive
    under 18 faults and three armed crashes.  With no in-place write in
    the mix, no name may end torn."""
    return {
        "traffic": TrafficConfig(
            clients=1,
            ops_per_client=30,
            seed=seed,
            population=0,
            weights={
                "create": 0.55, "delete": 0.2,
                "write": 0.0, "read": 0.0, "list": 0.0,
            },
            sync_fraction=0.25,
            max_file_bytes=2_000,
            mean_think_ms=100.0,
            max_retries=0,
            settle=False,
        ),
        "chaos": ChaosConfig(
            faults=18, fault_interval_ms=100.0, crash_cycles=3
        ),
        "geometry": CRASH_SCALE.geometry,
        "params": CRASH_SCALE.fsd_params,
    }


#: ``repro chaos --profile NAME``: a seed -> ``run_chaos`` arguments.
PROFILES = {"churn": churn_profile}


def chaos_bench_doc(report: ChaosReport) -> dict:
    """Flat gating document for ``BENCH_chaos.json``.  Key names are
    chosen for the bench-diff direction table: ``goodput_ops_per_s``
    gates higher-is-better, ``*_ms`` and ``errors_per_1k_ops`` gate
    lower-is-better, counts stay neutral.  A mean over nothing — no
    recovery, or none that restored the SLO — is None, which bench diff
    reports as a vanished metric, never as 0 ms."""
    avail = report.traffic.get("availability") or {}
    elapsed_ms = report.traffic.get("elapsed_ms", 0.0)
    ok_ops = avail.get("ops_ok", report.ops_completed)
    goodput = (
        ok_ops / (elapsed_ms / 1000.0) if elapsed_ms > 0 else 0.0
    )
    failed = sum(avail.get("ops_failed", {}).values())
    errors_per_1k = (
        1000.0 * failed / report.ops_completed
        if report.ops_completed
        else 0.0
    )
    recoveries = avail.get("recoveries", [])
    ttrs = [
        entry["time_to_restored_slo_ms"]
        for entry in recoveries
        if entry.get("time_to_restored_slo_ms") is not None
    ]
    #: crash -> ``FSD.mount`` returned: what recovery itself costs,
    #: without the SLO streak's dependence on which faults land next.
    recover_ms = [entry["recover_ms"] for entry in recoveries]
    return {
        "schema_version": CHAOS_SCHEMA_VERSION,
        "seed": report.seed,
        "clients": report.clients,
        "faults_injected": report.faults_injected,
        "crashes": report.crashes,
        "verdict": report.verdict,
        "goodput_ops_per_s": round(goodput, 3),
        "errors_per_1k_ops": round(errors_per_1k, 3),
        "retry_amplification": avail.get("retry_amplification", 1.0),
        "mean_recover_ms": (
            round(sum(recover_ms) / len(recover_ms), 3)
            if recover_ms else None
        ),
        "mean_time_to_restored_slo_ms": (
            round(sum(ttrs) / len(ttrs), 3) if ttrs else None
        ),
        "files_verified_share": (
            round(report.files_verified / report.files_expected, 4)
            if report.files_expected
            else 0.0
        ),
    }
