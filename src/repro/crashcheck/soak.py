"""Seeded multi-fault soak campaigns.

The crash-point explorer (:mod:`repro.crashcheck.engine`) is
exhaustive over *where* a single crash lands.  The soak campaign is
the complementary axis: many randomized runs, each mixing a live FSD
workload with media faults **beyond the paper's single-fault model** —
permanent 1–2-sector damage, transient read failures, latent faults
that surface on the next read, wild writes into the name-table extents
and leader sectors, and mid-run crash/remount cycles.

The oracle is the robustness claim itself, judged by
:class:`~repro.crashcheck.outcome.OutcomeOracle`: every run must end
``recovered``, ``degraded`` or ``salvaged``, never in silent
corruption.  A run only creates and deletes — a create writes fresh
sectors and the shadow bitmap keeps freed ones unallocatable until
commit — so a crash rolls uncommitted operations back without tearing
any name.  Runs are seeded and fully deterministic, so a campaign is a
reproducible regression artifact (``python -m repro soak --json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.core.fsd import FSD
from repro.crashcheck.outcome import VERDICTS, Outcome, OutcomeOracle
from repro.crashcheck.scenarios import CRASH_SCALE
from repro.disk.disk import SimDisk
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    DiskError,
    FsError,
)

#: fault kinds and their selection weights.  ``nt_pair`` destroys both
#: home copies of one name-table page — deliberately past the paper's
#: single-fault model, so the escalation ladder's degraded rung and the
#: salvager actually get exercised.  Shared with the chaos engine
#: (:mod:`repro.workloads.chaos`), which fires the same mix *under*
#: live multi-client traffic.
FAULT_KINDS = (
    ("permanent", 0.30),
    ("transient", 0.20),
    ("latent", 0.15),
    ("wild_write", 0.20),
    ("nt_pair", 0.15),
)


@dataclass(frozen=True)
class SoakConfig:
    """One campaign's shape.  The defaults inject 12 × 18 = 216 faults
    — comfortably past the single-fault model the rest of the test
    suite explores."""

    seed: int = 1987
    runs: int = 12
    ops_per_run: int = 30
    faults_per_run: int = 18
    #: per-op probability of a crash/remount cycle mid-run.
    crash_probability: float = 0.12


@dataclass
class RunResult(Outcome):
    """One seeded run: what it did, and how the oracle judged it."""

    index: int
    seed: int
    ops: int = 0
    crashes: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    op_errors: int = 0

    @property
    def faults_injected(self) -> int:
        return sum(self.faults.values())


@dataclass
class CampaignReport:
    """A whole campaign: per-run results plus the aggregate oracle."""

    config: SoakConfig
    results: list[RunResult] = field(default_factory=list)

    @property
    def faults_injected(self) -> int:
        return sum(result.faults_injected for result in self.results)

    @property
    def verdict_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    @property
    def silent_corruptions(self) -> list[str]:
        out = []
        for result in self.results:
            out.extend(
                f"run {result.index}: {finding}"
                for finding in result.silent_corruptions
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.silent_corruptions and all(
            result.verdict in VERDICTS for result in self.results
        )

    def to_json(self) -> dict:
        """JSON-serializable campaign report (the CI artifact)."""
        return {
            "seed": self.config.seed,
            "runs": self.config.runs,
            "ops_per_run": self.config.ops_per_run,
            "faults_per_run": self.config.faults_per_run,
            "faults_injected": self.faults_injected,
            "verdicts": self.verdict_counts,
            "silent_corruptions": self.silent_corruptions,
            "ok": self.ok,
            "results": [
                {
                    "index": result.index,
                    "verdict": result.verdict,
                    "ops": result.ops,
                    "crashes": result.crashes,
                    "faults": result.faults,
                    "op_errors": result.op_errors,
                    "files_expected": result.files_expected,
                    "files_verified": result.files_verified,
                    "files_honestly_lost": result.files_honestly_lost,
                    "salvage_files_expected": result.salvage_files_expected,
                    "salvage_files_verified": result.salvage_files_verified,
                    "salvage_files_honestly_lost": (
                        result.salvage_files_honestly_lost
                    ),
                    "salvage": result.salvage_summary,
                }
                for result in self.results
            ],
        }

    def summary(self) -> str:
        """One-line human-readable digest of the whole campaign."""
        verdicts = ", ".join(
            f"{count} {verdict}"
            for verdict, count in sorted(self.verdict_counts.items())
        )
        status = "OK" if self.ok else "SILENT CORRUPTION"
        return (
            f"soak campaign seed={self.config.seed}: "
            f"{len(self.results)} runs, {self.faults_injected} faults "
            f"injected ({verdicts}) — {status}"
        )


# ----------------------------------------------------------------------
# one run
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


def run_soak(index: int, config: SoakConfig) -> RunResult:
    """One seeded workload-plus-faults run, judged honestly."""
    seed = config.seed * 100_003 + index
    rng = random.Random(seed)
    result = RunResult(index=index, seed=seed)
    oracle = OutcomeOracle()

    disk = SimDisk(geometry=CRASH_SCALE.geometry)
    FSD.format(disk, CRASH_SCALE.fsd_params)
    fs = FSD.mount(disk)
    oracle.watch(fs)

    names = [f"soak/file-{n:02d}" for n in range(10)]
    faults_left = config.faults_per_run
    payload_counter = 0

    for op_index in range(config.ops_per_run):
        remaining_ops = config.ops_per_run - op_index
        while faults_left > 0 and rng.random() < faults_left / remaining_ops:
            kind = inject_fault(disk, fs.layout, oracle.leader_addrs, rng)
            result.faults[kind] = result.faults.get(kind, 0) + 1
            faults_left -= 1

        roll = rng.random()
        try:
            if roll < 0.55:
                name = rng.choice(names)
                payload_counter += 1
                stamp = f"{name}#{seed}#{payload_counter}|".encode()
                data = stamp * (1 + rng.randrange(40))
                oracle.created(name, data, fs.create(name, data).props)
            elif roll < 0.75:
                name = rng.choice(names)
                oracle.deleted(name, fs.delete(name).version)
            else:
                fs.force()
            result.ops += 1
        except DegradedVolumeError:
            oracle.honesty_flag = True
            break
        except (FsError, DiskError):
            result.op_errors += 1
        if fs.degraded:
            oracle.honesty_flag = True
            break

        if rng.random() < config.crash_probability:
            fs.crash()
            result.crashes += 1
            oracle.crashed(tear=False)
            try:
                fs = FSD.mount(disk)
            except (DegradedVolumeError, CorruptMetadata):
                oracle.honesty_flag = True
                fs = None
                break
            oracle.watch(fs)
            oracle.resync_leaders(fs)

    if fs is not None:
        fs.crash()
    return replace(result, **vars(oracle.classify(disk, FSD.mount)))


def run_campaign(config: SoakConfig | None = None, progress=None) -> CampaignReport:
    """Run a whole soak campaign; deterministic for a given config."""
    config = config or SoakConfig()
    report = CampaignReport(config=config)
    for index in range(config.runs):
        result = run_soak(index, config)
        report.results.append(result)
        if progress is not None:
            progress(index + 1, config.runs, result)
    return report
