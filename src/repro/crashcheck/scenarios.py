"""Named crashcheck scenarios.

A scenario is a :class:`~repro.harness.scenarios.Scale` (the same
dataclass the benchmark harness uses, so geometry and per-FS
parameters are shared vocabulary) plus two op scripts: ``setup`` runs
and commits before recording starts (it shapes the volume the way
:func:`repro.harness.scenarios.populate` shapes benchmark volumes),
``body`` is the recorded region whose every I/O boundary the explorer
crashes.

Scripts keep each force's batch comfortably under
``max_record_pages`` so every commit is a single (atomic) log record;
larger batches split across records, and a crash between the records
of one force is outside the per-operation atomicity the oracles
assert (the client never saw that force return, but partial
application across the split would still trip the semantic oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layout import VolumeParams
from repro.crashcheck.workload import Op
from repro.disk.geometry import DiskGeometry
from repro.harness.scenarios import SMALL, Scale
from repro.workloads.generators import payload

#: Compact scale for exhaustive sweeps: the same shape as the harness
#: SMALL scale, but a smaller drive and log so every boundary of a
#: scenario can be explored in seconds.  The log is deliberately small
#: (77-sector thirds) so longer scenarios wrap it and exercise the
#: third-entry writeback protocol under crashes.
CRASH_SCALE = Scale(
    name="crashcheck",
    geometry=DiskGeometry(cylinders=120, heads=8, sectors_per_track=24),
    fsd_params=VolumeParams(
        nt_pages=512,
        log_record_sectors=231,
        cache_pages=32,
        max_record_pages=24,
    ),
    cfs_params=SMALL.cfs_params,
    ffs_params=SMALL.ffs_params,
    populate_files=24,
    recovery_files=24,
    recovery_big_files=1,
    recovery_big_bytes=64 * 1024,
)


@dataclass(frozen=True)
class CrashScenario:
    """One named workload for the crash-point explorer."""

    name: str
    description: str
    scale: Scale
    setup: tuple[Op, ...]
    body: tuple[Op, ...]
    #: mount the recorded volume with the background checkpointer at
    #: this interval (parked far out: ``"checkpoint"`` ops drive it
    #: explicitly, keeping the recording deterministic).  ``None``
    #: mounts without a checkpointer, as every pre-existing scenario
    #: did.
    checkpoint_interval_ms: float | None = None


def _aged_setup(count: int, seed: int = 1987) -> tuple[Op, ...]:
    """Pre-create ``count`` committed files (the populate() shape)."""
    return tuple(
        Op("create", f"aged/file-{index:03d}", payload(200 + 61 * index % 900, seed + index))
        for index in range(count)
    )


def _quickstart() -> CrashScenario:
    """The README/examples quickstart walk, scripted: one-byte create,
    a burst of small creates, a forced commit, more work including a
    delete, and an un-forced tail that a crash may lose."""
    body: list[Op] = [
        Op("create", "crash/warmup", b"?"),
        Op("create", "crash/one-byte", b"!"),
    ]
    for index in range(6):
        body.append(Op("create", f"crash/file-{index:02d}", b"cedar" * index))
    body.append(Op("force"))
    for index in range(4):
        body.append(Op("create", f"crash/extra-{index}", payload(300 + 70 * index, index)))
    body.append(Op("delete", "crash/file-03"))
    body.append(Op("force"))
    body.append(Op("create", "crash/never-forced", payload(800, 99)))
    return CrashScenario(
        name="quickstart",
        description="the quickstart walk: creates, a delete, forced "
        "commits, and an un-forced tail",
        scale=CRASH_SCALE,
        setup=_aged_setup(20),
        body=tuple(body),
    )


def _churn() -> CrashScenario:
    """Version churn: re-creates stacking versions, deletes exposing
    older versions, and multi-sector data writes whose torn-write
    variant space is the widest."""
    body = (
        Op("create", "churn/one", payload(1800, 1)),
        Op("create", "churn/two", payload(700, 2)),
        Op("force"),
        Op("create", "churn/one", payload(2600, 3)),   # second version
        Op("delete", "churn/two"),
        Op("force"),
        Op("create", "churn/three", payload(512 * 5, 4)),
        Op("delete", "churn/one"),                     # exposes version 1
        Op("force"),
        Op("create", "churn/four", payload(90, 5)),
        Op("create", "churn/five", payload(1300, 6)),
        # no final force: an uncommitted tail
    )
    return CrashScenario(
        name="churn",
        description="version churn with multi-sector writes and "
        "deletes exposing older versions",
        scale=CRASH_SCALE,
        setup=_aged_setup(16),
        body=body,
    )


def _wrap() -> CrashScenario:
    """Enough committed rounds to wrap the small log at least once,
    so crashes land inside third-entry writebacks, anchor advances and
    skip records."""
    body: list[Op] = []
    for round_index in range(14):
        for index in range(4):
            body.append(
                Op(
                    "create",
                    f"wrap/r{round_index:02d}-{index}",
                    payload(180 + 53 * index, round_index),
                )
            )
        if round_index % 3 == 2:
            body.append(Op("delete", f"wrap/r{round_index - 1:02d}-0"))
        body.append(Op("force"))
    body.append(Op("create", "wrap/never-forced", payload(400, 7)))
    return CrashScenario(
        name="wrap",
        description="log-wrapping committed rounds (third-entry "
        "protocol and anchor advances under crash)",
        scale=CRASH_SCALE,
        setup=_aged_setup(12),
        body=tuple(body),
    )


def _concurrent_burst() -> CrashScenario:
    """Four clients' interleaved streams sharing group commits: each
    force's record carries updates from several clients, so a crash
    mid-commit loses (or keeps) the whole multi-client batch
    atomically.  Ends with an un-forced multi-client tail plus a
    delete whose shadowed frees span a client boundary."""
    clients = 4
    body: list[Op] = []
    for round_index in range(4):
        # Round-robin: one small create per client per round.
        for client in range(clients):
            body.append(
                Op(
                    "create",
                    f"c{client}/r{round_index:02d}",
                    payload(150 + 97 * client + 13 * round_index,
                            client * 100 + round_index),
                )
            )
        if round_index % 2 == 1:
            # Group commit: the batch holds 8 creates from 4 clients
            # (still one atomic record at CRASH_SCALE).
            body.append(Op("force"))
    body.append(Op("delete", "c1/r00"))
    body.append(Op("force"))
    # Un-forced tail from three different clients: a crash may lose
    # all of it, but never a proper subset of one operation.
    body.append(Op("create", "c0/tail", payload(260, 900)))
    body.append(Op("create", "c2/tail", payload(410, 901)))
    body.append(Op("delete", "c3/r03"))
    return CrashScenario(
        name="concurrent_burst",
        description="four interleaved client streams sharing group "
        "commits, crashed mid-batch with clients in flight",
        scale=CRASH_SCALE,
        setup=_aged_setup(16),
        body=tuple(body),
    )


def _mid_checkpoint() -> CrashScenario:
    """Crash points inside background checkpoints: the window between
    the checkpointer's write-home pass and the anchor advance is where
    home pages are already durable but the log still claims the records
    covering them — recovery must replay those records idempotently
    over the installed pages.  Later rounds keep mutating the same
    files so installed home images are genuinely stale by the next
    checkpoint, and an un-forced tail rides the final tick."""
    body: list[Op] = []
    for round_index in range(3):
        for index in range(4):
            body.append(
                Op(
                    "create",
                    f"ckpt/r{round_index}-{index}",
                    payload(220 + 67 * index + 31 * round_index,
                            round_index * 10 + index),
                )
            )
        # Re-create a shared name every round: its home page is
        # re-dirtied after each install, so every checkpoint has real
        # write-home work, not just the first.
        body.append(
            Op("create", "ckpt/hot", payload(900 + 130 * round_index,
                                             round_index))
        )
        if round_index == 2:
            body.append(Op("delete", "ckpt/r1-0"))
        body.append(Op("force"))
        # The recorded checkpoint: flush_all_home's background writes
        # followed by the sync anchor write.  Every I/O boundary in
        # between is a mid-checkpoint crash.
        body.append(Op("checkpoint"))
    body.append(Op("create", "ckpt/never-forced", payload(500, 77)))
    return CrashScenario(
        name="mid_checkpoint",
        description="background checkpoints crashed between write-home "
        "and anchor advance (redo idempotence over installed pages)",
        scale=CRASH_SCALE,
        setup=_aged_setup(16),
        body=tuple(body),
        checkpoint_interval_ms=1e12,
    )


def _keep_trim() -> CrashScenario:
    """Contracting and trimming: truncates that free whole runs and cut
    one mid-sector, and ``keep`` changes that drop old versions.  Both
    free sectors through the shadow bitmap and rewrite a leader, so a
    crash inside either must leave the file whole at its old size or
    its new one, and the trimmed versions all there or all gone.  Each
    committed round is checkpointed, so the rewritten leaders and
    name-table pages also go home under the crash."""
    doc, log = "keep/doc", "keep/log"
    body = (
        Op("create", doc, payload(2900, 4)),
        Op("truncate", doc, size=700),
        Op("set_keep", doc, keep=2),
        Op("force"),
        Op("checkpoint"),
        Op("create", log, payload(3100, 6)),
        Op("truncate", log, size=1024),
        Op("truncate", doc, size=0),
        Op("force"),
        Op("checkpoint"),
        Op("set_keep", log, keep=1),
        Op("create", "keep/never-forced", payload(600, 8)),
    )
    return CrashScenario(
        name="keep_trim",
        description="truncates and keep changes freeing sectors through "
        "the shadow bitmap, crashed mid-commit",
        scale=CRASH_SCALE,
        setup=_aged_setup(12) + tuple(
            Op("create", name, payload(1200 + 400 * version, version))
            for name in (doc, log) for version in range(3)
        ),
        body=body,
        checkpoint_interval_ms=1e12,
    )


SCENARIOS: dict[str, CrashScenario] = {
    scenario.name: scenario
    for scenario in (
        _quickstart(),
        _churn(),
        _wrap(),
        _concurrent_burst(),
        _mid_checkpoint(),
        _keep_trim(),
    )
}


def get_scenario(name: str) -> CrashScenario:
    """Look up a scenario by name (raises with the known names)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
