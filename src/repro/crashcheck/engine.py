"""The crash-point exploration engine.

One recorded run of a scenario (see :mod:`repro.crashcheck.workload`)
yields the body's I/O stream.  The engine then walks every I/O
boundary ``i`` (crash fires *on* I/O ``i``: I/Os ``0..i-1`` completed,
I/O ``i`` is in flight) and, for boundaries whose in-flight operation
is a multi-sector write, every torn-write variant the weak-atomic
model of :mod:`repro.disk.faults` allows:

* ``surviving_sectors`` ∈ 0..n-1 — a strict prefix persists,
* ``damage_tail`` ∈ {0, 1, 2} — trailing sectors of the persisted
  boundary detectably damaged (clipped to the write, as the disk
  clips it),
* plus full persistence (``surviving_sectors=None``).

Crashes during reads persist nothing of the in-flight operation;
label-only writes persist all their labels (mirroring
``SimDisk.write_labels``).

Instead of re-running the workload once per crash point, the engine
*synthesizes* each crash image from the recording: the persisted
prefix of the stream applied to the body-start snapshot, plus the
variant's partial effect.  The simulation is deterministic, so the
synthesized image is byte-identical to what an armed
:class:`~repro.disk.faults.CrashPlan` would leave (a test
cross-validates this against a live replay).  A deduplicating work queue then skips crash
points whose persisted image — and committed-op watermark — some
earlier point already produced: a read boundary, for example, leaves
exactly the image of the previous write's full-persist variant.

Each unique image is materialized onto a fresh ``SimDisk``, remounted
through real recovery (:meth:`FSD.mount`), and handed to the oracle
stack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.fsd import FSD
from repro.crashcheck.oracles import Oracle, OracleContext, default_oracles
from repro.crashcheck.scenarios import CrashScenario, get_scenario
from repro.crashcheck.workload import (
    DiskState,
    IoRec,
    Recording,
    record_scenario,
)
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.obs import NULL_OBS


# ----------------------------------------------------------------------
# crash images
# ----------------------------------------------------------------------
@dataclass
class CrashImage:
    """The persistent state a crash at one point would leave behind."""

    geometry: DiskGeometry
    state: DiskState

    def digest(self) -> bytes:
        """Byte-exact fingerprint of the persisted image."""
        h = hashlib.sha256()
        for address in sorted(self.state.data):
            h.update(address.to_bytes(4, "little"))
            h.update(self.state.data[address])
        h.update(b"|labels|")
        for address in sorted(self.state.labels):
            h.update(address.to_bytes(4, "little"))
            h.update(self.state.labels[address])
        h.update(b"|damaged|")
        for address in sorted(self.state.damaged):
            h.update(address.to_bytes(4, "little"))
        return h.digest()


def materialize(image: CrashImage) -> SimDisk:
    """A fresh simulated drive holding exactly ``image``."""
    disk = SimDisk(geometry=image.geometry)
    disk._data = dict(image.state.data)
    disk._labels = dict(image.state.labels)
    disk.faults.damaged = set(image.state.damaged)
    return disk


# ----------------------------------------------------------------------
# applying recorded I/Os to a state
# ----------------------------------------------------------------------
def apply_full(state: DiskState, rec: IoRec) -> None:
    """Apply one recorded I/O completely (reads are no-ops)."""
    if rec.kind == "write":
        for offset, payload in enumerate(rec.payloads):
            address = rec.address + offset
            state.data[address] = payload
            state.damaged.discard(address)
            if rec.set_labels is not None:
                state.labels[address] = rec.set_labels[offset]
    elif rec.kind == "label_write":
        for offset, label in enumerate(rec.labels):
            state.labels[rec.address + offset] = label


def apply_torn(
    state: DiskState,
    rec: IoRec,
    surviving_sectors: int | None,
    damage_tail: int,
    total_sectors: int,
) -> None:
    """Apply the crash-time effect of the in-flight I/O, mirroring
    ``SimDisk.write``/``write_labels`` under an armed plan exactly."""
    if rec.kind == "write":
        persist = (
            rec.count
            if surviving_sectors is None
            else min(surviving_sectors, rec.count)
        )
        for offset in range(persist):
            address = rec.address + offset
            state.data[address] = rec.payloads[offset]
            state.damaged.discard(address)
            if rec.set_labels is not None:
                state.labels[address] = rec.set_labels[offset]
        for offset in range(damage_tail):
            victim = rec.address + persist + offset
            if victim < min(rec.address + rec.count, total_sectors):
                state.damaged.add(victim)
    elif rec.kind == "label_write":
        # A crash during a label write persists every label first.
        for offset, label in enumerate(rec.labels):
            state.labels[rec.address + offset] = label
    # reads: nothing of the in-flight operation persists


# ----------------------------------------------------------------------
# variant enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashPoint:
    """One (boundary, torn-write variant) candidate."""

    boundary: int
    surviving_sectors: int | None
    damage_tail: int
    label: str


def variants_for(rec: IoRec, boundary: int) -> list[CrashPoint]:
    """Every distinct crash variant for the in-flight I/O ``rec``."""
    if rec.kind == "write":
        out = [
            CrashPoint(
                boundary,
                surviving,
                damage,
                f"io={boundary} write@{rec.address} "
                f"x{rec.count} s={surviving} d={damage}",
            )
            for surviving in range(rec.count)
            for damage in (0, 1, 2)
        ]
        out.append(
            CrashPoint(
                boundary,
                None,
                0,
                f"io={boundary} write@{rec.address} x{rec.count} s=all",
            )
        )
        return out
    return [
        CrashPoint(
            boundary, None, 0, f"io={boundary} {rec.kind}@{rec.address}"
        )
    ]


def enumerate_points(recording: Recording) -> list[CrashPoint]:
    """All crash points of a recording, in I/O order, plus the final
    "after the last I/O" point."""
    points: list[CrashPoint] = []
    for boundary, rec in enumerate(recording.records):
        points.extend(variants_for(rec, boundary))
    points.append(
        CrashPoint(recording.io_total, None, 0, f"io={recording.io_total} end")
    )
    return points


def _select(points: list[CrashPoint], max_points: int | None) -> list[CrashPoint]:
    """An evenly spaced subset of at most ``max_points`` candidates,
    always including the first and last."""
    if max_points is None or max_points >= len(points) or max_points <= 0:
        return points
    if max_points == 1:
        return [points[-1]]
    step = (len(points) - 1) / (max_points - 1)
    indices = sorted({round(index * step) for index in range(max_points)})
    return [points[i] for i in indices]


# ----------------------------------------------------------------------
# sweep results
# ----------------------------------------------------------------------
@dataclass
class Violation:
    """One oracle failure at one crash point."""

    point: CrashPoint
    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.point.label}] {self.oracle}: {self.detail}"


@dataclass
class SweepSummary:
    """What a sweep covered and what it found."""

    scenario: str
    io_boundaries: int              # body I/Os (+1 end boundary)
    candidates: int                 # full variant space
    selected: int                   # after --max-points subsetting
    checked: int                    # unique images mounted + verified
    deduplicated: int               # byte-identical images skipped
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
def check_image(
    image: CrashImage,
    ctx: OracleContext,
    oracles: Iterable[Oracle],
    point: CrashPoint,
    obs=NULL_OBS,
    **mount,
) -> list[Violation]:
    """Mount one crash image through real recovery and run the oracles.

    ``obs`` aggregates recovery metrics/spans across every mount in a
    sweep (``FSD.mount`` rebinds the observer's clock per image).
    ``mount`` is what :meth:`FSD.mount` takes (nothing: the
    cache-coherence oracle checks the default read-ahead buffer).
    """
    disk = materialize(image)
    try:
        fs = FSD.mount(disk, obs=obs, **mount)
    except Exception as error:
        return [
            Violation(point, "mount", f"recovery failed: {error!r}")
        ]
    out: list[Violation] = []
    for oracle in oracles:
        for problem in oracle.check(fs, ctx):
            out.append(Violation(point, oracle.name, problem))
    fs.crash()
    return out


def explore(
    scenario: CrashScenario | str,
    max_points: int | None = None,
    oracles: list[Oracle] | None = None,
    progress: Callable[[int, int], None] | None = None,
    recording: Recording | None = None,
    obs=NULL_OBS,
    **mount,
) -> SweepSummary:
    """Run the crash-point sweep for ``scenario``.

    ``max_points`` bounds the number of candidate crash points (evenly
    spaced across the variant space); ``None`` explores all of them.
    ``progress(done, selected)`` is called after each candidate.  A
    pre-made ``recording`` may be supplied to amortize the baseline
    run across sweeps.  ``obs`` receives the recovery metrics and
    spans of every mounted crash image (see ``crashcheck --metrics``).
    ``mount`` — what :meth:`FSD.mount` takes: ``options=TUNED``,
    ``data_cache_pages=16`` — is the mount of the recorded baseline run
    (where a scenario's own checkpoint interval overrides that one
    field) and of every post-crash remount.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if recording is None:
        recording = record_scenario(scenario, **mount)
    if oracles is None:
        oracles = default_oracles()

    points = enumerate_points(recording)
    selected = _select(points, max_points)
    selected_by_boundary: dict[int, list[CrashPoint]] = {}
    for point in selected:
        selected_by_boundary.setdefault(point.boundary, []).append(point)

    summary = SweepSummary(
        scenario=scenario.name,
        io_boundaries=recording.io_total + 1,
        candidates=len(points),
        selected=len(selected),
        checked=0,
        deduplicated=0,
    )
    total_sectors = scenario.scale.geometry.total_sectors
    seen: set[tuple[bytes, int]] = set()
    done = 0

    # Walk boundaries in order, maintaining the persisted prefix
    # incrementally; ascending order means the first occurrence of any
    # duplicate image carries the smallest pending set — the strictest
    # oracle context — so deduplication never weakens the check.
    state = recording.base.clone()
    for boundary in range(recording.io_total + 1):
        for point in selected_by_boundary.get(boundary, ()):
            image_state = state.clone()
            if boundary < recording.io_total:
                apply_torn(
                    image_state,
                    recording.records[boundary],
                    point.surviving_sectors,
                    point.damage_tail,
                    total_sectors,
                )
            image = CrashImage(
                geometry=scenario.scale.geometry, state=image_state
            )
            committed = recording.committed_ops_at(boundary)
            key = (image.digest(), committed)
            if key in seen:
                summary.deduplicated += 1
            else:
                seen.add(key)
                ctx = OracleContext.at(recording, boundary, point.label)
                summary.violations.extend(
                    check_image(image, ctx, oracles, point, obs=obs, **mount)
                )
                summary.checked += 1
            done += 1
            if progress is not None:
                progress(done, len(selected))
        if boundary < recording.io_total:
            apply_full(state, recording.records[boundary])
    return summary
