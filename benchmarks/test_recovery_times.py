"""§5.9 / §7 — recovery times.

Paper, 300 MB moderately full volumes:

* FSD recovery takes 1 to 25 seconds: log redo "rarely takes more than
  two seconds"; worst case adds the ~20-second VAM reconstruction.
* CFS scavenge: an hour or more (3600+ s).
* 4.3 BSD fsck on a VAX-11/785: about seven minutes (420 s).
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.bsd.fsck import fsck
from repro.core.fsd import FSD
from repro.core.recovery import MountReport
from repro.disk.disk import SimDisk
from repro.harness.ops import measure_cfs_recovery
from repro.harness.report import Table
from repro.harness.runner import measure
from repro.harness.scenarios import (
    FULL,
    SMALL,
    ffs_volume,
    fsd_volume,
    populate_recovery_volume,
)
from repro.workloads.generators import payload


def _crashed_recovery_volume() -> SimDisk:
    """The bench's volume, crashed with a little committed work in the
    log: the next mount replays it and rebuilds the VAM."""
    # Best case: unmount (saves VAM), remount, do a little committed
    # work, crash.  Recovery replays the log and loads the saved VAM...
    disk, fs, adapter = fsd_volume(FULL)
    populate_recovery_volume(adapter, FULL)
    fs.unmount()
    fs = FSD.mount(disk)
    # ...except a dirty mount clears vam_saved, so "best case" here is
    # simply a crash with very little work: redo dominates, VAM rebuild
    # is the remainder.
    for index in range(10):
        fs.create(f"post/f-{index}", payload(600, index))
    fs.force()
    fs.crash()
    return disk


def _fsd_recovery_split() -> tuple[float, float, float]:
    """(log-redo-only ms, vam-rebuild ms, total worst-case ms).

    Best case: the VAM was saved (clean shutdown then dirty restart);
    recovery is just the log scan + redo.  Worst case: VAM rebuilt.
    """
    disk = _crashed_recovery_volume()
    took = measure(disk, lambda: FSD.mount(disk))
    mounted: FSD = took.result  # type: ignore[assignment]
    report = mounted.mount_report
    return report.replay_ms, report.vam_ms, took.elapsed_ms


def _ffs_fsck_ms() -> float:
    disk, fs, adapter = ffs_volume(FULL)
    populate_recovery_volume(adapter, FULL)
    fs.crash()
    return measure(disk, lambda: fsck(disk, FULL.ffs_params)).elapsed_ms


def test_recovery_times(once):
    def run():
        replay_ms, vam_ms, total_ms = _fsd_recovery_split()
        cfs_ms, cfs_note = measure_cfs_recovery(FULL)
        fsck_ms = _ffs_fsck_ms()
        return replay_ms, vam_ms, total_ms, cfs_ms, cfs_note, fsck_ms

    replay_ms, vam_ms, total_ms, cfs_ms, cfs_note, fsck_ms = once(run)

    table = Table("Recovery times (seconds)")
    table.add("FSD log redo", "<= ~2 s", f"{replay_ms / 1000:.2f} s")
    table.add("FSD VAM rebuild", "~20 s", f"{vam_ms / 1000:.1f} s")
    table.add("FSD total", "1-25 s", f"{total_ms / 1000:.1f} s")
    table.add("CFS scavenge", "3600+ s", f"{cfs_ms / 1000:.0f} s", note=cfs_note)
    table.add("4.3 BSD fsck", "~420 s", f"{fsck_ms / 1000:.0f} s")
    table.print()

    # The paper's bands, generously interpreted on simulated hardware.
    # The VAM band lost its floor (it was ``2_000 < vam_ms``): the paper
    # and our former key-order walk (16.9 s) paid a seek and a rotation
    # per name-table page, the physical-order sweep reads the same
    # pages as a handful of multi-sector transfers.  It is still a real
    # cost — every allocated page, both copies — so it is not zero.
    assert replay_ms < 5_000
    assert 100 < vam_ms < 5_000
    assert total_ms < 60_000
    assert fsck_ms > 20 * total_ms
    assert cfs_ms > 20 * total_ms
    assert cfs_ms > 1_000_000
    assert total_ms < fsck_ms < cfs_ms


# ----------------------------------------------------------------------
# host cost of the VAM rebuild, counted rather than timed
# ----------------------------------------------------------------------
#: Python-level calls per swept entry of one crash mount of the bench's
#: volume (1 240 entries on 190 pages).  The bulk claim and the one
#: checked parse made it 5.43; before them, with a one-run claim per
#: leader and run and a full properties decode per entry, it was 26.71.
#: It read 6.38 before the sweep's key parse stopped going through the
#: process-global key memo, and reads 5.54 since.  The bound sits about
#: 30 % above the current number.
MOUNT_CALLS_PER_ENTRY_BOUND = 7.0

#: The same count for the volume's *second* crash mount, with ten
#: creates and a force between the two crashes (1 250 entries on 194
#: pages).  The sweep parses only the pages whose image the first
#: mount's sweep did not see: 2.89.  Re-parsing every page, as the
#: first mount does, was 6.14.
WARM_MOUNT_CALLS_PER_ENTRY_BOUND = 4.0


def _counted_mount(disk: SimDisk) -> tuple[FSD, int]:
    """Mount ``disk``, counting the Python calls the mount makes
    (``sys.setprofile`` ``call`` events)."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        mounted = FSD.mount(disk)
    finally:
        sys.setprofile(None)
    return mounted, calls


def _print_calls_per_entry(title: str, calls: int, entries: int,
                           bound: float) -> float:
    per_entry = calls / entries
    table = Table(title)
    table.add(
        "Python calls per swept entry",
        "-",
        f"{per_entry:.2f}",
        note=f"{calls} calls / {entries} entries, bound {bound}",
    )
    table.print()
    return per_entry


def test_vam_rebuild_python_calls_per_entry():
    """A host-cost gate that does not read a clock: the calls a crash
    mount makes, per entry the VAM rebuild swept.  Wall time on a
    shared box moves by tens of percent; a call count moves only when
    the code does."""
    mounted, calls = _counted_mount(_crashed_recovery_volume())
    report = mounted.mount_report
    assert report.vam_sweep_pages > 0  # the sweep, not the walk, ran
    per_entry = _print_calls_per_entry(
        "VAM rebuild host cost (one crash mount)",
        calls, report.vam_rebuild_entries, MOUNT_CALLS_PER_ENTRY_BOUND,
    )
    assert per_entry <= MOUNT_CALLS_PER_ENTRY_BOUND


def test_warm_vam_rebuild_python_calls_per_entry():
    """The second crash mount of one volume: after a few committed
    creates most name-table pages are the images the first mount swept,
    and the sweep parses only the ones that changed."""
    disk = _crashed_recovery_volume()
    fs = FSD.mount(disk)
    for index in range(10):
        fs.create(f"again/f-{index}", payload(600, index))
    fs.force()
    fs.crash()
    mounted, calls = _counted_mount(disk)
    report = mounted.mount_report
    assert report.vam_sweep_pages > 0
    per_entry = _print_calls_per_entry(
        "VAM rebuild host cost (second crash mount)",
        calls, report.vam_rebuild_entries, WARM_MOUNT_CALLS_PER_ENTRY_BOUND,
    )
    assert per_entry <= WARM_MOUNT_CALLS_PER_ENTRY_BOUND


# ----------------------------------------------------------------------
# incremental REDO: recovery stays flat as the log grows
# ----------------------------------------------------------------------
#: create operations that push roughly one full log area of records
#: through the SMALL-scale log (~2.9 sectors logged per create against
#: a 600-sector record area).
_OPS_PER_LOG_FILL = 200

#: operations after the final checkpoint, committed by an explicit
#: force: the redo window every crash leaves behind.
_RESIDUAL_OPS = 30
#: creates per explicit force while the history is laid down (the
#: commit timer is parked, see :func:`_crash_replay`).
_OPS_PER_FORCE = 16


def _crash_replay(fill_ops: int, checkpoint: bool) -> MountReport:
    """The mount report of a recovery after a crash at ``fill_ops`` of
    history.

    With ``checkpoint`` the checkpointer is driven explicitly every 100
    operations (the timer is parked far in the future), then once more
    before a fixed committed residual — so every fill crashes the same
    distance past a checkpoint and the runs differ *only* in how much
    log history preceded it.

    The group-commit timer is parked as well (an unreachable
    ``commit_interval_ms``; the loop forces every ``_OPS_PER_FORCE``
    creates instead).  A live timer cuts the 30 residual creates into
    two, three or four records of 43 to 73 pages depending on its
    phase, which made a five-phase mean wander by +-5 % and hid what
    the curve is about; parked, every window is the same records and
    pages whatever the fill, and what is left is where those pages'
    homes are.
    """
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, replace(SMALL.fsd_params, commit_interval_ms=1e12))
    fs = FSD.mount(
        disk, checkpoint_interval_ms=1e12 if checkpoint else None
    )
    for index in range(fill_ops):
        fs.create(f"w/f-{index:05d}", payload(1200, index))
        if index % _OPS_PER_FORCE == _OPS_PER_FORCE - 1:
            fs.force()
        if checkpoint and index % 100 == 99:
            fs.checkpointer.tick()
    if checkpoint:
        fs.force()
        fs.checkpointer.tick()
    for index in range(_RESIDUAL_OPS):
        fs.create(f"tail/f-{index:03d}", payload(1200, index))
    fs.force()
    fs.crash()
    recovered = FSD.mount(disk)
    report = recovered.mount_report
    assert report.log_records_replayed > 0
    recovered.unmount()
    return report


def test_recovery_flat_with_checkpointer(once):
    """Replay cost vs log history: flat with checkpoints, and below the
    synchronous third-entry baseline at every fill.

    Each fill averages five crash phases (staggered by a stride coprime
    to the checkpoint cadence) so rotational/wrap placement of a single
    crash point does not masquerade as a trend.

    What still rises with the fill (316 / 326 / 337 ms) is not the log:
    the window is the same 2 records and 41 pages at all fifteen crash
    points.  It is the name table, which the 16x history has grown from
    one stripe (cylinder) to five: redo writes the meta, bitmap and
    interior pages in the first stripe and the newest leaves in the
    last, one seek out and one back, longer as the table grows.  The
    previous format paid a seek between the two extents for every
    group of pages at every fill: flatter (353 / 356 / 357 ms on the
    same windows) and dearer.
    """
    fills = tuple(_OPS_PER_LOG_FILL * factor for factor in (1, 4, 16))

    def run():
        curve = []
        baseline = []
        windows = set()
        for fill in fills:
            phases = [
                _crash_replay(fill + step * 37, checkpoint=True)
                for step in range(5)
            ]
            curve.append(sum(r.replay_ms for r in phases) / len(phases))
            windows.update(
                (r.log_records_replayed, r.pages_replayed) for r in phases
            )
            baseline.append(_crash_replay(fill, checkpoint=False).replay_ms)
        return curve, baseline, windows

    curve, baseline, windows = once(run)

    table = Table("Log redo vs log history (checkpoint LSN bounds the window)")
    for fill, with_ckpt, without in zip((1, 4, 16), curve, baseline):
        table.add(
            f"{fill}x log fill",
            "flat",
            f"{with_ckpt:.0f} ms (no ckpt: {without:.0f} ms)",
        )
    table.print()

    # Recovery replays only records newer than the checkpoint LSN: the
    # same window, to the page, after 1x and after 16x the history.
    assert len(windows) == 1
    # Flat: the spread across that 16x growth stays within 10%.
    assert max(curve) - min(curve) <= 0.10 * max(curve)
    # And the bounded window beats the synchronous protocol's window.
    for with_ckpt, without in zip(curve, baseline):
        assert with_ckpt < without
