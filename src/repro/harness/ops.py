"""Table 2 operation measurements, shared by the wall-clock benchmark
and the §6 model-validation benchmark.

Methodology mirrors the paper: "All creates, opens, and deletes are
for different files in the same directory."  Latencies are averages
over K operations on a volume populated like a working Cedar disk
(hundreds of small files plus some large, fragmented ones, so seeks
and name-table cache misses are realistic).  Think time separates
operations; any group-commit work the daemon does during think time is
charged back into the per-operation average, exactly as a wall-clock
loop would see it.  An unmeasured "far" operation between measured
ones positions the head the way a mixed workload would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.cfs.scavenger import scavenge
from repro.core.fsd import FSD
from repro.harness.runner import measure
from repro.harness.scenarios import (
    Scale,
    SMALL,
    cfs_volume,
    fsd_volume,
    populate_recovery_volume,
)
from repro.workloads.generators import payload

#: operations averaged per measurement.
K_OPS = 40
#: bytes in a "large" file (paper-era large: ~2 MB).
LARGE_BYTES = 2 * 1024 * 1024
#: virtual think time between benchmark operations.
THINK_MS = 30.0


@dataclass
class Table2Result:
    """Average virtual milliseconds per operation."""

    ms: dict[str, float]
    recovery_ms: float
    recovery_note: str


def _avg_ops(
    disk,
    fn: Callable[[int], object],
    count: int,
    before: Callable[[int], object] | None = None,
    think_ms: float = THINK_MS,
) -> float:
    """Average elapsed ms of ``fn(i)`` over ``count`` calls.

    ``before(i)`` runs unmeasured first (e.g. to position the head the
    way the paper's benchmark sequence would).  Think time between
    operations is idle, but any disk/CPU work the commit daemon does
    during it is added back to the average — a wall-clock benchmark
    loop pays for the log forces it triggers.
    """
    total = 0.0
    for index in range(count):
        if before is not None:
            before(index)
        total += measure(disk, lambda: fn(index)).elapsed_ms
        background = measure(disk, lambda: disk.clock.drain(think_ms))
        total += background.disk_ms + background.cpu_ms
    return total / count


def _scramble_cache(fs_open, names: list[str], count: int, seed: int) -> None:
    """Touch random files so a later phase sees realistic cache state
    instead of entries left hot by the previous phase."""
    rng = random.Random(seed)
    for _ in range(count):
        fs_open(rng.choice(names))


def _measure_table2_ops(
    prefix: str, disk, fs, adapter, scale: Scale
) -> dict[str, float]:
    """The common Table 2 phase sequence (both file systems share the
    create/open/read/delete surface)."""
    rng = random.Random(11)
    names = populate_recovery_volume(adapter, scale)
    small_names = [n for n in names if n.startswith("aged/")]
    disk.clock.drain(1_000)

    ms: dict[str, float] = {}
    ms[f"{prefix} small create"] = _avg_ops(
        disk, lambda i: fs.create(f"dir/new-{i:04d}", b"x"), K_OPS
    )
    # Fill out the benchmark directory (unmeasured), per the paper's
    # "different files in the same directory" methodology.
    for index in range(K_OPS, 3 * K_OPS):
        fs.create(f"dir/new-{index:04d}", payload(700, index))

    ms[f"{prefix} large create"] = _avg_ops(
        disk,
        lambda i: fs.create(f"big/large-{i}", payload(LARGE_BYTES, i)),
        2,
    )

    # Opens target one directory-local working set of aged files whose
    # name-table pages have long since been written home and evicted.
    quarter = len(small_names) // 4
    open_set = small_names[quarter : quarter + 40]
    scramble_set = small_names[: -K_OPS]
    _scramble_cache(fs.open, scramble_set, 250, seed=19)

    big = fs.open("big/large-0")
    pages = big.byte_size // 512

    def far(i: int) -> None:
        # Unmeasured head displacement: the paper's workstation did
        # other work (here: a page of a large file far from the
        # metadata) between benchmarked operations.
        fs.read(big, rng.randrange(pages) * 512, 512)

    ms[f"{prefix} open"] = _avg_ops(
        disk, lambda i: fs.open(rng.choice(open_set)), K_OPS, before=far
    )

    def open_read(i: int) -> None:
        handle = fs.open(rng.choice(open_set))
        fs.read(handle, 0, min(512, handle.byte_size))

    ms[f"{prefix} open+read"] = _avg_ops(disk, open_read, K_OPS, before=far)

    aged_handles = [fs.open(name) for name in open_set[:15]]

    def away(i: int) -> None:
        handle = aged_handles[i % len(aged_handles)]
        fs.read(handle, 0, min(512, handle.byte_size))

    def read_page(i: int) -> None:
        fs.read(big, rng.randrange(pages) * 512, 512)

    ms[f"{prefix} read page"] = _avg_ops(disk, read_page, K_OPS, before=away)

    delete_set = small_names[-K_OPS:]
    _scramble_cache(fs.open, scramble_set, 250, seed=23)
    ms[f"{prefix} small delete"] = _avg_ops(
        disk, lambda i: fs.delete(delete_set[i]), K_OPS, before=far
    )
    ms[f"{prefix} large delete"] = _avg_ops(
        disk, lambda i: fs.delete(f"big/large-{i}"), 2
    )
    return ms


def measure_fsd_table2(
    scale: Scale = SMALL, include_recovery: bool = True
) -> Table2Result:
    """Run the full Table 2 sequence on a fresh FSD volume."""
    disk, fs, adapter = fsd_volume(scale)
    ms = _measure_table2_ops("fsd", disk, fs, adapter, scale)

    recovery_ms, note = 0.0, "skipped"
    if include_recovery:
        # Reuse this volume: make it dirty, crash, measure the mount.
        for index in range(30):
            fs.create(f"dirty/f-{index:03d}", payload(900, index))
        fs.force()
        fs.create("dirty/uncommitted", b"lost")
        fs.crash()
        took = measure(disk, lambda: FSD.mount(disk))
        recovered: FSD = took.result  # type: ignore[assignment]
        report = recovered.mount_report
        note = (
            f"{report.log_records_replayed} records, "
            f"{report.pages_replayed} pages, VAM "
            + ("loaded" if report.vam_loaded else "rebuilt")
        )
        recovery_ms = took.elapsed_ms
    return Table2Result(ms=ms, recovery_ms=recovery_ms, recovery_note=note)


def measure_cfs_table2(
    scale: Scale = SMALL, include_recovery: bool = True
) -> Table2Result:
    """Run the full Table 2 sequence on a fresh CFS volume."""
    disk, fs, adapter = cfs_volume(scale)
    ms = _measure_table2_ops("cfs", disk, fs, adapter, scale)

    recovery_ms, note = 0.0, "skipped"
    if include_recovery:
        fs.crash()
        took = measure(disk, lambda: scavenge(disk, scale.cfs_params))
        _, report = took.result  # type: ignore[misc]
        note = (
            f"{report.files_recovered} files from "
            f"{report.sectors_scanned} labels"
        )
        recovery_ms = took.elapsed_ms
    return Table2Result(ms=ms, recovery_ms=recovery_ms, recovery_note=note)


def measure_cfs_recovery(scale: Scale = SMALL) -> tuple[float, str]:
    """Standalone CFS scavenge measurement."""
    result = measure_cfs_table2(scale, include_recovery=True)
    return result.recovery_ms, result.recovery_note
