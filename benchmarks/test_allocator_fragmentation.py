"""§5.6 — file sizes and the big/small allocation areas.

"A large fraction of files are small.  A measurement of one system
shows 50% of files are less than 4,000 bytes but use only 8% of the
sectors."  And: "FSD partitions the disk into big and small file areas
to curtail fragmentation.  Large free blocks of space were broken up
by small files [in CFS]."

This bench checks the workload distribution reproduces both moments,
then runs the same create/delete churn through FSD's two-area
allocator and CFS's single-area first-fit and compares the
fragmentation of the space where large files must live.

A second churn ages the small-file area itself past two passes of its
next-fit cursor (with crashes and clean remounts on the way) and
checks that the rotational gap left in front of each new small file
does not split the files placed once the cursor has wrapped.
"""

from __future__ import annotations

import random

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import TRIDENT_T300, DiskGeometry
from repro.harness.report import Table
from repro.harness.scenarios import FULL, cfs_volume, fsd_volume
from repro.workloads.generators import (
    PaperFileSizes,
    payload,
    small_fraction_stats,
)

CHURN_FILES = 260
CHURN_DELETE_FRACTION = 0.5


def _churn(fs_create, fs_delete, settle) -> None:
    """Interleaved creates and deletes with the paper's size mix."""
    sizes = PaperFileSizes(seed=77)
    rng = random.Random(78)
    live: list[str] = []
    for index in range(CHURN_FILES):
        name = f"churn/f-{index:04d}"
        fs_create(name, payload(sizes.sample(), index))
        live.append(name)
        if rng.random() < CHURN_DELETE_FRACTION and len(live) > 4:
            fs_delete(live.pop(rng.randrange(len(live))))
    settle()


def _largest_free_run(vam, start: int, end: int) -> int:
    largest = 0
    cursor = start
    while cursor < end:
        run = vam.find_free_run(cursor, end, end - start, ascending=True)
        if run is None:
            break
        largest = max(largest, run.count)
        cursor = run.end
    return largest


def test_allocator_fragmentation(once):
    def run():
        sizes = PaperFileSizes(seed=1987).sample_many(4_000)
        count_fraction, byte_fraction = small_fraction_stats(sizes)

        disk_f, fsd, fsd_adapter = fsd_volume(FULL)
        _churn(fsd_adapter.create, fsd_adapter.delete, fsd_adapter.settle)
        big = fsd.layout.big_area
        fsd_largest = _largest_free_run(fsd.vam, big.start, big.end)

        disk_c, cfs, cfs_adapter = cfs_volume(FULL)
        _churn(cfs_adapter.create, cfs_adapter.delete, cfs_adapter.settle)
        # In CFS large files share one area with everything else; look
        # at the contiguity left near the allocation frontier, where a
        # large file would have to go.
        frontier_lo = cfs.layout.data_start
        frontier_hi = min(cfs._cursor + 4_096, cfs.layout.data_end)
        cfs_largest = _largest_free_run(cfs.vam, frontier_lo, frontier_hi)
        return count_fraction, byte_fraction, fsd_largest, cfs_largest

    count_fraction, byte_fraction, fsd_largest, cfs_largest = once(run)

    table = Table("§5.6: file sizes and allocator fragmentation")
    table.add("files < 4,000 bytes", "50%", f"{100 * count_fraction:.0f}%")
    table.add("bytes in those files", "8%", f"{100 * byte_fraction:.0f}%")
    table.add(
        "largest free run for big files (sectors)",
        "FSD >> CFS",
        f"FSD {fsd_largest} vs CFS {cfs_largest}",
        note="after identical create/delete churn",
    )
    table.print()

    # The distribution reproduces the paper's two moments.
    assert 0.44 <= count_fraction <= 0.56
    assert 0.04 <= byte_fraction <= 0.14
    # The big-file area stays contiguous; CFS's mixed area is chopped up.
    assert fsd_largest > 10 * max(cfs_largest, 1)


#: A T-300 cut to 100 cylinders: the drive's own tracks and timing, a
#: small-file area of about 33 000 sectors that the churn below fills
#: more than twice over in 4 000 creates.
WRAP_GEOMETRY = DiskGeometry(
    cylinders=100,
    heads=TRIDENT_T300.heads,
    sectors_per_track=TRIDENT_T300.sectors_per_track,
)
WRAP_PARAMS = VolumeParams(
    nt_pages=1024, log_record_sectors=600, cache_pages=96
)
WRAP_CREATES = 4_000
#: live files kept: about 85 % of the small area, so whole free runs
#: are scarce once the cursor has wrapped.
WRAP_LIVE = 1_150


def _wrap_churn(seed: int) -> dict[str, float]:
    """Creates in batches of ten, each batch read back in creation
    order, random deletes down to ``WRAP_LIVE`` live files, and a
    crash or a clean unmount (alternately) every 500 creates."""
    disk = SimDisk(geometry=WRAP_GEOMETRY)
    FSD.format(disk, WRAP_PARAMS)
    fs = FSD.mount(disk)
    sizes = PaperFileSizes(seed=seed)
    rng = random.Random(seed + 1)
    clock, stats = disk.clock, disk.stats
    live: list[str] = []
    out = dict(runs=0, split=0, sectors=0, create_ios=0, read_ios=0)
    out.update(create_ms=0.0, read_ms=0.0)
    for first in range(0, WRAP_CREATES, 10):
        batch = [f"wrap/f-{index:05d}" for index in range(first, first + 10)]
        for index, name in enumerate(batch, first):
            writes, now = stats.writes, clock.now_ms
            handle = fs.create(name, payload(sizes.sample(), index))
            out["create_ms"] += clock.now_ms - now
            out["create_ios"] += stats.writes - writes
            out["runs"] += len(handle.runs.runs)
            out["split"] += len(handle.runs.runs) > 1
            out["sectors"] += 1 + handle.runs.total_sectors
            live.append(name)
        for name in batch:
            reads, now = stats.reads, clock.now_ms
            fs.read(fs.open(name))
            out["read_ms"] += clock.now_ms - now
            out["read_ios"] += stats.reads - reads
        while len(live) > WRAP_LIVE:
            fs.delete(live.pop(rng.randrange(len(live))))
        if (first + 10) % 500 == 0:
            fs.force()
            if (first + 10) % 1_000:
                fs.crash()
            else:
                fs.unmount()
            fs = FSD.mount(disk)
    out["passes"] = out["sectors"] / fs.layout.small_area.count
    out["sim_s"] = clock.now_ms / 1000
    return out


def test_small_area_wrap_churn(once):
    result = once(lambda: _wrap_churn(seed=1))
    runs_per_file = result["runs"] / WRAP_CREATES

    table = Table("§5.6: small-file area aged past its cursor's wrap")
    table.add("passes over the small area", "> 1", f"{result['passes']:.1f}")
    table.add("runs per small file", "~1", f"{runs_per_file:.3f}")
    table.add("files split", "", f"{result['split']}")
    table.add(
        "writes per create", "",
        f"{result['create_ios'] / WRAP_CREATES:.2f}",
    )
    table.add(
        "reads per read-back", "",
        f"{result['read_ios'] / WRAP_CREATES:.2f}",
    )
    table.add("simulated time (s)", "", f"{result['sim_s']:.1f}")
    table.print()

    # The churn really ages the area: more than two passes' worth.
    assert result["passes"] > 2
    # A file goes whole into any free run that holds it; splitting every
    # file over the 3-sector gaps would give ~1.8 runs per file here.
    assert runs_per_file < 1.15
