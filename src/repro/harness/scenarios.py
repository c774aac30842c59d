"""Canonical experiment setups shared by tests and benchmarks.

Two scales exist: ``SMALL`` (a ~38 MB drive, used by the test suite to
keep runtimes low) and ``FULL`` (the ~306 MB Trident-class drive of
the paper's evaluation, used by the benchmarks).  The *shape* of every
result holds at both scales; absolute seek distances and scan times
shrink on the small drive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bsd.ffs import FFS
from repro.bsd.layout import FfsParams
from repro.cfs.cfs import CFS, CfsParams
from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry, TRIDENT_T300
from repro.harness.adapters import CfsAdapter, FfsAdapter, FsdAdapter
from repro.workloads.generators import PaperFileSizes, payload


@dataclass(frozen=True)
class Scale:
    """One experiment scale: geometry plus per-FS parameters."""

    name: str
    geometry: DiskGeometry
    fsd_params: VolumeParams
    cfs_params: CfsParams
    ffs_params: FfsParams
    #: files pre-created before Table-2-style latency measurements.
    populate_files: int = 300
    #: files + big files for the "moderately full" recovery volumes.
    recovery_files: int = 400
    recovery_big_files: int = 4
    recovery_big_bytes: int = 2 * 1024 * 1024


SMALL = Scale(
    name="small",
    geometry=DiskGeometry(cylinders=200, heads=8, sectors_per_track=48),
    fsd_params=VolumeParams(
        nt_pages=1024, log_record_sectors=600, cache_pages=96
    ),
    cfs_params=CfsParams(nt_pages=512, cache_pages=48),
    ffs_params=FfsParams(
        cylinders_per_group=16, inodes_per_group=256, buffer_cache_blocks=64
    ),
    populate_files=150,
    recovery_files=150,
    recovery_big_files=2,
    recovery_big_bytes=1024 * 1024,
)

FULL = Scale(
    name="t300",
    geometry=TRIDENT_T300,
    fsd_params=VolumeParams(
        nt_pages=4096, log_record_sectors=768, cache_pages=96
    ),
    cfs_params=CfsParams(nt_pages=2048, cache_pages=64),
    ffs_params=FfsParams(
        cylinders_per_group=16, inodes_per_group=512, buffer_cache_blocks=64
    ),
    populate_files=600,
    recovery_files=1200,
    recovery_big_files=15,
    recovery_big_bytes=4 * 1024 * 1024,
)


# ----------------------------------------------------------------------
# volume factories
# ----------------------------------------------------------------------
def fsd_volume(
    scale: Scale = SMALL, **mount
) -> tuple[SimDisk, FSD, FsdAdapter]:
    """A freshly formatted FSD volume at ``scale``, mounted with
    ``mount`` — what :meth:`FSD.mount` takes: ``options=PAPER``,
    ``data_cache_pages=64``.  Benchmarks use it to compare mounts."""
    disk = SimDisk(geometry=scale.geometry)
    FSD.format(disk, scale.fsd_params)
    fs = FSD.mount(disk, **mount)
    return disk, fs, FsdAdapter(fs)


def cfs_volume(scale: Scale = SMALL) -> tuple[SimDisk, CFS, CfsAdapter]:
    """A freshly formatted, mounted CFS volume at ``scale``."""
    disk = SimDisk(geometry=scale.geometry)
    CFS.format(disk, scale.cfs_params)
    fs = CFS.mount(disk, scale.cfs_params)
    return disk, fs, CfsAdapter(fs)


def ffs_volume(scale: Scale = SMALL) -> tuple[SimDisk, FFS, FfsAdapter]:
    """A freshly formatted, mounted FFS volume at ``scale``."""
    disk = SimDisk(geometry=scale.geometry)
    FFS.format(disk, scale.ffs_params)
    fs = FFS.mount(disk, scale.ffs_params)
    return disk, fs, FfsAdapter(fs)


# ----------------------------------------------------------------------
# population
# ----------------------------------------------------------------------
def populate(
    adapter,
    count: int,
    directory: str = "aged",
    seed: int = 1987,
    max_bytes: int | None = 4_000,
) -> list[str]:
    """Pre-create ``count`` files so the name table has realistic depth.

    Small files by default (cheap to build, deep enough trees); pass
    ``max_bytes=None`` for the full paper distribution.
    """
    sizes = PaperFileSizes(seed=seed)
    names = []
    for index in range(count):
        size = sizes.sample()
        if max_bytes is not None:
            size = min(size, max_bytes)
        name = f"{directory}/file-{index:05d}"
        adapter.create(name, payload(size, index))
        names.append(name)
    adapter.settle()
    return names


def populate_recovery_volume(adapter, scale: Scale) -> list[str]:
    """The "moderately full" volume for the recovery and Table 2 runs.

    Besides the small files and large archives, the big-file area is
    *aged*: a band of medium files is created and every other one
    deleted, leaving holes, so subsequently created large files get the
    multi-run tables a volume in service would give them.
    """
    names = populate(adapter, scale.recovery_files, directory="aged")
    for index in range(scale.recovery_big_files):
        name = f"big/archive-{index:02d}"
        adapter.create(name, payload(scale.recovery_big_bytes, 7000 + index))
        names.append(name)
    hole_bytes = max(scale.recovery_big_bytes // 16, 64 * 1024)
    holes = 2 * scale.recovery_big_files
    for index in range(holes):
        adapter.create(f"frag/band-{index:02d}", payload(hole_bytes, index))
    for index in range(0, holes, 2):
        adapter.delete(f"frag/band-{index:02d}")
    adapter.settle()
    return names
