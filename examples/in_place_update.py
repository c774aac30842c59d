#!/usr/bin/env python3
"""In-place updates on FSD, CFS and 4.3 BSD, then a clean shutdown.

Run:  python examples/in_place_update.py

The paper's tables time creates, opens, reads, deletes and lists.  This
walk does the other thing a workstation does to a file: it patches a
few bytes in the middle of it, then appends to it.  For each system it
prints the disk I/Os the two updates cost:

* FSD reads back a partly covered page, writes the data pages and
  logs the metadata change in the next group commit (forced here);
* CFS reads the partly covered pages back, writes the data, claims
  labels for every page the append adds and rewrites the file header;
* 4.3 BSD patches blocks through its buffer cache (the block it has
  just written needs no read), allocates new blocks for the append
  and rewrites the inode synchronously.

Each volume is then unmounted cleanly and mounted again, and the file
reads back with both updates in it.
"""

from repro.bsd.ffs import FFS
from repro.cfs.cfs import CFS
from repro.core.fsd import FSD
from repro.disk import StatsWindow
from repro.harness.scenarios import SMALL, cfs_volume, ffs_volume, fsd_volume
from repro.workloads.generators import payload

NAME = "report.tioga"
ORIGINAL = payload(6_000, 1)
PATCH_AT, PATCH = 2_000, b"revised paragraph"
APPEND = payload(3_000, 2)
EXPECTED = (
    ORIGINAL[:PATCH_AT] + PATCH + ORIGINAL[PATCH_AT + len(PATCH):] + APPEND
)


def update(disk, fs, settle) -> tuple[int, int]:
    """Patch then append to ``NAME``; the I/Os each step cost."""
    fs.create(NAME, ORIGINAL)
    settle()
    costs = []
    for offset, data in ((PATCH_AT, PATCH), (len(ORIGINAL), APPEND)):
        window = StatsWindow(disk.stats)
        fs.write(fs.open(NAME), offset, data)
        settle()
        costs.append(window.delta(disk.stats).total_ios)
    return costs[0], costs[1]


def main() -> None:
    print(f"{'system':<8} {'patch 17 B':>11} {'append 3 KB':>12}  after remount")

    disk, fsd, _ = fsd_volume(SMALL)
    patch, append = update(disk, fsd, fsd.force)
    fsd.unmount()
    fsd = FSD.mount(disk)
    assert fsd.read(fsd.open(NAME)) == EXPECTED
    print(f"{'FSD':<8} {patch:>11} {append:>12}  intact")

    disk, cfs, _ = cfs_volume(SMALL)
    patch, append = update(disk, cfs, lambda: None)
    cfs.unmount()
    cfs = CFS.mount(disk, SMALL.cfs_params)
    assert cfs.read(cfs.open(NAME)) == EXPECTED
    print(f"{'CFS':<8} {patch:>11} {append:>12}  intact")

    disk, ffs, _ = ffs_volume(SMALL)
    patch, append = update(disk, ffs, lambda: None)
    ffs.unmount()
    ffs = FFS.mount(disk, SMALL.ffs_params)
    assert ffs.read(ffs.open(NAME)) == EXPECTED
    print(f"{'4.3 BSD':<8} {patch:>11} {append:>12}  intact")


if __name__ == "__main__":
    main()
