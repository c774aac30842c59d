#!/usr/bin/env python3
"""The MakeDo build benchmark on all three file systems.

Run:  python examples/makedo_build.py

"The MakeDo program used as a benchmark is typical of clients that
intensively use the file system" (paper §7, Table 3).  The synthetic
build compiles 30 modules — page-at-a-time source reads, scratch and
object file creates, scratch deletes — and reports disk I/Os and
simulated wall clock per file system.  FSD runs twice: on the paper's
mount (``PAPER``: a disk request per page read, which is
what Table 3 compares) and on the default mount, whose read-ahead
fetches each source file's disk run in a few transfers.
"""

from functools import partial

from repro.core.fsd import PAPER
from repro.harness.batches import measure_makedo
from repro.harness.scenarios import (
    FULL,
    cfs_volume,
    ffs_volume,
    fsd_volume,
    populate,
)


def main() -> None:
    rows = []
    for name, factory in (
        ("FSD", partial(fsd_volume, options=PAPER)),
        ("FSD r-a", fsd_volume),
        ("CFS", cfs_volume),
        ("4.3BSD", ffs_volume),
    ):
        disk, _, adapter = factory(FULL)
        populate(adapter, 100)
        ios, elapsed_ms = measure_makedo(disk, adapter, modules=30)
        rows.append((name, ios, elapsed_ms))

    print(f"{'system':>8} {'disk I/Os':>10} {'sim seconds':>12}")
    for name, ios, elapsed_ms in rows:
        print(f"{name:>8} {ios:>10} {elapsed_ms / 1000:>12.1f}")

    fsd_ios = rows[0][1]
    cfs_ios = rows[2][1]
    print(
        f"\nCFS/FSD I/O ratio: {cfs_ios / fsd_ios:.2f}x "
        f"(paper Table 3: 1975/1299 = 1.52x — data I/O dominates, the\n"
        f"metadata savings are the margin)"
    )


if __name__ == "__main__":
    main()
