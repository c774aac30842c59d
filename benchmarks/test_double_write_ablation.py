"""§5.1/§5.8 ablation — what the double-written name table costs and buys.

"To improve robustness, the file name table is written twice...  Due
to the extensive buffering provided by the log, the overhead for
double writing is not excessive."  This ablation measures both halves
of the claim on the running system (not just the model):

* cost: a metadata-heavy workload is barely slower with double writes
  — when the tree fits the cache (the second copy rides the same
  batched writebacks) and when it does not (every miss reads both
  copies, and copy B sits in copy A's cylinder, three slots on);
* benefit: with one copy, a single damaged sector loses metadata that
  the double-written volume shrugs off.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.errors import CorruptMetadata, DamagedSectorError
from repro.harness.report import Table
from repro.harness.runner import measure
from repro.harness.scenarios import FULL
from repro.workloads.generators import payload

#: the resident row: the whole tree (~35 pages) stays in the 96-page
#: metadata cache, so the only name-table I/O is batched write-home.
RESIDENT_FILES = 120
#: the cache-missing row: ten times the files (~330 leaves against 96
#: cache pages) and opens in random order, so most opens and deletes
#: miss a leaf and pay the double read.
MISSING_FILES = 1200
MISSING_OPENS = 600
#: the double write may cost this much on the cache-missing row
#: (x1.03 measured).  A twin in an extent of its own, the format before
#: "FSD2", cost x1.56: 117.9 s against 75.6 s.
MISSING_LIMIT = 1.15


def _run_workload(
    single_copy: bool, files: int, opens: int = 0
) -> tuple[float, int, bool]:
    """(elapsed ms, total I/Os, survived-single-sector-damage)."""
    params = replace(FULL.fsd_params, single_nt_copy=single_copy)
    disk = SimDisk(geometry=FULL.geometry)
    FSD.format(disk, params)
    fs = FSD.mount(disk)
    rng = random.Random(51)

    def body() -> None:
        for index in range(files):
            fs.create(f"w/f-{index:04d}", payload(900, index))
            disk.clock.drain(30.0)
        for index in rng.sample(range(files), opens):
            fs.open(f"w/f-{index:04d}")
        if opens:
            fs.list("w/")
        for index in range(0, files, 3):
            fs.delete(f"w/f-{index:04d}")
            disk.clock.drain(30.0)
        fs.force()

    took = measure(disk, body)

    # Robustness probe: write everything home, damage one sector of
    # copy A of a name-table page that is actually in use, drop the
    # cache, and try to use the volume.
    fs.unmount()
    fs = FSD.mount(disk)
    victim = fs.name_table.tree._root  # the root page is always in use
    addr_a, _ = fs.layout.nt_page_addresses(victim)
    disk.faults.damage(addr_a)
    fs.cache.discard_all()
    try:
        fs.list("w/")
        survived = True
    except (CorruptMetadata, DamagedSectorError):
        survived = False
    return took.elapsed_ms, took.io.total_ios, survived


def test_double_write_ablation(once):
    def run():
        return (
            _run_workload(True, RESIDENT_FILES),
            _run_workload(False, RESIDENT_FILES),
            _run_workload(True, MISSING_FILES, MISSING_OPENS),
            _run_workload(False, MISSING_FILES, MISSING_OPENS),
        )

    (
        (single_ms, single_ios, single_ok),
        (double_ms, double_ios, double_ok),
        (single_miss_ms, single_miss_ios, _),
        (double_miss_ms, double_miss_ios, _),
    ) = once(run)

    table = Table("§5.1 ablation: double-written name table")
    table.add(
        "workload time, tree resident",
        "overhead 'not excessive'",
        f"{single_ms / 1000:.2f} s -> {double_ms / 1000:.2f} s "
        f"(+{100 * (double_ms - single_ms) / single_ms:.0f}%)",
    )
    table.add(
        "workload I/Os, tree resident", "slightly more",
        f"{single_ios} -> {double_ios}",
    )
    table.add(
        "workload time, cache missing",
        "overhead 'not excessive'",
        f"{single_miss_ms / 1000:.1f} s -> {double_miss_ms / 1000:.1f} s "
        f"(x{double_miss_ms / single_miss_ms:.2f})",
    )
    table.add(
        "workload I/Os, cache missing", "a read more per miss",
        f"{single_miss_ios} -> {double_miss_ios}",
    )
    table.add(
        "survives 1-sector damage", "double: yes / single: no",
        f"double: {double_ok} / single: {single_ok}",
    )
    table.print()

    # Cost: bounded (well under 2x on a metadata-heavy workload)...
    assert double_ms < 1.75 * single_ms
    assert double_ios < 2 * single_ios
    # ...also when the reads it doubles are actually issued: every
    # miss reads copy B in copy A's cylinder, in the same pass.
    assert double_miss_ms <= MISSING_LIMIT * single_miss_ms
    assert double_miss_ios > single_miss_ios
    # Benefit: the whole point.
    assert double_ok
    assert not single_ok
