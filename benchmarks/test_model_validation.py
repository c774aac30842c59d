"""§6 — validating the analytical model against measurement.

"For the simple operations benchmarked, the model almost always
predicted performance to within five percent of measured performance."

The model here is evaluated against the *same* timing object the
simulator runs on, and the measurements are the Table 2 operations
plus the page-at-a-time sequential read of the MakeDo client, on the
paper's mount and on the default one, and the double read of a
name-table page miss (the operations beyond Table 2 the model is asked
about: ROADMAP's budget oracle).
The paper's model deliberately ignored CPU time; we report the
CPU-corrected prediction (our CPU model is known, so including it is
the like-for-like comparison) and flag the error band.
"""

from __future__ import annotations

import random

from repro.core.fsd import FSD, PAPER
from repro.disk.geometry import TRIDENT_T300
from repro.disk.timing import TRIDENT_TIMING
from repro.harness.ops import (
    measure_cfs_table2,
    measure_fsd_table2,
)
from repro.harness.report import Table
from repro.harness.scenarios import FULL, fsd_volume, populate_recovery_volume
from repro.model.evaluate import predict_all
from repro.model.scripts import (
    SEQUENTIAL_THINK_MS,
    SOURCE_FILE_PAGES,
    ModelAssumptions,
    all_scripts,
)
from repro.model.validate import compare, max_abs_error_pct, mean_abs_error_pct
from repro.obs import Observer
from repro.workloads.generators import payload

#: operations the §6-style scripts model (steady-state single ops; the
#: large transfers and recovery paths are modelled elsewhere).
MODELED = [
    "cfs small create",
    "cfs large create",
    "cfs open",
    "cfs open+read",
    "cfs read page",
    "cfs small delete",
    "fsd name-table page miss",
    "fsd open",
    "fsd read page",
    "fsd sequential page read",
    "fsd sequential page read (read-ahead)",
    "fsd small create",
    "fsd large create",
    "fsd small delete",
]


#: a MakeDo source file: 24 pages in one disk run.
SOURCE_BYTES = SOURCE_FILE_PAGES * 512
SOURCE_FILES = 20


def measure_sequential_page_read(first_page: bool = False, **mount) -> float:
    """Mean simulated ms per page, think time included, of page-at-a-
    time passes over ``SOURCE_FILES`` source files.  Page 0 is counted
    only with ``first_page``: on the paper's mount it is the
    ``open+read`` script's (leader piggyback, first seek); with
    read-ahead its read fetches the window the later pages hit."""
    disk, fs, _ = fsd_volume(FULL, **mount)
    for index in range(SOURCE_FILES):
        fs.create(f"src/m{index:02d}", payload(SOURCE_BYTES, index))
    fs.force()
    clock = disk.clock
    total, pages = 0.0, 0
    for index in range(SOURCE_FILES):
        handle = fs.open(f"src/m{index:02d}")
        start = clock.now_ms
        fs.read(handle, 0, 512)
        if first_page:
            pages += 1
        else:
            start = clock.now_ms
        for offset in range(512, SOURCE_BYTES, 512):
            clock.advance_idle(SEQUENTIAL_THINK_MS)
            fs.read(handle, offset, 512)
            pages += 1
        total += clock.now_ms - start
    return total / pages


def measure_nt_page_miss() -> float:
    """Mean ``nt.double_read_ms`` (what ``NameTableHome.read_page``
    observes: copy A's set-up to the end of copy B's transfer) over
    cold opens that miss exactly one page, their leaf.  Before each
    open one raw sector read puts the head a third of the stroke from
    the name table, the distance the model's ``Seek`` stands for; an
    open that misses twice is left out because its second double read
    starts in the name table's own cylinders."""
    disk, fs, adapter = fsd_volume(FULL, options=PAPER)
    names = [
        name for name in populate_recovery_volume(adapter, FULL)
        if name.startswith("aged/")
    ]
    fs.unmount()
    obs = Observer()
    fs = FSD.mount(disk, obs=obs, options=PAPER)
    geometry = disk.geometry
    away = geometry.cylinder_start(
        geometry.cylinder_of(fs.layout.nt_start) - geometry.cylinders // 3
    )
    double_read = obs.metrics.histogram("nt.double_read_ms")
    rng = random.Random(11)
    samples = []
    for name in rng.sample(names, 200):
        disk.read(away + rng.randrange(geometry.sectors_per_cylinder), 1)
        count, total = double_read.count, double_read.total
        fs.open(name)
        if double_read.count - count == 1:
            samples.append(double_read.total - total)
    assert len(samples) >= 50
    return sum(samples) / len(samples)


def test_model_validation(once):
    def run():
        fsd = measure_fsd_table2(FULL, include_recovery=False)
        cfs = measure_cfs_table2(FULL, include_recovery=False)
        return {
            **fsd.ms,
            **cfs.ms,
            "fsd sequential page read": measure_sequential_page_read(
                options=PAPER
            ),
            "fsd sequential page read (read-ahead)":
                measure_sequential_page_read(first_page=True),
            "fsd name-table page miss": measure_nt_page_miss(),
        }

    measured = once(run)

    assume = ModelAssumptions()
    predictions = predict_all(all_scripts(assume), TRIDENT_TIMING, TRIDENT_T300)
    rows = compare(
        predictions, {name: measured[name] for name in MODELED}
    )

    table = Table("§6 model validation (predicted vs simulated, ms)")
    for row in rows:
        table.add(
            row.operation,
            f"{row.predicted_ms:.1f}",
            f"{row.measured_ms:.1f}",
            note=f"{row.error_pct:+.0f}%",
        )
    table.add(
        "mean |error|", "~5% (paper)", f"{mean_abs_error_pct(rows):.0f}%"
    )
    table.print()

    # The paper claims ~5% on real hardware with hand-tuned scripts;
    # we hold the reproduction to a generous band that still catches
    # structural modelling mistakes.
    assert mean_abs_error_pct(rows) < 35.0
    assert max_abs_error_pct(rows) < 80.0
    # Copy B is three slots round copy A's cylinder: set-up, the rest
    # of the skew, a transfer.  A script that still priced the seek and
    # the lost revolution of a twin in its own extent would be 130 %
    # over.
    miss = next(
        row for row in rows if row.operation == "fsd name-table page miss"
    )
    assert abs(miss.error_pct) < 5.0
    # The model must rank the systems correctly.
    assert (
        predictions["fsd small create"].predicted_ms
        < predictions["cfs small create"].predicted_ms
    )
    assert predictions["fsd open"].predicted_ms < predictions["cfs open"].predicted_ms
    assert (
        predictions["fsd small delete"].predicted_ms
        < predictions["cfs small delete"].predicted_ms
    )
