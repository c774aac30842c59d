"""§7 — where the FSD advantage fades: the data-dominance crossover.

"Typically, programs that are file system intensive have improvements
from 25 to 50% in running time, but some operations have improved by a
factor of 5 or even 100.  Note that the 'read page' time is identical
in both systems."

FSD's wins are metadata wins.  As files grow, data transfer dominates
and the CFS/FSD ratio must fall from the metadata factors (4–15x)
toward the label-pass overhead on writes (~3x, CFS writes labels then
data) and ~1x on reads.  This bench sweeps create+read over file sizes
and checks the crossover shape.
"""

from __future__ import annotations

from repro.harness.report import Table, ratio
from repro.harness.runner import measure
from repro.harness.scenarios import FULL, cfs_volume, fsd_volume
from repro.workloads.generators import payload

SIZES = [512, 4 * 1024, 32 * 1024, 256 * 1024, 1024 * 1024]


def _sweep(factory) -> dict[int, tuple[float, float]]:
    """size -> (create ms, read ms) averaged over a few files."""
    disk, fs, adapter = factory(FULL)
    out = {}
    for size in SIZES:
        blob = payload(size, size)
        create_total = read_total = 0.0
        for index in range(3):
            name = f"sz{size}/f{index}"
            create_total += measure(
                disk, lambda: adapter.create(name, blob)
            ).elapsed_ms
            disk.clock.drain(40.0)
            handle = adapter.open(name)
            read_total += measure(
                disk, lambda: adapter.read(handle)
            ).elapsed_ms
            disk.clock.drain(40.0)
        out[size] = (create_total / 3, read_total / 3)
    return out


def test_size_crossover(once):
    def run():
        return _sweep(fsd_volume), _sweep(cfs_volume)

    fsd, cfs = once(run)

    table = Table("§7: CFS/FSD ratio vs file size (the crossover)")
    create_ratios, read_ratios = [], []
    for size in SIZES:
        create_ratio = ratio(cfs[size][0], fsd[size][0])
        read_ratio = ratio(cfs[size][1], fsd[size][1])
        create_ratios.append(create_ratio)
        read_ratios.append(read_ratio)
        table.add(
            f"{size // 1024 or 0.5} KB" if size >= 1024 else "0.5 KB",
            "ratio falls with size",
            f"create {create_ratio:.1f}x, read {read_ratio:.1f}x",
        )
    table.print()

    # Creates: metadata-dominated in the small-file region, then
    # settling toward the label-pass overhead (~3x) once data
    # dominates.
    small_end = max(create_ratios[:2])
    assert small_end > 4.0
    assert 1.5 <= create_ratios[-1] <= 4.5
    assert create_ratios[-1] < small_end / 2
    # Reads: converge toward parity as transfer dominates ("read page
    # time is identical in both systems").
    assert read_ratios[-1] < 1.5
    assert read_ratios[-1] <= read_ratios[0]
