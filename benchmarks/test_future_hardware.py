"""§5/§6 — "scaled well to slow-seeking but high-transfer-rate disks."

The paper designed for the future: "Faster CPU's such as the Dragon
will be common in workstations as will slower disks (e.g., optical
disks)."  FSD's central metadata, batched log writes and streaming
transfers should matter *more* on a drive whose seeks are expensive
relative to its transfer rate.

This bench reruns a metadata-heavy workload on the Trident-class
timing and on an "optical-ish" profile (4x slower positioning, 2x
denser tracks) and checks that the CFS-to-FSD gap widens.
"""

from __future__ import annotations

from repro.cfs.cfs import CFS
from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.disk.timing import DiskTiming
from repro.harness.report import Table, ratio
from repro.harness.runner import measure
from repro.harness.scenarios import FULL
from repro.workloads.generators import payload

TRIDENT = DiskTiming()
#: slow-seeking, high-transfer-rate future drive: positioning costs 4x,
#: but twice the sectors pass the head per revolution.
OPTICAL = DiskTiming(
    seek_settle_ms=22.0,
    seek_coeff_ms=6.0,
)
OPTICAL_GEOMETRY = DiskGeometry(
    cylinders=FULL.geometry.cylinders,
    heads=FULL.geometry.heads,
    sectors_per_track=2 * FULL.geometry.sectors_per_track,
)


def _workload_ms(system: str, timing: DiskTiming, geometry: DiskGeometry) -> float:
    disk = SimDisk(geometry=geometry, timing=timing)
    if system == "fsd":
        FSD.format(disk, FULL.fsd_params)
        fs = FSD.mount(disk)
    else:
        CFS.format(disk, FULL.cfs_params)
        fs = CFS.mount(disk, FULL.cfs_params)

    def body() -> None:
        for index in range(60):
            fs.create(f"w/f-{index:02d}", payload(1_200, index))
            disk.clock.drain(30.0)
        for index in range(0, 60, 2):
            handle = fs.open(f"w/f-{index:02d}")
            fs.read(handle, 0, 512)
            disk.clock.drain(30.0)
        for index in range(0, 60, 3):
            fs.delete(f"w/f-{index:02d}")
            disk.clock.drain(30.0)

    took = measure(disk, body)
    return took.elapsed_ms


def test_future_hardware(once):
    def run():
        return {
            ("fsd", "trident"): _workload_ms("fsd", TRIDENT, FULL.geometry),
            ("cfs", "trident"): _workload_ms("cfs", TRIDENT, FULL.geometry),
            ("fsd", "optical"): _workload_ms("fsd", OPTICAL, OPTICAL_GEOMETRY),
            ("cfs", "optical"): _workload_ms("cfs", OPTICAL, OPTICAL_GEOMETRY),
        }

    results = once(run)

    trident_gap = ratio(results[("cfs", "trident")], results[("fsd", "trident")])
    optical_gap = ratio(results[("cfs", "optical")], results[("fsd", "optical")])

    table = Table("§5: scaling to slow-seek / fast-transfer drives")
    table.add(
        "Trident-class (1978 disk)",
        "FSD wins",
        f"CFS/FSD = {trident_gap:.2f}x",
        note=f"{results[('cfs', 'trident')] / 1000:.1f}s vs "
             f"{results[('fsd', 'trident')] / 1000:.1f}s",
    )
    table.add(
        "optical-ish (slow seek, fast transfer)",
        "FSD wins by more",
        f"CFS/FSD = {optical_gap:.2f}x",
        note=f"{results[('cfs', 'optical')] / 1000:.1f}s vs "
             f"{results[('fsd', 'optical')] / 1000:.1f}s",
    )
    table.print()

    assert trident_gap > 1.5
    assert optical_gap > trident_gap * 1.1, (
        "the design should scale better on slow-seek drives"
    )
