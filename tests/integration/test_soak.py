"""Long-running soak tests: sustained mixed workloads with periodic
crashes, verified against full integrity checks.

These are the "keep the system honest" tests: thousands of operations,
several log wraps, cache churn, VAM shadow traffic, version trimming —
then a byte-for-byte audit plus the offline verifier.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=150, heads=8, sectors_per_track=24)
PARAMS = VolumeParams(
    nt_pages=1024, log_record_sectors=231, cache_pages=32,
    max_record_pages=16,
)


@pytest.mark.parametrize("seed", [11, 23])
def test_soak_mixed_workload_with_crashes(seed):
    rng = random.Random(seed)
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    fs = FSD.mount(disk)

    committed: dict[str, bytes] = {}
    pending: dict[str, bytes | None] = {}
    serial = 0

    def apply_pending() -> None:
        for name, data in pending.items():
            if data is None:
                committed.pop(name, None)
            else:
                committed[name] = data
        pending.clear()

    for step in range(1_200):
        roll = rng.random()
        if roll < 0.45 or not committed:
            serial += 1
            name = f"soak/f-{rng.randrange(120):03d}"
            data = payload(rng.randrange(64, 3_000), serial)
            fs.create(name, data, keep=1)
            pending[name] = data
        elif roll < 0.65:
            name = rng.choice(sorted(committed))
            handle = fs.open(name)
            expected = pending.get(name, committed.get(name))
            if expected is not None:
                assert fs.read(handle) == expected
        elif roll < 0.80:
            name = rng.choice(sorted(committed))
            if fs.exists(name):
                fs.delete(name)
                pending[name] = None
        elif roll < 0.97:
            fs.clock.advance_idle(rng.uniform(10, 400))
            fs.clock.tick()
            if rng.random() < 0.3:
                fs.force()
                apply_pending()
        else:
            fs.force()
            apply_pending()
            fs.crash()
            fs = FSD.mount(disk)
            # Re-adopt recovered state (timer commits may have carried
            # more than `committed`).
            committed = {
                props.name: fs.read(fs.open(props.name))
                for props in fs.list("soak/")
            }
            pending.clear()

    fs.force()
    apply_pending()

    # Full audit.
    live = {props.name: fs.read(fs.open(props.name)) for props in fs.list("soak/")}
    assert live == committed
    report = verify_volume(fs)
    assert report.clean, report.problems
    # The log must have wrapped several times during the soak.
    assert fs.wal.records_written * 7 > 3 * fs.wal.area_sectors


def test_soak_survives_background_media_faults():
    """Random single-sector damage on metadata regions while working:
    the double-write/log redundancy must absorb every one."""
    rng = random.Random(5)
    disk = SimDisk(geometry=GEO)
    FSD.format(disk, PARAMS)
    fs = FSD.mount(disk)
    layout = fs.layout

    contents: dict[str, bytes] = {}
    for step in range(300):
        name = f"m/f-{step % 60:02d}"
        data = payload(200 + (step % 37) * 29, step)
        fs.create(name, data, keep=1)
        contents[name] = data
        if step % 10 == 9:
            fs.force()
        if step % 25 == 24:
            # Damage one sector of NT copy A or B (never both of a pair).
            page = rng.randrange(PARAMS.nt_pages)
            copy = rng.choice([0, 1])
            disk.faults.damage(layout.nt_page_addresses(page)[copy])
    fs.force()
    for name, data in contents.items():
        assert fs.read(fs.open(name)) == data
    # Crash + recovery on the damaged-but-redundant volume.
    fs.crash()
    recovered = FSD.mount(disk)
    for name, data in contents.items():
        assert recovered.read(recovered.open(name)) == data
