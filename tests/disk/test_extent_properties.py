"""Property tests: the extent-batched I/O core against per-sector
references.

The batched fast paths (single-consult fault guards, ``dict.update``
extent installs, the mirror's batched shadow) exist purely for
wall-clock speed.  Every observable — returned data, charged simulated
time, fault-state evolution, label stores — must be *bit-identical* to
the straightforward per-sector formulation the code replaced.  (The
time itself is checked against the formulas in ``test_price.py``; the
price's once-built seek and slot-angle tables are checked here.)
Hypothesis drives random geometries, extents, payloads and fault
placements through both and compares exactly.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.disk.disk import FREE_LABEL, SimDisk
from repro.disk.faults import FaultInjector
from repro.disk.geometry import DiskGeometry
from repro.disk.mirror import MirroredDisk
from repro.disk.timing import DiskTiming

# Small geometries keep extents spanning track/cylinder boundaries
# common rather than rare.
geometries = st.builds(
    DiskGeometry,
    cylinders=st.integers(min_value=2, max_value=6),
    heads=st.integers(min_value=1, max_value=4),
    sectors_per_track=st.integers(min_value=4, max_value=16),
    sector_bytes=st.just(64),
)


@st.composite
def extents(draw, geometry):
    """(address, count) fully inside ``geometry``."""
    total = geometry.total_sectors
    count = draw(st.integers(min_value=1, max_value=min(24, total)))
    address = draw(st.integers(min_value=0, max_value=total - count))
    return address, count


@st.composite
def fault_sets(draw, geometry):
    """A FaultInjector with random damaged/transient/latent sectors."""
    total = geometry.total_sectors
    addresses = st.integers(min_value=0, max_value=total - 1)
    injector = FaultInjector()
    injector.damaged = set(draw(st.sets(addresses, max_size=4)))
    injector.latent = set(draw(st.sets(addresses, max_size=3)))
    injector.transient = {
        address: draw(st.integers(min_value=1, max_value=3))
        for address in draw(st.sets(addresses, max_size=3))
    }
    return injector


def _clone_faults(injector: FaultInjector) -> FaultInjector:
    clone = FaultInjector()
    clone.damaged = set(injector.damaged)
    clone.transient = dict(injector.transient)
    clone.latent = set(injector.latent)
    return clone


# ----------------------------------------------------------------------
# the price's once-built seek and slot-angle tables vs the raw formula
# ----------------------------------------------------------------------
@given(
    settle=st.floats(min_value=0.5, max_value=20.0),
    coeff=st.floats(min_value=0.1, max_value=5.0),
    distance=st.integers(min_value=0, max_value=2000),
)
def test_memoised_seek_equals_formula(settle, coeff, distance):
    timing = DiskTiming(seek_settle_ms=settle, seek_coeff_ms=coeff)
    expected = (
        0.0 if distance == 0 else settle + coeff * math.sqrt(distance)
    )
    assert timing.seek_ms(distance) == expected
    # SimDisk.price reads the seek from its table, in either direction.
    geometry = DiskGeometry(
        cylinders=distance + 1, heads=1, sectors_per_track=1, sector_bytes=64
    )
    disk = SimDisk(geometry=geometry, timing=timing, charge_cpu=False)
    assert disk.price(0.0, 0, distance, 1)[2] == expected
    assert disk.price(0.0, distance, 0, 1)[2] == expected


@given(
    rotation=st.floats(min_value=5.0, max_value=40.0),
    now_ms=st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    sectors_per_track=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_memoised_rotational_wait_equals_formula(
    rotation, now_ms, sectors_per_track, data
):
    slot = data.draw(
        st.integers(min_value=0, max_value=sectors_per_track - 1)
    )
    timing = DiskTiming(rotation_ms=rotation)
    target_angle = slot / sectors_per_track
    current_angle = (now_ms % rotation) / rotation
    expected = ((target_angle - current_angle) % 1.0) * rotation
    # One cylinder, arm on it: no seek, so the wait starts at now_ms.
    geometry = DiskGeometry(
        cylinders=1, heads=1, sectors_per_track=sectors_per_track,
        sector_bytes=64,
    )
    disk = SimDisk(geometry=geometry, timing=timing, charge_cpu=False)
    _, _, seek, wait, start = disk.price(now_ms, 0, slot, 1)
    assert seek == 0.0
    assert wait == expected
    assert start == now_ms + expected


# ----------------------------------------------------------------------
# fault-state batching vs per-sector consults
# ----------------------------------------------------------------------
@given(data=st.data())
def test_repair_range_equals_per_sector_repair(data):
    geometry = data.draw(geometries)
    batched = data.draw(fault_sets(geometry))
    reference = _clone_faults(batched)
    address, count = data.draw(extents(geometry))

    batched.repair_range(address, count)
    for sector in range(address, address + count):
        reference.repair(sector)

    assert batched.damaged == reference.damaged
    assert batched.transient == reference.transient
    assert batched.latent == reference.latent


@given(data=st.data())
def test_extent_read_equals_per_sector_consult(data):
    """``read_maybe``'s guarded fast path vs the per-sector reference:
    identical sector list and identical fault-state evolution, with or
    without faults armed over the extent."""
    geometry = data.draw(geometries)
    injector = data.draw(fault_sets(geometry))
    address, count = data.draw(extents(geometry))

    disk = SimDisk(geometry=geometry, faults=_clone_faults(injector))
    contents = {
        sector: bytes([sector % 251]) * geometry.sector_bytes
        for sector in range(address, address + count)
    }
    for sector, payload in contents.items():
        disk.poke(sector, payload)

    # The per-sector reference consults read_fails in address order on
    # an identical fault-state clone.
    reference_faults = _clone_faults(injector)
    expected = [
        None
        if reference_faults.read_fails(sector)
        else contents[sector]
        for sector in range(address, address + count)
    ]

    assert disk.read_maybe(address, count) == expected
    assert disk.faults.damaged == reference_faults.damaged
    assert disk.faults.transient == reference_faults.transient
    assert disk.faults.latent == reference_faults.latent


@given(data=st.data())
def test_fault_free_read_timing_matches_faulted_path(data):
    """Charged simulated time must not depend on which consult path the
    read takes — only on geometry and extent."""
    geometry = data.draw(geometries)
    address, count = data.draw(extents(geometry))

    fast = SimDisk(geometry=geometry)  # no fault armed: the fast path
    slow = SimDisk(geometry=geometry)
    # Arm an unrelated transient fault so the slow (per-sector consult)
    # path runs, without changing any read outcome in the extent.
    slow.faults.transient[geometry.total_sectors] = 1

    assert fast.read_maybe(address, count) == slow.read_maybe(
        address, count
    )
    assert fast.clock.now_ms == slow.clock.now_ms
    assert fast.stats.seek_ms == slow.stats.seek_ms
    assert fast.stats.rotational_ms == slow.stats.rotational_ms
    assert fast.stats.transfer_ms == slow.stats.transfer_ms


# ----------------------------------------------------------------------
# batched extent installs vs per-sector stores
# ----------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=50)
def test_extent_write_install_equals_per_sector_store(data):
    geometry = data.draw(geometries)
    address, count = data.draw(extents(geometry))
    payloads = [
        data.draw(st.binary(max_size=geometry.sector_bytes))
        for _ in range(count)
    ]
    labels = data.draw(
        st.none()
        | st.just([bytes([index]) for index in range(count)])
    )

    disk = SimDisk(geometry=geometry)
    disk.write(address, payloads, set_labels=labels)

    for offset in range(count):
        sector = address + offset
        expected = payloads[offset].ljust(geometry.sector_bytes, b"\x00")
        assert disk.peek(sector) == expected
        if labels is not None:
            assert disk.peek_label(sector) == labels[offset].ljust(
                len(FREE_LABEL), b"\x00"
            )
        else:
            assert disk.peek_label(sector) == FREE_LABEL


@given(data=st.data())
@settings(max_examples=50)
def test_mirror_shadow_install_equals_per_sector_store(data):
    """The mirror's batched shadow write must leave the second unit
    byte-identical to the primary over the extent, labels included."""
    geometry = data.draw(geometries)
    address, count = data.draw(extents(geometry))
    payloads = [
        data.draw(st.binary(max_size=geometry.sector_bytes))
        for _ in range(count)
    ]

    disk = MirroredDisk(geometry=geometry)
    labels = [bytes([0x40 + index % 32]) for index in range(count)]
    disk.write(address, payloads, set_labels=labels)

    for offset in range(count):
        sector = address + offset
        assert disk.peek_mirror(sector) == disk.peek(sector)
        assert disk.peek_mirror_label(sector) == disk.peek_label(sector)


@given(data=st.data())
@settings(max_examples=50)
def test_mirror_recovers_damaged_extent(data):
    """Random damage inside a written extent: the batched repair path
    returns the mirror's copy for every damaged sector and repairs the
    primary in place, exactly as the per-sector loop did."""
    geometry = data.draw(geometries)
    address, count = data.draw(extents(geometry))
    payloads = [
        bytes([0x30 + index % 64]) * geometry.sector_bytes
        for index in range(count)
    ]

    disk = MirroredDisk(geometry=geometry)
    disk.write(address, payloads)
    damaged = data.draw(
        st.sets(
            st.integers(min_value=address, max_value=address + count - 1),
            max_size=count,
        )
    )
    for sector in damaged:
        disk.faults.damaged.add(sector)

    assert disk.read(address, count) == payloads
    # Every damaged sector was repaired onto the primary.
    assert not (disk.faults.damaged & set(range(address, address + count)))
