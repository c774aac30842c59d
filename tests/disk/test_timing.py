"""Unit and property tests for the disk timing model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry, TRIDENT_T300
from repro.disk.timing import DiskTiming, TRIDENT_TIMING

#: the rotational wait is part of the disk's price of an I/O.
T300 = SimDisk(geometry=TRIDENT_T300, timing=TRIDENT_TIMING, charge_cpu=False)


class TestSeek:
    def test_zero_distance_is_free(self):
        assert TRIDENT_TIMING.seek_ms(0) == 0.0

    def test_track_to_track_in_era_band(self):
        assert 4.0 < TRIDENT_TIMING.seek_ms(1) < 10.0

    def test_full_stroke_in_era_band(self):
        assert 35.0 < TRIDENT_TIMING.seek_ms(829) < 60.0

    def test_average_seek_in_era_band(self):
        assert 20.0 < TRIDENT_TIMING.average_seek_ms < 40.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            TRIDENT_TIMING.seek_ms(-1)

    @given(st.integers(min_value=1, max_value=2000))
    def test_seek_monotonic_in_distance(self, distance):
        timing = TRIDENT_TIMING
        assert timing.seek_ms(distance) >= timing.seek_ms(distance - 1)

    def test_short_seek_shorter_than_average(self):
        assert TRIDENT_TIMING.short_seek_ms < TRIDENT_TIMING.average_seek_ms


class TestRotation:
    def test_latency_is_half_revolution(self):
        assert TRIDENT_TIMING.latency_ms == pytest.approx(
            TRIDENT_TIMING.rotation_ms / 2
        )

    def test_transfer_scales_linearly(self):
        t1 = TRIDENT_TIMING.transfer_ms(1, 30)
        t30 = TRIDENT_TIMING.transfer_ms(30, 30)
        assert t30 == pytest.approx(30 * t1)
        assert t30 == pytest.approx(TRIDENT_TIMING.rotation_ms)

    def test_transfer_rejects_negative(self):
        with pytest.raises(ValueError):
            TRIDENT_TIMING.transfer_ms(-1, 30)

    def test_track_bandwidth(self):
        bw = TRIDENT_TIMING.track_bandwidth_bytes_per_ms(30, 512)
        # 30 sectors * 512 bytes per 16.67 ms revolution: ~0.92 MB/s.
        assert bw == pytest.approx(30 * 512 / 16.67, rel=1e-6)

    @given(
        now=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        slot=st.integers(min_value=0, max_value=29),
    )
    def test_rotational_wait_bounds(self, now, slot):
        wait = T300.price(now, 0, slot, 1)[3]
        assert 0.0 <= wait < TRIDENT_TIMING.rotation_ms + 1e-9

    def test_rotational_wait_exact_alignment(self):
        disk = SimDisk(
            geometry=DiskGeometry(cylinders=1, heads=1, sectors_per_track=16),
            timing=DiskTiming(rotation_ms=16.0),
            charge_cpu=False,
        )
        # At t=0 the head is at slot 0; waiting for slot 8 of 16 is
        # exactly half a revolution.
        assert disk.price(0.0, 0, 8, 1)[3] == pytest.approx(8.0)
        assert disk.price(0.0, 0, 0, 1)[3] == pytest.approx(0.0)

    def test_angle_wraps(self):
        disk = SimDisk(
            geometry=DiskGeometry(cylinders=1, heads=1, sectors_per_track=4),
            timing=DiskTiming(rotation_ms=10.0),
            charge_cpu=False,
        )
        # 25 ms into a 10 ms revolution the platter is half way round:
        # slot 2 is under the head and slot 0 half a revolution away.
        assert disk.price(25.0, 0, 2, 1)[3] == pytest.approx(0.0)
        assert disk.price(25.0, 0, 0, 1)[3] == pytest.approx(5.0)
