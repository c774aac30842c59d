"""Unit tests for the analytic model's script primitives."""

from __future__ import annotations

import pytest

from repro.disk.geometry import TRIDENT_T300
from repro.disk.timing import TRIDENT_TIMING
from repro.model.primitives import (
    Cpu,
    Fraction,
    Latency,
    MinusTransfer,
    Revolution,
    Script,
    Seek,
    SeekOver,
    ShortSeek,
    SlotAhead,
    Transfer,
)


def ev(step) -> float:
    return step.evaluate(TRIDENT_TIMING, TRIDENT_T300)


class TestSteps:
    def test_seek_is_average_seek(self):
        assert ev(Seek()) == pytest.approx(
            TRIDENT_TIMING.seek_ms(TRIDENT_T300.cylinders // 3)
        )

    def test_short_seek(self):
        assert ev(ShortSeek()) == pytest.approx(TRIDENT_TIMING.short_seek_ms)
        assert ev(ShortSeek()) < ev(Seek())

    def test_latency(self):
        assert ev(Latency()) == pytest.approx(TRIDENT_TIMING.rotation_ms / 2)

    def test_revolution(self):
        assert ev(Revolution()) == pytest.approx(TRIDENT_TIMING.rotation_ms)
        assert ev(Revolution(count=2.5)) == pytest.approx(
            2.5 * TRIDENT_TIMING.rotation_ms
        )

    def test_transfer(self):
        per_sector = TRIDENT_TIMING.rotation_ms / TRIDENT_T300.sectors_per_track
        assert ev(Transfer(sectors=3)) == pytest.approx(3 * per_sector)

    def test_minus_transfer_is_negative(self):
        assert ev(MinusTransfer(sectors=3)) == pytest.approx(
            -ev(Transfer(sectors=3))
        )

    def test_seek_over_rounds_up_to_whole_cylinders(self):
        per_cylinder = TRIDENT_T300.sectors_per_cylinder
        assert ev(SeekOver(sectors=per_cylinder)) == pytest.approx(
            TRIDENT_TIMING.seek_ms(1)
        )
        assert ev(SeekOver(sectors=4096)) == pytest.approx(
            TRIDENT_TIMING.seek_ms(6)
        )

    def test_slot_ahead_costs_the_gap_when_the_head_is_in_time(self):
        step = SlotAhead(sectors=15, after=(Cpu(ms=0.5),))
        assert ev(step) == pytest.approx(ev(Transfer(sectors=15)))
        # whole revolutions in the sector distance do not change the slot
        assert ev(SlotAhead(sectors=4095, after=(Cpu(ms=0.5),))) == (
            pytest.approx(ev(step))
        )

    def test_slot_ahead_loses_a_revolution_when_it_is_late(self):
        late = SlotAhead(
            sectors=15, after=(Cpu(ms=0.55), SeekOver(sectors=4096))
        )
        assert ev(late) == pytest.approx(
            ev(Transfer(sectors=15)) + ev(Revolution())
        )

    def test_cpu(self):
        assert ev(Cpu(ms=4.2)) == 4.2

    def test_fraction(self):
        step = Fraction(steps=(Latency(), Transfer(sectors=30)), weight=0.5)
        assert ev(step) == pytest.approx(
            0.5 * (ev(Latency()) + ev(Transfer(sectors=30)))
        )


class TestScript:
    def test_sum(self):
        script = Script(name="s", steps=[Latency(), Transfer(sectors=1)])
        assert script.evaluate(TRIDENT_TIMING, TRIDENT_T300) == pytest.approx(
            ev(Latency()) + ev(Transfer(sectors=1))
        )

    def test_miss_weighting(self):
        script = Script(
            name="s",
            steps=[Cpu(ms=1.0)],
            miss_steps=[Cpu(ms=10.0)],
            miss_probability=0.2,
        )
        assert script.evaluate(TRIDENT_TIMING, TRIDENT_T300) == pytest.approx(
            1.0 + 2.0
        )

    def test_cpu_exclusion(self):
        script = Script(
            name="s",
            steps=[Cpu(ms=5.0), Latency()],
            include_cpu=False,
        )
        assert script.evaluate(TRIDENT_TIMING, TRIDENT_T300) == pytest.approx(
            ev(Latency())
        )

    def test_cpu_exclusion_skips_pure_cpu_fractions(self):
        script = Script(
            name="s",
            steps=[Fraction(steps=(Cpu(ms=8.0),), weight=0.5), Latency()],
            include_cpu=False,
        )
        assert script.evaluate(TRIDENT_TIMING, TRIDENT_T300) == pytest.approx(
            ev(Latency())
        )

    def test_mixed_fraction_kept_when_excluding_cpu(self):
        mixed = Fraction(steps=(Cpu(ms=8.0), Latency()), weight=1.0)
        script = Script(name="s", steps=[mixed], include_cpu=False)
        assert script.evaluate(TRIDENT_TIMING, TRIDENT_T300) > 0

    def test_breakdown_rows(self):
        script = Script(
            name="s",
            steps=[Seek(), Latency()],
            miss_steps=[Transfer(sectors=1)],
            miss_probability=0.5,
        )
        rows = script.breakdown(TRIDENT_TIMING, TRIDENT_T300)
        assert len(rows) == 3
        assert sum(ms for _, ms in rows) == pytest.approx(
            script.evaluate(TRIDENT_TIMING, TRIDENT_T300)
        )
