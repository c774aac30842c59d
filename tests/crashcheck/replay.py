"""Reference crash images and live replays for the explorer's tests.

The explorer synthesizes each crash image incrementally, one boundary
after the last (:func:`repro.crashcheck.engine.explore`).  These are
the two slow, obvious ways to get the same image that the tests check
it against: :func:`crashed_image` applies a recording's persisted
prefix to the body-start snapshot from scratch, and
:func:`run_with_armed_crash` re-runs the scenario on a fresh volume
with a real armed crash.
"""

from __future__ import annotations

from repro.crashcheck.engine import CrashImage, apply_full, apply_torn
from repro.crashcheck.scenarios import CrashScenario
from repro.crashcheck.workload import Recording, _build_volume, apply_op
from repro.disk.disk import SimDisk
from repro.errors import SimulatedCrash


def crashed_image(
    recording: Recording,
    boundary: int,
    surviving_sectors: int | None = None,
    damage_tail: int = 0,
) -> CrashImage:
    """Synthesize the image of a crash firing on body I/O ``boundary``
    (``boundary == io_total`` means "after the last I/O")."""
    state = recording.base.clone()
    for rec in recording.records[:boundary]:
        apply_full(state, rec)
    if boundary < recording.io_total:
        apply_torn(
            state,
            recording.records[boundary],
            surviving_sectors,
            damage_tail,
            recording.scenario.scale.geometry.total_sectors,
        )
    return CrashImage(geometry=recording.scenario.scale.geometry, state=state)



def run_with_armed_crash(
    scenario: CrashScenario,
    after_ios: int,
    surviving_sectors: int | None = None,
    damage_tail: int = 1,
    **mount,
) -> SimDisk:
    """Live replay: re-run the scenario with a real armed crash at body
    I/O ``after_ios``; returns the crashed disk.  Used to cross-check
    that synthesized crash images match what the fault injector
    actually leaves behind."""
    disk, fs, adapter = _build_volume(scenario, **mount)
    for op in scenario.setup:
        apply_op(adapter, op)
    adapter.settle()
    disk.faults.arm_crash(
        after_ios=after_ios,
        surviving_sectors=surviving_sectors,
        damage_tail=damage_tail,
    )
    try:
        for op in scenario.body:
            apply_op(adapter, op)
        disk.faults.disarm_crash()
    except SimulatedCrash:
        pass
    fs.crash()
    return disk
