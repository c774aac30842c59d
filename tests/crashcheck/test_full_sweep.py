"""The exhaustive sweeps: every boundary, every torn-write variant.

These cover the full crash-point space of each scenario (a few
thousand mounts) and therefore hide behind ``--crashcheck-full``; the
default run exercises the same machinery through the bounded windows
in ``test_engine.py``.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import TUNED
from repro.crashcheck import SCENARIOS, explore


@pytest.mark.parametrize(
    "name,mount",
    [pytest.param(name, {}, id=name) for name in sorted(SCENARIOS)]
    + [
        pytest.param(name, {"options": TUNED}, id=f"{name}-tuned")
        for name in sorted(SCENARIOS)
    ],
)
def test_full_sweep_is_clean(name, mount, crashcheck_full):
    if not crashcheck_full:
        pytest.skip("pass --crashcheck-full for the exhaustive sweep")
    summary = explore(name, **mount)
    assert summary.checked + summary.deduplicated == summary.candidates
    assert summary.ok, [str(v) for v in summary.violations[:20]]
