"""An append after a remount leaves a leader the log cannot redo (known
bug, pinned).

A wider reproducer of the leader order that
``test_leader_home_order.py`` pins.  Four hundred 300-byte files are
created, the volume is unmounted and mounted again, and every fourth
file gets 700 bytes appended at its end, with a force after every
third append.  A crash at most I/Os of that run (302 of 415) leaves a
file whose home leader describes the appended runs while the recovered
name table holds the committed one: ``verify_volume`` reports "run
preamble mismatch at run 0" and reading the file raises
``CorruptMetadata``.  With 600-byte files no crash point of the same
run fails (0 of 421).  Each case below states what a fix must give and
is a strict xfail until then.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.errors import CorruptMetadata, SimulatedCrash
from repro.workloads.generators import payload
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

FILES = 400
SIZE = 300


def crash_during_appends(crash_io: int) -> FSD:
    """The run above with a crash armed ``crash_io`` I/Os after the
    remount; returns the volume mounted again after the crash."""
    disk = SimDisk(geometry=TEST_GEOMETRY)
    FSD.format(disk, TEST_FSD_PARAMS)
    fs = FSD.mount(disk)
    for index in range(FILES):
        fs.create(f"s/{index:04d}", payload(SIZE, index))
    fs.unmount()
    fs = FSD.mount(disk)
    disk.faults.arm_crash(after_ios=crash_io)
    with pytest.raises(SimulatedCrash):
        for count, index in enumerate(range(0, FILES, 4)):
            handle = fs.open(f"s/{index:04d}")
            fs.write(handle, handle.props.byte_size, payload(700, index + 1))
            if count % 3 == 2:
                fs.force()
    fs.crash()
    return FSD.mount(disk)


@pytest.mark.xfail(
    strict=True,
    raises=CorruptMetadata,
    reason="an append's leader goes home before its record is forced",
)
@pytest.mark.parametrize("crash_io,index", [(7, 0), (16, 12), (200, 216)])
def test_a_crash_during_appends_keeps_each_file_readable(crash_io, index):
    fs = crash_during_appends(crash_io)
    name = f"s/{index:04d}"
    data = fs.read(fs.open(name))
    # Whatever of the append survived, the committed bytes lead.
    assert data[:SIZE] == payload(SIZE, index)
    report = verify_volume(fs)
    assert report.clean, report.problems
