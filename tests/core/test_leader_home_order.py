"""A leader goes home before its record is durable (known bug, pinned).

An extending in-place write rewrites the file's leader, and the new
leader image rides home piggybacked on the data write.  The record
that logged the extension is never forced, so after a crash the home
leader says two runs while the recovered name table says one: reading
the file raises ``CorruptMetadata`` and ``verify_volume`` reports the
mismatch.  The test states the behaviour a fix must give, and is a
strict xfail until then; when the leader waits for its record the
``verify_volume`` assertion below fails and the test must be restated.
"""

from __future__ import annotations

import pytest

from repro.core.fsd import FSD
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.errors import CorruptMetadata
from repro.workloads.generators import payload


@pytest.mark.xfail(
    strict=True,
    raises=CorruptMetadata,
    reason="an extending write's leader goes home before its record "
    "is forced",
)
def test_extending_write_leader_waits_for_its_record():
    disk = SimDisk()
    FSD.format(disk)
    fs = FSD.mount(disk)
    fs.create("a/f", payload(1_000, 1))
    fs.force()
    for index in range(3_000):
        fs.create(f"fill/f{index:04d}", payload(600, index))
        if index % 50 == 49:
            fs.force()  # the create's record leaves the log
    fs.write(fs.open("a/f"), 0, payload(40_000, 2))
    fs.crash()
    fs = FSD.mount(disk)
    report = verify_volume(fs)
    assert not report.clean
    assert "2 runs != name table 1" in report.problems[0]
    # The extension was never forced, so a fixed volume reads the
    # original 1 000 bytes back.
    assert fs.read(fs.open("a/f")) == payload(1_000, 1)
