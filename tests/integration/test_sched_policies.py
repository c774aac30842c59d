"""Whole-stack tests of the in-order I/O port.

Asynchronous writes (writeback, redo, the VAM save) reach the disk in
program order, at submit time: a bulk update must read back intact
after a remount, and a crash right after a force must recover every
committed file.  (The golden numbers that pin the dispatch order live
in ``test_determinism.py``.)
"""

from __future__ import annotations

import dataclasses

from repro.core.fsd import FSD, MountOptions
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.harness.adapters import FsdAdapter
from repro.harness.fingerprint import fingerprint
from repro.harness.scenarios import SMALL, populate
from repro.obs import Observer
from repro.workloads.generators import payload


def bulk_update_run(**mount):
    """Populate then rewrite every file: the writeback-heavy workload
    where dispatch order matters most."""
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, SMALL.fsd_params)
    fs = FSD.mount(disk, **mount)
    adapter = FsdAdapter(fs)
    names = populate(adapter, 80)
    for index, name in enumerate(names):
        handle = fs.open(name)
        fs.write(handle, 0, payload(900, 500 + index))
    fs.force()
    fs.unmount()
    return disk, names


def reread(disk: SimDisk, names: list[str]):
    """Remount, verify integrity, and read back a sample of files."""
    fs = FSD.mount(disk)
    report = verify_volume(fs)
    adapter = FsdAdapter(fs)
    contents = {
        name: adapter.read(adapter.open(name)) for name in names[:10]
    }
    fs.unmount()
    return report, contents


class TestInOrderDispatch:
    def test_bulk_update_preserves_content(self):
        disk, names = bulk_update_run()
        report, contents = reread(disk, names)
        assert report.clean
        for index, name in enumerate(names[:10]):
            assert contents[name][:900] == payload(900, 500 + index)

    def test_crash_recovers_committed_state(self):
        """Nothing written is volatile and the log covers everything
        committed, so a crash right after a force must recover."""
        disk = SimDisk(geometry=SMALL.geometry)
        FSD.format(disk, SMALL.fsd_params)
        fs = FSD.mount(disk)
        adapter = FsdAdapter(fs)
        names = populate(adapter, 30)
        fs.force()  # durability point: all 30 committed
        fs.crash()
        fs = FSD.mount(disk)
        assert verify_volume(fs).clean
        adapter = FsdAdapter(fs)
        for name in names:
            assert adapter.exists(name)
        fs.unmount()

    def test_sched_keyword_is_inert(self):
        """``FSD.mount`` still swallows the ``sched`` keyword that
        ``benchmarks/e2e/workloads.py`` passes; it selects nothing."""
        documents = []
        for mount in ({}, {"sched": "scan"}):
            obs = Observer()
            disk, _ = bulk_update_run(obs=obs, **mount)
            documents.append(fingerprint(disk, obs).as_dict())
        assert documents[0] == documents[1]
        assert [f.name for f in dataclasses.fields(MountOptions)] == [
            "data_cache_pages", "readahead_pages", "checkpoint_interval_ms",
        ]
