"""Tests for recorded workloads: the recorder, watermarks, determinism."""

from __future__ import annotations

import pytest

from repro.crashcheck import DiskRecorder, Op, get_scenario, record_scenario
from repro.crashcheck.oracles import model_state
from repro.crashcheck.workload import OP_KINDS, DiskState, _build_volume, apply_op
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.workloads.generators import payload

GEO = DiskGeometry(cylinders=4, heads=2, sectors_per_track=8)


class TestOp:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            Op("rename", "x")

    def test_force_needs_no_name(self):
        assert Op("force").name == ""


class TestOpKinds:
    """Every kind an :class:`Op` accepts is either applied to a volume
    and modelled alike, or refused by ``apply_op`` by name: a kind
    added to one side only fails here."""

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_kind_is_scripted_and_modelled_or_refused(self, kind):
        scenario = get_scenario("keep_trim")  # mounts a checkpointer
        _, fs, adapter = _build_volume(scenario)
        name = "kinds/f"
        setup = [Op("create", name, payload(900 + 300 * v, v)) for v in range(3)]
        op = Op(kind, name, payload(700, 9), keep=1, size=600)
        for step in setup:
            apply_op(adapter, step)
        try:
            apply_op(adapter, op)
        except ValueError as error:
            assert repr(kind) in str(error)
            return
        stack = model_state(setup + [op]).get(name, [])
        assert len(fs.versions(name)) == len(stack)
        if stack:
            assert fs.read(fs.open(name)) == stack[-1]


class TestDiskRecorder:
    def test_records_write_with_padded_payloads(self):
        disk = SimDisk(geometry=GEO)
        recorder = DiskRecorder(disk)
        recorder.install()
        disk.write(3, [b"ab", b"cd"])
        recorder.uninstall()
        (rec,) = recorder.records
        assert rec.kind == "write" and rec.address == 3 and rec.count == 2
        assert rec.payloads[0] == b"ab".ljust(GEO.sector_bytes, b"\x00")
        assert rec.payloads[1] == b"cd".ljust(GEO.sector_bytes, b"\x00")

    def test_records_reads_and_label_ops(self):
        disk = SimDisk(geometry=GEO)
        disk.write(0, [b"x"])
        recorder = DiskRecorder(disk)
        recorder.install()
        disk.read(0, 1)
        disk.write_labels(0, [b"L"])
        disk.read_labels(0, 1)
        recorder.uninstall()
        assert [r.kind for r in recorder.records] == [
            "read",
            "label_write",
            "label_read",
        ]

    def test_uninstall_restores_class_methods(self):
        disk = SimDisk(geometry=GEO)
        recorder = DiskRecorder(disk)
        recorder.install()
        assert "write" in vars(disk)
        recorder.uninstall()
        assert "write" not in vars(disk)
        disk.write(0, [b"after"])  # plain class method again
        assert recorder.records == []

    def test_double_install_rejected(self):
        recorder = DiskRecorder(SimDisk(geometry=GEO))
        recorder.install()
        with pytest.raises(RuntimeError):
            recorder.install()


class TestRecording:
    def test_recording_is_deterministic(self):
        first = record_scenario(get_scenario("quickstart"))
        second = record_scenario(get_scenario("quickstart"))
        assert first.records == second.records
        assert first.watermarks == second.watermarks
        assert first.base.data == second.base.data

    def test_watermarks_split_committed_from_pending(
        self, quickstart_recording
    ):
        recording = quickstart_recording
        scenario = recording.scenario
        # Before any body I/O completes, nothing is durable.
        assert recording.committed_ops_at(0) == 0
        # After the whole body, everything before the last force is
        # durable (the force op itself stays "pending" — the watermark
        # fires mid-force — but a force has no namespace effect).  The
        # never-forced tail create is not durable.
        final = recording.committed_ops_at(recording.io_total)
        assert final == len(scenario.body) - 2
        tail = [
            a.op.name
            for a in recording.pending_ops_at(recording.io_total)
            if a.op.kind != "force"
        ]
        assert tail == ["crash/never-forced"]

    def test_watermarks_are_monotonic(self, quickstart_recording):
        marks = quickstart_recording.watermarks
        assert marks == sorted(marks)
        committed = [
            quickstart_recording.committed_ops_at(boundary)
            for boundary in range(quickstart_recording.io_total + 1)
        ]
        assert committed == sorted(committed)

    def test_pending_ops_only_after_they_started(self, quickstart_recording):
        recording = quickstart_recording
        started_late = [
            a for a in recording.applied if a.start_io > 0
        ]
        assert started_late, "scenario too small to exercise start_io"
        first = started_late[0]
        pending_before = recording.pending_ops_at(first.start_io - 1)
        assert first.index not in [a.index for a in pending_before]

    def test_body_runs_unmodified_on_a_live_volume(self):
        """The op scripts drive the same adapter surface the harness
        scenarios use, so a straight (uncrashed) run must land every
        create with exact content."""
        scenario = get_scenario("quickstart")
        disk, fs, adapter = _build_volume(scenario)
        for op in scenario.setup + scenario.body:
            apply_op(adapter, op)
        assert fs.read(fs.open("crash/never-forced")) == scenario.body[-1].data
        assert not fs.exists("crash/file-03")  # deleted by the script
        fs.crash()


class TestDiskState:
    def test_snapshot_is_decoupled_from_the_disk(self):
        disk = SimDisk(geometry=GEO)
        disk.write(1, [b"one"])
        state = DiskState.snapshot(disk)
        disk.write(1, [b"two"])
        assert state.data[1].startswith(b"one")

    def test_clone_is_decoupled(self):
        disk = SimDisk(geometry=GEO)
        disk.write(1, [b"one"])
        state = DiskState.snapshot(disk)
        clone = state.clone()
        clone.data[1] = b"mutant"
        clone.damaged.add(5)
        assert state.data[1].startswith(b"one")
        assert 5 not in state.damaged
