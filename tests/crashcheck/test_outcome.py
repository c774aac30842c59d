"""The outcome oracle, judged on its own.

The chaos campaigns exercise
:class:`~repro.crashcheck.outcome.OutcomeOracle` only through whole
seeded runs; these tests pin each rule of the judgement on a small
real volume, telling the oracle (where a rule needs it) something the
volume never got.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsd import FSD
from repro.crashcheck.oracles import ABSENT, allowed_versions, model_state
from repro.crashcheck.outcome import OutcomeOracle
from repro.crashcheck.scenarios import CRASH_SCALE
from repro.crashcheck.workload import Op
from repro.disk.disk import SimDisk
from repro.errors import SimulatedCrash

#: what a create the volume never saw "returned".
GHOST = SimpleNamespace(version=1, keep=2, leader_addr=0)


def _volume() -> tuple[SimDisk, FSD, OutcomeOracle]:
    disk = SimDisk(geometry=CRASH_SCALE.geometry)
    FSD.format(disk, CRASH_SCALE.fsd_params)
    fs = FSD.mount(disk)
    oracle = OutcomeOracle()
    oracle.watch(fs)
    return disk, fs, oracle


def _create(fs: FSD, oracle: OutcomeOracle, name: str, data: bytes) -> None:
    oracle.created(name, data, fs.create(name, data).props)


class TestAbsence:
    def _ghost_committed(self):
        disk, fs, oracle = _volume()
        _create(fs, oracle, "kept", b"k" * 700)
        oracle.created("ghost", b"boo", GHOST)
        fs.force()
        return disk, fs, oracle

    def test_committed_file_missing_from_a_healthy_mount_is_silent(self):
        disk, fs, oracle = self._ghost_committed()
        fs.crash()
        outcome = oracle.classify(disk, FSD.mount)
        assert outcome.verdict == "recovered"
        assert (outcome.files_expected, outcome.files_verified) == (2, 1)
        assert outcome.files_honestly_lost == 0
        assert outcome.silent_corruptions == [
            "committed file ghost vanished from a mount that claims to "
            "be healthy"
        ]

    @pytest.mark.parametrize("excuse", ["honesty", "uncommitted", "torn"])
    def test_the_same_absence_with_an_excuse_is_an_honest_loss(self, excuse):
        disk, fs, oracle = self._ghost_committed()
        if excuse == "honesty":
            oracle.honesty_flag = True
        elif excuse == "uncommitted":
            # Never committed: the crash leaves the delete pending.
            oracle.deleted("ghost")
        else:
            oracle.raised(Op("write", "ghost", b"half"))
        fs.crash()
        outcome = oracle.classify(disk, FSD.mount)
        assert outcome.silent_corruptions == []
        assert (outcome.files_verified, outcome.files_honestly_lost) == (1, 1)


class TestContent:
    def _mismatch(self):
        disk, fs, oracle = _volume()
        props = fs.create("f", b"what the disk got").props
        oracle.created("f", b"what the oracle was told", props)
        fs.force()
        fs.crash()
        return disk, oracle

    def test_content_never_written_is_silent(self):
        disk, oracle = self._mismatch()
        outcome = oracle.classify(disk, FSD.mount)
        assert outcome.silent_corruptions == [
            "file f returned 17 bytes that were never written to it"
        ]
        assert outcome.files_verified == 0

    def test_unless_the_name_is_torn(self):
        disk, oracle = self._mismatch()
        oracle.raised(Op("write", "f", b"what the oracle was told"))
        assert oracle.torn == {"f"}
        outcome = oracle.classify(disk, FSD.mount)
        assert outcome.silent_corruptions == []
        assert outcome.files_verified == 1

    def test_or_it_was_once_offered(self):
        disk, oracle = self._mismatch()
        oracle.offered("f", b"what the disk got")
        outcome = oracle.classify(disk, FSD.mount)
        assert outcome.silent_corruptions == []
        assert outcome.files_verified == 1


class TestWatermark:
    def _one_committed_one_not(self):
        disk, fs, oracle = _volume()
        _create(fs, oracle, "a", b"a" * 600)
        fs.force()
        _create(fs, oracle, "b", b"b" * 600)
        assert (oracle.committed, len(oracle.oplog)) == (1, 2)
        fs.crash()
        return disk, oracle

    def test_ops_lost_in_a_crash_are_never_committed_later(self):
        disk, oracle = self._one_committed_one_not()
        oracle.crashed()
        assert [(op.name, pending) for op, pending in oracle.oplog] == [
            ("a", None), ("b", 1)
        ]
        fs = FSD.mount(disk)
        oracle.watch(fs)
        _create(fs, oracle, "c", b"c" * 600)
        fs.force()
        assert oracle.committed == 3
        assert sorted(oracle.expected_visible()) == ["a", "c"]
        assert oracle.oplog[1][1] == 1  # still pending
        fs.crash()

    def test_only_a_tearing_crash_tears(self):
        """A crash tears only the names of the in-place writes it lost;
        a lost create or delete is pending, not torn."""
        disk, oracle = self._one_committed_one_not()
        oracle.crashed()
        assert oracle.torn == set()
        disk, oracle = self._one_committed_one_not()
        oracle.wrote("a", b"A" * 600)
        oracle.crashed()
        assert oracle.torn == {"a"}

    def test_a_force_on_the_verification_mount_moves_nothing(self):
        disk, oracle = self._one_committed_one_not()

        def mount_and_commit(disk: SimDisk) -> FSD:
            fs = FSD.mount(disk)
            fs.create("noise", b"n")
            fs.force()
            return fs

        outcome = oracle.classify(disk, mount_and_commit)
        assert oracle.committed == 1
        assert sorted(oracle.expected_visible()) == ["a"]
        assert outcome.silent_corruptions == []
        assert (outcome.files_expected, outcome.files_verified) == (1, 1)


class TestPending:
    def test_a_delete_whose_record_landed_before_the_crash_may_be_gone(self):
        """A committed file is deleted, and the force that would make
        the delete durable is cut by a crash after its log record
        landed: the commit never returned, yet recovery replays the
        delete.  The delete is pending, and the file's absence is the
        state it leaves — an honest outcome, with no name torn."""
        disk, fs, oracle = _volume()
        _create(fs, oracle, "f", b"f" * 700)
        fs.force()
        oracle.deleted("f", fs.delete("f").version)
        disk.faults.arm_crash(after_ios=0)  # fires once the record is down
        with pytest.raises(SimulatedCrash):
            fs.force()
        assert oracle.committed == 1
        fs.crash()
        disk.faults.disarm_crash()
        oracle.crashed()
        outcome = oracle.classify(disk, FSD.mount)
        assert oracle.torn == set()
        assert outcome.silent_corruptions == []
        assert outcome.verdict == "recovered"
        assert (
            outcome.files_expected,
            outcome.files_verified,
            outcome.files_honestly_lost,
        ) == (1, 0, 1)

    def test_the_pending_prefix_never_excuses_a_create(self):
        """A lost create of a committed name may add a version but
        never remove the file: its absence stays silent."""
        disk, fs, oracle = _volume()
        oracle.created("ghost", b"boo", GHOST)
        fs.force()
        oracle.created("ghost", b"boo2", GHOST)
        fs.crash()
        outcome = oracle.classify(disk, FSD.mount)
        assert outcome.silent_corruptions == [
            "committed file ghost vanished from a mount that claims to "
            "be healthy"
        ]


class TestDegraded:
    def test_the_mount_and_its_salvaged_copy_are_counted_apart(self):
        """A degraded volume is read back on its mount, then salvaged
        and read back again: each pass judges every expected file once,
        in fields of its own."""
        disk, fs, oracle = _volume()
        _create(fs, oracle, "a", b"a" * 700)
        _create(fs, oracle, "b", b"b" * 700)
        fs.force()
        fs.crash()

        def mount_gives_up(disk: SimDisk) -> FSD:
            fs = FSD.mount(disk)
            fs._note_degraded("escalation ladder exhausted")
            return fs

        outcome = oracle.classify(disk, mount_gives_up)
        assert outcome.verdict == "degraded"
        assert outcome.silent_corruptions == []
        assert outcome.salvage_summary is not None
        assert (
            outcome.files_expected,
            outcome.files_verified,
            outcome.files_honestly_lost,
        ) == (2, 2, 0)
        assert (
            outcome.salvage_files_expected,
            outcome.salvage_files_verified,
            outcome.salvage_files_honestly_lost,
        ) == (2, 2, 0)


class _Commits:
    """Just enough of a mounted volume for ``watch``."""

    degraded = False
    mount_report = SimpleNamespace(log_damage=False, log_records_lost=0)

    def __init__(self) -> None:
        self.coordinator = self
        self.hooks = []

    def add_commit_hook(self, hook) -> None:
        self.hooks.append(hook)

    def commit(self) -> None:
        for hook in self.hooks:
            hook()


_NAMES = st.sampled_from(["x", "y", "z"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["create", "write", "delete"]), _NAMES,
                  st.binary(max_size=6), st.booleans()),
        st.tuples(st.just("commit"), st.just(""), st.just(b""),
                  st.just(False)),
        st.tuples(st.just("crash"), st.just(""), st.just(b""),
                  st.just(False)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS)
def test_expected_visible_is_the_model_of_the_committed_prefix(steps):
    """Each step is an op that took effect or one that raised; a crash
    leaves every op past the watermark pending.  The oracle expects the
    committed ops that took effect, lives on every op that took effect,
    tears exactly the names of cut writes, and always allows the state
    in which no pending op took effect."""
    oracle = OutcomeOracle()
    volume = _Commits()
    oracle.watch(volume)
    log: list[list] = []  # [op, pending], in the order the ops ran
    watermark = 0
    torn: set[str] = set()
    versions: dict[str, int] = {}
    for kind, name, arg, raises in steps:
        if kind == "commit":
            volume.commit()
            watermark = len(log)
        elif kind == "crash":
            oracle.crashed()
            for entry in log[watermark:]:
                entry[1] = True
                if entry[0].kind == "write":
                    torn.add(entry[0].name)
            volume = _Commits()  # the old mount's hooks died with it
            oracle.watch(volume)
        else:
            op = Op(kind, name, arg if kind != "delete" else b"",
                    keep=2 if kind == "create" else 0)
            log.append([op, raises])
            if raises:
                oracle.raised(op)
                if kind == "write":
                    torn.add(name)
            elif kind == "create":
                versions[name] = versions.get(name, 0) + 1
                props = SimpleNamespace(
                    version=versions[name], keep=2,
                    leader_addr=versions[name],
                )
                oracle.created(name, arg, props)
            elif kind == "write":
                oracle.wrote(name, arg)
            else:
                oracle.deleted(name)
        committed = model_state([op for op, lost in log[:watermark] if not lost])
        assert oracle.expected_visible() == {
            name: stack[-1] for name, stack in committed.items()
        }
        assert oracle.torn == torn
        assert [op for op, group in oracle.oplog if group is not None] == [
            op for op, lost in log if lost
        ]
        took_effect = model_state([op for op, lost in log if not lost])
        allowed = allowed_versions({}, oracle.oplog)
        for name in "xyz":
            stack = took_effect.get(name)
            assert oracle.live(name) == (stack[-1] if stack else None)
            if name in allowed:
                assert (
                    (len(stack), stack[-1]) if stack else (0, ABSENT)
                ) in allowed[name]
