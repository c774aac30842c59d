"""The outcome oracle: was the end of a fault campaign honest?

The chaos engine (:mod:`repro.workloads.chaos`) drives a volume through
faults and crashes and then asks the robustness claim's question.
Every campaign must end in exactly one of three honest states —

* ``recovered`` — the final mount is clean and every committed file
  reads back exactly (or fails with an *explicit* error where its data
  sectors were destroyed),
* ``degraded``  — the escalation ladder was exhausted or committed log
  records were lost; the volume says so and refuses writes, and a
  salvage pass must then succeed,
* ``salvaged``  — the volume would not even mount; the salvager must
  rebuild a volume whose surviving files are byte-faithful.

What is *never* acceptable is **silent corruption**: a committed file
absent or altered while the mount claims to be healthy, or any file
whose content was never written to it.

The driver tells the oracle what it did (:meth:`~OutcomeOracle.created`
/ :meth:`~OutcomeOracle.wrote` / :meth:`~OutcomeOracle.deleted`) and
what went wrong (:meth:`~OutcomeOracle.raised`,
:meth:`~OutcomeOracle.crashed`); the oracle keeps the committed
watermark itself, through a commit hook on every mount it is asked to
:meth:`~OutcomeOracle.watch`.  The expected namespace is the crash
explorer's version-stack model (:func:`~repro.crashcheck.oracles.model_state`)
of the committed prefix of the op log.

An op a crash lost past the last returned commit, or one that raised
partway, is *pending*: it may or may not have reached the log (the
force the crash interrupted may have landed it).  A file the committed
prefix expects may be absent only where some per-name prefix of its
pending ops leaves it absent — the crash explorer's rule
(:func:`~repro.crashcheck.oracles.allowed_versions`).

FSD logs *metadata* only, so a file's data sectors are not
crash-atomic.  A name an in-place write was cut on (the write failed
with an explicit error, or a crash cut or lost it) is **torn**: it may
honestly hold a blend, or be gone — the client was *told* the write
did not cleanly succeed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.core.salvage import salvage_volume
from repro.core.types import FileProperties
from repro.crashcheck.oracles import (
    ABSENT,
    allowed_versions,
    model_apply,
    model_state,
)
from repro.crashcheck.workload import Op
from repro.disk.disk import SimDisk
from repro.errors import (
    CorruptMetadata,
    DegradedVolumeError,
    DiskError,
    FileNotFound,
    FsError,
)

VERDICTS = ("recovered", "degraded", "salvaged")


@dataclass(kw_only=True)
class Outcome:
    """What :meth:`OutcomeOracle.classify` found.  The campaign report
    (``chaos.ChaosReport``) extends it."""

    verdict: str = ""  # one of VERDICTS
    #: the read-back of the volume the verdict names: the recovered or
    #: degraded mount, or the salvaged copy of one that would not mount.
    files_expected: int = 0
    files_verified: int = 0
    files_honestly_lost: int = 0
    #: a degraded volume must also salvage: that copy's read-back,
    #: counted apart from the mount's (zero for the other verdicts).
    salvage_files_expected: int = 0
    salvage_files_verified: int = 0
    salvage_files_honestly_lost: int = 0
    #: descriptions of silent-corruption findings; MUST stay empty.
    silent_corruptions: list[str] = field(default_factory=list)
    salvage_summary: str | None = None


class OutcomeOracle:
    """Everything a campaign tracks to judge its own outcome honestly."""

    def __init__(self) -> None:
        #: what the driver did, in order, each op with its pending group
        #: (None: it took effect), as
        #: :func:`~repro.crashcheck.oracles.allowed_versions` takes
        #: them; entries past ``committed`` are not covered by a
        #: returned group commit.
        self.oplog: list[tuple[Op, int | None]] = []
        self.committed = 0
        #: every payload ever handed to the file system per name — the
        #: only contents a read may ever return for it.
        self.history: dict[str, set[bytes]] = {}
        #: names an in-place write was cut on: their content is no
        #: longer pinned (see module doc).
        self.torn: set[str] = set()
        #: a mount reported log damage or lost records, or the volume
        #: marked itself degraded or lost: absence of a committed file
        #: is then an honest loss, not a silent one.
        self.honesty_flag = False
        #: leader sectors of live files, by (name, version): the
        #: wild-write targets of :func:`~repro.workloads.chaos.inject_fault`.
        self.leader_addrs: dict[tuple[str, int], int] = {}
        #: the model of every op that took effect, committed or not.
        self._live: dict[str, list[bytes]] = {}
        #: pending group numbers.
        self._groups = itertools.count(1)

    # ------------------------------------------------------------------
    # what the driver reports
    # ------------------------------------------------------------------
    def watch(self, fs: FSD) -> None:
        """Follow ``fs``'s commits, and note what its mount admitted."""
        fs.coordinator.add_commit_hook(self._commit_hook)
        self._note_mount(fs)

    def _commit_hook(self) -> None:
        # Operation bodies are atomic and a force runs between them, so
        # every op-log entry present when a commit returns is durable.
        self.committed = max(self.committed, len(self.oplog))

    def _note_mount(self, fs: FSD) -> None:
        report = fs.mount_report
        if report.log_damage or report.log_records_lost or fs.degraded:
            self.honesty_flag = True

    def offered(self, name: str, data: bytes) -> None:
        """``data`` was handed to the file system as ``name``'s content;
        whether or not the operation succeeds, a read may return it."""
        self.history.setdefault(name, set()).add(data)

    def live(self, name: str) -> bytes | None:
        """The newest content of ``name`` had nothing crashed."""
        stack = self._live.get(name)
        return stack[-1] if stack else None

    def _record(self, op: Op) -> None:
        self.oplog.append((op, None))
        model_apply(self._live, op)

    def created(self, name: str, data: bytes, props: FileProperties) -> None:
        """A create of ``name`` holding ``data`` returned ``props``."""
        self.offered(name, data)
        self._record(Op("create", name, data, keep=props.keep))
        self.leader_addrs[(name, props.version)] = props.leader_addr
        # Versions beyond the keep limit were trimmed by the create:
        # their leader sectors are free again and must never be
        # wild-write targets (they may be reallocated as plain data,
        # where a scribble would be silent).
        for key in [
            k
            for k in self.leader_addrs
            if k[0] == name and k[1] <= props.version - props.keep
        ]:
            del self.leader_addrs[key]

    def wrote(self, name: str, content: bytes) -> None:
        """An in-place write left the newest ``name`` holding ``content``."""
        self.offered(name, content)
        self._record(Op("write", name, content))

    def deleted(self, name: str, version: int | None = None) -> None:
        """The newest version of ``name`` was deleted: ``version`` when
        the driver was told which, else the newest one tracked."""
        self._record(Op("delete", name))
        if version is None:
            version = max(
                (k[1] for k in self.leader_addrs if k[0] == name), default=0
            )
        self.leader_addrs.pop((name, version), None)

    def raised(self, op: Op) -> None:
        """``op`` raised partway, or a crash cut it: it may or may not
        have taken effect, so it stays pending for good.  A cut
        in-place write tears its name."""
        self.oplog.append((op, next(self._groups)))
        if op.kind == "write":
            self.torn.add(op.name)

    def crashed(self) -> None:
        """The machine crashed.  The ops past the committed watermark
        are lost, but an in-flight force may have made some of them
        durable: they stay in the op log as one pending group, which a
        later commit never counts as taken effect.  A lost in-place
        write tears its name."""
        group = next(self._groups)
        for index in range(self.committed, len(self.oplog)):
            op, pending = self.oplog[index]
            if pending is None:
                self.oplog[index] = (op, group)
            if op.kind == "write":
                self.torn.add(op.name)
        self._live = model_state(self._took_effect(self.oplog))

    def resync_leaders(self, fs: FSD) -> None:
        """Creates lost in a crash leave stale leader addresses whose
        sectors are free for data reallocation; re-derive the wild-write
        targets from what actually survived."""
        try:
            self.leader_addrs = {
                (props.name, props.version): props.leader_addr
                for props in fs.list()
            }
        except (FsError, DiskError):
            self.leader_addrs = {}

    # ------------------------------------------------------------------
    # the judgement
    # ------------------------------------------------------------------
    @staticmethod
    def _took_effect(entries: list[tuple[Op, int | None]]) -> list[Op]:
        return [op for op, pending in entries if pending is None]

    def expected_visible(self) -> dict[str, bytes]:
        """The committed op prefix replayed, no pending op applied:
        name -> newest content."""
        stacks = model_state(self._took_effect(self.oplog[: self.committed]))
        return {name: stack[-1] for name, stack in stacks.items()}

    def classify(
        self,
        disk: SimDisk,
        mount: Callable[[SimDisk], FSD] | None,
        params_hint: VolumeParams | None = None,
    ) -> Outcome:
        """Mount the crashed ``disk`` with ``mount`` (None: the driver
        already saw the volume refuse to mount), read every expected
        file back, and salvage whatever is not simply ``recovered``.
        ``params_hint`` lets the salvager locate the layout even when
        both root-page copies are gone.

        What the watermark does not cover died in that crash
        (:meth:`crashed`).  The verification mount is deliberately
        *not* watched: a timer force during the read-back must not
        advance the watermark."""
        self.crashed()
        outcome = Outcome()
        fs = None
        if mount is not None:
            try:
                fs = mount(disk)
            except (DegradedVolumeError, CorruptMetadata):
                self.honesty_flag = True
        if fs is None:
            outcome.verdict = "salvaged"
            (
                outcome.files_expected,
                outcome.files_verified,
                outcome.files_honestly_lost,
            ) = self._verify_salvage(disk, outcome, params_hint)
            return outcome
        self._note_mount(fs)
        outcome.verdict = "degraded" if fs.degraded else "recovered"
        (
            outcome.files_expected,
            outcome.files_verified,
            outcome.files_honestly_lost,
        ) = self._read_back(fs, outcome, salvaged=False)
        fs.crash()
        if outcome.verdict == "degraded":
            # A degraded volume must still be salvageable.
            (
                outcome.salvage_files_expected,
                outcome.salvage_files_verified,
                outcome.salvage_files_honestly_lost,
            ) = self._verify_salvage(disk, outcome, params_hint)
        return outcome

    def _verify_salvage(
        self, disk: SimDisk, outcome: Outcome, params_hint: VolumeParams | None
    ) -> tuple[int, int, int]:
        """Salvage ``disk`` and read the copy back: (expected,
        verified, honestly lost), all 0 when the salvage failed."""
        try:
            destination, report = salvage_volume(disk, params_hint=params_hint)
        except (DegradedVolumeError, CorruptMetadata) as error:
            outcome.silent_corruptions.append(f"salvage failed: {error}")
            return 0, 0, 0
        outcome.salvage_summary = report.summary()
        fs = FSD.mount(destination)
        counts = self._read_back(fs, outcome, salvaged=True)
        fs.crash()
        return counts

    def _read_back(
        self, fs: FSD, outcome: Outcome, salvaged: bool
    ) -> tuple[int, int, int]:
        """One pass over every expected file: (expected, verified,
        honestly lost); silent findings go to ``outcome``."""
        expected = self.expected_visible()
        allowed = allowed_versions({}, self.oplog)
        verified = lost = 0
        silent_before = len(outcome.silent_corruptions)
        for name, want in sorted(expected.items()):
            try:
                got = fs.read(fs.open(name))
            except FileNotFound:
                # Salvage is best-effort: a file whose every trace was
                # destroyed is honestly absent (and the lost list says
                # so when any trace survived).
                if (
                    salvaged
                    or self.honesty_flag
                    or name in self.torn
                    or (0, ABSENT) in allowed[name]
                ):
                    lost += 1
                else:
                    outcome.silent_corruptions.append(
                        f"committed file {name} vanished from a mount that "
                        "claims to be healthy"
                    )
                continue
            except (DiskError, CorruptMetadata):
                # Explicit failure: destroyed data sectors / wild-written
                # leaders are reported, never papered over.
                lost += 1
                continue
            if (
                got == want
                or got in self.history.get(name, ())
                or name in self.torn
            ):
                verified += 1
            else:
                outcome.silent_corruptions.append(
                    f"{'salvaged file' if salvaged else 'file'} {name} "
                    f"returned {len(got)} bytes that were never written to it"
                )
        silent = len(outcome.silent_corruptions) - silent_before
        # A pass judges each expected file once.
        assert verified + lost + silent <= len(expected), (
            verified, lost, silent, len(expected)
        )
        return len(expected), verified, lost
