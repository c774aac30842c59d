"""Recorded workloads: run an op script once, capture everything.

The crash-point explorer needs three things from one live run of a
workload:

* the exact disk mutation stream (every write's address and payload,
  in I/O order), so the image a crash at any boundary would leave can
  be synthesized without re-running the workload,
* the commit watermarks — after how many completed I/Os each group
  commit returned, and how many ops it covered — which define the
  committed/uncommitted split at every crash boundary,
* the op script itself, so the semantic oracle can model expected
  contents.

The simulation is fully deterministic (virtual clock, no real
randomness at run time), so the I/O stream of a run crashed at I/O
``i`` is byte-identical to the first ``i`` I/Os of the recorded run —
synthesis and live replay agree, and a test cross-checks that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk, _pad_label
from repro.harness.adapters import FsdAdapter

if TYPE_CHECKING:  # pragma: no cover
    from repro.crashcheck.scenarios import CrashScenario


# ----------------------------------------------------------------------
# op scripts
# ----------------------------------------------------------------------
#: every op kind a script may hold (see :class:`Op`).
OP_KINDS = (
    "create", "delete", "force", "checkpoint", "write", "truncate", "set_keep"
)


@dataclass(frozen=True)
class Op:
    """One step of a workload script.

    ``kind`` is ``"create"`` (next version of ``name`` holding
    ``data``), ``"delete"`` (newest version of ``name``), ``"force"``
    (an explicit group commit; the script's durability points),
    ``"checkpoint"`` (one background checkpointer tick: write-home of
    every logged image plus the anchor advance — only legal in
    scenarios mounted with a checkpoint interval), ``"truncate"`` (the
    newest version of ``name`` keeps its first ``size`` bytes),
    ``"set_keep"`` (``name`` retains ``keep`` versions; older ones go)
    or ``"write"`` (the newest version of ``name`` now holds ``data``,
    rewritten in place: data sectors are not logged, so this is no
    crash-atomic step and only the campaign oracle of
    :mod:`repro.crashcheck.outcome` models it — explorer scenarios
    cannot script it).
    """

    kind: str
    name: str = ""
    data: bytes = b""
    keep: int = 0
    size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


@dataclass(frozen=True)
class AppliedOp:
    """An op as executed: which I/O span of the recording it covers."""

    op: Op
    index: int
    start_io: int
    end_io: int


# ----------------------------------------------------------------------
# the disk recorder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IoRec:
    """One recorded disk operation.

    ``payloads`` holds the sector images a write persisted (padded to
    the sector size, exactly as they landed on the platter); reads
    carry none.  ``set_labels`` mirrors the label rewrite of a data
    write; ``labels`` the payload of a label-only write.
    """

    kind: str                      # "read" | "write" | "label_read" | "label_write"
    address: int
    count: int
    payloads: tuple[bytes, ...] = ()
    set_labels: tuple[bytes, ...] | None = None
    labels: tuple[bytes, ...] = ()


class DiskRecorder:
    """Wraps one :class:`SimDisk` instance and records its I/O stream.

    Installation shadows the four physical entry points with
    instance-level wrappers (``read`` delegates to ``read_maybe``, so
    it needs no wrapper of its own); uninstalling restores the class
    methods.  Recording adds no virtual time and no I/O.
    """

    def __init__(self, disk: SimDisk):
        self.disk = disk
        self.records: list[IoRec] = []
        self._installed = False

    @property
    def io_count(self) -> int:
        """Completed disk operations since :meth:`install`."""
        return len(self.records)

    def install(self) -> None:
        """Shadow the disk's physical entry points with recording wrappers."""
        if self._installed:
            raise RuntimeError("recorder already installed")
        disk = self.disk
        orig_read_maybe = disk.read_maybe
        orig_write = disk.write
        orig_read_labels = disk.read_labels
        orig_write_labels = disk.write_labels

        def read_maybe(address, count=1, expect_labels=None, cpu_overlap=False):
            out = orig_read_maybe(address, count, expect_labels, cpu_overlap)
            self.records.append(IoRec("read", address, count))
            return out

        def write(address, sectors, expect_labels=None, set_labels=None,
                  cpu_overlap=False):
            orig_write(address, sectors, expect_labels, set_labels, cpu_overlap)
            self.records.append(
                IoRec(
                    "write",
                    address,
                    len(sectors),
                    payloads=tuple(
                        s.ljust(disk.geometry.sector_bytes, b"\x00")
                        for s in sectors
                    ),
                    set_labels=(
                        None
                        if set_labels is None
                        else tuple(_pad_label(l) for l in set_labels)
                    ),
                )
            )

        def read_labels(address, count=1):
            out = orig_read_labels(address, count)
            self.records.append(IoRec("label_read", address, count))
            return out

        def write_labels(address, labels):
            orig_write_labels(address, labels)
            self.records.append(
                IoRec(
                    "label_write",
                    address,
                    len(labels),
                    labels=tuple(_pad_label(l) for l in labels),
                )
            )

        disk.read_maybe = read_maybe  # type: ignore[method-assign]
        disk.write = write  # type: ignore[method-assign]
        disk.read_labels = read_labels  # type: ignore[method-assign]
        disk.write_labels = write_labels  # type: ignore[method-assign]
        self._installed = True

    def uninstall(self) -> None:
        """Restore the plain class methods; keeps the records."""
        if not self._installed:
            return
        for name in ("read_maybe", "write", "read_labels", "write_labels"):
            delattr(self.disk, name)
        self._installed = False


# ----------------------------------------------------------------------
# disk-state snapshots
# ----------------------------------------------------------------------
@dataclass
class DiskState:
    """A point-in-time copy of a simulated drive's persistent state."""

    data: dict[int, bytes]
    labels: dict[int, bytes]
    damaged: set[int]

    @classmethod
    def snapshot(cls, disk: SimDisk) -> "DiskState":
        return cls(
            data=dict(disk._data),
            labels=dict(disk._labels),
            damaged=set(disk.faults.damaged),
        )

    def clone(self) -> "DiskState":
        """An independent copy safe to mutate."""
        return DiskState(
            data=dict(self.data),
            labels=dict(self.labels),
            damaged=set(self.damaged),
        )


# ----------------------------------------------------------------------
# the recording
# ----------------------------------------------------------------------
@dataclass
class Recording:
    """Everything one baseline run of a scenario produced."""

    scenario: "CrashScenario"
    base: DiskState                       # disk state at body start
    records: list[IoRec]                  # the body's I/O stream
    applied: list[AppliedOp]              # body ops with I/O spans
    #: ``(io_count, ops_done)`` per group commit that returned: after
    #: ``io_count`` completed I/Os, the first ``ops_done`` body ops are
    #: durable (their metadata is in fully written log records).
    watermarks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def io_total(self) -> int:
        return len(self.records)

    def committed_ops_at(self, boundary: int) -> int:
        """Body ops guaranteed durable when I/O ``boundary`` is torn
        (I/Os ``0..boundary-1`` completed)."""
        done = 0
        for io_count, ops in self.watermarks:
            if io_count <= boundary:
                done = max(done, ops)
        return done

    def pending_ops_at(self, boundary: int) -> list[AppliedOp]:
        """Body ops that started before the crash but are not covered
        by a returned commit — may be applied atomically or lost."""
        done = self.committed_ops_at(boundary)
        return [a for a in self.applied[done:] if a.start_io <= boundary]


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
def _build_volume(
    scenario: "CrashScenario", **mount
) -> tuple[SimDisk, FSD, FsdAdapter]:
    disk = SimDisk(geometry=scenario.scale.geometry)
    FSD.format(disk, scenario.scale.fsd_params)
    if scenario.checkpoint_interval_ms is not None:
        # The scenario drives its checkpointer by ``"checkpoint"`` ops.
        mount["checkpoint_interval_ms"] = scenario.checkpoint_interval_ms
    fs = FSD.mount(disk, **mount)
    return disk, fs, FsdAdapter(fs)


def apply_op(adapter, op: Op) -> None:
    """Apply one script op through the harness adapter surface."""
    fs = adapter.fs
    if op.kind == "create":
        adapter.create(op.name, op.data, keep=op.keep)
    elif op.kind == "delete":
        adapter.delete(op.name)
    elif op.kind == "truncate":
        fs.truncate(fs.open(op.name), op.size)
    elif op.kind == "set_keep":
        fs.set_keep(op.name, op.keep)
    elif op.kind == "checkpoint":
        fs.checkpointer.tick()
    elif op.kind == "force":
        adapter.settle()
    elif op.kind == "write":
        raise ValueError("op kind 'write' cannot be scripted: in-place "
                         "data writes are not crash-atomic")
    else:
        raise NotImplementedError(f"apply_op has no case for {op.kind!r}")


def record_scenario(scenario: "CrashScenario", **mount) -> Recording:
    """Run ``scenario`` once, uncrashed, and record its body.  ``mount``
    is what :meth:`FSD.mount` takes (``options=TUNED``,
    ``data_cache_pages=16``); a scenario's own checkpoint interval
    overrides that one field."""
    disk, fs, adapter = _build_volume(scenario, **mount)
    for op in scenario.setup:
        apply_op(adapter, op)
    adapter.settle()

    recorder = DiskRecorder(disk)
    recorder.install()
    base = DiskState.snapshot(disk)
    watermarks: list[tuple[int, int]] = []
    ops_done = [0]
    fs.coordinator.add_commit_hook(
        lambda: watermarks.append((recorder.io_count, ops_done[0]))
    )

    applied: list[AppliedOp] = []
    for index, op in enumerate(scenario.body):
        start = recorder.io_count
        apply_op(adapter, op)
        ops_done[0] = index + 1
        applied.append(
            AppliedOp(op=op, index=index, start_io=start, end_io=recorder.io_count)
        )
    recorder.uninstall()
    fs.crash()
    return Recording(
        scenario=scenario,
        base=base,
        records=recorder.records,
        applied=applied,
        watermarks=watermarks,
    )
