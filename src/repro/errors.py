"""Exception taxonomy shared by every subsystem in the reproduction.

The hierarchy mirrors the failure classes the paper reasons about:
hardware sector damage, label mismatches (CFS' Trident check), metadata
corruption discovered by software cross-checks, and simulated crashes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class DiskError(ReproError):
    """Base class for errors raised by the disk simulator."""


class DiskRangeError(DiskError):
    """An I/O addressed sectors outside the disk."""


class DamagedSectorError(DiskError):
    """A read touched a sector that is detectably damaged.

    The paper's failure model: a fault damages one or two *consecutive*
    sectors, and the damage is detectable when the sector is next read.
    """

    def __init__(self, address: int):
        super().__init__(f"sector {address} is detectably damaged")
        self.address = address


class LabelCheckError(DiskError):
    """A Trident label verification failed (CFS robustness check).

    On the real hardware this check ran in microcode before the data
    transfer; here it is raised by the simulator when the label computed
    by the file system does not match the label stored on the sector.
    """

    def __init__(self, address: int, expected: bytes, actual: bytes):
        super().__init__(
            f"label mismatch at sector {address}: "
            f"expected {expected!r}, found {actual!r}"
        )
        self.address = address
        self.expected = expected
        self.actual = actual


class SimulatedCrash(ReproError):
    """Raised when an armed crash point fires during an I/O.

    The file system under test must *not* catch this; the test harness
    catches it, discards all volatile state, and reboots the volume to
    exercise recovery.
    """


class FsError(ReproError):
    """Base class for file-system level errors (CFS, FSD and FFS)."""


class FileNotFound(FsError):
    """No file with the given name (and version) exists."""


class FileExists(FsError):
    """A create collided with an existing name and version."""


class VolumeFull(FsError):
    """The allocator could not find enough free pages."""


class CorruptMetadata(FsError):
    """A software cross-check (leader page, checksum, double-read
    comparison, B-tree invariant) found inconsistent metadata."""


class DegradedVolumeError(CorruptMetadata):
    """Every rung of the read-path escalation ladder failed.

    Retry (transient fault), duplicate-copy repair and mirror fallback
    all came up empty: the data is genuinely gone from the media.  The
    volume is marked degraded read-only; the operator's escape hatch is
    the offline salvager (``python -m repro salvage IMAGE OUT``).

    Subclasses :class:`CorruptMetadata` so existing cross-check
    handlers still classify it as detected (never silent) corruption.
    """

    def __init__(self, reason: str, fault_site: int | None = None):
        site = f" (fault site: sector {fault_site})" if fault_site is not None else ""
        super().__init__(
            f"{reason}{site}; volume degraded to read-only "
            "(run `python -m repro salvage` to rebuild)"
        )
        self.reason = reason
        #: disk address of the read that exhausted the ladder, when the
        #: failing rung knew one (both-copies-damaged, copies-differ).
        #: ``None`` for degradations without a single site (lost log
        #: records at mount time).
        self.fault_site = fault_site


class UnsupportedFormat(FsError):
    """The volume was formatted by a build with a different on-disk
    format: its root is intact, but every other address would be
    misread.  Not corruption — neither mount nor salvage may proceed;
    the volume has to be re-formatted."""


class LogFull(FsError):
    """A single log record would not fit in the log file.

    The paper: "A log entry that is longer than the log file will cause
    a crash, but the log is forced long before this should occur."
    """


class NotMounted(FsError):
    """An operation was attempted on an unmounted or crashed volume."""


#: the client-visible error classes of the traffic engine's contract.
ERROR_CLASSES = ("retryable", "fatal", "degraded")


def classify_error(error: BaseException) -> str:
    """Classify an operation failure for the client retry contract.

    * ``retryable`` — media-level failures that a later attempt may not
      see again: transient sector damage, label mismatches, any disk
      error, and ``NotMounted`` (the op raced a crash/recover cycle).
      Permanent damage also lands here; the retry budget exhausts and
      the op resolves as a typed failure.
    * ``degraded`` — the escalation ladder dropped the volume to
      read-only; retrying cannot help and clients must fail fast.
    * ``fatal`` — semantic errors (no such file, version collision,
      volume full, detected metadata corruption) where a retry would
      deterministically repeat the failure.
    """
    if isinstance(error, DegradedVolumeError):
        return "degraded"
    if isinstance(error, (DiskError, NotMounted)):
        return "retryable"
    return "fatal"
