"""I/O tracing: see each disk operation the way the §6 model scripts it.

The paper's methodology was to script operations as seeks, latencies,
revolutions and transfers.  Attach an :class:`IoTracer` to a
``SimDisk`` and every operation is recorded with exactly that
decomposition, so you can diff an implementation's real behaviour
against the model's script for it:

    tracer = IoTracer()
    disk.tracer = tracer
    fs.create("a", b"x")
    for event in tracer.events:
        print(event)

Events are cheap dataclasses; tracing is off unless a tracer is
attached.

A *lost revolution* is the model's name for an I/O that starts on the
same cylinder exactly where the previous one ended and still waits
more than half a revolution: the CPU between the two let the next
sector pass under the head.  The disk flags it on the event it records
(it knows its own revolution), :meth:`IoTracer.totals` counts them and
:meth:`IoTracer.script` names them; an untraced disk pays nothing for
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IoEvent:
    """One disk operation, decomposed like a model script step."""

    kind: str            # "read" | "write" | "label_read" | "label_write"
    address: int
    sectors: int
    cylinder_distance: int
    seek_ms: float
    rotational_ms: float
    transfer_ms: float
    start_ms: float
    lost_revolution: bool = False

    @property
    def total_ms(self) -> float:
        return self.seek_ms + self.rotational_ms + self.transfer_ms

    def classify_seek(self, short_threshold: int = 4) -> str:
        """The model's vocabulary for this event's positioning."""
        if self.cylinder_distance == 0:
            return "none"
        if self.cylinder_distance <= short_threshold:
            return "short seek"
        return "seek"

    def __str__(self) -> str:
        return (
            f"[{self.start_ms:9.2f} ms] {self.kind:<11} "
            f"@{self.address:<7} x{self.sectors:<3} "
            f"seek={self.seek_ms:5.1f} rot={self.rotational_ms:5.1f} "
            f"xfer={self.transfer_ms:5.1f}"
        )


@dataclass
class IoTracer:
    """Collects :class:`IoEvent` records from an attached disk."""

    events: list[IoEvent] = field(default_factory=list)
    enabled: bool = True

    def record(self, event: IoEvent) -> None:
        """Append an event (no-op while disabled)."""
        if self.enabled:
            self.events.append(event)

    # ------------------------------------------------------------------
    # aggregation helpers (what the model predicts in aggregate)
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Aggregate seek/rotation/transfer time over the trace, and
        the count of lost revolutions."""
        return {
            "events": len(self.events),
            "seek_ms": sum(e.seek_ms for e in self.events),
            "rotational_ms": sum(e.rotational_ms for e in self.events),
            "transfer_ms": sum(e.transfer_ms for e in self.events),
            "sectors": sum(e.sectors for e in self.events),
            "lost_revolutions": sum(e.lost_revolution for e in self.events),
        }

    def script(self, short_threshold: int = 4) -> list[str]:
        """The trace rendered in the §6 model's vocabulary."""
        out = []
        for event in self.events:
            parts = []
            seek_kind = event.classify_seek(short_threshold)
            if seek_kind != "none":
                parts.append(seek_kind)
            if event.lost_revolution:
                parts.append(f"lost revolution {event.rotational_ms:.1f} ms")
            elif event.rotational_ms > 0.01:
                parts.append(f"rotate {event.rotational_ms:.1f} ms")
            parts.append(f"transfer {event.sectors}")
            out.append(f"{event.kind}: " + ", ".join(parts))
        return out
