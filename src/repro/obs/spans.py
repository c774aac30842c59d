"""Lightweight span tracing over the simulated clock.

A span brackets one logical operation (``with obs.span("wal.force",
records=n):``); spans nest on a per-log stack, every record carries its
parent id and depth, and all timestamps are ``SimClock.now_ms`` — never
wall clock, so traces are deterministic and line up exactly with the
disk's :class:`~repro.disk.trace.IoTracer` events on one timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    depth: int
    start_ms: float
    end_ms: float
    attrs: dict

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class ActiveSpan:
    """Context manager for one open span; ``set()`` attaches attributes
    discovered mid-span (batch sizes, record counts...)."""

    __slots__ = ("_log", "span_id", "parent_id", "name", "depth",
                 "start_ms", "attrs")

    def __init__(
        self,
        log: "SpanLog",
        span_id: int,
        parent_id: int | None,
        name: str,
        depth: int,
        start_ms: float,
        attrs: dict,
    ):
        self._log = log
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.start_ms = start_ms
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach (or overwrite) span attributes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._log.finish(self)


class NullSpan:
    """Shared no-op span for the detached (NULL observer) path."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        """No-op."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()


@dataclass
class SpanLog:
    """Collects finished spans; maintains the open-span stack.  ``now``
    reads the clock a span's start and end are stamped with."""

    now: Callable[[], float]
    records: list[SpanRecord] = field(default_factory=list)
    _stack: list[ActiveSpan] = field(default_factory=list)
    _next_id: int = 1

    def start(self, name: str, /, **attrs) -> ActiveSpan:
        """Open a span nested under the current top of the stack."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        span = ActiveSpan(
            self,
            span_id,
            stack[-1].span_id if stack else None,
            name,
            len(stack),
            self.now(),
            attrs,
        )
        stack.append(span)
        return span

    def finish(self, span: ActiveSpan) -> None:
        """Close ``span`` (and anything opened inside it)."""
        # Exceptions can unwind several spans at once; close everything
        # above (and including) the finishing span so nesting stays sound.
        stack = self._stack
        records = self.records
        while stack:
            top = stack.pop()
            records.append(
                SpanRecord(
                    top.span_id,
                    top.parent_id,
                    top.name,
                    top.depth,
                    top.start_ms,
                    self.now(),
                    dict(top.attrs),
                )
            )
            if top is span:
                break

    @property
    def open_depth(self) -> int:
        return len(self._stack)
