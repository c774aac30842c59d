"""One attach path for metrics + I/O tracing.

The harness, the ``stats``/``trace`` CLI and crashcheck all used to
wire up an :class:`~repro.obs.Observer` (and sometimes an
:class:`~repro.disk.trace.IoTracer`) by hand, three slightly different
ways.  :func:`instrument` is the single helper: it builds the observer
(clock-bound when a disk is at hand), optionally attaches a tracer to
the disk, and hands both back.

    kit = instrument(disk, trace=True)
    fs = FSD.mount(disk, obs=kit.obs)
    ...
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.trace import IoTracer
from repro.obs import NULL_OBS, Observer


@dataclass
class Instrumentation:
    """What :func:`instrument` attached: an observer and, when tracing
    was requested, the tracer."""

    obs: object
    tracer: IoTracer | None = None

    def __iter__(self):
        """Unpack as ``obs, tracer`` (the shape the old copies built)."""
        yield self.obs
        yield self.tracer


def instrument(
    disk=None, *, metrics: bool = True, trace: bool = False
) -> Instrumentation:
    """Attach observability to ``disk`` in one call.

    ``metrics`` builds an :class:`Observer` (bound to the disk's clock
    when a disk is given; pass ``metrics=False`` for :data:`NULL_OBS`).
    ``trace`` additionally attaches a fresh :class:`IoTracer` to the
    disk so every operation is recorded with its seek/rotation/transfer
    decomposition.
    """
    if metrics:
        obs = Observer(disk.clock) if disk is not None else Observer()
    else:
        obs = NULL_OBS
    tracer = None
    if trace:
        if disk is None:
            raise ValueError("trace=True needs a disk to attach to")
        tracer = IoTracer()
        disk.tracer = tracer
    return Instrumentation(obs=obs, tracer=tracer)
