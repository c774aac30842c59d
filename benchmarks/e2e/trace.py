"""In-memory spans at layer boundaries, and each layer's self time.

The program under test is not edited: the benchmark patches wrappers
over each layer's public functions (class attributes, before the
volume of the traced round is created) and restores them afterwards.
A wrapper records one span per call — layer, function, host start/end
(``perf_counter_ns``), simulated start/end (``SimClock.now_ms``), the
span that caused it, and the client operation it belongs to — into
parallel ``array`` columns.  Nothing is written until the run is over
(:meth:`Tracer.write_jsonl`, only when ``--trace-out`` asks).

A layer's self time is its spans' durations minus the durations of
their direct children.  Simulated readings are mapped to integers
before subtracting, so the per-layer sums telescope *exactly* to the
root span's duration; :meth:`Tracer.summary` raises when they do not,
which would mean the span tree is malformed.

Wrappers never touch the simulated clock.  The driver checks that the
traced round's simulated metrics equal the untraced rounds' bit for
bit.

Generators are traced per resume: the call that creates the generator
is one span, every ``next()`` is one more under ``<name>+``, so the
consumer's own work between two items is not charged to the producer.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from types import FunctionType, GeneratorType
from typing import Callable

#: simulated ms -> integer ticks.  Any fixed mapping telescopes
#: exactly; this one is also lossless for every reading >= 2**-11 ms.
_TICKS_PER_MS = 2.0 ** 64
_TICKS_DIVISOR = 1 << 64


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owners`` are every ``(object, attribute)``
    the function is reachable through (a module-level function imported
    by name into another module has two)."""

    layer: str
    name: str
    owners: tuple[tuple[object, str], ...]
    #: maps the call's positional arguments to the client-operation id
    #: the spans underneath belong to (only operation entry points).
    op_of: Callable[[tuple], int] | None = None
    #: called with the call's positional arguments after it returns
    #: (sampling a gauge the program keeps no peak of).
    probe: Callable[[tuple], None] | None = None


def public_functions(layer: str, cls: type) -> list[Target]:
    """Targets for every public plain function defined on ``cls``.

    Properties, dunders and ``contextmanager``-decorated functions are
    left alone (the latter only build a context object; the brackets
    they call are wrapped themselves)."""
    targets = []
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
        if isinstance(fn, FunctionType) and not hasattr(fn, "__wrapped__"):
            targets.append(Target(layer, name, ((cls, name),)))
    return targets


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self, layers: tuple[str, ...]):
        self.layers = layers
        self.on = False
        #: the volume's SimClock; set by :meth:`start`.
        self.clock = None
        #: client-operation id spans are stamped with (-1: none yet).
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, index == span id
        self.layer = array("b")
        self.name = array("h")
        self.parent = array("l")
        self.op_id = array("l")
        self.host0 = array("q")
        self.host1 = array("q")
        self.sim0 = array("d")
        self.sim1 = array("d")
        self._columns = (self.layer, self.name, self.parent, self.op_id,
                         self.host0, self.host1, self.sim0, self.sim1)
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Patch a wrapper over every target (undo with :meth:`uninstall`)."""
        for target in targets:
            owner, attr = target.owners[0]
            original = vars(owner)[attr]
            kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
            fn = original.__func__ if kind else original
            wrapper = self._wrap(fn, target)
            for owner, attr in target.owners:
                self._patched.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, target: Target):
        tracer = self
        layer = self.layers.index(target.layer)
        name = self._name_id(f"{target.layer}.{target.name}")
        resume = self._name_id(f"{target.layer}.{target.name}+")
        op_of, probe = target.op_of, target.probe
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if op_of is not None:
                outer_op = tracer.op
                tracer.op = op_of(args)
            span = begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
                if op_of is not None:
                    tracer.op = outer_op
            if probe is not None:
                probe(args)
            if type(result) is GeneratorType:
                return tracer._resumes(result, layer, resume)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.name)
        return wrapper

    def _resumes(self, inner, layer: int, name: int):
        begin, end = self._begin, self._end
        try:
            if not self.on:
                yield from inner
                return
            while True:
                span = begin(layer, name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end(span)
                yield item
        finally:
            inner.close()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _begin(self, layer: int, name: int) -> int:
        stack = self._stack
        span = len(self.host0)
        self.layer.append(layer)
        self.name.append(name)
        self.parent.append(stack[-1])
        self.op_id.append(self.op)
        self.sim0.append(self.clock.now_ms)
        self.sim1.append(0.0)
        self.host1.append(0)
        stack.append(span)
        self.host0.append(time.perf_counter_ns())
        return span

    def _end(self, span: int) -> None:
        self.host1[span] = time.perf_counter_ns()
        self.sim1[span] = self.clock.now_ms
        self._stack.pop()

    def start(self, clock) -> None:
        """Drop earlier spans and record against ``clock`` from now on."""
        for column in self._columns:
            del column[:]
        self._stack[:] = [-1]
        self.op = -1
        self.clock = clock
        self.on = True

    def stop(self) -> None:
        self.on = False

    def __len__(self) -> int:
        return len(self.host0)

    # ------------------------------------------------------------------
    # self time
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer calls and self times, and per function
        (``layer.name``) its calls and the host and simulated time
        inside its spans, children included.

        ``sim_self_ms`` sums to the root span's simulated duration
        exactly (checked in integer ticks); ``host_self_ns`` sums to
        the root span's host duration by the same telescoping, and the
        driver reports what the wrappers themselves cost as the gap to
        the timed region's wall.
        """
        count = len(self.host0)
        if not count or self.parent[0] != -1:
            raise RuntimeError("trace has no root span")
        layers = len(self.layers)
        calls = [0] * layers
        host = [0] * layers
        sim = [0] * layers
        functions = [[0, 0, 0.0] for _ in self.names]
        layer_of, parent_of = self.layer, self.parent
        for span in range(count):
            layer = layer_of[span]
            calls[layer] += 1
            host_ns = self.host1[span] - self.host0[span]
            host[layer] += host_ns
            start, finish = self.sim0[span], self.sim1[span]
            ticks = (
                int(finish * _TICKS_PER_MS) - int(start * _TICKS_PER_MS)
                if finish != start else 0
            )
            sim[layer] += ticks
            function = functions[self.name[span]]
            function[0] += 1
            function[1] += host_ns
            function[2] += finish - start
            parent = parent_of[span]
            if parent >= 0:
                above = layer_of[parent]
                host[above] -= host_ns
                sim[above] -= ticks
            elif span:
                raise RuntimeError(f"span {span} has no parent: two roots")
        root_ticks = int(self.sim1[0] * _TICKS_PER_MS) - int(self.sim0[0] * _TICKS_PER_MS)
        if sum(sim) != root_ticks:
            raise RuntimeError(
                f"per-layer simulated self times sum to {sum(sim)} ticks, "
                f"root span lasted {root_ticks}"
            )
        return {
            "spans": count,
            "root_sim_ms": root_ticks / _TICKS_DIVISOR,
            "layers": {
                self.layers[index]: {
                    "calls": calls[index],
                    "host_self_ns": host[index],
                    "sim_self_ms": sim[index] / _TICKS_DIVISOR,
                }
                for index in range(layers)
            },
            "functions": {
                name: {"calls": row[0], "host_ns": row[1], "sim_ms": row[2]}
                for name, row in zip(self.names, functions)
            },
        }

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, host times relative to the root's
        start."""
        origin = self.host0[0] if len(self.host0) else 0
        with open(path, "w") as out:
            for span in range(len(self.host0)):
                out.write(json.dumps({
                    "id": span,
                    "parent": self.parent[span],
                    "op": self.op_id[span],
                    "layer": self.layers[self.layer[span]],
                    "function": self.names[self.name[span]],
                    "host_ns": [self.host0[span] - origin,
                                self.host1[span] - origin],
                    "sim_ms": [self.sim0[span], self.sim1[span]],
                }))
                out.write("\n")
