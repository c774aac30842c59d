"""Which functions of the program make up which layer.

Layers are this repository's modules, top of the stack first.  Every
public function a layer's classes define is wrapped (so a function a
later change adds is traced without touching this file); the few
private entry points listed by hand are the traffic engine's per-client
continuations, which are where a client operation starts and resumes.

Known limit: fused fast paths — the metadata-cache hit inlined into
``NameTablePager.read``, the seek/rotation/transfer arithmetic inlined
into ``SimDisk.read_maybe`` — do not cross a public function, so their
time is charged to the calling layer.
"""

from __future__ import annotations

from dataclasses import replace

from repro.btree.btree import BTree
from repro.core import fsd as fsd_module
from repro.core import recovery as recovery_module
from repro.core.allocator import RunAllocator
from repro.core.cache import MetadataCache
from repro.core.checkpoint import Checkpointer
from repro.core.data_cache import DataPageCache
from repro.core.fsd import FSD
from repro.core.group_commit import CommitCoordinator
from repro.core.name_table import FsdNameTable, NameTableHome, NameTablePager
from repro.core.txn import TxnManager
from repro.core.vam import VolumeAllocationMap
from repro.core.wal import WriteAheadLog
from repro.disk.clock import SimClock
from repro.disk.disk import SimDisk
from repro.disk.sched import IoScheduler
from repro.workloads.traffic import TrafficEngine

from trace import Target, public_functions
from workloads import ScriptRunner

_CLASSES = {
    "fsd": (FSD,),
    "name_table": (FsdNameTable, NameTablePager, NameTableHome),
    "btree": (BTree,),
    "cache": (MetadataCache,),
    "data_cache": (DataPageCache,),
    "txn": (TxnManager,),
    "group_commit": (CommitCoordinator,),
    "wal": (WriteAheadLog,),
    "checkpoint": (Checkpointer,),
    "vam": (VolumeAllocationMap, RunAllocator),
    "sched": (IoScheduler,),
    "disk": (SimDisk,),
}

#: ``advance_cpu`` and ``advance_disk`` stay unwrapped on purpose: the
#: time they add belongs to the layer that charged it.  The clock
#: layer's own are the timer ring and idle time — think time and waits
#: for the next timer — so ``clock.sim_self_ms`` is the time nothing
#: in the program was busy.
_CLOCK_FUNCTIONS = ("tick", "advance_to", "drain", "add_timer", "remove_timer",
                    "advance_idle")

#: module-level functions; ``repro.core.fsd`` imports them by name, so
#: each is reachable (and must be patched) in two namespaces.
_RECOVERY_FUNCTIONS = ("read_root", "write_root", "replay_log", "rebuild_vam")


def _traffic_op(args: tuple) -> int:
    engine, client = args[0], args[1]
    return client.cid * engine.config.ops_per_client + client.index


def targets(gauges: dict) -> list[Target]:
    """Everything to wrap.  The program keeps the number of parked
    clients and the scheduler's queue depth but not their peaks over a
    region, so the calls that can raise either one are probed:
    ``gauges["parked_peak"]`` and ``gauges["queue_peak"]`` are raised to
    the highest reading seen after such a call."""

    def peak_of(gauge: str, attribute: str):
        def probe(args: tuple) -> None:
            reading = getattr(args[0], attribute)
            if reading > gauges[gauge]:
                gauges[gauge] = reading
        return probe

    probes = {
        (TxnManager, "begin_op"): peak_of("parked_peak", "waiting"),
        (TxnManager, "await_commit"): peak_of("parked_peak", "waiting"),
        (IoScheduler, "submit_write"): peak_of("queue_peak", "queue_depth"),
    }
    out = [
        Target("workloads", "run", ((ScriptRunner, "run"),)),
        Target("workloads", "step", ((ScriptRunner, "step"),),
               op_of=lambda args: args[1]),
        Target("workloads", "run", ((TrafficEngine, "run"),)),
    ]
    for name in ("_arrive", "_attempt", "_close_bracket", "_read_chunk",
                 "_retry_fire"):
        out.append(Target("workloads", name.lstrip("_"),
                          ((TrafficEngine, name),), op_of=_traffic_op))
    for layer, classes in _CLASSES.items():
        for cls in classes:
            for target in public_functions(layer, cls):
                probe = probes.get((cls, target.name))
                out.append(replace(target, probe=probe) if probe else target)
    for name in _CLOCK_FUNCTIONS:
        out.append(Target("clock", name, ((SimClock, name),)))
    for name in _RECOVERY_FUNCTIONS:
        out.append(Target(
            "recovery", name,
            ((recovery_module, name), (fsd_module, name)),
        ))
    return out
