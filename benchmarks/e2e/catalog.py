"""Every metric the benchmark emits: name, unit, clock, direction, bound.

``BENCHMARK.json`` at the repository root is the projection of this
file the benchmark driver reads; ``python benchmarks/e2e/catalog.py``
prints it, and the smoke test fails when the two disagree.

Every number names its clock.  ``sim`` is the simulated Trident-class
disk + CPU clock: deterministic, identical in every round of a run or
the run errors.  ``host`` is the Python process running the simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: the layers, top of the stack first: this repository's modules.
LAYERS = (
    "workloads", "fsd", "name_table", "btree", "cache", "data_cache",
    "txn", "group_commit", "wal", "checkpoint", "vam", "recovery",
    "sched", "disk", "clock",
)

#: workload -> why it is in the benchmark.
WORKLOADS = {
    "makedo_build": (
        "the paper's Table 3 client scaled up: serial, metadata-heavy; "
        "name_table, btree, cache and wal do most of the work, "
        "data_cache none"
    ),
    "traffic_steady": (
        "8 closed-loop clients at about half the simulated disk's "
        "capacity: latency is set by the commit timer, checkpointer and "
        "per-op service, not by queueing"
    ),
    "traffic_burst": (
        "1000 closed-loop clients, saturated: txn admission, parked-client "
        "wake-ups, deferred forces and third-entry stalls dominate"
    ),
    "read_stream": (
        "read-only streaming and random page reads through the data cache: "
        "bypasses wal, group_commit, txn and vam"
    ),
    "crash_recovery": (
        "20 crash and mount cycles on a 3000-file volume: the only "
        "workload that runs recovery, the log scan and the VAM rebuild"
    ),
}

#: seconds of timed rounds per invocation when ``--rounds`` is not
#: given (the driver's ``--seconds``).
RUN_SECONDS = 10

#: operation kinds ``workloads.ops_by_kind.*`` is reported for.
OP_KINDS = ("create", "write", "read", "delete", "list", "open", "force",
            "recover", "read_file", "gone", "probe")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str          # "sim" | "host"
    better: str         # "lower" | "higher"
    #: share of the parent's median (over ten seeds) by which the
    #: metric may worsen before the driver rejects a change; None for
    #: metrics the driver does not gate.
    bound: float | None = None


#: defined and never 0 on all five workloads: the driver's
#: ``end_to_end`` list.  Bounds on simulated metrics are sized from the
#: spread *across seeds* (see README, "Bounds"); at one seed simulated
#: metrics repeat exactly and ``--selfcheck`` demands just that.
GATED = (
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("host_wall_rel", "calib", "host", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10),
    Metric("sim_elapsed_s", "s", "sim", "lower", 0.15),
    Metric("sim_op_p50_ms", "ms", "sim", "lower", 0.25),
    Metric("sim_op_p99_ms", "ms", "sim", "lower", 0.25),
    Metric("disk_ios_per_op", "1/op", "sim", "lower", 0.15),
)

#: end-to-end too, but 0 by design or undefined on some workload, which
#: the driver's ``end_to_end`` list does not allow.  Printed with the
#: rest, held to "identical at one seed" by ``--selfcheck``, and handed
#: to the driver in the traced output as ``e2e.<name>``.
UNGATED = (
    Metric("sim_sync_p95_ms", "ms", "sim", "lower"),
    Metric("slo_miss_share", "share", "sim", "lower"),
    Metric("write_amp", "ratio", "sim", "lower"),
    Metric("recovery_sim_ms", "ms", "sim", "lower"),
    Metric("failed_op_share", "share", "sim", "lower"),
    Metric("lost_acked_files", "count", "sim", "lower"),
)

END_TO_END = GATED + UNGATED

#: where an end-to-end metric is undefined and reported as null: no
#: ``sync`` mutations outside the traffic engine, no user data written
#: by ``read_stream``, no crash outside ``crash_recovery``.
UNDEFINED_ON = {
    "sim_sync_p95_ms": ("makedo_build", "read_stream", "crash_recovery"),
    "write_amp": ("read_stream",),
    "recovery_sim_ms": ("makedo_build", "traffic_steady", "traffic_burst",
                        "read_stream"),
}


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out += [
            Metric(f"{layer}.calls", "count", "host", "lower"),
            Metric(f"{layer}.host_self_rel", "calib", "host", "lower"),
            Metric(f"{layer}.sim_self_ms", "ms", "sim", "lower"),
        ]
    host = [("host.wall_s", "s"), ("host.cpu_s", "s"), ("host.calib_s", "s"),
            ("host.py_calls", "count"), ("host.trace_overhead_share", "share"),
            ("host.trace_residual_s", "s")]
    out += [Metric(name, unit, "host", "lower") for name, unit in host]
    lower = [
        ("clock.cpu_busy_ms", "ms"), ("clock.disk_busy_ms", "ms"),
        ("clock.idle_ms", "ms"),
        ("disk.ios", "count"), ("disk.sectors_read", "count"),
        ("disk.sectors_written", "count"), ("disk.seek_ms", "ms"),
        ("disk.rotational_ms", "ms"), ("disk.transfer_ms", "ms"),
        ("disk.busy_share", "share"),
        ("sched.submitted", "count"), ("sched.dispatched", "count"),
        ("sched.max_queue_depth", "count"),
        ("btree.page_reads_per_lookup", "ratio"), ("btree.page_writes", "count"),
        ("cache.evictions", "count"), ("cache.dirty_writebacks", "count"),
        ("data_cache.evictions", "count"), ("data_cache.invalidations", "count"),
        ("txn.admission_waits", "count"), ("txn.commit_waits", "count"),
        ("commit.forces", "count"), ("commit.empty_force_share", "share"),
        ("commit.durable_p50_ms", "ms"),
        ("wal.sectors_logged", "count"), ("wal.sectors_per_update", "ratio"),
        ("wal.stall_ms", "ms"), ("wal.third_entries", "count"),
        ("wal.wraparounds", "count"),
        ("ckpt.ticks", "count"), ("ckpt.pages_written", "count"),
        ("vam.allocs", "count"), ("vam.sectors_allocated", "count"),
        ("recovery.records_replayed", "count"),
        ("recovery.pages_replayed", "count"),
        ("recovery.replay_sim_ms", "ms"), ("recovery.vam_sim_ms", "ms"),
        ("traffic.parked_peak", "count"),
    ]
    higher = [
        ("sched.coalesced_writes", "count"), ("sched.coalesced_reads", "count"),
        ("cache.hit_ratio", "ratio"), ("data_cache.hit_ratio", "ratio"),
        ("data_cache.readahead_accuracy", "ratio"),
        ("commit.batching_factor", "ratio"), ("ckpt.anchor_advances", "count"),
        ("workloads.ops", "count"),
    ]
    out += [Metric(name, unit, "sim", "lower") for name, unit in lower]
    out += [Metric(name, unit, "sim", "higher") for name, unit in higher]
    out.append(Metric("recovery.host_ms", "ms", "host", "lower"))
    out += [Metric(f"workloads.ops_by_kind.{kind}", "count", "sim", "higher")
            for kind in OP_KINDS]
    out += [Metric(f"e2e.{m.name}", m.unit, m.clock, m.better) for m in UNGATED]
    return tuple(out)


PER_LAYER = _per_layer()


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
