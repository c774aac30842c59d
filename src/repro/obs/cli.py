"""The ``repro stats`` and ``repro trace`` subcommands.

Both mount an image with an :class:`~repro.obs.Observer` attached, run
the deterministic scripted workload, and report what the instrumented
layers saw:

* ``stats`` prints every metric grouped by layer (or ``--json`` for
  one JSONL record per metric),
* ``trace`` prints the span tree (or ``--json`` for the unified
  span + disk-I/O JSONL timeline).

Neither command saves the image back by default — they are probes, not
mutations — pass ``--save`` to keep the workload's effects.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.core.fsd import FSD
from repro.disk.image import load_disk, save_disk
from repro.mount_cli import add_mount_arguments, mount_options
from repro.obs.export import folded_stacks, metric_dicts, timeline, to_jsonl
from repro.obs.instrument import instrument
from repro.obs.metrics import HistogramSnapshot, Snapshot
from repro.obs.workload import run_scripted_workload


def _run(args, trace_io: bool):
    """Mount with an observer, run the workload, unmount; returns
    ``(fs, observer, tracer)``."""
    disk = load_disk(args.image)
    obs, tracer = instrument(disk, trace=trace_io)
    fs = FSD.mount(disk, obs=obs, options=mount_options(args))
    run_scripted_workload(fs, ops=args.ops)
    fs.unmount()
    if args.save:
        save_disk(disk, args.image)
    return fs, obs, tracer


def _fmt_value(value: float) -> str:
    return f"{value:g}"


def _print_stats_table(snapshot: Snapshot) -> None:
    for layer, metrics in sorted(snapshot.layers().items()):
        print(f"[{layer}]")
        for name, value in sorted(metrics.items()):
            if isinstance(value, HistogramSnapshot):
                buckets = " ".join(
                    f"{label}:{count}"
                    for label, count in value.nonzero_buckets()
                )
                print(
                    f"  {name:<32} count={value.count} "
                    f"mean={value.mean:.2f}  {buckets}"
                )
            else:
                print(f"  {name:<32} {_fmt_value(value)}")
        print()


def cmd_stats(args) -> int:
    """Run the scripted workload and report per-layer metrics."""
    fs, obs, _ = _run(args, trace_io=False)
    snapshot = obs.snapshot()
    # The invariant walk reads pages too: taken after the snapshot, so
    # the counters describe the workload alone.
    shape = fs.name_table.tree.check_invariants()
    snapshot.gauges.update(
        (f"btree.shape_{name}", value) for name, value in asdict(shape).items()
    )
    if args.json:
        print(to_jsonl(metric_dicts(snapshot)))
        return 0
    print(f"metrics after {args.ops} scripted ops on {args.image}:\n")
    _print_stats_table(snapshot)
    cache = snapshot.layers().get("cache", {})
    hits, misses = cache.get("cache.hits", 0), cache.get("cache.misses", 0)
    if hits + misses:
        # A prefetched page is a hit when the scan reads it, so misses
        # are demand misses only; the prefetch figure says how many of
        # the hits were bought with a bulk transfer.
        nt = snapshot.layers().get("nt", {})
        double_read = nt.get("nt.double_read_ms")
        miss_cost = (
            f"; double read: mean {double_read.mean:.1f} ms over "
            f"{double_read.count} pages"
            if isinstance(double_read, HistogramSnapshot) else ""
        )
        print(
            f"name table: {shape}; "
            f"{_fmt_value(hits + misses)} page reads through "
            f"the metadata cache, {hits / (hits + misses):.1%} hits, "
            f"{_fmt_value(misses)} demand misses; prefetch: "
            f"{_fmt_value(nt.get('nt.prefetch_pages', 0))} pages in "
            f"{_fmt_value(nt.get('nt.prefetch_transfers', 0))} transfers "
            f"({_fmt_value(nt.get('nt.prefetch_gap_sectors', 0))} gap "
            f"sectors){miss_cost}"
        )
    if "cache.pinned_pages" in cache:
        # Pinned pages are the log's, not the cache's: they do not
        # count against the reserve of clean pages eviction keeps.  A
        # cold eviction took a page a listing prefetched.
        print(
            f"metadata cache: {_fmt_value(cache['cache.pinned_pages'])} "
            f"pinned (peak {_fmt_value(cache['cache.pinned_peak'])}) of "
            f"{fs.cache.capacity}, reserve {fs.cache.reserve} held "
            f"{_fmt_value(cache.get('cache.reserve_holds', 0))} times, "
            f"{_fmt_value(cache.get('cache.misses_interior', 0))} of "
            f"{_fmt_value(misses)} misses interior, "
            f"{_fmt_value(cache.get('cache.evictions', 0))} evictions "
            f"({_fmt_value(cache.get('cache.cold_evictions', 0))} cold)"
        )
    data_hits = cache.get("cache.data.hits", 0)
    data_lookups = data_hits + cache.get("cache.data.misses", 0)
    if data_lookups:
        issued = cache.get("cache.data.readahead_issued", 0)
        windows = cache.get("cache.data.readahead_windows", 0)
        print(
            f"data cache: hit ratio {cache['cache.data.hit_ratio']:.1%} "
            f"({_fmt_value(data_hits)} of {_fmt_value(data_lookups)} "
            f"sectors), read-ahead accuracy "
            f"{cache.get('cache.data.readahead_accuracy', 0.0):.1%} "
            f"({_fmt_value(cache.get('cache.data.readahead_used', 0))} of "
            f"{_fmt_value(issued)} prefetched) in {_fmt_value(windows)} "
            f"windows of {issued / max(windows, 1):.1f} sectors"
        )
    commit = snapshot.layers().get("commit", {})
    absorbed = commit.get("commit.ops_absorbed")
    if isinstance(absorbed, HistogramSnapshot) and absorbed.count:
        print(
            f"group commit: batching factor {absorbed.mean:.2f} "
            f"updates/force over {absorbed.count} forces"
        )
    wal = snapshot.layers().get("wal", {})
    if "wal.third_entries" in wal:
        ckpt = snapshot.layers().get("ckpt", {})
        pages = ckpt.get("ckpt.pages_written", 0)
        suffix = (
            f"; checkpointer wrote {_fmt_value(pages)} pages in background"
            if ckpt else "; checkpointer off"
        )
        print(
            f"log stall: {wal.get('wal.stall_ms', 0.0):.2f} ms "
            f"write-home across {_fmt_value(wal['wal.third_entries'])} "
            f"third entries{suffix}"
        )
    recovery = snapshot.layers().get("recovery", {})
    if recovery.get("recovery.records_replayed") or recovery.get(
        "recovery.vam_rebuilds"
    ):
        if recovery.get("recovery.vam_sweep_mismatch"):
            vam = "VAM rebuilt by tree walk (sweep/tree entry counts differed)"
        elif recovery.get("recovery.vam_rebuilds"):
            swept = recovery.get("recovery.vam_sweep_pages", 0)
            vam = f"VAM rebuilt from {_fmt_value(swept)} swept name-table pages"
        else:
            vam = "VAM loaded"
        print(
            f"recovery: "
            f"{_fmt_value(recovery.get('recovery.records_replayed', 0))} "
            f"log records / "
            f"{_fmt_value(recovery.get('recovery.pages_replayed', 0))} "
            f"pages replayed, {vam}, "
            f"{_fmt_value(recovery.get('recovery.cache_warm_pages', 0))} "
            f"pages left warm in the metadata cache"
        )
    mount = fs.mount_report
    print(
        f"mount: {mount.total_ms:.1f} ms = root read "
        f"{mount.root_read_ms:.1f} + log scan {mount.scan_ms:.1f} + redo "
        f"{mount.redo_ms:.1f} + VAM {mount.vam_ms:.1f} + root write "
        f"{mount.root_write_ms:.1f}"
    )
    durable = commit.get("commit.durable_latency_ms")
    if isinstance(durable, HistogramSnapshot) and durable.count:
        print(
            "durable latency ms: "
            f"p50~{durable.percentile(0.50):.1f} "
            f"p95~{durable.percentile(0.95):.1f} "
            f"p99~{durable.percentile(0.99):.1f} "
            f"(bucket estimates, {durable.count} updates)"
        )
    return 0


def _print_span_tree(records) -> None:
    for record in sorted(records, key=lambda r: (r.start_ms, r.depth)):
        indent = "  " * record.depth
        attrs = ""
        if record.attrs:
            attrs = "  " + " ".join(
                f"{key}={value}" for key, value in sorted(record.attrs.items())
            )
        print(
            f"{record.start_ms:10.2f}ms {indent}{record.name} "
            f"({record.duration_ms:.2f}ms){attrs}"
        )


def cmd_trace(args) -> int:
    """Run the scripted workload and dump the span/I-O timeline."""
    _, obs, tracer = _run(args, trace_io=True)
    if args.folded:
        lines = folded_stacks(obs.span_records())
        text = "\n".join(lines)
        if args.out:
            Path(args.out).write_text(text + "\n")
            print(f"wrote {len(lines)} folded stacks to {args.out}")
        else:
            print(text)
        return 0
    if args.json:
        text = to_jsonl(timeline(obs.span_records(), tracer.events))
        if args.out:
            Path(args.out).write_text(text + "\n")
            print(f"wrote {len(text.splitlines())} records to {args.out}")
        else:
            print(text)
        return 0
    spans = obs.span_records()
    lost = tracer.totals()["lost_revolutions"]
    print(
        f"{len(spans)} spans, {len(tracer.events)} disk I/Os "
        f"({lost} lost revolutions) over "
        f"{args.ops} scripted ops on {args.image}:\n"
    )
    _print_span_tree(spans)
    return 0


def _add_shared_arguments(p) -> None:
    """``--save`` and the mount options ``stats`` and ``trace`` share."""
    p.add_argument("--save", action="store_true",
                   help="save the image back after the workload")
    add_mount_arguments(p)


def add_subparsers(sub) -> None:
    """Register ``stats`` and ``trace`` on the main argument parser."""
    p = sub.add_parser(
        "stats",
        help="run a scripted workload and print per-layer metrics",
    )
    p.add_argument("image")
    p.add_argument("--ops", type=int, default=100,
                   help="scripted operations to run (default 100)")
    p.add_argument("--json", action="store_true",
                   help="emit one JSONL record per metric")
    _add_shared_arguments(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "trace",
        help="run a scripted workload and dump the span/IO timeline",
    )
    p.add_argument("image")
    p.add_argument("--ops", type=int, default=25,
                   help="scripted operations to run (default 25)")
    p.add_argument("--json", action="store_true",
                   help="emit the unified JSONL timeline")
    p.add_argument("--folded", action="store_true",
                   help="emit flamegraph folded stacks (exclusive "
                        "simulated time per span path, microseconds)")
    p.add_argument("--out",
                   help="with --json/--folded, write to this file")
    _add_shared_arguments(p)
    p.set_defaults(fn=cmd_trace)
