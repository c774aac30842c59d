"""One workload, measured in this process (the child ``run.py`` starts).

Sequence: a discarded warm-up round with the slow oracles, then timed
rounds with the null observer and a frozen heap, then — when per-layer
numbers are wanted — one traced round with an ``Observer`` attached
(the warm-up round then doubles as the call-counting pass).  Every
round builds a fresh volume from the same seed, so every round's
simulated numbers must be identical: across timed rounds, between a
cold and a warm process, and between untraced and traced.  Any
difference is an error, not noise.

The last line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time

from repro.core.verify import verify_volume
from repro.obs import Observer
from repro.obs.metrics import percentile

import calib
import layers
import workloads
from catalog import LAYERS, OP_KINDS, PER_LAYER
from trace import Target, Tracer


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


class Region:
    """Stopwatch and counters around one round's timed region.

    The round calls :meth:`interrupt` a dozen times while it runs; each
    time, and on entry and exit, the stopwatch is suspended for one
    slice of the calibration kernel.  ``wall_s`` and ``cpu_s`` cover
    the round's own work only; ``calib_s`` is the mean slice, in
    seconds per full kernel.
    """

    def __init__(self, round_) -> None:
        self.round = round_
        self.disk = round_.disk
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._slices: list[float] = []

    def _resume(self) -> None:
        self._slices.append(calib.slice_s())
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()

    def _suspend(self) -> None:
        self.wall_s += time.perf_counter() - self._wall0
        self.cpu_s += time.process_time() - self._cpu0

    def interrupt(self) -> None:
        self._suspend()
        self._resume()

    def __enter__(self) -> "Region":
        self.stats0 = self.disk.stats.copy()
        self.clock0 = self.disk.clock.snapshot()
        self._resume()
        return self

    def __exit__(self, *exc) -> None:
        self._suspend()
        self._slices.append(calib.slice_s())
        self.calib_s = statistics.fmean(self._slices)
        clock1 = self.disk.clock.snapshot()
        self.clock = {key: clock1[key] - self.clock0[key] for key in clock1}
        self.stats = self.disk.stats - self.stats0

    def simulated(self, name: str) -> dict:
        """Every simulated-clock number of the round: the end-to-end
        ``metrics``, their sample counts, and the raw disk and clock
        deltas (all compared between rounds, so a divergence anywhere
        in the simulation shows)."""
        outcome = self.round.outcome()
        limit = workloads.SLO_LIMIT_MS[name]
        slow = sum(1 for latency in outcome.latencies if latency > limit)
        sync = outcome.sync_latencies
        metrics = {
            "sim_elapsed_s": self.clock["now_ms"] / 1000.0,
            "sim_op_p50_ms": percentile(outcome.latencies, 0.50),
            "sim_op_p99_ms": percentile(outcome.latencies, 0.99),
            "sim_sync_p95_ms": percentile(sync, 0.95) if sync else None,
            "slo_miss_share": min(1.0, _share(slow + outcome.failed,
                                              outcome.attempted)),
            "disk_ios_per_op": _share(self.stats.total_ios, outcome.attempted),
            "write_amp": (
                self.stats.sectors_written / outcome.user_sectors_written
                if outcome.user_sectors_written else None
            ),
            "recovery_sim_ms": _median(outcome.recovery_ms),
            "failed_op_share": _share(outcome.failed, outcome.attempted),
            "lost_acked_files": outcome.lost_acked,
        }
        return {
            "metrics": metrics,
            "samples": {
                "ops": len(outcome.latencies),
                "sync_ops": len(sync) if sync else 0,
                "recoveries": len(outcome.recovery_ms),
                "attempted": outcome.attempted,
                "failed": outcome.failed,
            },
            "disk": self.stats.as_dict(),
            "clock": self.clock,
        }


def _oracles(round_) -> list[str]:
    """The slow checks, once per invocation, outside any timing."""
    problems = list(round_.audit())
    report = verify_volume(round_.fs)
    problems += [f"verify_volume: {problem}" for problem in report.problems]
    return problems


def _per_layer(region, tracer, gauges, obs_delta, untraced, py_calls) -> dict:
    """The traced round's numbers, by the names in ``catalog.PER_LAYER``."""
    summary = tracer.summary()
    functions = summary["functions"]
    counters = obs_delta.counters
    histograms = obs_delta.histograms
    outcome = region.round.outcome()

    def counter(key: str) -> float:
        return counters.get(key, 0.0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        row = summary["layers"][layer]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.host_self_rel"] = row["host_self_ns"] / 1e9 / region.calib_s
        out[f"{layer}.sim_self_ms"] = row["sim_self_ms"]
    if summary["root_sim_ms"] != region.clock["now_ms"]:
        raise RuntimeError(
            f"root span lasted {summary['root_sim_ms']} simulated ms, the "
            f"timed region {region.clock['now_ms']}"
        )
    host_self_s = sum(summary["layers"][layer]["host_self_ns"]
                      for layer in LAYERS) / 1e9
    traced_rel = region.wall_s / region.calib_s
    out.update({
        "host.wall_s": untraced["wall_s"],
        "host.cpu_s": untraced["cpu_s"],
        "host.calib_s": untraced["calib_s"],
        "host.py_calls": py_calls,
        "host.trace_overhead_share": traced_rel / untraced["wall_rel"] - 1.0,
        "host.trace_residual_s": region.wall_s - host_self_s,
    })
    elapsed = region.clock["now_ms"]
    stats = region.stats
    out.update({
        "clock.cpu_busy_ms": region.clock["cpu_busy_ms"],
        "clock.disk_busy_ms": region.clock["disk_busy_ms"],
        # cpu + disk + idle exceeds the elapsed time by the CPU work
        # that overlapped a transfer (charged without advancing time).
        "clock.idle_ms": functions["clock.advance_idle"]["sim_ms"],
        "disk.ios": stats.total_ios,
        "disk.sectors_read": stats.sectors_read,
        "disk.sectors_written": stats.sectors_written,
        "disk.seek_ms": stats.seek_ms,
        "disk.rotational_ms": stats.rotational_ms,
        "disk.transfer_ms": stats.transfer_ms,
        "disk.busy_share": _share(region.clock["disk_busy_ms"], elapsed),
        "sched.submitted": counter("sched.submitted"),
        "sched.dispatched": counter("sched.dispatched"),
        "sched.coalesced_writes": counter("sched.coalesced_writes"),
        "sched.coalesced_reads": counter("sched.coalesced_reads"),
        "sched.max_queue_depth": gauges["queue_peak"],
    })
    lookups = sum(functions[f"btree.{fn}"]["calls"]
                  for fn in ("get", "insert", "delete", "scan",
                             "scan_prefix", "scan_leaves"))
    data_lookups = counter("cache.data.hits") + counter("cache.data.misses")
    out.update({
        "btree.page_reads_per_lookup": _share(counter("btree.page_reads"), lookups),
        "btree.page_writes": counter("btree.page_writes"),
        "cache.hit_ratio": _share(counter("cache.hits"),
                                  counter("cache.hits") + counter("cache.misses")),
        "cache.evictions": counter("cache.evictions"),
        "cache.dirty_writebacks": counter("cache.dirty_writebacks"),
        "data_cache.hit_ratio": _share(counter("cache.data.hits"), data_lookups),
        "data_cache.evictions": counter("cache.data.evictions"),
        "data_cache.invalidations": counter("cache.data.invalidations"),
        "data_cache.readahead_accuracy": _share(
            counter("cache.data.readahead_used"),
            counter("cache.data.readahead_issued")),
    })
    absorbed_ops = histograms.get("commit.ops_absorbed")
    absorbed = absorbed_ops.total if absorbed_ops is not None else 0.0
    forces = counter("commit.forces")
    durable = histograms.get("commit.durable_latency_ms")
    out.update({
        "txn.admission_waits": counter("txn.admission_waits"),
        "txn.commit_waits": counter("txn.commit_waits"),
        "commit.forces": forces,
        "commit.batching_factor": _share(absorbed, forces),
        "commit.empty_force_share": _share(
            counter("commit.empty_forces"),
            forces + counter("commit.empty_forces")),
        "commit.durable_p50_ms": (durable.percentile(0.5)
                                  if durable is not None else 0.0),
        "wal.sectors_logged": counter("wal.sectors_logged"),
        "wal.sectors_per_update": _share(counter("wal.sectors_logged"), absorbed),
        "wal.stall_ms": counter("wal.stall_ms"),
        "wal.third_entries": counter("wal.third_entries"),
        "wal.wraparounds": counter("wal.wraparounds"),
        "ckpt.ticks": counter("ckpt.ticks"),
        "ckpt.pages_written": counter("ckpt.pages_written"),
        "ckpt.anchor_advances": counter("ckpt.anchor_advances"),
        "vam.allocs": counter("vam.allocs"),
        "vam.sectors_allocated": counter("vam.sectors_allocated"),
    })
    reports = outcome.mount_reports
    out.update({
        "recovery.records_replayed": counter("recovery.records_replayed"),
        "recovery.pages_replayed": counter("recovery.pages_replayed"),
        "recovery.replay_sim_ms": _median([r.replay_ms for r in reports]) or 0.0,
        "recovery.vam_sim_ms": _median([r.vam_ms for r in reports]) or 0.0,
        "recovery.host_ms": functions["fsd.mount"]["host_ns"] / 1e6,
        "workloads.ops": outcome.attempted,
        "traffic.parked_peak": gauges["parked_peak"],
    })
    for kind in OP_KINDS:
        out[f"workloads.ops_by_kind.{kind}"] = outcome.ops_by_kind.get(kind, 0)
    unknown = set(outcome.ops_by_kind) - set(OP_KINDS)
    if unknown:
        raise RuntimeError(f"operation kinds missing from the catalogue: {unknown}")
    names = [m.name for m in PER_LAYER if not m.name.startswith("e2e.")]
    if set(names) != set(out):
        raise RuntimeError(f"per-layer metrics and catalogue differ: "
                           f"{set(names) ^ set(out)}")
    return {name: out[name] for name in names}


def measure(args) -> dict:
    name, seed = args.workload, args.seed
    sizes = workloads.SIZES[args.scale]
    problems: list[str] = []

    def fresh(obs=None):
        """A new round, and its set-up time in seconds of a box on
        which the calibration kernel takes ``calib.REFERENCE_S``."""
        before = calib.slice_s()
        start = time.perf_counter()
        round_ = workloads.setup(name, seed, sizes, obs)
        wall = time.perf_counter() - start
        speed = (before + calib.slice_s()) / 2 / calib.REFERENCE_S
        return round_, wall / speed

    def compare(label: str, simulated: dict, reference: dict) -> None:
        if simulated != reference:
            differing = sorted(
                f"{group}.{key}"
                for group, values in reference.items()
                for key in values
                if simulated[group][key] != values[key]
            )
            problems.append(f"{label}: simulated numbers differ from the "
                            f"warm-up round's: {differing}")

    # Warm-up: fills the process-global memos and the allocator's
    # arenas; its numbers are the reference every later round must hit.
    # When per-layer numbers are wanted it also runs under cProfile's
    # C-level hook, which counts the Python calls of this (always
    # memo-cold) first round: a host-cost figure that repeats exactly.
    round_, _ = fresh()
    profile = cProfile.Profile(builtins=False) if args.layers else None
    with Region(round_) as region:
        if profile is None:
            round_.run()
        else:
            profile.runcall(round_.run)
    reference = region.simulated(name)
    py_calls = (sum(entry.callcount for entry in profile.getstats())
                if profile else None)
    del profile
    problems += _oracles(round_)
    del round_, region
    gc.collect()
    gc.freeze()

    rounds: list[dict] = []
    spent = 0.0

    def more_rounds() -> bool:
        if args.rounds:
            return len(rounds) < args.rounds
        return spent < args.seconds or len(rounds) < 3

    while more_rounds():
        started = time.perf_counter()
        round_, setup_s = fresh()
        with Region(round_) as region:
            round_.run(region.interrupt)
        compare(f"round {len(rounds) + 1}", region.simulated(name), reference)
        rounds.append({
            "setup_s": setup_s,
            "wall_s": region.wall_s,
            "cpu_s": region.cpu_s,
            "calib_s": region.calib_s,
            "host_wall_rel": region.wall_s / region.calib_s,
        })
        spent += time.perf_counter() - started
        del round_, region
        gc.collect()
    # Linux reports ru_maxrss in KiB.  Read before the traced round,
    # whose span columns are the benchmark's memory, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def column(key: str) -> list[float]:
        return [r[key] for r in rounds]

    host = {
        "setup_s": column("setup_s"),
        "host_wall_rel": column("host_wall_rel"),
        "peak_rss_mb": [peak_rss_mb],
    }
    document = {
        "workload": name,
        "seed": seed,
        "scale": args.scale,
        "rounds": len(rounds),
        "attempted": reference["samples"]["attempted"] * len(rounds),
        "failed": reference["samples"]["failed"] * len(rounds),
        "samples": reference["samples"],
        "simulated": reference["metrics"],
        "host": host,
        "host_raw": {key: column(key) for key in ("wall_s", "cpu_s", "calib_s")},
        "per_layer": None,
        "problems": problems,
    }
    if not args.layers:
        return document

    untraced = {key: statistics.median(column(key))
                for key in ("wall_s", "cpu_s", "calib_s")}
    untraced["wall_rel"] = statistics.median(column("host_wall_rel"))

    gauges = {"parked_peak": 0, "queue_peak": 0}
    # The calibration slices taken inside the root span are spans of a
    # layer of their own, so their host time is nobody's self time.
    tracer = Tracer(LAYERS + ("calibration",))
    tracer.install(layers.targets(gauges) + [
        Target("calibration", "slice_s", ((calib, "slice_s"),))])
    try:
        obs = Observer()
        round_, _ = fresh(obs)
        before = obs.snapshot()
        with Region(round_) as region:
            tracer.start(round_.disk.clock)
            try:
                round_.run(region.interrupt)
            finally:
                tracer.stop()
    finally:
        tracer.uninstall()
    obs_delta = obs.snapshot() - before
    compare("traced round", region.simulated(name), reference)

    document["per_layer"] = _per_layer(
        region, tracer, gauges, obs_delta, untraced, py_calls)
    document["trace"] = {
        "spans": len(tracer),
        "wall_s": region.wall_s,
        "calib_s": region.calib_s,
    }
    if args.trace_out:
        tracer.write_jsonl(args.trace_out)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SLO_LIMIT_MS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--rounds", type=int, default=0,
                        help="timed rounds (0: as many as --seconds holds, at least 3)")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--layers", action="store_true",
                        help="also count calls and run the traced round")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    document = measure(args)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
