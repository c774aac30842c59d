"""Command-line interface: an FSD volume in a disk-image file.

    python -m repro mkfs vol.img [--size {small,t300}]
    python -m repro put vol.img LOCAL_FILE FSD_NAME [--crash]
    python -m repro get vol.img FSD_NAME [LOCAL_FILE]
    python -m repro ls vol.img [PREFIX]
    python -m repro rm vol.img FSD_NAME
    python -m repro info vol.img
    python -m repro verify vol.img
    python -m repro crashcheck [--scenario NAME] [--max-points N]
    python -m repro stats vol.img [--ops N] [--json]
    python -m repro trace vol.img [--ops N] [--json|--folded] [--out FILE]
    python -m repro traffic vol.img [--clients N] [--attrib] [--slo-ms MS]
    python -m repro bench diff BEFORE.json AFTER.json [--fail-over FRAC]
    python -m repro salvage vol.img rebuilt.img
    python -m repro soak [--seed N] [--runs N] [--json FILE]
    python -m repro chaos [--clients N] [--faults N] [--mirror] [--json FILE]

Each command loads the image, mounts the volume (recovering it if the
last session crashed), performs the operation, unmounts cleanly, and
saves the image back.  ``put --crash`` deliberately skips the unmount
and saves a dirty image — run any other command next to watch log redo
and VAM reconstruction happen.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.fsd import FSD
from repro.core.layout import VolumeParams
from repro.core.verify import verify_volume
from repro.disk.disk import SimDisk
from repro.disk.geometry import TRIDENT_T300
from repro.disk.image import load_disk, save_disk
from repro.errors import ReproError
from repro.mount_cli import add_mount_arguments, mount_options


def _mount(args, obs=None) -> tuple[SimDisk, FSD]:
    disk = load_disk(args.image)
    fs = FSD.mount(disk, obs=obs, options=mount_options(args))
    report = fs.mount_report
    if report.log_records_replayed or report.vam_rebuild_entries:
        print(
            f"(recovered: {report.log_records_replayed} log records "
            f"replayed, VAM {'loaded' if report.vam_loaded else 'rebuilt'}, "
            f"{report.total_ms / 1000:.1f} simulated s)"
        )
    return disk, fs


def _finish(disk: SimDisk, fs: FSD, path: str, crash: bool = False) -> None:
    if crash:
        fs.crash()
        print("crashed without unmounting (volume left dirty)")
    else:
        fs.unmount()
    save_disk(disk, path)


def cmd_mkfs(args) -> int:
    if args.size == "t300":
        geometry, params = TRIDENT_T300, VolumeParams()
    else:
        from repro.harness.scenarios import SMALL

        geometry, params = SMALL.geometry, SMALL.fsd_params
    disk = SimDisk(geometry=geometry)
    FSD.format(disk, params)
    written = save_disk(disk, args.image)
    print(
        f"formatted {geometry.total_bytes // 2**20} MB FSD volume "
        f"({written} image bytes) at {args.image}"
    )
    return 0


def cmd_put(args) -> int:
    data = Path(args.local).read_bytes()
    disk, fs = _mount(args)
    handle = fs.create(args.name, data)
    print(
        f"wrote {args.name}!{handle.version} "
        f"({handle.byte_size} bytes, {len(handle.runs.runs)} runs)"
    )
    _finish(disk, fs, args.image, crash=args.crash)
    return 0


def cmd_get(args) -> int:
    disk, fs = _mount(args)
    handle = fs.open(args.name)
    data = fs.read(handle)
    if args.local:
        Path(args.local).write_bytes(data)
        print(f"read {handle.name}!{handle.version} -> {args.local}")
    else:
        sys.stdout.buffer.write(data)
    _finish(disk, fs, args.image)
    return 0


def cmd_ls(args) -> int:
    disk, fs = _mount(args)
    entries = fs.list(args.prefix or "")
    for props in entries:
        print(
            f"{props.byte_size:>10}  v{props.version:<3} "
            f"{props.kind.name.lower():<7} {props.name}"
        )
    print(f"{len(entries)} file(s)")
    _finish(disk, fs, args.image)
    return 0


def cmd_rm(args) -> int:
    disk, fs = _mount(args)
    props = fs.delete(args.name)
    print(f"deleted {props.name}!{props.version}")
    _finish(disk, fs, args.image)
    return 0


def cmd_info(args) -> int:
    disk, fs = _mount(args)
    geo = disk.geometry
    print(f"geometry : {geo.cylinders} cyl x {geo.heads} heads x "
          f"{geo.sectors_per_track} sectors ({geo.total_bytes // 2**20} MB)")
    print(f"boot     : #{fs.boot_count}")
    print(f"free     : {fs.vam.free_count} of {geo.total_sectors} sectors")
    print(f"params   : nt_pages={fs.params.nt_pages} "
          f"log={fs.params.log_record_sectors} sectors "
          f"commit={fs.params.commit_interval_ms:.0f} ms")
    files = fs.list()
    print(f"files    : {len(files)}")
    _finish(disk, fs, args.image)
    return 0


def cmd_verify(args) -> int:
    disk, fs = _mount(args)
    report = verify_volume(fs)
    print(
        f"checked {report.files_checked} files, "
        f"{report.leaders_verified} leaders, "
        f"{report.nt_shape.nodes if report.nt_shape else 0} name-table pages; "
        f"{report.leaked_sectors} leaked sectors"
    )
    if report.nt_shape is not None:
        print(f"name table: {report.nt_shape}")
    if report.clean:
        print("volume is clean")
        status = 0
    else:
        for problem in report.problems:
            print(f"PROBLEM: {problem}")
        status = 1
    _finish(disk, fs, args.image)
    return status


def cmd_traffic(args) -> int:
    import json

    from repro.workloads.traffic import TrafficConfig, TrafficEngine

    config = TrafficConfig(
        clients=args.clients,
        ops_per_client=args.ops,
        seed=args.seed,
        arrival=args.arrival,
        mean_think_ms=args.think_ms,
        population=args.population,
        shared_fraction=args.shared_fraction,
        hold_ms=args.hold_ms,
        sync_fraction=args.sync_fraction,
        slo_ms=args.slo_ms,
    )
    obs = None
    if args.attrib:
        # Attribution rides a fresh detached observer (metrics stay
        # off): the recorder alone is attached, so the run's simulated
        # times and disk state remain bit-identical to a plain run.
        from repro.obs import NullObserver
        from repro.obs.attribution import AttributionRecorder

        obs = NullObserver()
        obs.attribution = AttributionRecorder()
    disk, fs = _mount(args, obs)
    engine = TrafficEngine(fs, config)
    report = engine.run()
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    fs.unmount()
    if args.save:
        save_disk(disk, args.image)
    if args.slo_ms is not None:
        p95 = report.latency.get("p95_ms", 0.0)
        if p95 > args.slo_ms:
            print(
                f"SLO VIOLATION: p95 {p95:.2f} ms > {args.slo_ms:.2f} ms",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_salvage(args) -> int:
    from repro.core.salvage import salvage_volume

    source = load_disk(args.image)
    destination, report = salvage_volume(source)
    written = save_disk(destination, args.out)
    print(report.summary())
    for label, reason in report.lost:
        print(f"LOST: {label}: {reason}")
    print(f"salvaged volume saved to {args.out} ({written} image bytes)")
    return 0 if not report.lost else 1


def cmd_soak(args) -> int:
    import json

    from repro.crashcheck.soak import SoakConfig, run_campaign

    config = SoakConfig(
        seed=args.seed,
        runs=args.runs,
        ops_per_run=args.ops,
        faults_per_run=args.faults,
    )

    def progress(done, total, result) -> None:
        faults = sum(result.faults.values())
        print(
            f"run {done:>3}/{total}: {result.verdict:<9} "
            f"({result.ops} ops, {faults} faults, "
            f"{result.crashes} crashes, "
            f"{result.files_verified} files verified)"
        )

    report = run_campaign(config, progress=progress if not args.quiet else None)
    print(report.summary())
    for finding in report.silent_corruptions:
        print(f"SILENT CORRUPTION: {finding}")
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json(), indent=2))
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    from repro.workloads.chaos import ChaosConfig, run_chaos
    from repro.workloads.traffic import TrafficConfig

    traffic = TrafficConfig(
        clients=args.clients,
        ops_per_client=args.ops,
        seed=args.seed,
        mean_think_ms=args.think_ms,
        sync_fraction=args.sync_fraction,
        max_file_bytes=8_000,
        settle=False,
        max_retries=args.max_retries,
        deadline_ms=args.deadline_ms,
        slo_ms=args.slo_ms,
    )
    chaos = ChaosConfig(
        faults=args.faults,
        fault_interval_ms=args.fault_interval_ms,
        crash_cycles=args.crashes,
        mirror=args.mirror,
    )
    report = run_chaos(traffic, chaos, options=mount_options(args))
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"report written to {args.json}")
    if args.bench:
        import json

        from repro.workloads.chaos import chaos_bench_doc

        Path(args.bench).write_text(
            json.dumps(chaos_bench_doc(report), indent=2)
        )
        print(f"bench doc written to {args.bench}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FSD (Cedar-FS-with-logging) volumes in image files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mkfs", help="format a new volume image")
    p.add_argument("image")
    p.add_argument("--size", choices=["small", "t300"], default="small")
    p.set_defaults(fn=cmd_mkfs)

    p = sub.add_parser("put", help="copy a local file into the volume")
    p.add_argument("image")
    p.add_argument("local")
    p.add_argument("name")
    p.add_argument("--crash", action="store_true",
                   help="simulate a crash instead of unmounting")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_put)

    p = sub.add_parser("get", help="copy a file out of the volume")
    p.add_argument("image")
    p.add_argument("name")
    p.add_argument("local", nargs="?")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_get)

    p = sub.add_parser("ls", help="list files")
    p.add_argument("image")
    p.add_argument("prefix", nargs="?")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_ls)

    p = sub.add_parser("rm", help="delete a file")
    p.add_argument("image")
    p.add_argument("name")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_rm)

    p = sub.add_parser("info", help="volume information")
    p.add_argument("image")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("verify", help="offline integrity check")
    p.add_argument("image")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "salvage",
        help="rebuild a damaged volume into a fresh image (offline)",
    )
    p.add_argument("image", help="damaged source image (read-only)")
    p.add_argument("out", help="destination image for the rebuilt volume")
    p.set_defaults(fn=cmd_salvage)

    p = sub.add_parser(
        "traffic",
        help="multi-client simulated-time traffic run with latency "
             "percentiles and commit batching",
    )
    p.add_argument("image")
    p.add_argument("--clients", type=int, default=10)
    p.add_argument("--ops", type=int, default=40,
                   help="operations per client (default: 40)")
    p.add_argument("--seed", type=int, default=1987)
    p.add_argument("--arrival", choices=["poisson", "bursty", "uniform"],
                   default="poisson",
                   help="client think-time process (default: poisson)")
    p.add_argument("--think-ms", type=float, default=200.0,
                   help="mean think time between a client's operations "
                        "(default: 200)")
    p.add_argument("--population", type=int, default=40,
                   help="shared files created before the run "
                        "(default: 40)")
    p.add_argument("--shared-fraction", type=float, default=0.5,
                   help="reads/writes aimed at shared files "
                        "(default: 0.5)")
    p.add_argument("--hold-ms", type=float, default=1.0,
                   help="client processing inside each bracket "
                        "(default: 1)")
    p.add_argument("--sync-fraction", type=float, default=0.0,
                   help="mutations that wait for durability "
                        "(default: 0)")
    p.add_argument("--slo-ms", type=float, default=None,
                   help="exit 1 when p95 op latency exceeds this; "
                        "with --attrib, also diagnose each violation's "
                        "dominant phase")
    p.add_argument("--attrib", action="store_true",
                   help="record per-op causal traces and report "
                        "per-phase latency attribution")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--save", action="store_true",
                   help="save the image back after the run")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_traffic)

    p = sub.add_parser(
        "soak", help="seeded multi-fault soak campaign with recovery oracle"
    )
    p.add_argument("--seed", type=int, default=1987)
    p.add_argument("--runs", type=int, default=12)
    p.add_argument("--ops", type=int, default=30,
                   help="operations per run (default: 30)")
    p.add_argument("--faults", type=int, default=18,
                   help="faults injected per run (default: 18)")
    p.add_argument("--json", metavar="PATH",
                   help="write the campaign report as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-run progress lines")
    p.set_defaults(fn=cmd_soak)

    p = sub.add_parser(
        "chaos",
        help="fault injection under live multi-client traffic, with "
             "the client error contract and recovery oracle",
    )
    p.add_argument("--clients", type=int, default=32)
    p.add_argument("--ops", type=int, default=12,
                   help="operations per client (default: 12)")
    p.add_argument("--seed", type=int, default=1987)
    p.add_argument("--faults", type=int, default=120,
                   help="faults injected during the run (default: 120)")
    p.add_argument("--fault-interval-ms", type=float, default=60.0,
                   help="simulated ms between injections (default: 60)")
    p.add_argument("--crashes", type=int, default=3,
                   help="mid-run crash/recover cycles (default: 3)")
    p.add_argument("--mirror", action="store_true",
                   help="run on a shadowed pair and lose one unit "
                        "mid-run")
    p.add_argument("--think-ms", type=float, default=150.0,
                   help="mean client think time (default: 150)")
    p.add_argument("--sync-fraction", type=float, default=0.25,
                   help="mutations that wait for durability "
                        "(default: 0.25)")
    p.add_argument("--max-retries", type=int, default=4,
                   help="per-op retry budget (default: 4)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-op deadline; exceeding it resolves the op "
                        "as a typed timeout (default: none)")
    p.add_argument("--slo-ms", type=float, default=None,
                   help="latency bar for time-to-restored-SLO "
                        "(default: 50)")
    p.add_argument("--json", metavar="PATH",
                   help="write the campaign report as JSON")
    p.add_argument("--bench", metavar="PATH",
                   help="write the flat bench-gating doc as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the summary lines")
    add_mount_arguments(p)
    p.set_defaults(fn=cmd_chaos)

    from repro.crashcheck.cli import add_subparser as add_crashcheck
    from repro.harness.benchdiff import add_subparser as add_bench
    from repro.obs.cli import add_subparsers as add_obs

    add_crashcheck(sub)
    add_obs(sub)
    add_bench(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
