"""Capture bit-identity fingerprints for the three canonical scenarios.

Usage: PYTHONPATH=src python tools/capture_fingerprints.py [out.json]
           [--readahead N]

Run before and after a speed refactor; the two JSON documents must be
byte-identical (the contract harness/fingerprint.py encodes).
``--readahead 0`` mounts every scenario as ``PAPER``, the paper's mount
(a disk request per page read), whose fingerprints predate the
read-ahead buffer of the default mount.  Fingerprints are per on-disk
format: the document's first key is the format name
(``core.layout.FORMAT``), so comparing captures from two formats fails
on that one line instead of on every number.

Both captures are committed, as ``benchmarks/baselines/fingerprints.json``
and ``benchmarks/baselines/fingerprints_paper.json``; CI captures both
again and compares them with ``cmp``.  A change that moves simulated
time on purpose re-captures both, from the repository root, and says
so::

    PYTHONPATH=src python tools/capture_fingerprints.py benchmarks/baselines/fingerprints.json
    PYTHONPATH=src python tools/capture_fingerprints.py benchmarks/baselines/fingerprints_paper.json --readahead 0

The documents do not depend on the hash seed (``PYTHONHASHSEED``).
"""

from __future__ import annotations

import argparse
import json

from repro.core.fsd import FSD
from repro.core.layout import FORMAT
from repro.disk.disk import SimDisk
from repro.harness.fingerprint import fingerprint, makedo_fingerprint
from repro.harness.scenarios import FULL
from repro.obs import Observer
from repro.workloads.chaos import run_chaos
from repro.workloads.traffic import TrafficConfig, TrafficEngine


def traffic_fingerprint(
    clients: int = 1000, ops_per_client: int = 2, **mount
) -> dict:
    disk = SimDisk(geometry=FULL.geometry)
    FSD.format(disk, FULL.fsd_params)
    obs = Observer(disk.clock)
    fs = FSD.mount(disk, obs=obs, **mount)
    config = TrafficConfig(
        clients=clients,
        ops_per_client=ops_per_client,
        seed=1987,
        arrival="poisson",
        mean_think_ms=200.0,
        hold_ms=1.0,
        sync_fraction=0.1,
        population=40,
        shared_fraction=0.5,
    )
    report = TrafficEngine(fs, config).run()
    fs.unmount()
    doc = fingerprint(disk, obs).as_dict()
    doc["report_elapsed_ms"] = report.elapsed_ms
    doc["report_batching"] = report.batching_factor
    return doc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default="fingerprints.json")
    parser.add_argument("--readahead", type=int, default=None, metavar="N",
                        help="mount with this read-ahead window "
                             "(default: the mount's own)")
    args = parser.parse_args()
    mount = (
        {} if args.readahead is None else {"readahead_pages": args.readahead}
    )
    out = args.out
    scenarios = {
        "makedo": makedo_fingerprint(**mount).as_dict(),
        "traffic_1000": traffic_fingerprint(**mount),
        "chaos_default": run_chaos(**mount).as_dict(),
    }
    # Keys sorted at every level, except that the format leads.
    doc = {"format": FORMAT}
    doc.update(json.loads(json.dumps(scenarios, sort_keys=True)))
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
