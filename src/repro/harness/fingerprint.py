"""Bit-identity fingerprints of a simulated run.

The raw-speed work (extent-batched I/O, precomputed timing tables,
cache bookkeeping) is only allowed to change *wall-clock* time: the
simulated clock, the bytes on the platter, the label fields, the disk
op counters, and every obs metric must come out bit-identical on the
same seed.  A fingerprint collapses all of that into a few stable
hashes so a before/after comparison is one string compare instead of
an eyeball diff.

``BENCH_runtime.json`` commits the wall-clock numbers; this module
commits the *correctness* side of the same bargain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def disk_digest(disk) -> str:
    """SHA-256 over every stored sector and label, address-ordered.

    Reads the storage dicts directly (like :mod:`repro.disk.image`),
    so the digest is independent of how sectors were written.
    Unwritten sectors are implicit zeros on the simulated drive and do
    not contribute; a refactor that materialises explicit zero sectors
    would change the digest, so storage must stay sparse.
    """
    h = hashlib.sha256()
    for address in sorted(disk._data):
        h.update(address.to_bytes(4, "big"))
        h.update(disk._data[address])
    h.update(b"|labels|")
    for address in sorted(disk._labels):
        h.update(address.to_bytes(4, "big"))
        h.update(disk._labels[address])
    return h.hexdigest()


def stats_digest(stats) -> str:
    """Stable rendering of every DiskStats field."""
    fields = sorted(vars(stats).items())
    return ";".join(f"{name}={value!r}" for name, value in fields)


def metrics_digest(obs) -> str:
    """SHA-256 over the sorted counter/gauge snapshot of ``obs``.

    Histograms are included via their counts and sums; the null
    observer hashes to a fixed empty string.
    """
    snap = obs.snapshot()
    h = hashlib.sha256()
    for name in sorted(snap.counters):
        h.update(f"c:{name}={snap.counters[name]!r};".encode())
    for name in sorted(snap.gauges):
        h.update(f"g:{name}={snap.gauges[name]!r};".encode())
    for name in sorted(snap.histograms):
        hist = snap.histograms[name]
        h.update(
            f"h:{name}={hist.total!r}/{tuple(hist.counts)};".encode()
        )
    return h.hexdigest()


@dataclass(frozen=True)
class RunFingerprint:
    """Everything a speed refactor must hold constant."""

    sim_now_ms: float
    cpu_busy_ms: float
    disk_busy_ms: float
    disk_sha256: str
    stats: str
    metrics_sha256: str

    def as_dict(self) -> dict:
        """JSON-friendly rendering, stable key order."""
        return {
            "sim_now_ms": self.sim_now_ms,
            "cpu_busy_ms": self.cpu_busy_ms,
            "disk_busy_ms": self.disk_busy_ms,
            "disk_sha256": self.disk_sha256,
            "stats": self.stats,
            "metrics_sha256": self.metrics_sha256,
        }


def fingerprint(disk, obs=None) -> RunFingerprint:
    """Fingerprint a finished run on ``disk`` (obs optional)."""
    from repro.obs import NULL_OBS

    return RunFingerprint(
        sim_now_ms=disk.clock.now_ms,
        cpu_busy_ms=disk.clock.cpu_busy_ms,
        disk_busy_ms=disk.clock.disk_busy_ms,
        disk_sha256=disk_digest(disk),
        stats=stats_digest(disk.stats),
        metrics_sha256=metrics_digest(obs if obs is not None else NULL_OBS),
    )


def makedo_fingerprint(scale=None, modules: int = 60, **mount) -> RunFingerprint:
    """Run the makedo workload on a fresh volume and fingerprint it.

    The canonical bit-identity probe: FULL scale ("t300") with an
    :class:`~repro.obs.Observer` attached, so simulated time, platter
    bytes, op counters and metrics are all covered by one call.
    """
    from repro.core.fsd import FSD
    from repro.disk.disk import SimDisk
    from repro.harness.adapters import FsdAdapter
    from repro.harness.scenarios import FULL
    from repro.obs import Observer
    from repro.workloads.makedo import MakeDoWorkload

    if scale is None:
        scale = FULL
    disk = SimDisk(geometry=scale.geometry)
    FSD.format(disk, scale.fsd_params)
    obs = Observer(disk.clock)
    fs = FSD.mount(disk, obs=obs, **mount)
    adapter = FsdAdapter(fs)
    workload = MakeDoWorkload(modules=modules)
    workload.setup(adapter)
    workload.run(adapter)
    fs.unmount()
    return fingerprint(disk, obs)
