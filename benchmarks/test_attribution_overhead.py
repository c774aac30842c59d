"""Attribution overhead gate — what tracing costs the host, exactly.

The latency-attribution layer records on the simulated clock, so an
attributed run is bit-identical to a plain one in simulated time; the
only cost it may impose is on the *host*.  This benchmark runs the
small traffic baseline both ways and asserts:

* the attributed run makes at most ``BENCH_ATTRIB_OVERHEAD_LIMIT``
  (default 1.15) times the calls of the plain run — counted with
  ``cProfile`` the way the end-to-end benchmark counts
  ``host.py_calls``, builtins included because they are half of what
  the recorder adds, so the figure is exact for a given interpreter
  (+12.4 %: 247 947 -> 278 610 calls when the gate was set),
* a plain (``NULL_OBS``) run emits **zero** attribution records,
* both runs land on identical simulated clocks.

The wall-clock ratio is printed and recorded next to it but not gated:
the runs take ~65 ms, and best-of-N over interleaved rounds (after a
discarded warmup pair) still leaves it a few percent of noise either
side of the real x1.13.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from pathlib import Path

from repro.core.fsd import FSD
from repro.disk.disk import SimDisk
from repro.harness.scenarios import SMALL
from repro.obs import NULL_OBS, NullObserver
from repro.obs.attribution import AttributionRecorder
from repro.workloads.traffic import TrafficConfig, TrafficEngine

REPO_ROOT = Path(__file__).resolve().parent.parent

OUT_PATH = Path(
    os.environ.get(
        "BENCH_ATTRIB_OUT", REPO_ROOT / "BENCH_attribution_overhead.json"
    )
)
OVERHEAD_LIMIT = float(
    os.environ.get("BENCH_ATTRIB_OVERHEAD_LIMIT", "1.15")
)
ROUNDS = int(os.environ.get("BENCH_ATTRIB_ROUNDS", "5"))
OPS_TOTAL = int(os.environ.get("BENCH_ATTRIB_OPS", "600"))

SEED = 1987


def _config() -> TrafficConfig:
    return TrafficConfig(
        clients=10,
        ops_per_client=max(1, OPS_TOTAL // 10),
        seed=SEED,
        sync_fraction=0.1,
        hold_ms=1.0,
        population=20,
    )


def _run(attrib: bool) -> tuple[float, float, int]:
    """One run; returns (wall_s, sim_clock_ms, traces_recorded)."""
    disk = SimDisk(geometry=SMALL.geometry)
    FSD.format(disk, SMALL.fsd_params)
    if attrib:
        obs = NullObserver()
        obs.attribution = AttributionRecorder()
        fs = FSD.mount(disk, obs=obs)
    else:
        fs = FSD.mount(disk)
    engine = TrafficEngine(fs, _config())
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    clock_ms = fs.clock.now_ms
    recorder = getattr(fs.obs, "attribution", None)
    traces = len(recorder.traces) if recorder is not None else 0
    fs.unmount()
    return wall, clock_ms, traces


def _py_calls(attrib: bool) -> int:
    """Calls one whole run makes — format, mount, traffic, unmount.
    Exact once the process is warm (the first run of each kind fills
    module-level memo tables and makes ~1 % more)."""
    profile = cProfile.Profile()
    profile.runcall(_run, attrib)
    return sum(entry.callcount for entry in profile.getstats())


def test_attribution_overhead(once):
    def run():
        _run(attrib=False)  # discarded warmup pair: caches, allocator,
        _run(attrib=True)  # and JIT-ish dict warmups hit both equally
        plain, attributed = [], []
        for _ in range(ROUNDS):
            plain.append(_run(attrib=False))
            attributed.append(_run(attrib=True))
        return plain, attributed

    plain, attributed = once(run)
    best_plain = min(r[0] for r in plain)
    best_attrib = min(r[0] for r in attributed)
    wall_ratio = best_attrib / best_plain if best_plain else 1.0
    plain_calls, attrib_calls = _py_calls(False), _py_calls(True)
    ratio = attrib_calls / plain_calls

    document = {
        "benchmark": "attribution_overhead",
        "rounds": ROUNDS,
        "ops_total": OPS_TOTAL,
        "seed": SEED,
        "plain_py_calls": plain_calls,
        "attrib_py_calls": attrib_calls,
        "overhead_ratio": round(ratio, 4),
        "limit": OVERHEAD_LIMIT,
        "plain_best_wall_s": round(best_plain, 6),
        "attrib_best_wall_s": round(best_attrib, 6),
        "wall_ratio": round(wall_ratio, 4),
        "traces_recorded": attributed[0][2],
    }
    OUT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(
        f"attribution overhead: {plain_calls} -> {attrib_calls} calls "
        f"(x{ratio:.3f}, limit x{OVERHEAD_LIMIT}); wall plain "
        f"{best_plain * 1000:.1f} ms, attributed "
        f"{best_attrib * 1000:.1f} ms (x{wall_ratio:.3f}, not gated); "
        f"wrote {OUT_PATH}"
    )

    # NULL_OBS (detached) runs record nothing — the zero-overhead
    # contract starts with zero records.
    assert NULL_OBS.attribution is None
    for wall, _clock, traces in plain:
        assert traces == 0

    # Attribution never touches the simulated clock.
    plain_clocks = {r[1] for r in plain}
    attrib_clocks = {r[1] for r in attributed}
    assert plain_clocks == attrib_clocks, (
        f"attribution changed simulated time: {plain_clocks} vs "
        f"{attrib_clocks}"
    )

    # Every issued op produced a trace in the attributed runs.
    assert attributed[0][2] == OPS_TOTAL // 10 * 10

    # The gate itself.
    assert ratio <= OVERHEAD_LIMIT, (
        f"attribution makes x{ratio:.3f} the calls of a plain run, "
        f"over the x{OVERHEAD_LIMIT} limit"
    )
